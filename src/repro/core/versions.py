"""Structure versions (Definition 9) and their inference.

A structure version ``V = <VSid, {D1,V, ..., Dn,V}, ti, tf>`` is a *valid
and unchanged* structure over its valid time: each ``Di,V`` is the
restriction of the temporal dimension ``Di`` to the elements valid for **all**
``t`` in ``[ti, tf]``.

The paper notes structure versions "partition history and … can be inferred
from the TMD Schema, as the intersections of the valid time intervals of all
Member Versions and Temporal Relationships".  :func:`infer_structure_versions`
implements exactly that: collect the critical instants of every dimension,
cut history at them, and restrict each dimension to every maximal span in
one sweep (:meth:`TemporalDimension.restrictions`).
A version is also the one place its structure is resolved, memoized on
the immutable version and so shared by everything that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.observability import runtime as _obs

from .chronology import NOW, Instant, Interval
from .dimension import DimensionSnapshot, TemporalDimension
from .errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .schema import TemporalMultidimensionalSchema

__all__ = ["StructureVersion", "infer_structure_versions", "levels_across"]


@dataclass(frozen=True)
class StructureVersion:
    """One maximal span over which the multidimensional structure is fixed.

    Attributes
    ----------
    vsid:
        Unique identifier (``"V1"``, ``"V2"``, ... in chronological order).
    valid_time:
        The span ``[ti, tf]`` (``tf`` may be ``NOW`` for the live version).
    dimensions:
        Per-dimension restrictions ``Di,V`` (Definition 9).

    Concurrent first readers may each build a memo entry; the builds are
    equal.
    """

    vsid: str
    valid_time: Interval
    dimensions: Mapping[str, TemporalDimension]
    _snapshots: dict[str, DimensionSnapshot] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _labels: dict[tuple[str, str], Mapping[str, tuple[object, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def dimension(self, did: str) -> TemporalDimension:
        """The restriction of dimension ``did`` to this version."""
        try:
            return self.dimensions[did]
        except KeyError:
            raise ModelError(
                f"structure version {self.vsid!r} has no dimension {did!r}"
            ) from None

    def snapshot(self, did: str) -> DimensionSnapshot:
        """``D`` of dimension ``did`` at the span's start.  The structure
        is constant over the span, so this is ``D(t)`` for every ``t`` in
        it (§3.1)."""
        if did not in self._snapshots:
            self._snapshots[did] = self.dimension(did).at(self.valid_time.start)
        return self._snapshots[did]

    def level_labels(self, did: str, level: str) -> Mapping[str, tuple[object, ...]]:
        """Member version id → the names of its ancestors-or-self at
        ``level``, sorted by id, or ``(None,)`` when none sits there; empty
        when ``did`` has no such level.  Built from one ``levels()`` walk,
        under a ``structure.labels`` span."""
        if (did, level) in self._labels:
            return self._labels[did, level]
        snap = self.snapshot(did)
        attributes = {"mode": self.vsid, "dimension": did, "level": level}
        with _obs.current_tracer().span("structure.labels", attributes=attributes) as span:
            level_ids = set(snap.levels().get(level, ()))
            labels = {}
            for mvid in snap.members if level_ids else ():
                hits = sorted(({mvid} | snap.ancestors(mvid)) & level_ids)
                labels[mvid] = tuple(snap.member(h).name for h in hits) if hits else (None,)
            span.set("members", len(labels))
        self._labels[did, level] = labels
        return labels

    def leaf_ids(self, did: str) -> frozenset[str]:
        """Ids of the leaf member versions of ``did`` within this version."""
        return frozenset(self.snapshot(did).leaves())

    def level_names(self, did: str) -> list[str]:
        """The Definition 4 level names of ``did`` in first-seen member
        order.  Every member of a restriction is valid at the span's
        start, so explicit ``level`` fields are read off the members;
        depth levels still need the ``D(t)`` snapshot's DAG."""
        dim = self.dimension(did)
        names: dict[str, None] = {}
        for mv in dim.members.values():
            if mv.level is None:
                return list(dim.at(self.valid_time.start).levels())
            names[mv.level] = None
        return list(names)

    def member_ids(self, did: str) -> frozenset[str]:
        """Ids of every member version of ``did`` valid in this version."""
        return frozenset(self.dimension(did).members)

    def contains_instant(self, t: Instant) -> bool:
        """Whether ``t`` falls inside this version's span."""
        return self.valid_time.contains(t)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = {did: len(dim.members) for did, dim in self.dimensions.items()}
        return f"StructureVersion({self.vsid}, {self.valid_time!r}, members={sizes})"


def infer_structure_versions(
    schema: "TemporalMultidimensionalSchema",
    *,
    horizon: Instant | None = None,
) -> list[StructureVersion]:
    """Partition history into structure versions (Definition 9).

    The timeline is cut at every *critical instant* — an interval start or
    the instant after an interval end, over all member versions and temporal
    relationships of all dimensions.  Between two consecutive cuts the valid
    element set cannot change, so each span is a maximal unchanged
    structure.  Spans in which no member version is valid are dropped
    (history before the first member, or gaps).

    The last span is open-ended (``NOW``) when any element is still valid at
    the end of history; ``horizon`` only matters for callers that want to
    bound enumeration explicitly.
    """
    points = schema.critical_instants()
    if not points:
        return []
    has_open = any(
        mv.valid_time.open_ended
        for dim in schema.dimensions.values()
        for mv in dim.members.values()
    )
    spans: list[Interval] = []
    for i, start in enumerate(points):
        if i + 1 < len(points):
            spans.append(Interval(start, points[i + 1] - 1))
        elif has_open:
            spans.append(Interval(start, NOW))
        elif horizon is not None and horizon >= start:
            spans.append(Interval(start, horizon))
        # else: the final cut is just past the last closed end — empty span.

    per_dimension = {
        did: dim.restrictions(spans) for did, dim in schema.dimensions.items()
    }
    versions: list[StructureVersion] = []
    for j, span in enumerate(spans):
        restricted = {did: dims[j] for did, dims in per_dimension.items()}
        if not any(map(len, restricted.values())):
            continue
        versions.append(
            StructureVersion(
                vsid=f"V{len(versions) + 1}",
                valid_time=span,
                dimensions=restricted,
            )
        )
    return versions


def levels_across(versions: Iterable[StructureVersion], did: str) -> list[str]:
    """Level names of ``did`` across ``versions``, in first-seen order —
    levels evolve, and a level any version knows is a valid name."""
    names: dict[str, None] = {}
    for version in versions:
        names.update(dict.fromkeys(version.level_names(did)))
    return list(names)
