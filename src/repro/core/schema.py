"""The Temporal Multidimensional Schema (Definition 8).

A TMD schema ``<{D1..Dn, T}, MR, f>`` bundles the temporal dimensions, the
set of mapping relationships and the temporally consistent fact table.  Time
is not materialized as a dimension object: fact rows carry an instant
coordinate and the query layer buckets it through
:class:`~repro.core.chronology.Granularity` — this mirrors the paper's
special-cased Time dimension ``T`` without forcing a member version per
instant.

The schema is the single entry point applications should hold: it owns
validation (Definition 5's leaf-and-valid constraint on facts, Definition 7's
leaf constraint on mappings), exposes structure-version inference
(Definition 9) and mode enumeration (Definition 10), and owns the current
MultiVersion fact table (Definition 11): the one every reader of the live
schema brings up to date.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Sequence

from .chronology import Instant, critical_instants
from .confidence import ConfidenceAggregator, DEFAULT_AGGREGATOR
from .dimension import TemporalDimension
from .errors import (
    FactValidityError,
    MappingError,
    ModelError,
    UnknownDimensionError,
    UnknownMemberVersionError,
)
from .facts import FactRow, Measure, TemporallyConsistentFactTable
from .mapping import MappingCatalog, MappingRelationship

__all__ = ["TemporalMultidimensionalSchema"]


class TemporalMultidimensionalSchema:
    """``TMD = <{D1, ..., Dn, T}, MR, f>`` — Definition 8.

    Parameters
    ----------
    dimensions:
        The temporal dimensions (analysis axes other than time).
    measures:
        The schema's measures with their ``⊕`` aggregates.
    cf_aggregator:
        The designer-supplied ``⊗cf`` (defaults to Example 5's truth table).
    """

    def __init__(
        self,
        dimensions: Sequence[TemporalDimension],
        measures: Sequence[Measure],
        *,
        cf_aggregator: ConfidenceAggregator = DEFAULT_AGGREGATOR,
    ) -> None:
        if not dimensions:
            raise ModelError("a schema needs at least one temporal dimension")
        self._dimensions: dict[str, TemporalDimension] = {}
        for dim in dimensions:
            if dim.did in self._dimensions:
                raise ModelError(f"duplicate dimension id {dim.did!r}")
            self._dimensions[dim.did] = dim
        self._measures = tuple(measures)
        self.cf_aggregator = cf_aggregator
        self.mappings = MappingCatalog(
            aggregator=cf_aggregator, measures=[m.name for m in measures]
        )
        self.facts = TemporallyConsistentFactTable(
            dimensions=list(self._dimensions), measures=list(measures)
        )
        # The last MultiVersion fact table handed out (see multiversion_facts).
        self._table: Any = None
        self._table_lock = threading.Lock()

    # -- dimensions -----------------------------------------------------------

    @property
    def dimensions(self) -> dict[str, TemporalDimension]:
        """Temporal dimensions by id."""
        return dict(self._dimensions)

    @property
    def dimension_ids(self) -> list[str]:
        """Dimension ids in declaration (coordinate) order."""
        return list(self._dimensions)

    def dimension(self, did: str) -> TemporalDimension:
        """Look up a dimension by id."""
        try:
            return self._dimensions[did]
        except KeyError:
            raise UnknownDimensionError(f"schema has no dimension {did!r}") from None

    def find_member(self, mvid: str) -> tuple[TemporalDimension, str]:
        """Locate a member version id across dimensions.

        Returns ``(dimension, mvid)``; raises when absent everywhere.
        Member version ids are expected to be globally unique (the paper's
        MVid), which :meth:`validate` also checks.
        """
        for dim in self._dimensions.values():
            if mvid in dim:
                return dim, mvid
        raise UnknownMemberVersionError(f"no dimension contains member version {mvid!r}")

    # -- measures ---------------------------------------------------------------

    @property
    def measures(self) -> tuple[Measure, ...]:
        """Declared measures."""
        return self._measures

    @property
    def measure_names(self) -> list[str]:
        """Measure names in declaration order."""
        return [m.name for m in self._measures]

    def measure(self, name: str) -> Measure:
        """Look up a measure by name."""
        return self.facts.measure(name)

    # -- facts -----------------------------------------------------------------

    def add_fact(
        self,
        coordinates: Mapping[str, str],
        t: Instant,
        values: Mapping[str, float | None] | None = None,
        *,
        source: str | None = None,
        **value_kwargs: float | None,
    ) -> FactRow:
        """Record a temporally consistent fact (Definition 5).

        Every coordinate must reference a member version that is a *leaf at
        t* in its dimension and valid at ``t``; violations raise
        :class:`FactValidityError`.  ``source`` tags the row with its ETL
        origin (source name + row index) for lineage.
        """
        for did, mvid in coordinates.items():
            dim = self.dimension(did)
            mv = dim.member(mvid)  # raises UnknownMemberVersionError
            if not mv.valid_at(t):
                raise FactValidityError(
                    f"member version {mvid!r} of dimension {did!r} is not valid "
                    f"at t={t} (valid time {mv.valid_time!r})"
                )
            if not dim.is_leaf_at(mvid, t):
                raise FactValidityError(
                    f"member version {mvid!r} of dimension {did!r} is not a leaf "
                    f"at t={t}; facts are recorded at leaf grain (Definition 5)"
                )
        return self.facts.add(coordinates, t, values, source=source, **value_kwargs)

    # -- mappings ----------------------------------------------------------------

    def add_mapping(
        self, rel: MappingRelationship, *, allow_non_leaf: bool = False
    ) -> MappingRelationship:
        """Register a mapping relationship (Definition 7) after checking
        both endpoints are known leaf member versions.

        This is the consistency check behind the ``Associate`` operator.
        Definition 7's note makes mappings *relevant* only for leaf member
        versions (non-leaf values are aggregated from children), so the
        default rejects non-leaf endpoints; the §4.2 logical Reclassify
        rewrite — which re-versions inner members too — passes
        ``allow_non_leaf=True``.
        """
        src_dim, _ = self.find_member(rel.source)
        tgt_dim, _ = self.find_member(rel.target)
        if src_dim.did != tgt_dim.did:
            raise MappingError(
                f"mapping relationship {rel.source!r} => {rel.target!r} links "
                f"member versions of different dimensions "
                f"({src_dim.did!r} vs {tgt_dim.did!r})"
            )
        if not allow_non_leaf:
            for mvid, dim in ((rel.source, src_dim), (rel.target, tgt_dim)):
                if not dim._is_leaf_sometime(dim.member(mvid)):
                    raise MappingError(
                        f"mapping relationships are only relevant for leaf member "
                        f"versions; {mvid!r} is never a leaf in {dim.did!r}"
                    )
        unknown = set(rel.forward) | set(rel.reverse)
        unknown -= set(self.measure_names)
        if unknown:
            raise MappingError(
                f"mapping relationship references unknown measures {sorted(unknown)}"
            )
        self.mappings.add(rel)
        return rel

    # -- versioning ----------------------------------------------------------------

    def version_token(self) -> int:
        """A process-unique stamp of the schema's current observable state.

        The maximum of the component containers' mutation stamps (see
        :mod:`repro.core.tokens`): every mutation to any dimension, the
        fact table or the mapping catalog replaces one stamp with a fresh
        process-global maximum, so the schema token strictly increases on
        each write and two different states never share it.  This is the
        *structure version* component of versioned result-cache keys —
        an inferred :class:`~repro.core.multiversion.MultiVersionFactTable`
        records it at build time and can later tell whether it went stale.
        """
        return max(self.facts.version_token, self.structure_token())

    def structure_token(self) -> int:
        """The stamp of everything but the facts: the dimensions and the
        mapping catalog.

        Fact appends and rollbacks leave it unchanged; every evolution or
        mapping change moves it.  An inferred
        :class:`~repro.core.multiversion.MultiVersionFactTable` compares it
        to tell a fact-only change (derive) from a structural one (rebuild).
        """
        token = self.mappings.version_token
        for dim in self._dimensions.values():
            if dim.version_token > token:
                token = dim.version_token
        return token

    # -- temporal extent -----------------------------------------------------------

    def critical_instants(self) -> list[Instant]:
        """Instants at which any dimension's structure can change."""
        intervals = []
        for dim in self._dimensions.values():
            intervals.extend(mv.valid_time for mv in dim.members.values())
            intervals.extend(rel.valid_time for rel in dim.relationships)
        return critical_instants(intervals)

    def horizon(self) -> Instant:
        """A concrete instant safely after everything the schema references.

        Used to clamp ``NOW`` when enumerating structure versions over a
        bounded history: the maximum of all critical instants and fact
        times, plus one chronon.
        """
        points = self.critical_instants()
        points.extend(row.t for row in self.facts)
        if not points:
            return 0
        return max(points) + 1

    # -- derived structures (lazy imports avoid cycles) ----------------------------

    def structure_versions(self, horizon: Instant | None = None):
        """Infer the structure versions (Definition 9).

        Delegates to :func:`repro.core.versions.infer_structure_versions`.
        """
        from .versions import infer_structure_versions

        return infer_structure_versions(self, horizon=horizon)

    def presentation_modes(self, horizon: Instant | None = None):
        """The set TMP of temporal modes (Definition 10): ``tcm`` plus one
        mode per structure version."""
        from .presentation import build_modes

        return build_modes(self.structure_versions(horizon=horizon))

    def multiversion_facts(self, horizon: Instant | None = None, max_hops: int = 8):
        """The schema's current MultiVersion fact table (Definition 11).

        The schema keeps the last table it returned and returns that
        table's successor: the table itself while nothing changed, a table
        derived from it after fact appends, a rebuilt one otherwise (see
        :meth:`~repro.core.multiversion.MultiVersionFactTable.refreshed`).
        Arguments that differ from the kept table's build a fresh table,
        which replaces it.  :meth:`MultiVersionFactTable.build
        <repro.core.multiversion.MultiVersionFactTable.build>` gives an
        independent table instead.
        """
        return self._current_table({"horizon": horizon, "max_hops": max_hops})

    def _current_table(self, args: Mapping[str, Any], held: Any = None):
        """The successor of the kept table or of ``held`` (a table built
        with ``args``), whichever is newer; it becomes the kept table.

        Every stale table's ``refreshed()`` comes here, so all holders of
        one schema's tables land on the same successor and a write is
        inferred once.  Lock order is schema, then table: the table's
        derive and fills never take this lock.
        """
        from .multiversion import MultiVersionFactTable

        with self._table_lock:
            kept = self._table
            if kept is None or kept._basis.build_args != args or (
                held is not None and held.schema_token > kept.schema_token
            ):
                kept = held
            if kept is None:
                kept = MultiVersionFactTable.build(self, **args)
            self._table = table = kept._successor()
            return table

    def release_table(self) -> None:
        """Drop the kept MultiVersion fact table.

        The schema and the table it keeps refer to each other, so a
        dropped schema and its table otherwise wait for a full GC pass.
        An owner that holds a schema for its whole life, such as a
        snapshot with its clone, calls this when it is freed, and
        reference counting frees both at once.  It takes no lock, since
        it may run in a finalizer; the next :meth:`multiversion_facts`
        builds a fresh table.
        """
        self._table = None

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check every schema-level invariant.

        * each dimension is internally consistent (Definitions 2-3);
        * member version ids are globally unique across dimensions;
        * every fact row satisfies Definition 5 (leaf, valid at ``t``);
        * every mapping relationship links leaf member versions of the same
          dimension.
        """
        seen: dict[str, str] = {}
        for dim in self._dimensions.values():
            dim.validate()
            for mvid in dim.members:
                if mvid in seen and seen[mvid] != dim.did:
                    raise ModelError(
                        f"member version id {mvid!r} appears in dimensions "
                        f"{seen[mvid]!r} and {dim.did!r}; MVids must be unique"
                    )
                seen[mvid] = dim.did
        for row in self.facts:
            for did in self.dimension_ids:
                dim = self._dimensions[did]
                mvid = row.coordinate(did)
                mv = dim.member(mvid)
                if not mv.valid_at(row.t):
                    raise FactValidityError(
                        f"fact at t={row.t} references {mvid!r} outside its "
                        f"valid time {mv.valid_time!r}"
                    )
                if not dim.is_leaf_at(mvid, row.t):
                    raise FactValidityError(
                        f"fact at t={row.t} references non-leaf {mvid!r}"
                    )
        for rel in self.mappings:
            self.find_member(rel.source)
            self.find_member(rel.target)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TMD(dimensions={list(self._dimensions)}, "
            f"measures={self.measure_names}, "
            f"facts={len(self.facts)}, mappings={len(self.mappings)})"
        )
