"""The four basic structural evolution operators (§3.2).

The administrator integrates changes into a Temporal Multidimensional
Schema through exactly four operators:

* ``Insert(Did, mvID, mName, [A], [level], ti, [tf], P, C)`` — add a member
  version and the temporal relationships placing it under its parents ``P``
  and over its children ``C``;
* ``Exclude(Did, mvID, tf)`` — end the member version (and every temporal
  relationship involving it) at ``tf - 1``;
* ``Associate(Rmap)`` — check a mapping relationship for consistency and
  add it to ``MR``;
* ``Reclassify(Did, mvID, ti, [tf], OldParents, NewParents)`` — move a
  member version in the hierarchy by ending the relationships towards
  ``OldParents`` and creating ones towards ``NewParents``.

:class:`SchemaEditor` applies these to a schema and journals every call —
the journal is what the Table 11 reproduction prints, and what the §5.2
metadata layer turns into textual evolution descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .chronology import NOW, Endpoint, Instant, Interval
from .errors import OperatorError, ReproError
from .mapping import MappingRelationship
from .member import MemberVersion
from .relationship import TemporalRelationship
from .schema import TemporalMultidimensionalSchema

__all__ = ["OperatorRecord", "SchemaEditor"]


@dataclass(frozen=True)
class OperatorRecord:
    """A journal entry: one basic operator application.

    ``rendering`` is the paper-style call syntax (as in Table 11), e.g.
    ``Insert(Org, idV12, V12, T, {idP1}, {})``.
    """

    operator: str
    arguments: Mapping[str, Any]
    rendering: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.rendering


def _fmt_set(ids: Iterable[str]) -> str:
    ids = sorted(ids)
    return "{" + ", ".join(ids) + "}" if ids else "∅"


@dataclass
class SchemaEditor:
    """Applies the §3.2 basic operators to a schema, with journaling."""

    schema: TemporalMultidimensionalSchema
    journal: list[OperatorRecord] = field(default_factory=list)

    # -- Insert -----------------------------------------------------------------

    def insert(
        self,
        did: str,
        mvid: str,
        name: str,
        ti: Instant,
        tf: Endpoint = NOW,
        *,
        attributes: Mapping[str, Any] | None = None,
        level: str | None = None,
        parents: Sequence[str] = (),
        children: Sequence[str] = (),
    ) -> MemberVersion:
        """``Insert(Did, mvID, mName, [A], [level], ti, [tf], P, C)``.

        Creates the member version ``<mvID, mName, [A], [level], ti, tf>``
        and the temporal relationships placing it under each parent in
        ``P`` and above each child in ``C``.  Relationship valid times are
        clipped to the intersection with the other endpoint's validity
        (Definition 2); an empty intersection is an error.
        """
        dim = self.schema.dimension(did)
        mv = MemberVersion(
            mvid=mvid,
            name=name,
            valid_time=Interval(ti, tf),
            attributes=attributes or {},
            level=level,
        )
        dim.add_member(mv)
        added: list[TemporalRelationship] = []
        try:
            for parent in parents:
                added.append(
                    dim.add_relationship(self._clipped_edge(did, mvid, parent, ti, tf))
                )
            for child in children:
                added.append(
                    dim.add_relationship(self._clipped_edge(did, child, mvid, ti, tf))
                )
        except ReproError:
            # Compensate so a rejected Insert leaves the schema unchanged:
            # drop the edges added so far, then the half-created member.
            for rel in reversed(added):
                dim.remove_relationship(rel)
            dim.remove_member(mvid)
            raise
        self.journal.append(
            OperatorRecord(
                operator="Insert",
                arguments={
                    "did": did,
                    "mvid": mvid,
                    "name": name,
                    "ti": ti,
                    "tf": tf,
                    "parents": tuple(parents),
                    "children": tuple(children),
                    "level": level,
                },
                rendering=(
                    f"Insert({did}, {mvid}, {name}, {ti}, "
                    f"{_fmt_set(parents)}, {_fmt_set(children)})"
                ),
            )
        )
        return mv

    def _clipped_edge(
        self, did: str, child: str, parent: str, ti: Instant, tf: Endpoint
    ) -> TemporalRelationship:
        dim = self.schema.dimension(did)
        span = Interval(ti, tf)
        clipped = span.intersect(dim.member(child).valid_time)
        if clipped is not None:
            clipped = clipped.intersect(dim.member(parent).valid_time)
        if clipped is None:
            raise OperatorError(
                f"cannot relate {child!r} to {parent!r} over {span!r}: the "
                f"member versions' valid times do not intersect it"
            )
        return TemporalRelationship(child=child, parent=parent, valid_time=clipped)

    # -- Exclude ----------------------------------------------------------------

    def exclude(self, did: str, mvid: str, tf: Instant) -> MemberVersion:
        """``Exclude(Did, mvID, tf)``.

        Sets the end time of ``mvID`` and of every temporal relationship
        involving it to ``tf - 1``.  Relationships that would become empty
        (starting at or after ``tf``) are removed outright.
        """
        dim = self.schema.dimension(did)
        mv = dim.member(mvid)
        if tf <= mv.start:
            raise OperatorError(
                f"Exclude({did}, {mvid}, {tf}): the member version starts at "
                f"{mv.start}; excluding it before it exists is inconsistent"
            )
        # The relationships first, so each step leaves them inside the
        # member's valid time.  A member already ending before tf-1 is
        # left as it is, though the paper still treats Exclude as setting
        # its end time.
        for rel in dim.relationships_of(mvid):
            if rel.start >= tf:
                dim.remove_relationship(rel)
            elif rel.valid_time.contains(tf - 1) and (
                rel.valid_time.open_ended or rel.valid_time.end > tf - 1  # type: ignore[operator]
            ):
                dim.replace_relationship(rel, rel.excluded_at(tf))
        if mv.valid_time.contains(tf - 1):
            dim.replace_member(mv.excluded_at(tf))
        self.journal.append(
            OperatorRecord(
                operator="Exclude",
                arguments={"did": did, "mvid": mvid, "tf": tf},
                rendering=f"Exclude({did}, {mvid}, {tf})",
            )
        )
        return dim.member(mvid)

    # -- Associate --------------------------------------------------------------

    def associate(
        self, rel: MappingRelationship, *, allow_non_leaf: bool = False
    ) -> MappingRelationship:
        """``Associate(Rmap)`` — consistency-check and register a mapping
        relationship (Definition 7) in the schema's ``MR`` set.

        ``allow_non_leaf`` relaxes the leaf-endpoint check for the §4.2
        logical Reclassify rewrite.
        """
        self.schema.add_mapping(rel, allow_non_leaf=allow_non_leaf)
        fwd = {
            m: f"({mm.function.describe()},{mm.confidence.symbol})"
            for m, mm in rel.forward.items()
        }
        rev = {
            m: f"({mm.function.describe()},{mm.confidence.symbol})"
            for m, mm in rel.reverse.items()
        }
        self.journal.append(
            OperatorRecord(
                operator="Associate",
                arguments={"source": rel.source, "target": rel.target},
                rendering=f"Associate({rel.source}, {rel.target}, {fwd}, {rev})",
            )
        )
        return rel

    # -- Reclassify ---------------------------------------------------------------

    def reclassify(
        self,
        did: str,
        mvid: str,
        ti: Instant,
        tf: Endpoint = NOW,
        *,
        old_parents: Sequence[str] = (),
        new_parents: Sequence[str] = (),
    ) -> None:
        """``Reclassify(Did, mvID, ti, [tf], OldParents, NewParents)``.

        Ends (at ``ti - 1``) the relationships from ``mvID`` to each member
        of ``OldParents`` and inserts relationships to each member of
        ``NewParents`` valid over ``[ti, tf]`` (clipped per Definition 2).
        Either set may be empty: a pure detachment or a pure attachment.

        This is the *conceptual* operator; commercial-tool constraints
        require the §4.2 rewrite implemented in
        :mod:`repro.logical.reclassify`.
        """
        dim = self.schema.dimension(did)
        dim.member(mvid)  # existence check
        old_set = set(old_parents)
        truncated = 0
        for rel in dim.relationships_of(mvid):
            if rel.child != mvid or rel.parent not in old_set:
                continue
            if not rel.valid_at(ti) and rel.start < ti:
                continue  # already ended before the reclassification
            if rel.start >= ti:
                dim.remove_relationship(rel)
            else:
                dim.replace_relationship(rel, rel.excluded_at(ti))
            truncated += 1
        if old_set and truncated == 0:
            raise OperatorError(
                f"Reclassify({did}, {mvid}, {ti}): none of {sorted(old_set)} "
                f"is a parent of {mvid!r} at {ti}"
            )
        for parent in new_parents:
            dim.add_relationship(self._clipped_edge(did, mvid, parent, ti, tf))
        self.journal.append(
            OperatorRecord(
                operator="Reclassify",
                arguments={
                    "did": did,
                    "mvid": mvid,
                    "ti": ti,
                    "tf": tf,
                    "old_parents": tuple(old_parents),
                    "new_parents": tuple(new_parents),
                },
                rendering=(
                    f"Reclassify({did}, {mvid}, {ti}, "
                    f"{_fmt_set(old_parents)}, {_fmt_set(new_parents)})"
                ),
            )
        )

    # -- journal helpers -----------------------------------------------------------

    def records_since(self, mark: int) -> list[OperatorRecord]:
        """Journal entries appended after position ``mark`` (used by the
        high-level operations to report their basic-operator translation)."""
        return list(self.journal[mark:])

    def mark(self) -> int:
        """Current journal position (pair with :meth:`records_since`)."""
        return len(self.journal)
