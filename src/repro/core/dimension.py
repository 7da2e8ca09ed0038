"""Temporal dimensions (Definitions 3 and 4).

A temporal dimension ``<Did, Dname, D, G>`` is a set of member versions
``D`` plus a set of temporal relationships ``G`` — a directed graph whose
restriction ``D(t)`` to any instant ``t`` must be a DAG representing the
dimension structure at that instant.

Crucially, the model imposes **no explicit schema**: hierarchical levels are
*deduced* from instances, either from the optional ``level`` field (when all
member versions carry one) or from DAG depth at each instant (Definition 4).
This is what lets the model absorb schema evolutions as instance evolutions
and support non-onto, non-covering and multiple hierarchies.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .chronology import Instant, Interval, critical_instants
from .errors import (
    CyclicHierarchyError,
    DuplicateMemberVersionError,
    InvalidRelationshipError,
    ModelError,
    UnknownMemberVersionError,
)
from .member import MemberVersion
from .relationship import TemporalRelationship, validate_relationship
from .tokens import next_token

__all__ = ["TemporalDimension", "DimensionSnapshot"]


@dataclass(frozen=True)
class DimensionSnapshot:
    """The restriction ``D(t)`` of a temporal dimension to one instant.

    Snapshots are immutable views: they hold the member versions and
    relationships valid at ``t`` plus precomputed adjacency, and they verify
    the Definition 3 constraint that ``D(t)`` is a DAG on construction.
    """

    dimension_id: str
    t: Instant
    members: Mapping[str, MemberVersion]
    relationships: tuple[TemporalRelationship, ...]

    def __post_init__(self) -> None:
        children: dict[str, list[str]] = {mvid: [] for mvid in self.members}
        parents: dict[str, list[str]] = {mvid: [] for mvid in self.members}
        for rel in self.relationships:
            children[rel.parent].append(rel.child)
            parents[rel.child].append(rel.parent)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_topo", self._toposort())

    # -- construction helpers -------------------------------------------------

    def _toposort(self) -> tuple[str, ...]:
        """Topological order (roots first); raises on cycles."""
        indegree = {mvid: len(self._parents[mvid]) for mvid in self.members}  # type: ignore[attr-defined]
        queue = sorted(mvid for mvid, deg in indegree.items() if deg == 0)
        order: list[str] = []
        while queue:
            node = queue.pop(0)
            order.append(node)
            for child in sorted(self._children[node]):  # type: ignore[attr-defined]
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        if len(order) != len(self.members):
            cyclic = sorted(set(self.members) - set(order))
            raise CyclicHierarchyError(
                f"D(t={self.t}) of dimension {self.dimension_id!r} is not a DAG; "
                f"members on a cycle: {cyclic}"
            )
        return tuple(order)

    # -- navigation ------------------------------------------------------------

    def member(self, mvid: str) -> MemberVersion:
        """The member version ``mvid`` in this snapshot."""
        try:
            return self.members[mvid]
        except KeyError:
            raise UnknownMemberVersionError(
                f"{mvid!r} is not valid at t={self.t} in dimension {self.dimension_id!r}"
            ) from None

    def __contains__(self, mvid: str) -> bool:
        return mvid in self.members

    def children(self, mvid: str) -> list[str]:
        """Direct children of ``mvid`` at this instant."""
        self.member(mvid)
        return sorted(self._children[mvid])  # type: ignore[attr-defined]

    def parents(self, mvid: str) -> list[str]:
        """Direct parents of ``mvid`` at this instant (multiple hierarchies
        mean a member version may roll up into several parents)."""
        self.member(mvid)
        return sorted(self._parents[mvid])  # type: ignore[attr-defined]

    def roots(self) -> list[str]:
        """Member versions with no parent at this instant."""
        return sorted(m for m in self.members if not self._parents[m])  # type: ignore[attr-defined]

    def leaves(self) -> list[str]:
        """Member versions with no child at this instant."""
        return sorted(m for m in self.members if not self._children[m])  # type: ignore[attr-defined]

    def descendants(self, mvid: str) -> set[str]:
        """All (transitive) descendants of ``mvid``."""
        self.member(mvid)
        out: set[str] = set()
        stack = list(self._children[mvid])  # type: ignore[attr-defined]
        while stack:
            node = stack.pop()
            if node not in out:
                out.add(node)
                stack.extend(self._children[node])  # type: ignore[attr-defined]
        return out

    def ancestors(self, mvid: str) -> set[str]:
        """All (transitive) ancestors of ``mvid``."""
        self.member(mvid)
        out: set[str] = set()
        stack = list(self._parents[mvid])  # type: ignore[attr-defined]
        while stack:
            node = stack.pop()
            if node not in out:
                out.add(node)
                stack.extend(self._parents[node])  # type: ignore[attr-defined]
        return out

    def leaf_descendants(self, mvid: str) -> set[str]:
        """The leaves under ``mvid`` (``mvid`` itself when it is a leaf)."""
        if not self._children[mvid]:  # type: ignore[attr-defined]
            return {mvid}
        return {d for d in self.descendants(mvid) if not self._children[d]}  # type: ignore[attr-defined]

    def topological_order(self) -> tuple[str, ...]:
        """Member version ids, parents before children."""
        return self._topo  # type: ignore[attr-defined]

    # -- levels (Definition 4) ---------------------------------------------------

    def depth(self, mvid: str) -> int:
        """Longest root-to-``mvid`` path length (roots have depth 0)."""
        self.member(mvid)
        depths: dict[str, int] = {}
        for node in self._topo:  # type: ignore[attr-defined]
            ps = self._parents[node]  # type: ignore[attr-defined]
            depths[node] = 0 if not ps else 1 + max(depths[p] for p in ps)
        return depths[mvid]

    def levels(self) -> dict[str, list[str]]:
        """The levels of ``D(t)`` per Definition 4.

        When *every* member version in the snapshot has an explicit
        ``level`` field, levels are the equivalence classes of "has same
        level field"; otherwise member versions are grouped by DAG depth
        and levels are named ``"depth-<k>"``.
        """
        if self.members and all(mv.level is not None for mv in self.members.values()):
            by_level: dict[str, list[str]] = {}
            for mvid, mv in self.members.items():
                by_level.setdefault(mv.level, []).append(mvid)  # type: ignore[arg-type]
            return {lvl: sorted(ids) for lvl, ids in by_level.items()}
        depths: dict[str, int] = {}
        for node in self._topo:  # type: ignore[attr-defined]
            ps = self._parents[node]  # type: ignore[attr-defined]
            depths[node] = 0 if not ps else 1 + max(depths[p] for p in ps)
        by_depth: dict[str, list[str]] = {}
        for mvid, d in depths.items():
            by_depth.setdefault(f"depth-{d}", []).append(mvid)
        return {lvl: sorted(ids) for lvl, ids in by_depth.items()}

    def level_members(self, level: str) -> list[str]:
        """Member versions of one level (explicit name or ``depth-<k>``)."""
        levels = self.levels()
        try:
            return levels[level]
        except KeyError:
            raise ModelError(
                f"dimension {self.dimension_id!r} has no level {level!r} at t={self.t} "
                f"(available: {sorted(levels)})"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DimensionSnapshot({self.dimension_id!r}, t={self.t}, "
            f"{len(self.members)} members, {len(self.relationships)} edges)"
        )


class TemporalDimension:
    """A temporal dimension ``<Did, Dname, D, G>`` (Definition 3).

    The dimension accumulates member versions and temporal relationships;
    :meth:`at` materializes the ``D(t)`` snapshot (checked to be a DAG) and
    :meth:`restrict` / :meth:`restrictions` produce the Definition 9
    restrictions to structure versions' valid times.  Mutation happens
    through :meth:`add_member`, :meth:`add_relationship` and the truncation
    helpers used by the §3.2 evolution operators.
    """

    def __init__(self, did: str, name: str | None = None) -> None:
        if not did:
            raise ModelError("temporal dimension needs a non-empty id")
        self.did = did
        self.name = name if name is not None else did
        self._members: dict[str, MemberVersion] = {}
        self._relationships: list[TemporalRelationship] = []
        self._rels_by_child: dict[str, list[int]] = {}
        self._rels_by_parent: dict[str, list[int]] = {}
        self._token = next_token()

    @property
    def version_token(self) -> int:
        """The structure-version stamp of this dimension's current state.

        Bumped to a fresh process-global value by every mutator; see
        :mod:`repro.core.tokens`.  Not serialized.
        """
        return self._token

    # -- inspection ---------------------------------------------------------

    @property
    def members(self) -> dict[str, MemberVersion]:
        """Member versions by id (copy-safe mapping view)."""
        return dict(self._members)

    @property
    def relationships(self) -> list[TemporalRelationship]:
        """All temporal relationships (insertion order)."""
        return list(self._relationships)

    def member(self, mvid: str) -> MemberVersion:
        """The member version ``mvid``."""
        try:
            return self._members[mvid]
        except KeyError:
            raise UnknownMemberVersionError(
                f"dimension {self.did!r} has no member version {mvid!r}"
            ) from None

    def __contains__(self, mvid: str) -> bool:
        return mvid in self._members

    def __len__(self) -> int:
        return len(self._members)

    def versions_of(self, name: str) -> list[MemberVersion]:
        """Every version of the member called ``name``, by start time."""
        versions = [mv for mv in self._members.values() if mv.name == name]
        return sorted(versions, key=lambda mv: mv.start)

    def relationships_of(self, mvid: str) -> list[TemporalRelationship]:
        """Every relationship in which ``mvid`` participates."""
        idxs = set(self._rels_by_child.get(mvid, ())) | set(
            self._rels_by_parent.get(mvid, ())
        )
        return [self._relationships[i] for i in sorted(idxs)]

    # -- mutation -----------------------------------------------------------

    def add_member(self, mv: MemberVersion) -> MemberVersion:
        """Register a member version; ids are unique within the dimension."""
        if mv.mvid in self._members:
            raise DuplicateMemberVersionError(
                f"dimension {self.did!r} already has a member version {mv.mvid!r}"
            )
        self._members[mv.mvid] = mv
        self._token = next_token()
        return mv

    def add_relationship(
        self, rel: TemporalRelationship, *, check_acyclic: bool = True
    ) -> TemporalRelationship:
        """Register a rollup edge after Definition 2/3 consistency checks.

        The relationship's valid time must sit inside the intersection of
        its endpoints' valid times, and (unless ``check_acyclic`` is
        disabled for bulk loads followed by :meth:`validate`) inserting it
        must keep every ``D(t)`` acyclic.
        """
        child = self.member(rel.child)
        parent = self.member(rel.parent)
        validate_relationship(rel, child, parent)
        index = len(self._relationships)
        self._relationships.append(rel)
        self._rels_by_child.setdefault(rel.child, []).append(index)
        self._rels_by_parent.setdefault(rel.parent, []).append(index)
        self._token = next_token()
        if check_acyclic:
            try:
                for t in self._critical_instants_within(rel.valid_time):
                    self.at(t)
            except CyclicHierarchyError:
                # roll the insertion back so the dimension stays consistent
                self._relationships.pop()
                self._rels_by_child[rel.child].pop()
                self._rels_by_parent[rel.parent].pop()
                self._token = next_token()
                raise
        return rel

    def remove_member(self, mvid: str) -> MemberVersion:
        """Unregister a member version that no relationship references.

        This is *not* an evolution operator (the paper removes members by
        ``Exclude``); it exists so a failed ``Insert`` can be compensated
        without leaving a half-created member behind.
        """
        mv = self.member(mvid)
        if self._rels_by_child.get(mvid) or self._rels_by_parent.get(mvid):
            raise ModelError(
                f"cannot remove {mvid!r} from {self.did!r}: temporal "
                f"relationships still reference it"
            )
        del self._members[mvid]
        self._token = next_token()
        return mv

    def replace_member(self, mv: MemberVersion) -> None:
        """Overwrite a member version in place (Exclude truncations); every
        relationship it is in must still fit its new valid time."""
        if mv.mvid not in self._members:
            raise UnknownMemberVersionError(
                f"dimension {self.did!r} has no member version {mv.mvid!r}"
            )
        for rel in self.relationships_of(mv.mvid):
            validate_relationship(
                rel,
                mv if rel.child == mv.mvid else self.member(rel.child),
                mv if rel.parent == mv.mvid else self.member(rel.parent),
            )
        self._members[mv.mvid] = mv
        self._token = next_token()

    def replace_relationship(
        self, old: TemporalRelationship, new: TemporalRelationship
    ) -> None:
        """Swap a relationship for a truncated copy (Exclude/Reclassify)."""
        if old.child != new.child or old.parent != new.parent:
            raise InvalidRelationshipError(
                "replace_relationship must keep the same endpoints"
            )
        validate_relationship(new, self.member(new.child), self.member(new.parent))
        for i, rel in enumerate(self._relationships):
            if rel == old:
                self._relationships[i] = new
                self._token = next_token()
                return
        raise InvalidRelationshipError(f"relationship {old!r} not found")

    def remove_relationship(self, rel: TemporalRelationship) -> None:
        """Remove a relationship entirely (zero-length truncations)."""
        for i, existing in enumerate(self._relationships):
            if existing == rel:
                del self._relationships[i]
                self._reindex()
                self._token = next_token()
                return
        raise InvalidRelationshipError(f"relationship {rel!r} not found")

    def _reindex(self) -> None:
        self._rels_by_child = {}
        self._rels_by_parent = {}
        for i, rel in enumerate(self._relationships):
            self._rels_by_child.setdefault(rel.child, []).append(i)
            self._rels_by_parent.setdefault(rel.parent, []).append(i)

    # -- state capture (transactional undo) -----------------------------------

    def capture_state(self) -> tuple[Any, ...]:
        """An opaque, cheap copy of the dimension's mutable state.

        Member versions and relationships are immutable, so shallow
        container copies fully describe the dimension.  Pair with
        :meth:`restore_state` to implement exact rollback — restoration
        preserves insertion order, so a restored dimension serializes
        byte-identically to the captured one.
        """
        return (dict(self._members), list(self._relationships))

    def restore_state(self, state: tuple[Any, ...]) -> None:
        """Restore a state captured by :meth:`capture_state`."""
        members, relationships = state
        self._members = dict(members)
        self._relationships = list(relationships)
        self._reindex()
        # Conservative: the restored state may be byte-identical to the
        # captured one, but a stale token risks serving wrong cached
        # results while a fresh one only costs a cache miss.
        self._token = next_token()

    # -- time slicing ---------------------------------------------------------

    def at(self, t: Instant) -> DimensionSnapshot:
        """The restriction ``D(t)`` (Definition 3) as an immutable snapshot."""
        members = {
            mvid: mv for mvid, mv in self._members.items() if mv.valid_at(t)
        }
        rels = tuple(
            rel
            for rel in self._relationships
            if rel.valid_at(t) and rel.child in members and rel.parent in members
        )
        return DimensionSnapshot(
            dimension_id=self.did, t=t, members=members, relationships=rels
        )

    def restrict(self, interval: Interval) -> "TemporalDimension":
        """The Definition 9 restriction: keep only elements valid over the
        *whole* ``interval``.  Returns a new dimension ``D_i,VSid``."""
        return self.restrictions([interval])[0]

    def restrictions(self, spans: Sequence[Interval]) -> list["TemporalDimension"]:
        """The Definition 9 restriction to each of ``spans``, in one sweep.

        ``spans`` must be sorted and pairwise disjoint.  An element is then
        valid throughout a contiguous run of them: the spans starting at
        or after its start (a suffix) that also end at or before its end
        (a prefix), which two bisects find.  So each member version and
        relationship is looked at once, however many spans there are, and
        each restriction takes one fresh token.

        The kept relationships are not validated again: every way into
        this dimension's members and relationships checks Definition 2,
        and the kept ones link the same member versions."""
        for before, after in zip(spans, spans[1:]):
            if before.open_ended or after.start <= before.end:  # type: ignore[operator]
                raise ModelError(
                    f"restriction spans must be sorted and disjoint; "
                    f"{after!r} follows {before!r}"
                )
        starts = [span.start for span in spans]
        ends = [math.inf if span.open_ended else span.end for span in spans]

        def throughout(valid_time: Interval) -> range:
            """Indexes of the spans ``valid_time`` covers."""
            lo = bisect_left(starts, valid_time.start)
            if valid_time.open_ended:
                return range(lo, len(spans))
            return range(lo, bisect_right(ends, valid_time.end))

        members: list[dict[str, MemberVersion]] = [{} for _ in spans]
        for mvid, mv in self._members.items():
            for j in throughout(mv.valid_time):
                members[j][mvid] = mv
        relationships: list[list[TemporalRelationship]] = [[] for _ in spans]
        for rel in self._relationships:
            for j in throughout(rel.valid_time):
                kept = members[j]
                if rel.child in kept and rel.parent in kept:
                    relationships[j].append(rel)

        out: list[TemporalDimension] = []
        for kept, rels in zip(members, relationships):
            restricted = TemporalDimension(self.did, self.name)
            restricted._members = kept
            restricted._relationships = rels
            restricted._reindex()
            out.append(restricted)
        return out

    def critical_instants(self) -> list[Instant]:
        """Instants at which this dimension's structure can change."""
        intervals = [mv.valid_time for mv in self._members.values()]
        intervals.extend(rel.valid_time for rel in self._relationships)
        return critical_instants(intervals)

    def _critical_instants_within(self, interval: Interval) -> list[Instant]:
        points = [t for t in self.critical_instants() if interval.contains(t)]
        if not points:
            points = [interval.start]
        return points

    # -- leaves (the fact table's grain) ----------------------------------------

    def leaf_member_versions(self) -> list[MemberVersion]:
        """Member versions with no children at *at least one* instant of
        their validity (the paper's Leaf Member Versions).

        A member version that acquires children halfway through its life is
        still a leaf member version (it was childless for a while), which
        matters for non-covering hierarchies.
        """
        leaves: list[MemberVersion] = []
        for mv in self._members.values():
            if self._is_leaf_sometime(mv):
                leaves.append(mv)
        return sorted(leaves, key=lambda m: (m.start, m.mvid))

    def _is_leaf_sometime(self, mv: MemberVersion) -> bool:
        incoming = [
            self._relationships[i].valid_time
            for i in self._rels_by_parent.get(mv.mvid, ())
        ]
        if not incoming:
            return True
        # Check the candidate instants where child coverage could break:
        # the member's own start, and the instant after each child edge ends.
        candidates = [mv.valid_time.start]
        for iv in incoming:
            if not iv.open_ended:
                after = iv.end + 1  # type: ignore[operator]
                if mv.valid_at(after):
                    candidates.append(after)
            if iv.start > mv.valid_time.start:
                candidates.append(iv.start - 1)
        for t in candidates:
            if mv.valid_at(t) and not any(iv.contains(t) for iv in incoming):
                return True
        return False

    def is_leaf_at(self, mvid: str, t: Instant) -> bool:
        """Whether ``mvid`` has no children at instant ``t``."""
        mv = self.member(mvid)
        if not mv.valid_at(t):
            return False
        for i in self._rels_by_parent.get(mvid, ()):
            if self._relationships[i].valid_at(t):
                return False
        return True

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant of Definitions 2-3.

        Verifies relationship inclusion constraints and that ``D(t)`` is a
        DAG at every critical instant (between two critical instants the
        graph cannot change, so checking the critical instants is
        exhaustive).
        """
        for rel in self._relationships:
            validate_relationship(rel, self.member(rel.child), self.member(rel.parent))
        for t in self.critical_instants():
            self.at(t)  # raises CyclicHierarchyError on a cycle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalDimension({self.did!r}, {len(self._members)} member versions, "
            f"{len(self._relationships)} relationships)"
        )
