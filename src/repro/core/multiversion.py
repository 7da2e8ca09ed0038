"""The MultiVersion Fact Table (Definition 11).

``f' : D1 × ... × Dn × T × TMP → dom(m1) × ... × dom(mm) × CF^m`` associates
measure values *and confidence factors* to leaf member versions valid for a
given presentation mode (not necessarily for the fact's own time ``t``), a
time and a mode.

The table is **inferred** from the Temporal Multidimensional Schema:

* the ``tcm`` slice is the temporally consistent fact table with every
  confidence set to ``sd`` (the paper's identity
  ``f'|tcm = f × {sd}^m``);
* for each structure-version mode ``VMi``, every consistent fact is routed
  along mapping relationships to the leaf member versions valid in ``Vi``:
  a fact already valid there keeps its value with ``sd``, others traverse
  the mapping graph (``F`` forward, ``F⁻¹`` backward), composing functions
  and confidences hop by hop;
* several contributions landing on the same ``(coordinates, t, mode)`` cell
  (merges) are folded with each measure's ``⊕`` and the confidence
  aggregate ``⊗cf`` (Definition 12);
* facts with *no route at all* into a mode are collected in
  :attr:`MultiVersionFactTable.unmapped` — the impossible cross-points the
  §5.2 front end paints red.

One kernel does the routing and folding.  :meth:`MultiVersionFactTable.build`
infers only the presentation modes; each version mode is a slot the kernel
fills, by folding every fact into it, the first time a reader needs that
mode.  :meth:`MultiVersionFactTable.refreshed` folds only the facts
appended since a table was inferred, and only into the filled slots, in a
*new* table that shares the columns of every untouched mode.  Seen from
outside, a table is never mutated once built.  The schema keeps the
current table (``schema.multiversion_facts()``); every stale table's
``refreshed()`` lands on that one successor.

Storage is columnar: the ``tcm`` slice is the fact tuple itself, and each
version mode is a set of parallel columns (key id, ``t``, one column per
measure, confidence id, provenance id) over append-only intern pools.
:class:`MVFactRow` values are views built on demand.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import operator
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
)

from repro.observability import runtime as _obs

from .chronology import Instant
from .confidence import ConfidenceFactor, SD, UK
from .errors import QueryError
from .facts import FactRow, MaxAggregate, MinAggregate, SumAggregate
from .mapping import Route
from .presentation import ModeSet, PresentationMode, TCM_LABEL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .schema import TemporalMultidimensionalSchema

__all__ = ["MVFactRow", "UnmappedFact", "MultiVersionFactTable", "FOLDABLE_AGGREGATES"]

FOLDABLE_AGGREGATES = (SumAggregate, MinAggregate, MaxAggregate)
"""Measure aggregates whose fold over ``[a, b, c]`` equals the fold over
``[fold([a, b]), c]`` — the Definition-12 property that lets a cell resume
folding from its stored value (count and avg do not qualify)."""


@dataclass(frozen=True)
class MVFactRow:
    """One cell of the MultiVersion fact table.

    ``coordinates`` are leaf member version ids valid in the row's mode;
    ``values`` may hold ``None`` for unknown-mapped measures, whose
    ``confidences`` entry is then ``uk``.  ``provenance`` records how each
    contribution was computed (source coordinates and applied conversions) —
    the §5.2 metadata giving the user "direct access to very precise
    information on the way the data were calculated".

    The table stores no rows: the ones it returns are views built per
    call, so compare them by content, never by identity.
    """

    coordinates: Mapping[str, str]
    t: Instant
    mode: str
    values: Mapping[str, float | None]
    confidences: Mapping[str, ConfidenceFactor]
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coordinates", MappingProxyType(dict(self.coordinates)))
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        object.__setattr__(self, "confidences", MappingProxyType(dict(self.confidences)))

    @classmethod
    def _from_parts(
        cls,
        coordinates: Mapping[str, str],
        t: Instant,
        mode: str,
        values: Mapping[str, float | None],
        confidences: Mapping[str, ConfidenceFactor],
        provenance: tuple[str, ...],
    ) -> "MVFactRow":
        """A row over parts that are already read-only, without copying
        them — so rows can share their coordinates, confidences and
        provenance objects."""
        row = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(row, "coordinates", coordinates)
        setattr_(row, "t", t)
        setattr_(row, "mode", mode)
        setattr_(row, "values", values)
        setattr_(row, "confidences", confidences)
        setattr_(row, "provenance", provenance)
        return row

    def value(self, measure: str) -> float | None:
        """The (possibly unknown) value of ``measure``."""
        return self.values.get(measure)

    def confidence(self, measure: str) -> ConfidenceFactor:
        """The confidence factor attached to ``measure``."""
        return self.confidences.get(measure, UK)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        coords = ", ".join(f"{d}={m}" for d, m in sorted(self.coordinates.items()))
        vals = ", ".join(
            f"{m}={v}({self.confidences[m].symbol})" for m, v in self.values.items()
        )
        return f"MVFact[{self.mode}]({coords}, t={self.t}, {vals})"


@dataclass(frozen=True)
class UnmappedFact:
    """A consistent fact that cannot be presented in a mode at all.

    ``dimension`` names the axis along which no mapping route exists from
    the fact's member version into the mode's structure version.
    """

    fact: FactRow
    mode: str
    dimension: str
    source: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Unmapped(mode={self.mode}, dim={self.dimension}, "
            f"source={self.source}, t={self.fact.t})"
        )


Key = tuple[tuple[str, str], ...]
"""A cell's coordinates as sorted ``(dimension, leaf)`` pairs."""


@dataclass(frozen=True)
class _Basis:
    """What a table was inferred from — the state :meth:`refreshed` checks."""

    token: int
    facts: tuple[FactRow, ...]
    structure: int
    build_args: Mapping[str, Any]


@contextmanager
def _inference(kind: str, **attributes: Any) -> Iterator[Any]:
    """The ``mvft.build`` span and ``mvft.builds`` counter of one pass."""
    attributes = {"kind": kind, **attributes}
    with _obs.current_tracer().span("mvft.build", attributes=attributes) as span:
        yield span
    metrics = _obs.current_metrics()
    if metrics.enabled:
        metrics.counter("mvft.builds", {"kind": kind}).inc()


class _Parts:
    """Append-only intern pools for the fact-independent parts of cells.

    Columns hold ids into these pools: ``keys[i]`` / ``coordinates[i]`` are
    one cell key as sorted pairs and as a read-only mapping,
    ``confidences[i]`` / ``confidence_maps[i]`` one ⊗cf factor per measure
    as a tuple and as a mapping, ``provenance[i]`` one provenance tuple.
    A table and every table derived from it share one pool.  Ids are
    assigned under a lock, so tables derived from one parent on several
    threads agree on them, and an entry is appended before its id is
    published, so a reader never holds an id without its entry."""

    def __init__(self, measures: Sequence[str]) -> None:
        self.measures = tuple(measures)
        self.keys: list[Key] = []
        self.coordinates: list[Mapping[str, str]] = []
        self.confidences: list[tuple[ConfidenceFactor, ...]] = []
        self.confidence_maps: list[Mapping[str, ConfidenceFactor]] = []
        self.provenance: list[tuple[str, ...]] = []
        self.key_ids: dict[Key, int] = {}
        self._confidence_ids: dict[tuple[ConfidenceFactor, ...], int] = {}
        self._provenance_ids: dict[tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self.all_sd = self.confidence_id((SD,) * len(self.measures))
        self.source_data = self.provenance_id(("source data",))

    def _intern(self, ids: dict, value: Any, add: Callable[[Any], None]) -> int:
        found = ids.get(value)
        if found is None:
            with self._lock:
                found = ids.get(value)
                if found is None:
                    add(value)
                    found = ids[value] = len(ids)
        return found

    def key_id(self, key: Key) -> int:
        return self._intern(self.key_ids, key, self._add_key)

    def _add_key(self, key: Key) -> None:
        self.coordinates.append(MappingProxyType(dict(key)))
        self.keys.append(key)

    def confidence_id(self, factors: tuple[ConfidenceFactor, ...]) -> int:
        return self._intern(self._confidence_ids, factors, self._add_confidences)

    def _add_confidences(self, factors: tuple[ConfidenceFactor, ...]) -> None:
        self.confidence_maps.append(MappingProxyType(dict(zip(self.measures, factors))))
        self.confidences.append(factors)

    def provenance_id(self, entries: tuple[str, ...]) -> int:
        return self._intern(self._provenance_ids, entries, self.provenance.append)


def _ids(ids: Iterable[int], pool: Sequence[Any]) -> array:
    """An id column: two bytes a row while the pool's ids fit, else four."""
    return array("H" if len(pool) <= 0x10000 else "I", ids)


def _measure_column(values: Iterable[Any]) -> Sequence[Any]:
    """``array('d')`` when every value is exactly a ``float``, else a
    tuple, so ints and ``None`` keep their ``repr``."""
    values = tuple(values)
    return array("d", values) if all(type(v) is float for v in values) else values


@dataclass(frozen=True)
class _Columns:
    """One version mode's cells as parallel columns in row order — by
    ``t``, then by sorted coordinates.  ``keys``, ``confidences`` and
    ``provenance`` hold ids into the table's :class:`_Parts`; ``values``
    holds one column per measure."""

    keys: array
    t: array
    values: tuple[Sequence[Any], ...]
    confidences: array
    provenance: array

    @classmethod
    def of(
        cls,
        parts: _Parts,
        keys: Iterable[int],
        t: Iterable[Instant],
        values: Iterable[Iterable[Any]],
        confidences: Iterable[int],
        provenance: Iterable[int],
    ) -> "_Columns":
        return cls(
            _ids(keys, parts.keys),
            array("q", t),
            tuple(map(_measure_column, values)),
            _ids(confidences, parts.confidences),
            _ids(provenance, parts.provenance),
        )

    def __len__(self) -> int:
        return len(self.t)

    def find(self, t: Instant, key: Key, keys: Sequence[Key]) -> tuple[int, bool]:
        """Where the cell ``(key, t)`` is, or would be inserted, and
        whether it is there."""
        ts, ids = self.t, self.keys
        at = bisect.bisect_left(
            range(len(ts)), (t, key), key=lambda i: (ts[i], keys[ids[i]])
        )
        return at, at < len(ts) and ts[at] == t and keys[ids[at]] == key

    def spliced(self, cells: Sequence[Sequence[Any]], parts: _Parts) -> "_Columns":
        """New columns: these with ``cells`` — sorted, one list per column
        in column order — merged in: a cell replaces the row at its
        ``(key, t)``, or is inserted in order."""
        if not self:  # a build: the cells are the columns
            new = cells
        else:
            keys = parts.keys
            old = (self.keys, self.t, *self.values, self.confidences, self.provenance)
            new = [[] for _ in old]
            done = 0
            for i, (key_id, t) in enumerate(zip(cells[0], cells[1])):
                at, found = self.find(t, keys[key_id], keys)
                for column, source, values in zip(new, old, cells):
                    column.extend(source[done:at])
                    column.append(values[i])
                done = at + found
            for column, source in zip(new, old):
                column.extend(source[done:])
        return _Columns.of(parts, new[0], new[1], new[2:-2], new[-2], new[-1])


class _Landing(NamedTuple):
    """One cell a fact on given leaves lands on in one version mode —
    everything about it that does not depend on the fact's values."""

    key: Key
    key_id: int
    chains: tuple[tuple[Callable[[Any], Any], ...], ...]  # per measure, route by route
    confidences: int  # id of SD ⊗cf each route's factor
    entry: str  # the conversion steps
    provenance: int  # id of ``(entry,)``, for a fact without a source


class _Group(NamedTuple):
    """The facts on one tuple of leaves, in fact order, as columns."""

    facts: list[FactRow]
    positions: list[int]  # in the folded facts
    t: list[Instant]
    values: list[list[Any]]  # one list per measure
    sources: list[str | None] | None  # None when no fact has a source
    distinct: bool  # whether no two facts share a ``t``


class _Slot(NamedTuple):
    """One version mode's cells, and the facts with no route into it in
    fact order."""

    columns: _Columns
    unmapped: tuple[UnmappedFact, ...]


_Contribution = tuple[int, Sequence[Any], int]  # confidence id, values, provenance id


class _Kernel:
    """Definitions 11 and 12 for one schema state.

    Where a fact lands in a mode, the ⊗cf confidences and provenance text
    of each landing depend only on the fact's leaves, so the facts are
    grouped by leaves once and each group is planned once per mode; its
    values then go through each landing's conversions as whole columns.
    Routes are memoized per (member version, mode, dimension).
    :attr:`blocked` and :attr:`folded` count the contributions emitted as
    column blocks and those folded cell by cell."""

    def __init__(
        self,
        schema: "TemporalMultidimensionalSchema",
        modes: ModeSet,
        max_hops: int,
        parts: _Parts,
    ) -> None:
        self.schema = schema
        self.modes = modes
        self.dimension_ids = schema.dimension_ids
        self.measures = schema.measure_names
        self.aggregates = [schema.measure(m).aggregate for m in self.measures]
        # mode -> dimension -> the leaf ids a route must end on
        self.targets: dict[str, dict[str, frozenset[str]]] = {}
        self.max_hops = max_hops
        self.parts = parts
        self.route_cache: dict[tuple[str, str, str], list[Route]] = {}
        self.blocked = self.folded = 0

    def group(self, facts: Sequence[FactRow]) -> list[_Group]:
        """``facts`` grouped by their leaves, in order of first appearance."""
        leaves_of = operator.itemgetter(*self.dimension_ids)
        positions: dict[Any, list[int]] = {}
        for i, fact in enumerate(facts):
            positions.setdefault(leaves_of(fact.coordinates), []).append(i)
        groups = []
        for at in positions.values():
            members = [facts[i] for i in at]
            t = [fact.t for fact in members]
            values = [fact.values for fact in members]
            sources = [fact.source for fact in members]
            groups.append(_Group(
                members,
                at,
                t,
                [[v.get(m) for v in values] for m in self.measures],
                sources if any(s is not None for s in sources) else None,
                len(set(t)) == len(t),
            ))
        return groups

    def plan(self, fact: FactRow, label: str) -> tuple[_Landing, ...] | str:
        """Where any fact on ``fact``'s leaves lands in mode ``label``, or
        the first dimension along which no route leaves its leaf."""
        measures, aggregator = self.measures, self.schema.cf_aggregator
        targets = self.targets.get(label)
        if targets is None:
            version = self.modes.mode(label).version
            assert version is not None
            targets = self.targets[label] = {
                did: version.leaf_ids(did) for did in self.dimension_ids
            }
        routes_per_dim: list[list[Route]] = []
        for did in self.dimension_ids:
            source = fact.coordinate(did)
            routes = self.route_cache.get((source, label, did))
            if routes is None:
                routes = self.schema.mappings.routes(
                    source, targets[did],
                    measures=measures, max_hops=self.max_hops,
                )
                self.route_cache[(source, label, did)] = routes
            if not routes:
                return did
            routes_per_dim.append(routes)
        landings = []
        for combo in itertools.product(*routes_per_dim):
            confidences = []
            for m in measures:
                confidence = SD
                for route in combo:
                    confidence = aggregator.combine(confidence, route.confidence(m))
                confidences.append(confidence)
            steps = [
                f"{route.source} -> {route.target} via "
                f"{ {m: route.maps[m].function.describe() for m in measures} }"
                for route in combo
                if route.hops
            ]
            entry = "; ".join(steps) if steps else "valid in version (source data)"
            targets = zip(self.dimension_ids, (route.target for route in combo))
            key = tuple(sorted(targets))
            landings.append(_Landing(
                key,
                self.parts.key_id(key),
                tuple(
                    tuple(route.maps[m].function.apply for route in combo)
                    for m in measures
                ),
                self.parts.confidence_id(tuple(confidences)),
                entry,
                self.parts.provenance_id((entry,)),
            ))
        return tuple(landings)

    def fold(
        self, label: str, groups: Sequence[_Group], existing: _Columns
    ) -> tuple[_Columns, list[UnmappedFact]]:
        """Fold the grouped facts into the cells of one version mode with
        each measure's ``⊕`` and ``⊗cf``, resuming the cells of ``existing``
        from their folded values (sound for :data:`FOLDABLE_AGGREGATES`).
        Returns the mode's new columns — ``existing`` itself when no fact
        lands — and the facts with no route, in fact order.

        A block — one group's cells on one landing — whose key no other
        block hits, whose ``t`` are distinct and none of whose cells is in
        ``existing`` is emitted whole: each cell has one contribution.
        Every other contribution is folded per cell, in fact order, then
        landing order, after the cell's ``existing`` row."""
        parts, keys = self.parts, self.parts.keys
        n_measures = len(self.measures)
        planned: list[tuple[_Group, tuple[_Landing, ...]]] = []
        lost: list[tuple[int, UnmappedFact]] = []
        for group in groups:
            plan = self.plan(group.facts[0], label)
            if isinstance(plan, str):
                lost.extend(
                    (i, UnmappedFact(fact, label, plan, fact.coordinate(plan)))
                    for i, fact in zip(group.positions, group.facts)
                )
            else:
                planned.append((group, plan))
        unmapped = [fact for _, fact in sorted(lost, key=operator.itemgetter(0))]
        hits = collections.Counter(
            landing.key_id for _, plan in planned for landing in plan
        )
        old = frozenset(existing.keys)
        # The emitted cells, one list per column.
        key_ids: list[int] = []
        ts: list[Instant] = []
        values: list[list[Any]] = [[] for _ in range(n_measures)]
        confidences: list[int] = []
        provenance: list[int] = []
        # (t, key id) -> its (position, landing index, contribution)s
        shared: dict[tuple[Instant, int], list[tuple[int, int, _Contribution]]] = {}
        for group, plan in planned:
            n = len(group.t)
            for index, landing in enumerate(plan):
                converted = []
                for column, chain in zip(group.values, landing.chains):
                    for apply in chain:
                        column = list(map(apply, column))
                    converted.append(column)
                if group.sources is None:
                    provenances: Sequence[int] = itertools.repeat(landing.provenance, n)
                else:
                    provenances = [
                        landing.provenance if source is None else
                        parts.provenance_id((f"{landing.entry} [from {source}]",))
                        for source in group.sources
                    ]
                key_id = landing.key_id
                if (
                    hits[key_id] == 1
                    and group.distinct
                    and not (key_id in old and any(
                        existing.find(t, landing.key, keys)[1] for t in group.t
                    ))
                ):
                    key_ids.extend(itertools.repeat(key_id, n))
                    ts.extend(group.t)
                    for out, aggregate, column in zip(values, self.aggregates, converted):
                        out.extend(aggregate.combine_each(column))
                    confidences.extend(itertools.repeat(landing.confidences, n))
                    provenance.extend(provenances)
                    self.blocked += n
                    continue
                self.folded += n
                rows = zip(*converted) if converted else itertools.repeat((), n)
                for i, t, row, cell_provenance in zip(
                    group.positions, group.t, rows, provenances
                ):
                    shared.setdefault((t, key_id), []).append(
                        (i, index, (landing.confidences, row, cell_provenance))
                    )
        aggregator, factors = self.schema.cf_aggregator, parts.confidences
        for (t, key_id), tagged in shared.items():
            tagged.sort(key=operator.itemgetter(0, 1))
            contributions = [contribution for _, _, contribution in tagged]
            if key_id in old:
                at, found = existing.find(t, keys[key_id], keys)
                if found:
                    contributions.insert(0, (
                        existing.confidences[at],
                        [column[at] for column in existing.values],
                        existing.provenance[at],
                    ))
            if len(contributions) == 1:
                # ⊗cf over a single factor is that factor.
                confidence, _, cell_provenance = contributions[0]
            else:
                confidence = parts.confidence_id(tuple(
                    aggregator.combine_all([factors[c[0]][i] for c in contributions])
                    for i in range(n_measures)
                ))
                cell_provenance = parts.provenance_id(tuple(
                    entry for c in contributions for entry in parts.provenance[c[2]]
                ))
            columns = zip(*(c[1] for c in contributions))
            for out, aggregate, column in zip(values, self.aggregates, columns):
                out.append(aggregate.combine_all(column))
            key_ids.append(key_id)
            ts.append(t)
            confidences.append(confidence)
            provenance.append(cell_provenance)
        if not key_ids:
            return existing, unmapped
        # Row order is (t, key): one integer sort on t and the key's rank.
        ranked = sorted(set(key_ids), key=keys.__getitem__)
        rank = dict(zip(ranked, range(len(ranked))))
        order = sorted(range(len(key_ids)), key=list(map(
            operator.add,
            map(operator.mul, ts, itertools.repeat(len(ranked))),
            map(rank.__getitem__, key_ids),
        )).__getitem__)
        cells = [
            list(map(column.__getitem__, order))
            for column in (key_ids, ts, *values, confidences, provenance)
        ]
        return existing.spliced(cells, parts), unmapped


class MultiVersionFactTable:
    """The inferred multiversion store behind every presentation mode.

    Build with :meth:`build`, bring up to date with :meth:`refreshed`;
    query with :meth:`slice`, :meth:`lookup` and :meth:`rows`.  Seen from
    outside a table is immutable, and a newer schema state always yields
    a *new* table.

    The ``tcm`` slice is the fact tuple the table was inferred from
    (``f'|tcm = f × {sd}^m``), so it stores nothing of its own.  Each
    version mode is a slot, filled once, under the table's lock, the
    first time a reader needs that mode: the kernel folds every fact
    into it, and it holds the mode's columns over interned parts
    (:class:`_Columns`) and its unmapped facts.  A reader of one mode
    fills that mode's slot; :meth:`rows` and :attr:`unmapped` fill every
    slot.  The :class:`MVFactRow` values :meth:`slice`, :meth:`rows` and
    :meth:`lookup` return are views built on demand, so callers must not
    rely on their identity.
    """

    def __init__(
        self,
        schema: "TemporalMultidimensionalSchema",
        modes: ModeSet,
        basis: _Basis,
        parts: _Parts,
        slots: dict[str, _Slot],
    ) -> None:
        self._schema = schema
        self._modes = modes
        self._basis = basis
        self._parts = parts
        self._slots = slots  # the filled version modes
        self._lock = threading.Lock()  # held by a fill, and by a derive's copy
        # mode -> (key, t) -> row position, built on a mode's first lookup
        self._positions_by_mode: dict[str, dict[tuple[Key, Instant], int]] = {}
        # The schema state this table was inferred from — the *structure
        # version* component of versioned result-cache keys.  The table is
        # immutable, so the stamp describes its contents forever;
        # ``is_stale`` compares it against the live schema's current token.
        self.schema_token: int = basis.token
        # The MVCC commit version this table was pinned from, when it was
        # inferred for a snapshot cursor (0 for ad-hoc live builds).
        self.snapshot_version: int = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        schema: "TemporalMultidimensionalSchema",
        *,
        horizon: Instant | None = None,
        max_hops: int = 8,
    ) -> "MultiVersionFactTable":
        """Infer ``f'`` from the schema (Definition 11): the presentation
        modes now, each version mode's cells on its first read."""
        with _inference("full") as span:
            token = schema.version_token()
            modes = schema.presentation_modes(horizon=horizon)
            facts = tuple(schema.facts)
            args = dict(horizon=horizon, max_hops=max_hops)
            basis = _Basis(token, facts, schema.structure_token(), args)
            span.set("facts", len(facts)).set("rows", len(facts))
            span.set("structure_versions", len(modes) - 1)
            return cls(schema, modes, basis, _Parts(schema.measure_names), {})

    def refreshed(self) -> "MultiVersionFactTable":
        """The current table for the live schema; this one is left untouched.

        A current table returns ``self``: one token compare, no lock.  A
        stale one asks its schema for the current table with this table's
        build arguments (:meth:`TemporalMultidimensionalSchema.multiversion_facts
        <repro.core.schema.TemporalMultidimensionalSchema.multiversion_facts>`).
        The schema takes the successor (:meth:`_successor`) of whichever is
        newer, this table or the one it keeps, so every holder of a stale
        table lands on the same successor and a write is inferred once.
        """
        if self._schema.version_token() == self.schema_token:
            return self
        return self._schema._current_table(self._basis.build_args, self)

    def _successor(self) -> "MultiVersionFactTable":
        """The table this one becomes for the live schema, decided here:

        * **current** — nothing changed since inference: ``self``;
        * **derived** — facts were only appended past this table's fact
          prefix, no dimension or mapping changed and every measure is in
          :data:`FOLDABLE_AGGREGATES`: a new table with the new facts
          folded into the affected cells of every *filled* mode, sharing
          the columns of every filled mode no new fact lands in — rows,
          their order, :attr:`unmapped` and lookups exactly as a rebuild
          would give.  A mode this table has not filled stays unfilled,
          and fills from all the facts on its first read;
        * **rebuilt** — otherwise (an evolution, a new mapping, a rolled
          back fact): a full :meth:`build` with this table's parameters.

        Called under the schema's table lock; it never takes that lock.
        """
        schema = self._schema
        token = schema.version_token()
        if token == self.schema_token:
            return self
        basis = self._basis
        facts = tuple(schema.facts)
        folded = len(basis.facts)
        if (
            basis.structure == schema.structure_token()
            and facts[:folded] == basis.facts
            and all(isinstance(m.aggregate, FOLDABLE_AGGREGATES)
                    for m in schema.measures)
        ):
            with _inference("derived") as span:
                with self._lock:
                    slots = dict(self._slots)
                kernel = _Kernel(
                    schema, self._modes, basis.build_args["max_hops"], self._parts
                )
                groups = kernel.group(facts[folded:])
                for label, (columns, unmapped) in slots.items():
                    columns, lost = kernel.fold(label, groups, columns)
                    slots[label] = _Slot(columns, unmapped + tuple(lost))
                table = MultiVersionFactTable(
                    schema, self._modes, replace(basis, token=token, facts=facts),
                    self._parts, slots,
                )
                span.set("facts", len(facts) - folded).set("rows", len(table))
                span.set("unmapped", sum(len(slot.unmapped) for slot in slots.values()))
                span.set("cells_blocked", kernel.blocked)
                span.set("cells_folded", kernel.folded)
                return table
        return self.build(schema, **basis.build_args)

    def _slot(self, label: str) -> _Slot:
        """Version mode ``label``'s slot, filled on first use."""
        slot = self._slots.get(label)
        if slot is None:
            self._modes.mode(label)  # QueryError on an unknown label
            self._fill((label,))
            slot = self._slots[label]
        return slot

    def _fill(self, labels: Sequence[str]) -> None:
        """Fill the slots of the version modes ``labels`` not filled yet:
        the kernel folds every fact of the basis into each, under the
        table's lock, so concurrent readers fill a slot once.  The modes
        share one grouping of the facts; each fill is one span."""
        with self._lock:
            missing = [label for label in labels if label not in self._slots]
            if not missing:
                return
            basis, parts = self._basis, self._parts
            kernel = _Kernel(self._schema, self._modes, basis.build_args["max_hops"], parts)
            empty = _Columns.of(parts, (), (), [()] * len(parts.measures), (), ())
            groups = None
            for label in missing:
                with _inference("mode", mode=label) as span:
                    if groups is None:
                        groups = kernel.group(basis.facts)
                    kernel.blocked = kernel.folded = 0
                    columns, lost = kernel.fold(label, groups, empty)
                    span.set("facts", len(basis.facts)).set("rows", len(columns))
                    span.set("unmapped", len(lost))
                    span.set("cells_blocked", kernel.blocked)
                    span.set("cells_folded", kernel.folded)
                self._slots[label] = _Slot(columns, tuple(lost))

    # -- access ------------------------------------------------------------------

    @property
    def schema(self) -> "TemporalMultidimensionalSchema":
        """The schema this table was inferred from."""
        return self._schema

    @property
    def modes(self) -> ModeSet:
        """The presentation modes (Definition 10)."""
        return self._modes

    def is_stale(self) -> bool:
        """Whether the source schema mutated after this table was inferred.

        A table is immutable, so any later ``add_fact`` / evolution on the
        live schema leaves it describing an older state; :meth:`refreshed`
        then derives or rebuilds a current one.  Snapshot-pinned tables
        are inferred from immutable clones and are never stale.
        """
        return self._schema.version_token() != self.schema_token

    @property
    def unmapped(self) -> list[UnmappedFact]:
        """Facts with no route into some mode (red cells in the §5.2 UI),
        grouped by mode in mode order, in fact order within a mode.  Fills
        every slot."""
        labels = [mode.label for mode in self._modes.version_modes]
        self._fill(labels)
        return [fact for label in labels for fact in self._slots[label].unmapped]

    def slice(self, mode_label: str) -> list[MVFactRow]:
        """All rows of one presentation mode, as views."""
        view = self._view
        return [view(mode_label, i) for i in range(self._count(mode_label))]

    def rows(self) -> Iterator[MVFactRow]:
        """Iterate every row across modes, in mode order, as views; fills
        every slot."""
        self._fill([mode.label for mode in self._modes.version_modes])
        for label in self._modes.labels:
            for i in range(self._count(label)):
                yield self._view(label, i)

    def __len__(self) -> int:
        """The number of materialized cells: ``tcm`` plus the filled slots."""
        return sum(self.cell_count().values())

    def lookup(
        self, coordinates: Mapping[str, str], t: Instant, mode_label: str
    ) -> MVFactRow | None:
        """The cell at exactly these coordinates/time/mode, if any."""
        at = self._positions(mode_label).get((tuple(sorted(coordinates.items())), t))
        return None if at is None else self._view(mode_label, at)

    def measure_at(
        self, coordinates: Mapping[str, str], t: Instant, mode_label: str, measure: str
    ) -> tuple[float | None, ConfidenceFactor] | None:
        """``(value, confidence)`` of one measure of the cell :meth:`lookup`
        would return, read off the columns without building a view."""
        parts = self._parts
        if measure not in parts.measures:
            raise QueryError(f"unknown measure {measure!r}")
        at = self._positions(mode_label).get((tuple(sorted(coordinates.items())), t))
        if at is None:
            return None
        if mode_label == TCM_LABEL:
            return self._basis.facts[at].value(measure), SD
        columns, j = self._slot(mode_label).columns, parts.measures.index(measure)
        return columns.values[j][at], parts.confidences[columns.confidences[at]][j]

    def cell_count(self) -> dict[str, int]:
        """Number of materialized cells per mode (storage-redundancy bench):
        ``tcm`` and each filled slot, in mode order.  Fills nothing, so a
        mode no reader has needed yet is absent; :meth:`_count` is the
        per-mode count that fills."""
        slots = self._slots
        return {
            label: self._count(label) for label in self._modes.labels
            if label == TCM_LABEL or label in slots
        }

    # -- column readers ------------------------------------------------------------
    #
    # The query engine's collect phase and the delta store read the
    # columns through these, materializing a view only for a row they keep.

    def _count(self, label: str) -> int:
        """The number of rows of mode ``label``, filling its slot."""
        if label == TCM_LABEL:
            return len(self._basis.facts)
        return len(self._slot(label).columns)

    def _positions(self, label: str) -> dict[tuple[Key, Instant], int]:
        """``(key, t)`` → row position in mode ``label`` (empty for an
        unknown mode), built on first use; in ``tcm`` a later duplicate
        fact wins, as it does in a rebuild."""
        positions = self._positions_by_mode.get(label)
        if positions is None:
            if label not in self._modes:
                return {}
            if label == TCM_LABEL:
                cells: Iterable[tuple[Key, Instant]] = (
                    (tuple(sorted(fact.coordinates.items())), fact.t)
                    for fact in self._basis.facts
                )
            else:
                columns = self._slot(label).columns
                cells = zip(map(self._parts.keys.__getitem__, columns.keys), columns.t)
            positions = {cell: i for i, cell in enumerate(cells)}
            self._positions_by_mode[label] = positions
        return positions

    def _view(self, label: str, i: int) -> MVFactRow:
        """Row ``i`` of mode ``label`` as an :class:`MVFactRow`."""
        parts = self._parts
        if label == TCM_LABEL:
            fact = self._basis.facts[i]
            return MVFactRow._from_parts(
                fact.coordinates,
                fact.t,
                TCM_LABEL,
                MappingProxyType({m: fact.value(m) for m in parts.measures}),
                parts.confidence_maps[parts.all_sd],
                parts.provenance[parts.source_data] if fact.source is None
                else (f"source data [from {fact.source}]",),
            )
        columns = self._slot(label).columns
        return MVFactRow._from_parts(
            parts.coordinates[columns.keys[i]],
            columns.t[i],
            label,
            MappingProxyType(
                {m: column[i] for m, column in zip(parts.measures, columns.values)}
            ),
            parts.confidence_maps[columns.confidences[i]],
            parts.provenance[columns.provenance[i]],
        )

    def _scan(self, label: str, positions: range) -> Iterator[tuple[
        int, Any, Mapping[str, str], Instant, tuple[Any, ...], tuple[ConfidenceFactor, ...]
    ]]:
        """``(position, label key, coordinates, t, values, ⊗cf factors)``
        of the rows at ``positions`` (a step-1 range) in row order, without
        views.  Rows with equal label keys have equal coordinates, and in
        ``tcm`` also equal ``t``, so they resolve to the same hierarchy
        labels."""
        start, stop = positions.start, positions.stop
        parts = self._parts
        if label == TCM_LABEL:
            # Iterated in C: this runs once per row of every tcm read.
            facts = self._basis.facts[start:stop]
            ts = list(map(operator.attrgetter("t"), facts))
            coordinates = list(map(operator.attrgetter("coordinates"), facts))
            leaves = map(operator.itemgetter(*self._schema.dimension_ids), coordinates)
            values = list(map(operator.attrgetter("values"), facts))
            return zip(
                positions,
                zip(leaves, ts),
                coordinates,
                ts,
                zip(*(map(operator.itemgetter(m), values) for m in parts.measures)),
                itertools.repeat(parts.confidences[parts.all_sd]),
            )
        columns = self._slot(label).columns
        keys = columns.keys[start:stop]
        return zip(
            positions,
            keys,
            map(parts.coordinates.__getitem__, keys),
            columns.t[start:stop],
            zip(*(column[start:stop] for column in columns.values)),
            map(parts.confidences.__getitem__, columns.confidences[start:stop]),
        )

    def _differences(self, label: str) -> Iterator[MVFactRow]:
        """Views of the cells of version mode ``label`` that differ from
        the ``tcm`` cell at their ``(coordinates, t)`` — none there, other
        values, or a confidence other than ``sd`` — in row order: the cells
        a differences-only store must keep."""
        columns = self._slot(label).columns
        parts, facts = self._parts, self._basis.facts
        tcm = self._positions(TCM_LABEL)
        for i, (key_id, t, confidence) in enumerate(
            zip(columns.keys, columns.t, columns.confidences)
        ):
            at = tcm.get((parts.keys[key_id], t))
            if (
                confidence == parts.all_sd
                and at is not None
                and all(
                    facts[at].value(m) == column[i]
                    for m, column in zip(parts.measures, columns.values)
                )
            ):
                continue
            yield self._view(label, i)
