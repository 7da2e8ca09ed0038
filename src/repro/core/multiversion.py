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
folds every fact into empty modes; :meth:`MultiVersionFactTable.refreshed`
folds only the facts appended since a table was inferred into a *new* table
that shares every untouched row.  A table is never mutated once built.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple, Sequence

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


CellKey = tuple[tuple[tuple[str, str], ...], Instant]
"""A cell within one mode: its sorted ``(dimension, leaf)`` pairs and ``t``."""


def _cell_key(coordinates: Mapping[str, str], t: Instant) -> CellKey:
    return (tuple(sorted(coordinates.items())), t)


@dataclass(frozen=True)
class _Basis:
    """What a table was inferred from — the state :meth:`refreshed` checks."""

    token: int
    facts: tuple[FactRow, ...]
    structure: int
    targets: Mapping[tuple[str, str], frozenset[str]]  # leaf ids per (mode, dim)
    build_args: Mapping[str, Any]


@contextmanager
def _inference(kind: str) -> Iterator[Any]:
    """The ``mvft.build`` span and ``mvft.builds`` counter of one pass."""
    with _obs.current_tracer().span("mvft.build", attributes={"kind": kind}) as span:
        yield span
    metrics = _obs.current_metrics()
    if metrics.enabled:
        metrics.counter("mvft.builds", {"kind": kind}).inc()


class _Parts:
    """Intern pools for the fact-independent parts of rows: one read-only
    coordinates mapping per sorted target key, one confidences mapping per
    tuple of factors, one provenance tuple per value.  A table and every
    table derived from it share one pool.  Entries are only ever added,
    with ``setdefault``, so tables derived from one parent on several
    threads still receive one object per value."""

    def __init__(self, measures: Sequence[str]) -> None:
        self.measures = tuple(measures)
        self._coordinates: dict[tuple[tuple[str, str], ...], Mapping[str, str]] = {}
        self._confidences: dict[tuple[ConfidenceFactor, ...], Mapping[str, ConfidenceFactor]] = {}
        self._provenance: dict[tuple[str, ...], tuple[str, ...]] = {}

    def coordinates(self, key: tuple[tuple[str, str], ...]) -> Mapping[str, str]:
        found = self._coordinates.get(key)
        if found is None:
            found = self._coordinates.setdefault(key, MappingProxyType(dict(key)))
        return found

    def confidences(
        self, factors: tuple[ConfidenceFactor, ...]
    ) -> Mapping[str, ConfidenceFactor]:
        found = self._confidences.get(factors)
        if found is None:
            found = self._confidences.setdefault(
                factors, MappingProxyType(dict(zip(self.measures, factors)))
            )
        return found

    def provenance(self, entries: tuple[str, ...]) -> tuple[str, ...]:
        return self._provenance.setdefault(entries, entries)


class _Landing(NamedTuple):
    """One cell a fact on given leaves lands on in one version mode —
    everything about it that does not depend on the fact's values."""

    key: tuple[tuple[str, str], ...]  # sorted (dimension, leaf) pairs
    chains: tuple[tuple[Callable[[Any], Any], ...], ...]  # per measure, route by route
    confidences: Mapping[str, ConfidenceFactor]  # SD ⊗cf each route's factor
    provenance: tuple[str]  # the conversion steps, for a fact without a source


_Contribution = tuple[Mapping[str, ConfidenceFactor], list, tuple[str, ...]]


class _Kernel:
    """Definitions 11 and 12 for one schema state.

    Where a fact lands in a mode, the ⊗cf confidences and provenance text
    of each landing depend only on the fact's leaves, so they are planned
    once per (leaves, mode); a fact then only converts its values.  Routes
    are memoized per (member version, mode, dimension)."""

    def __init__(
        self, schema: "TemporalMultidimensionalSchema", basis: _Basis, parts: _Parts
    ) -> None:
        self.schema = schema
        self.dimension_ids = schema.dimension_ids
        self.measures = schema.measure_names
        self.aggregates = [schema.measure(m).aggregate for m in self.measures]
        self.targets = basis.targets
        self.max_hops = basis.build_args["max_hops"]
        self.parts = parts
        self.route_cache: dict[tuple[str, str, str], list[Route]] = {}
        self.all_sd = parts.confidences((SD,) * len(self.measures))
        self.source_data = parts.provenance(("source data",))

    def plan(self, fact: FactRow, label: str) -> tuple[_Landing, ...] | str:
        """Where any fact on ``fact``'s leaves lands in mode ``label``, or
        the first dimension along which no route leaves its leaf."""
        measures, aggregator = self.measures, self.schema.cf_aggregator
        routes_per_dim: list[list[Route]] = []
        for did in self.dimension_ids:
            source = fact.coordinate(did)
            routes = self.route_cache.get((source, label, did))
            if routes is None:
                routes = self.schema.mappings.routes(
                    source, self.targets[(label, did)],
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
            landings.append(_Landing(
                tuple(sorted(targets)),
                tuple(
                    tuple(route.maps[m].function.apply for route in combo)
                    for m in measures
                ),
                self.parts.confidences(tuple(confidences)),
                self.parts.provenance((entry,)),
            ))
        return tuple(landings)

    def fold(
        self,
        label: str,
        facts: Sequence[FactRow],
        existing: Mapping[CellKey, MVFactRow],
    ) -> tuple[dict[CellKey, MVFactRow], list[UnmappedFact]]:
        """Fold ``facts`` into the cells of one version mode with each
        measure's ``⊕`` and ``⊗cf``, resuming the cells in ``existing``
        from their folded values (sound for :data:`FOLDABLE_AGGREGATES`).
        Returns the touched cells and the facts with no route."""
        measures, parts = self.measures, self.parts
        leaves_of = operator.itemgetter(*self.dimension_ids)
        plans: dict[Any, tuple[_Landing, ...] | str] = {}
        cells: dict[CellKey, list[_Contribution]] = {}
        unmapped: list[UnmappedFact] = []
        for fact in facts:
            leaves = leaves_of(fact.coordinates)
            plan = plans.get(leaves)
            if plan is None:
                plan = plans[leaves] = self.plan(fact, label)
            if isinstance(plan, str):
                unmapped.append(UnmappedFact(
                    fact=fact, mode=label, dimension=plan, source=fact.coordinate(plan),
                ))
                continue
            values, source = fact.values, fact.source
            for landing in plan:
                converted = []
                for m, chain in zip(measures, landing.chains):
                    value = values.get(m)
                    for apply in chain:
                        value = apply(value)
                    converted.append(value)
                provenance = landing.provenance
                if source is not None:
                    provenance = (f"{provenance[0]} [from {source}]",)
                contribution = (landing.confidences, converted, provenance)
                cell = cells.get((landing.key, fact.t))
                if cell is None:
                    cells[(landing.key, fact.t)] = [contribution]
                else:
                    cell.append(contribution)
        aggregator = self.schema.cf_aggregator
        rows: dict[CellKey, MVFactRow] = {}
        for key, contributions in cells.items():
            row = existing.get(key)
            if row is not None:
                contributions.insert(0, (
                    row.confidences, [row.values[m] for m in measures], row.provenance,
                ))
            if len(contributions) == 1:
                # ⊗cf over a single factor is that factor.
                confidences, _, provenance = contributions[0]
            else:
                confidences = parts.confidences(tuple(
                    aggregator.combine_all([c[0][m] for c in contributions])
                    for m in measures
                ))
                provenance = parts.provenance(
                    tuple(entry for c in contributions for entry in c[2])
                )
            columns = zip(*(c[1] for c in contributions))
            rows[key] = MVFactRow._from_parts(
                parts.coordinates(key[0]),
                key[1],
                label,
                MappingProxyType({
                    m: agg.combine_all(column)
                    for m, agg, column in zip(measures, self.aggregates, columns)
                }),
                confidences,
                provenance,
            )
        return rows, unmapped

    def tcm_row(self, fact: FactRow) -> MVFactRow:
        """``f'|tcm = f × {sd}^m``: the fact itself, fully confident."""
        return MVFactRow._from_parts(
            fact.coordinates,
            fact.t,
            TCM_LABEL,
            MappingProxyType({m: fact.value(m) for m in self.measures}),
            self.all_sd,
            self.source_data if fact.source is None
            else (f"source data [from {fact.source}]",),
        )


def _merge(
    rows: tuple[MVFactRow, ...],
    cells: dict[CellKey, MVFactRow],
    existing: Mapping[CellKey, MVFactRow],
) -> tuple[MVFactRow, ...]:
    """``rows`` with ``cells`` replaced or inserted in version-mode row
    order: time, then sorted coordinates."""
    ordered = sorted(cells.items(), key=lambda item: (item[0][1], item[0][0]))
    if not rows:
        return tuple(row for _, row in ordered)
    merged = list(rows)
    for (coordinates, t), row in ordered:
        at = bisect.bisect_left(
            merged, (t, coordinates),
            key=lambda r: (r.t, tuple(sorted(r.coordinates.items()))),
        )
        if (coordinates, t) in existing:
            merged[at] = row
        else:
            merged.insert(at, row)
    return tuple(merged)


class MultiVersionFactTable:
    """The inferred multiversion store behind every presentation mode.

    Build with :meth:`build`, bring up to date with :meth:`refreshed`;
    query with :meth:`slice`, :meth:`lookup` and :meth:`rows`.  A table is
    immutable: its mode slices and :attr:`unmapped` are tuples, and a
    newer schema state always yields a *new* table.
    """

    def __init__(
        self,
        schema: "TemporalMultidimensionalSchema",
        modes: ModeSet,
        rows_by_mode: dict[str, tuple[MVFactRow, ...]],
        index: dict[str, dict[CellKey, MVFactRow]],
        unmapped: dict[str, tuple[UnmappedFact, ...]],
        basis: _Basis,
        parts: _Parts,
    ) -> None:
        self._schema = schema
        self._modes = modes
        self._rows_by_mode = rows_by_mode
        self._index = index
        self._unmapped = unmapped
        self._basis = basis
        self._parts = parts
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
        mode_labels: Sequence[str] | None = None,
    ) -> "MultiVersionFactTable":
        """Infer ``f'`` from the schema (Definition 11).

        ``mode_labels`` restricts inference to a subset of modes (always
        including any requested version modes; ``tcm`` is cheap and always
        materialized unless explicitly excluded).
        """
        with _inference("full") as span:
            token = schema.version_token()
            modes = schema.presentation_modes(horizon=horizon)
            wanted = list(modes.labels) if mode_labels is None else list(mode_labels)
            for label in wanted:
                modes.mode(label)  # raise early on unknown labels
            labels = [label for label in modes.labels if label in wanted]
            targets = {
                (mode.label, did): mode.version.leaf_ids(did)
                for mode in modes.version_modes
                if mode.label in wanted
                for did in schema.dimension_ids
            }
            args = dict(horizon=horizon, max_hops=max_hops, mode_labels=mode_labels)
            facts = tuple(schema.facts)
            basis = _Basis(token, facts, schema.structure_token(), targets, args)
            return cls._fold(
                schema, modes, {label: () for label in labels},
                {label: {} for label in labels},
                {label: () for label in labels if label != TCM_LABEL},
                basis, _Parts(schema.measure_names), facts, span,
            )

    def refreshed(self) -> "MultiVersionFactTable":
        """A table matching the live schema; this one is left untouched.

        * **current** — nothing changed since inference: ``self``;
        * **derived** — facts were only appended past this table's fact
          prefix, no dimension or mapping changed and every measure is in
          :data:`FOLDABLE_AGGREGATES`: a new table sharing every untouched
          row and mode slice, with the new facts folded into the affected
          cells — rows, their order, :attr:`unmapped` and lookups exactly
          as a rebuild would give;
        * **rebuilt** — otherwise (an evolution, a new mapping, a rolled
          back fact): a full :meth:`build` with this table's parameters.
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
                return self._fold(
                    schema, self._modes, self._rows_by_mode, self._index, self._unmapped,
                    replace(basis, token=token, facts=facts), self._parts,
                    facts[folded:], span,
                )
        return self.build(schema, **basis.build_args)

    @classmethod
    def _fold(
        cls,
        schema: "TemporalMultidimensionalSchema",
        modes: ModeSet,
        rows_by_mode: Mapping[str, tuple[MVFactRow, ...]],
        index: Mapping[str, dict[CellKey, MVFactRow]],
        unmapped: Mapping[str, tuple[UnmappedFact, ...]],
        basis: _Basis,
        parts: _Parts,
        facts: Sequence[FactRow],
        span: Any,
    ) -> "MultiVersionFactTable":
        """A new table: these slices with ``facts`` folded into every mode.
        Untouched slices and index maps are shared, never copied."""
        kernel = _Kernel(schema, basis, parts)
        rows_by_mode, index, unmapped = dict(rows_by_mode), dict(index), dict(unmapped)
        for label, rows in rows_by_mode.items():
            if label == TCM_LABEL:
                added = tuple(kernel.tcm_row(fact) for fact in facts)
                rows += added  # one row per fact; a later duplicate wins lookups
                cells = {_cell_key(row.coordinates, row.t): row for row in added}
            else:
                cells, lost = kernel.fold(label, facts, index[label])
                if lost:
                    unmapped[label] += tuple(lost)
                if cells:
                    rows = _merge(rows, cells, index[label])
            if cells:
                rows_by_mode[label] = rows
                index[label] = {**index[label], **cells}
        table = cls(schema, modes, rows_by_mode, index, unmapped, basis, parts)
        span.set("facts", len(facts)).set("rows", len(table))
        span.set("unmapped", sum(len(lost) for lost in unmapped.values()))
        return table

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
        grouped by mode in mode order, in fact order within a mode."""
        return [fact for lost in self._unmapped.values() for fact in lost]

    def slice(self, mode_label: str) -> list[MVFactRow]:
        """All rows of one presentation mode."""
        if mode_label not in self._rows_by_mode:
            if mode_label in self._modes:
                return []
            raise QueryError(f"unknown presentation mode {mode_label!r}")
        return list(self._rows_by_mode[mode_label])

    def rows(self) -> Iterator[MVFactRow]:
        """Iterate every materialized row across modes."""
        for mode_rows in self._rows_by_mode.values():
            yield from mode_rows

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows_by_mode.values())

    def lookup(
        self, coordinates: Mapping[str, str], t: Instant, mode_label: str
    ) -> MVFactRow | None:
        """The cell at exactly these coordinates/time/mode, if materialized."""
        cells = self._index.get(mode_label)
        return None if cells is None else cells.get(_cell_key(coordinates, t))

    def cell_count(self) -> dict[str, int]:
        """Number of materialized cells per mode (storage-redundancy bench)."""
        return {label: len(rows) for label, rows in self._rows_by_mode.items()}
