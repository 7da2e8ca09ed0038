"""The multiversion query engine.

This is the layer that answers the paper's motivating queries Q1 and Q2
(§2.1) under every interpretation: *temporally consistent*, or *mapped into
a chosen structure version* — the Temporal Modes of Presentation of
Definition 10.

A :class:`Query` declares:

* a presentation ``mode`` (``"tcm"`` or a structure-version id),
* ``group_by`` terms — a time bucket (:class:`TimeGroup`) and/or dimension
  levels (:class:`LevelGroup`),
* an optional time window and coordinate filter,
* the measures to report.

Execution groups MultiVersion fact rows of the requested mode, resolving
each leaf coordinate to its ancestor(s) at the requested level **in the
structure the mode prescribes**: ``D(t)`` at the fact's own time for
``tcm`` (the structure of the version that contains ``t``), the static
restricted dimension for version modes.
Measures fold with their ``⊕`` and confidences with ``⊗cf``, so every
result cell carries the reliability tag the §5.2 front end colours by.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

from repro.observability import runtime as _obs
from repro.observability.lineage import NULL_LINEAGE
from repro.observability.tracing import STOPWATCH

from .chronology import Granularity, Instant, Interval, YEAR
from .confidence import ConfidenceFactor
from .errors import QueryError
from .multiversion import MVFactRow, MultiVersionFactTable
from .presentation import PresentationMode, TCM_LABEL
from .versions import StructureVersion

__all__ = [
    "TimeGroup",
    "LevelGroup",
    "AttributeGroup",
    "LevelFilter",
    "Query",
    "ResultCell",
    "ResultRow",
    "ResultTable",
    "QueryEngine",
    "merge_contributions",
]


@dataclass(frozen=True)
class TimeGroup:
    """Group facts by a time bucket (e.g. year, as in Q1/Q2)."""

    granularity: Granularity = YEAR

    @property
    def column(self) -> str:
        """Column header in the result table."""
        return self.granularity.name


@dataclass(frozen=True)
class LevelGroup:
    """Group facts by the member at a hierarchy level of one dimension.

    ``level`` is an explicit level name (``"Division"``) or a ``depth-<k>``
    label when the dimension infers levels from DAG depth (Definition 4).
    Labels in the result are member *names* (several member versions of the
    same member share a name, exactly like the paper's tables).

    With multiple hierarchies a leaf may have several ancestors at the
    level: the fact then contributes to each (standard multi-rollup
    semantics).  With a non-covering hierarchy a leaf may have none: it is
    grouped under ``None``, rendered ``"(no <level>)"``.
    """

    dimension: str
    level: str

    @property
    def column(self) -> str:
        """Column header in the result table."""
        return self.level


@dataclass(frozen=True)
class AttributeGroup:
    """Group facts by a user-defined attribute of the leaf member version.

    Member versions carry the optional attribute set ``[A]`` (Definition
    1), and a *transformation* may change an attribute — creating a new
    version.  Grouping by an attribute therefore honours the presentation
    mode exactly like level grouping does: in ``tcm`` the attribute value
    of the version valid at the fact's time applies; in a version mode the
    attribute of the version living in that structure does.

    Leaves without the attribute group under ``None``.
    """

    dimension: str
    attribute: str

    @property
    def column(self) -> str:
        """Column header in the result table."""
        return self.attribute


GroupTerm = TimeGroup | LevelGroup | AttributeGroup


@dataclass(frozen=True)
class LevelFilter:
    """Keep only facts rolling up into given members of a level.

    The filter is resolved *in the query's presentation mode*: slicing on
    ``Division = Sales`` keeps the facts whose leaf coordinate rolls into
    Sales in the structure the mode prescribes — D(t) for ``tcm``, the
    static version structure otherwise.  With multiple hierarchies a fact
    passes if *any* of its ancestors at the level matches.
    """

    dimension: str
    level: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise QueryError("a level filter needs at least one value")


@dataclass(frozen=True)
class Query:
    """A declarative multiversion query.

    Parameters
    ----------
    mode:
        Presentation mode label: ``"tcm"`` or a structure version id.
    group_by:
        Group terms, in output column order.
    measures:
        Measure names to report (defaults to every schema measure).
    time_range:
        Optional closed interval filtering fact times.
    level_filters:
        Optional slice/dice restrictions resolved through the mode's
        hierarchy (:class:`LevelFilter`).
    coordinate_filter:
        Optional predicate over the raw MV row, for restrictions the
        declarative filters cannot express.
    """

    mode: str = TCM_LABEL
    group_by: tuple[GroupTerm, ...] = ()
    measures: tuple[str, ...] = ()
    time_range: Interval | None = None
    level_filters: tuple[LevelFilter, ...] = ()
    coordinate_filter: Callable[[MVFactRow], bool] | None = None

    def with_mode(self, mode: str) -> "Query":
        """The same query presented in another mode — the user 'switching
        between temporal modes' that §4.1 calls out."""
        return Query(
            mode=mode,
            group_by=self.group_by,
            measures=self.measures,
            time_range=self.time_range,
            level_filters=self.level_filters,
            coordinate_filter=self.coordinate_filter,
        )


@dataclass(frozen=True, slots=True)
class ResultCell:
    """One measure value of a result row, with its confidence."""

    measure: str
    value: float | None
    confidence: ConfidenceFactor | None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cf = self.confidence.symbol if self.confidence else "-"
        return f"{self.measure}={self.value}({cf})"


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One grouped row: the group key labels plus one cell per measure.

    :class:`ResultTable` builds these as views on each access."""

    group: tuple[object, ...]
    cells: tuple[ResultCell, ...]

    def value(self, measure: str) -> float | None:
        """Value of ``measure`` in this row."""
        for cell in self.cells:
            if cell.measure == measure:
                return cell.value
        raise QueryError(f"result row has no measure {measure!r}")

    def confidence(self, measure: str) -> ConfidenceFactor | None:
        """Confidence of ``measure`` in this row."""
        for cell in self.cells:
            if cell.measure == measure:
                return cell.confidence
        raise QueryError(f"result row has no measure {measure!r}")


class ResultTable:
    """A grouped result with named group columns, held as columns.

    ``group_columns`` holds one sequence of labels per group column;
    ``value_columns`` and ``confidence_columns`` one sequence per measure.
    All are aligned row by row, in row order: the engine passes its rows
    sorted by group labels, ``None`` last.  Values are the objects the
    measure's ``⊕`` returned.  :attr:`rows` and iteration build
    :class:`ResultRow` views on each access, so compare rows by content,
    never by identity.
    """

    def __init__(
        self,
        columns: Sequence[str],
        measures: Sequence[str],
        mode: str,
        *,
        group_columns: Sequence[Sequence[object]],
        value_columns: Sequence[Sequence[float | None]],
        confidence_columns: Sequence[Sequence[ConfidenceFactor | None]],
    ) -> None:
        self.columns = list(columns)
        self.measures = list(measures)
        self.mode = mode
        self.group_columns = tuple(map(tuple, group_columns))
        self.value_columns = tuple(map(tuple, value_columns))
        self.confidence_columns = tuple(map(tuple, confidence_columns))
        if not self.columns or len(self.group_columns) != len(self.columns) or not (
            len(self.value_columns) == len(self.confidence_columns) == len(self.measures)
        ):
            raise QueryError(
                "a result table needs one or more group columns, each with its "
                "labels, and a value and a confidence column per measure"
            )
        lengths = set(map(len, (
            *self.group_columns, *self.value_columns, *self.confidence_columns
        )))
        if len(lengths) > 1:
            raise QueryError(f"result columns differ in length: {sorted(lengths)}")
        self._length = lengths.pop()

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[ResultRow]:
        measures = self.measures
        for group, values, confidences in self.records():
            yield ResultRow(group, tuple(map(ResultCell, measures, values, confidences)))

    @property
    def rows(self) -> list[ResultRow]:
        """Every row as a :class:`ResultRow` view, built on each access."""
        return list(self)

    def records(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[tuple[object, ...], tuple, tuple]]:
        """Rows ``[start, stop)`` read off the columns: per row its group
        labels, then its values and its confidences in measure order."""
        return zip(
            _row_major(self.group_columns, start, stop),
            _row_major(self.value_columns, start, stop),
            _row_major(self.confidence_columns, start, stop),
        )

    @cached_property
    def nbytes(self) -> int:
        """The memory this table owns, in bytes: the table, its column
        sequences and each value.  Group labels and confidence factors
        are shared with the structure and not counted.  The result cache
        prices a table by this."""
        size = sys.getsizeof
        kinds = (self.group_columns, self.value_columns, self.confidence_columns)
        total = size(self) + sum(map(size, kinds))
        for columns in kinds:
            total += sum(map(size, columns))
        for column in self.value_columns:
            total += sum(map(size, column))
        return total

    def as_dict(self) -> dict[tuple[object, ...], dict[str, float | None]]:
        """``{group key: {measure: value}}`` — handy for assertions."""
        measures = self.measures
        return {group: dict(zip(measures, values)) for group, values, _ in self.records()}

    def confidences(self) -> dict[tuple[object, ...], dict[str, str | None]]:
        """``{group key: {measure: confidence symbol}}``."""
        measures = self.measures
        return {
            group: {m: cf.symbol if cf else None for m, cf in zip(measures, factors)}
            for group, _, factors in self.records()
        }

    def cell_confidences(self) -> list[ConfidenceFactor | None]:
        """Every cell's confidence, row-major — input to the §5.2 quality
        factor ``Q``."""
        return [cf for _, _, factors in self.records() for cf in factors]

    def to_text(self, *, show_confidence: bool = True) -> str:
        """Render the table in the style of the paper's result tables."""
        headers = [*self.columns, *self.measures]
        body: list[list[str]] = []
        for group, values, confidences in self.records():
            labels = [_render_label(g) for g in group]
            for value, confidence in zip(values, confidences):
                text = "?" if value is None else f"{value:g}"
                if show_confidence and confidence is not None:
                    text += f" ({confidence.symbol})"
                labels.append(text)
            body.append(labels)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


def _sort_key(value: object) -> tuple[int, str]:
    if value is None:
        return (1, "")
    return (0, str(value))


def _row_major(
    columns: tuple[tuple, ...], start: int, stop: int | None
) -> Iterator[tuple]:
    """Rows ``[start, stop)`` of ``columns``, one tuple per row; endless
    empty tuples for no columns (a table's group columns set its length)."""
    if not columns:
        return itertools.repeat(())
    return zip(*(column[start:stop] for column in columns))


def _group_key(group: tuple[object, ...]) -> tuple[tuple[int, str], ...]:
    return tuple(map(_sort_key, group))


def _render_label(value: object) -> str:
    return "(none)" if value is None else str(value)


class QueryEngine:
    """Executes :class:`Query` objects against a MultiVersion fact table.

    ``tracer`` / ``metrics`` inject observability instruments for tests
    and profiling; left as ``None`` they resolve to the process-wide
    defaults of :mod:`repro.observability` at call time, which are
    no-op-cheap until explicitly enabled.

    ``lineage`` attaches a
    :class:`~repro.observability.lineage.LineageRecorder`: the collect
    phase then remembers which MultiVersion rows fed each group and the
    finalize phase records every cell's ``⊗cf`` fold — the
    ``explain_cell`` surface.  Lineage is explicit-injection only (no
    process-wide default): provenance capture retains row references, so
    opting in is a per-engine decision.  ``slow_log`` attaches a
    :class:`~repro.observability.health.SlowQueryLog`; over-threshold
    queries land in it with their phase breakdown.

    ``cache`` attaches a :class:`~repro.cache.VersionedResultCache`;
    :meth:`execute` then memoizes results under version-stable keys (see
    :mod:`repro.cache`).  ``cache_policy_digest`` scopes this engine's
    entries to an RLS policy so secured sessions never share entries
    across tenants.
    """

    def __init__(
        self,
        mvft: MultiVersionFactTable,
        *,
        tracer=None,
        metrics=None,
        lineage=None,
        slow_log=None,
        cache=None,
        cache_policy_digest=None,
    ) -> None:
        self._mvft = mvft
        self._schema = mvft.schema
        self._tracer = tracer
        self._metrics = metrics
        self._lineage = lineage if lineage is not None else NULL_LINEAGE
        self._slow_log = slow_log
        self._cache = cache
        self._cache_policy_digest = cache_policy_digest

    @property
    def lineage(self):
        """The attached lineage recorder (``NULL_LINEAGE`` when none)."""
        return self._lineage

    def set_lineage(self, lineage) -> None:
        """Attach (or with ``None`` detach) a lineage recorder."""
        self._lineage = lineage if lineage is not None else NULL_LINEAGE

    def _observability(self):
        """The effective ``(tracer, metrics)`` pair (injected or default)."""
        tracer = self._tracer if self._tracer is not None else _obs.current_tracer()
        metrics = (
            self._metrics if self._metrics is not None else _obs.current_metrics()
        )
        return tracer, metrics

    # -- structure resolution ---------------------------------------------------

    def _labels_at_level(
        self, mode: PresentationMode, version: StructureVersion | None,
        dimension: str, level: str, leaf: str,
    ) -> tuple[object, ...]:
        """Member name(s) of the ancestors-or-self of ``leaf`` that sit at
        ``level`` in ``version``'s structure, the one ``mode`` shows
        (``None`` when that structure is empty)."""
        if version is None:
            return (None,)
        labels = version.level_labels(dimension, level)
        if not labels and leaf in (snap := version.snapshot(dimension)):
            raise QueryError(
                f"dimension {dimension!r} has no level {level!r} in "
                f"mode {mode.label!r} (available: {sorted(snap.levels())})"
            )
        return labels.get(leaf, (None,))

    def _row_labels(
        self, mode: PresentationMode, version: StructureVersion | None, query: Query, coordinates
    ) -> list[tuple[object, ...] | None] | None:
        """Each ``group_by`` term's labels for a row on ``coordinates`` in
        ``version``'s structure, in ``group_by`` order, with ``None`` for a
        time term (its label depends on the row's own ``t``).  ``None``
        when a level filter rejects the row (with multiple hierarchies a
        row passes if *any* of its ancestors at the level matches)."""
        for flt in query.level_filters:
            labels = self._labels_at_level(
                mode, version, flt.dimension, flt.level,
                _leaf(coordinates, flt.dimension),
            )
            if not any(label in flt.values for label in labels):
                return None
        label_sets: list[tuple[object, ...] | None] = []
        for term in query.group_by:
            if isinstance(term, TimeGroup):
                label_sets.append(None)
                continue
            leaf = _leaf(coordinates, term.dimension)
            if isinstance(term, AttributeGroup):
                snap = None if version is None else version.snapshot(term.dimension)
                label_sets.append((
                    snap.member(leaf).attributes.get(term.attribute)
                    if snap is not None and leaf in snap
                    else None,
                ))
            else:
                label_sets.append(self._labels_at_level(
                    mode, version, term.dimension, term.level, leaf
                ))
        return label_sets

    # -- execution -----------------------------------------------------------------

    def resolve(self, query: Query) -> tuple[PresentationMode, list[str]]:
        """Validate a query's mode and measures, raising early on unknowns."""
        mode = self._mvft.modes.mode(query.mode)
        measures = list(query.measures) or self._schema.measure_names
        for m in measures:
            self._schema.measure(m)
        if not query.group_by:
            raise QueryError("a query needs at least one group_by term")
        return mode, measures

    def collect_contributions(
        self,
        query: Query,
        rows: range | None = None,
    ) -> dict[tuple[object, ...], dict[str, list]]:
        """Phase one of execution: group raw ``(value, confidence)`` pairs.

        ``rows`` — a range of row positions in the mode's slice — defaults
        to the whole slice; passing a sub-range is how
        :class:`~repro.concurrency.sharding.ShardedExecutor` runs this
        phase shard-parallel — partial group maps from disjoint ranges
        merge by list concatenation (:func:`merge_contributions`) and
        finalize exactly like the serial path.

        The scan walks the table's columns.  A row's level and attribute
        labels depend only on its coordinates (and, in ``tcm``, its ``t``),
        so they are resolved once per distinct key, and its time labels
        once per distinct ``t``; a row view is built only for a
        ``coordinate_filter`` or lineage.
        """
        mode, measures = self.resolve(query)
        table = self._mvft
        label = mode.label
        if rows is None:
            rows = range(table._count(label))
        elif not isinstance(rows, range) or rows.step != 1:
            raise QueryError("rows must be a step-1 range of row positions")
        measure_index = [self._schema.measure_names.index(m) for m in measures]
        time_range, keep = query.time_range, query.coordinate_filter
        # The group_by slots of the time terms, and their labels per t.
        slots = [k for k, term in enumerate(query.group_by) if isinstance(term, TimeGroup)]
        grains = [query.group_by[k].granularity for k in slots]  # type: ignore[union-attr]
        stamps_at: dict[Instant, list[tuple[object]]] = {}
        # The structure version the mode shows at each t (tcm's varies).
        versions_at: dict[Instant, StructureVersion | None] = {}
        modes = table.modes
        groups: dict[tuple[object, ...], list[list]] = {}
        # Hoisted once per phase: the disabled path pays one bool test per
        # matched row, never an attribute chain.
        lineage = self._lineage
        record_lineage = lineage.enabled
        # label key -> each term's labels, or None when filtered out
        labels_of: dict[object, list | None] = {}
        scanned = 0
        matched = 0
        for i, key, coordinates, t, values, factors in table._scan(label, rows):
            scanned += 1
            if time_range is not None and not time_range.contains(t):
                continue
            row = None
            if keep is not None:
                row = table._view(label, i)
                if not keep(row):
                    continue
            label_sets = labels_of.get(key, _MISSING)
            if label_sets is _MISSING:
                version = versions_at.get(t, _MISSING)
                if version is _MISSING:
                    version = versions_at[t] = modes.version_at(mode, t)
                label_sets = labels_of[key] = self._row_labels(
                    mode, version, query, coordinates
                )
            if label_sets is None:
                continue
            matched += 1
            if slots:
                stamps = stamps_at.get(t)
                if stamps is None:
                    stamps = stamps_at[t] = [(g.label(g.bucket(t)),) for g in grains]
                label_sets = list(label_sets)
                for k, stamp in zip(slots, stamps):
                    label_sets[k] = stamp
            if record_lineage and row is None:
                row = table._view(label, i)
            for combo in itertools.product(*label_sets):
                acc = groups.get(combo)
                if acc is None:
                    acc = groups[combo] = [[] for _ in measure_index]
                for contributions, j in zip(acc, measure_index):
                    contributions.append((values[j], factors[j]))
                if record_lineage:
                    lineage.add_contribution(label, combo, row)
        _, metrics = self._observability()
        if metrics.enabled:
            # Row totals accumulate locally above; the registry is touched
            # once per phase, keyed by mode so per-structure-version scan
            # cost stays visible.
            labels = {"mode": label}
            metrics.counter("query.rows_scanned", labels).inc(scanned)
            metrics.counter("query.rows_matched", labels).inc(matched)
        return {combo: dict(zip(measures, acc)) for combo, acc in groups.items()}

    def finalize(
        self,
        query: Query,
        groups: dict[tuple[object, ...], dict[str, list]],
    ) -> ResultTable:
        """Phase two of execution: fold each group with ``⊕`` and ``⊗cf``.

        The group keys are sorted once and each measure's values and
        confidences are folded straight into the table's columns."""
        mode, measures = self.resolve(query)
        order = sorted(groups, key=_group_key)
        accs = [groups[group] for group in order]
        cf_aggregator = self._schema.cf_aggregator
        value_columns: list[tuple[float | None, ...]] = []
        confidence_columns: list[tuple[ConfidenceFactor | None, ...]] = []
        for m in measures:
            fold = self._schema.measure(m).aggregate.combine_all
            contributions = [acc[m] for acc in accs]
            value_columns.append(tuple([fold(map(_first, c)) for c in contributions]))
            confidence_columns.append(tuple([
                cf_aggregator.combine_all(map(_second, c)) if c else None
                for c in contributions
            ]))
        lineage = self._lineage
        if lineage.enabled:
            for i, (group, acc) in enumerate(zip(order, accs)):
                for k, m in enumerate(measures):
                    lineage.record_cell(
                        mode.label,
                        group,
                        m,
                        value_columns[k][i],
                        confidence_columns[k][i],
                        acc[m],
                        cf_aggregator,
                    )
        columns = [term.column for term in query.group_by]
        _, metrics = self._observability()
        if metrics.enabled:
            metrics.counter("query.cells_emitted", {"mode": mode.label}).inc(
                len(order) * len(measures)
            )
        return ResultTable(
            columns,
            measures,
            mode.label,
            group_columns=tuple(zip(*order)) if order else [()] * len(columns),
            value_columns=value_columns,
            confidence_columns=confidence_columns,
        )

    def execute(self, query: Query) -> ResultTable:
        """Run a query and return its grouped, confidence-tagged result.

        With an attached :class:`~repro.cache.VersionedResultCache` the
        engine consults it first: the key binds the table's snapshot
        version and build-time structure token, so a hit is exactly the
        table this engine would recompute.  Lineage-recording engines
        bypass the cache — a hit would skip provenance capture and
        silently leave ``explain_cell`` empty.  Cached
        :class:`ResultTable` objects are shared across callers and
        treated as immutable.
        """
        return self.execute_with(query, self._execute_uncached)

    def execute_with(
        self, query: Query, compute: Callable[[Query], ResultTable]
    ) -> ResultTable:
        """The cached execution path around ``compute``.

        :meth:`execute` passes the serial pipeline;
        :class:`~repro.concurrency.sharding.ShardedExecutor` passes the
        same pipeline with its shard-parallel collect, so both share one
        key, one lookup and the ``query.cache_hits`` /
        ``query.cache_misses`` counters.
        """
        cache = self._cache
        key = None
        if cache is not None and not self._lineage.enabled:
            key = cache.key_for(self._mvft, query, self._cache_policy_digest)
        if key is None:
            return compute(query)
        _, metrics = self._observability()
        table = cache.get(key)
        if table is not None:
            if metrics.enabled:
                metrics.counter("query.cache_hits", {"mode": query.mode}).inc()
            return table
        table = compute(query)
        if metrics.enabled:
            metrics.counter("query.cache_misses", {"mode": query.mode}).inc()
        cache.put(key, table, cost=table.nbytes)
        return table

    @property
    def cache(self):
        """The attached result cache, if any."""
        return self._cache

    def _execute_uncached(
        self, query: Query, collect: Callable[[Query], dict] | None = None
    ) -> ResultTable:
        """The one execution pipeline: resolve, ``collect``, finalize.

        ``collect`` defaults to :meth:`collect_contributions` over the
        whole slice.  The slow log reads its times off the phase spans —
        timed by :data:`~repro.observability.tracing.STOPWATCH` when
        tracing is off."""
        tracer, metrics = self._observability()
        slow = self._slow_log
        slow_on = slow is not None and slow.enabled
        if slow_on and not tracer.enabled:
            tracer = STOPWATCH
        if self._lineage.enabled:
            self._lineage.begin(query.mode)
        with tracer.span("query.execute", attributes={"mode": query.mode}) as span:
            with tracer.span("query.resolve") as resolve_span:
                self.resolve(query)
            with tracer.span("query.collect_contributions") as collect_span:
                groups = (collect or self.collect_contributions)(query)
                collect_span.set("groups", len(groups))
            with tracer.span("query.finalize") as finalize_span:
                table = self.finalize(query, groups)
                finalize_span.set("rows", len(table))
        if metrics.enabled:
            metrics.counter("query.executed", {"mode": query.mode}).inc()
        if slow_on:
            slow.record(
                mode=query.mode,
                seconds=span.duration_s,
                phases={
                    "resolve": resolve_span.duration_s,
                    "collect_contributions": collect_span.duration_s,
                    "finalize": finalize_span.duration_s,
                },
                query=query,
            )
        return table

    def execute_all_modes(self, query: Query) -> dict[str, ResultTable]:
        """Run the same query in every presentation mode — the §2.1 drill
        across interpretations."""
        return {
            label: self.execute(query.with_mode(label))
            for label in self._mvft.modes.labels
        }


_MISSING = object()
_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


def _leaf(coordinates, dimension: str) -> str:
    leaf = coordinates.get(dimension)
    if leaf is None:
        raise QueryError(f"rows carry no coordinate for dimension {dimension!r}")
    return leaf


def merge_contributions(
    partials: Sequence[dict[tuple[object, ...], dict[str, list]]],
) -> dict[tuple[object, ...], dict[str, list]]:
    """Merge partial group maps from disjoint row ranges.

    Contribution lists concatenate in partial order, so merging shard
    partials produced from contiguous row ranges (in shard index order)
    reproduces the exact fold order of a serial
    :meth:`QueryEngine.collect_contributions` over the whole slice — the
    invariant that makes sharded execution byte-deterministic.
    """
    merged: dict[tuple[object, ...], dict[str, list]] = {}
    for partial in partials:
        for group, acc in partial.items():
            target = merged.get(group)
            if target is None:
                merged[group] = {m: list(contribs) for m, contribs in acc.items()}
                continue
            for m, contribs in acc.items():
                target.setdefault(m, []).extend(contribs)
    return merged
