"""The OLAP cube (Figure 1's third tier).

The cube wraps a MultiVersion fact table and exposes *axes* the OLAP
operators manipulate:

* the TMP axis (presentation modes, §4.1's flat dimension),
* a time axis at a chosen granularity,
* one axis per (dimension, level).

A :class:`CubeView` is a fully specified pivot: a mode, a row axis, a
column axis and a measure; its cells carry values *and* confidence
factors so the front end can colour them (§5.2).  Views are computed
through the multiversion query engine, optionally against a materialized
aggregate lattice (:mod:`repro.olap.aggregates`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

from repro.core.chronology import Granularity, YEAR
from repro.core.confidence import ConfidenceFactor
from repro.core.errors import QueryError
from repro.core.multiversion import MultiVersionFactTable
from repro.core.query import LevelGroup, Query, QueryEngine, TimeGroup
from repro.observability import runtime as _obs

__all__ = ["Axis", "TimeAxis", "LevelAxis", "CubeView", "Cube"]


@dataclass(frozen=True)
class TimeAxis:
    """The time axis at a granularity (year by default, like Q1/Q2)."""

    granularity: Granularity = YEAR

    def group_term(self):
        """The query group term implementing this axis."""
        return TimeGroup(self.granularity)

    @property
    def name(self) -> str:
        """Axis label."""
        return self.granularity.name


@dataclass(frozen=True)
class LevelAxis:
    """A (dimension, level) axis, e.g. ``org / Division``."""

    dimension: str
    level: str

    def group_term(self):
        """The query group term implementing this axis."""
        return LevelGroup(self.dimension, self.level)

    @property
    def name(self) -> str:
        """Axis label."""
        return f"{self.dimension}/{self.level}"


Axis = TimeAxis | LevelAxis


@dataclass(frozen=True, slots=True)
class CubeCell:
    """One pivot cell: value plus confidence (may be empty)."""

    value: float | None
    confidence: ConfidenceFactor | None

    @property
    def empty(self) -> bool:
        """Whether no fact contributes to the cell."""
        return self.confidence is None


class CubeView:
    """A materialized 2-D pivot of the cube."""

    def __init__(
        self,
        mode: str,
        row_axis: Axis,
        col_axis: Axis,
        measure: str,
        rows: list[object],
        cols: list[object],
        cells: dict[tuple[object, object], CubeCell],
        time_range=None,
    ) -> None:
        self.mode = mode
        self.row_axis = row_axis
        self.col_axis = col_axis
        self.measure = measure
        self.rows = rows
        self.cols = cols
        self.time_range = time_range
        self._cells = cells

    @cached_property
    def nbytes(self) -> int:
        """The memory this view owns, in bytes: the view, its axis label
        lists, its cell dict with each key tuple, each cell and its value.
        Labels and confidence factors are shared and not counted.  The
        result cache prices a view by this."""
        size = sys.getsizeof
        total = size(self) + size(self.rows) + size(self.cols) + size(self._cells)
        for key, cell in self._cells.items():
            total += size(key) + size(cell) + size(cell.value)
        return total

    def cell(self, row: object, col: object) -> CubeCell:
        """The cell at (row label, column label)."""
        return self._cells.get((row, col), CubeCell(None, None))

    def transpose(self) -> "CubeView":
        """Swap rows and columns — the OLAP *rotate* operator."""
        return CubeView(
            mode=self.mode,
            row_axis=self.col_axis,
            col_axis=self.row_axis,
            measure=self.measure,
            rows=list(self.cols),
            cols=list(self.rows),
            cells={(c, r): cell for (r, c), cell in self._cells.items()},
            time_range=self.time_range,
        )

    def confidences(self) -> list[ConfidenceFactor | None]:
        """Every grid cell's confidence, row-major (for the quality factor
        ``Q``, whose denominator is ``Ni·Nj·10`` — the *grid*, including
        empty cross-points, exactly as §5.2 counts it)."""
        return [self.cell(r, c).confidence for r in self.rows for c in self.cols]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CubeView(mode={self.mode}, {self.row_axis.name} × "
            f"{self.col_axis.name}, {len(self.rows)}×{len(self.cols)})"
        )


class Cube:
    """The hypercube over a MultiVersion fact table.

    When built with ``materialize=True`` (or handed an existing
    :class:`~repro.olap.aggregates.AggregateLattice` via ``lattice``), the
    cube answers untimed (time × level) pivots straight from the
    precomputed aggregates — §1.1's "query results are pre-calculated in
    the form of aggregates".  Pivots the lattice cannot serve (custom time
    windows, level × level grids) fall back to the query engine.

    Both paths memoize through a shared
    :class:`~repro.cache.VersionedResultCache` (``cache``; a private one
    is built when none is passed) and every pivot first re-checks the
    live schema's version token (:meth:`refresh`), so a write between two
    pivots is always visible in the second — the lattice is a lazy view,
    not a one-shot materialization.  ``policy_digest`` scopes cache
    entries to an RLS policy for secured server sessions.
    """

    def __init__(
        self,
        mvft: MultiVersionFactTable,
        *,
        materialize: bool = False,
        lattice=None,
        executor=None,
        tracer=None,
        metrics=None,
        explain: bool = False,
        lineage=None,
        cache=None,
        policy_digest=None,
    ) -> None:
        self.schema = mvft.schema
        self._tracer = tracer
        self._metrics = metrics
        if lineage is None and explain:
            from repro.observability.lineage import LineageRecorder

            lineage = LineageRecorder()
        self.lineage = lineage
        if cache is None:
            from repro.cache import VersionedResultCache

            cache = VersionedResultCache()
        self.cache = cache
        self._policy_digest = policy_digest
        self.executor = executor
        self._bind(mvft)
        if executor is not None and lineage is not None:
            # Executor-path pivots run on the executor's own engine.
            executor.engine.set_lineage(lineage)
        if lattice is None and materialize:
            from .aggregates import AggregateLattice

            lattice = AggregateLattice(
                mvft, executor=executor, cache=cache, policy_digest=policy_digest
            )
        self.lattice = lattice

    def _bind(self, mvft: MultiVersionFactTable) -> None:
        self.mvft = mvft
        self.engine = QueryEngine(
            mvft,
            tracer=self._tracer,
            metrics=self._metrics,
            lineage=self.lineage,
            cache=self.cache,
            cache_policy_digest=self._policy_digest,
        )

    def refresh(self) -> bool:
        """Rebind to a table matching the live schema if it mutated.

        The MultiVersion table is immutable, so a cube over a *live*
        (un-snapshotted) schema would otherwise keep serving pre-write
        structure and totals forever — both through the lattice and
        through the engine.  Every pivot first asks the table for
        :meth:`~repro.core.multiversion.MultiVersionFactTable.refreshed`
        (derived after fact appends, rebuilt after evolutions); cubes
        over MVCC snapshot clones never pay this (their schemas are
        immutable).  Returns whether the table changed.
        """
        mvft = self.mvft.refreshed()
        if mvft is self.mvft:
            return False
        self._bind(mvft)
        if self.executor is not None:
            from .aggregates import _rebuild_executor

            self.executor = _rebuild_executor(self.executor, mvft)
            if self.executor is not None and self.lineage is not None:
                self.executor.engine.set_lineage(self.lineage)
        if self.lattice is not None:
            self.lattice.rebind(mvft)
        metrics = (
            self._metrics if self._metrics is not None else _obs.current_metrics()
        )
        if metrics.enabled:
            metrics.counter("olap.mvft_rebuilds").inc()
        return True

    @classmethod
    def from_cursor(
        cls, cursor, *, materialize: bool = False, executor=None,
        explain: bool = False,
    ) -> "Cube":
        """A cube over a pinned snapshot version.

        ``cursor`` is a :class:`~repro.concurrency.cursor.SnapshotCursor`;
        pivots read the cursor's MultiVersion fact table, so concurrent
        evolution transactions never show through mid-analysis.  An
        optional ``executor``
        (:class:`~repro.concurrency.sharding.ShardedExecutor` over the
        same MVFT) runs engine-path pivots shard-parallel.
        """
        return cls(
            cursor.mvft, materialize=materialize, executor=executor,
            explain=explain, cache=getattr(cursor, "result_cache", None),
        )

    @classmethod
    def from_warehouse(
        cls, wal, *, as_of=None, materialize: bool = False,
        explain: bool = False,
    ) -> "Cube":
        """A cube over a journaled warehouse, optionally back in time.

        ``wal`` is a write-ahead journal (or its path); ``as_of`` is an
        LSN, a restore-point name, or ``None`` for the journal head.  The
        historical schema is materialized once via
        :func:`repro.robustness.pitr.open_as_of` and the cube pivots it —
        AS-OF time travel for the analyst's view.
        """
        from repro.robustness.pitr import open_as_of

        return cls(
            open_as_of(wal, as_of).mvft, materialize=materialize,
            explain=explain,
        )

    @property
    def modes(self) -> list[str]:
        """Available presentation modes (the TMP axis)."""
        return self.mvft.modes.labels

    def level_axes(self) -> list[LevelAxis]:
        """Every (dimension, level) axis available in the schema.

        Levels are taken from the latest structure version (Definition 4:
        levels emerge from instances and evolve; the latest version is the
        natural navigation default).
        """
        axes: list[LevelAxis] = []
        version_modes = self.mvft.modes.version_modes
        if not version_modes:
            return axes
        last = version_modes[-1].version
        assert last is not None
        for did in self.schema.dimension_ids:
            axes.extend(LevelAxis(did, level) for level in last.level_names(did))
        return axes

    def _view_key(
        self,
        mode: str,
        row_axis: Axis,
        col_axis: Axis,
        measure: str,
        time_range,
        filters,
    ):
        """A version-bound cache key for the *finished* pivot view.

        Only the hot shape memoizes — no filters, no time window, no
        lineage capture; everything else recomputes (windows and filter
        tuples are open-ended and lineage must observe the real run).
        """
        if filters or time_range is not None:
            return None
        if self.lineage is not None and self.lineage.enabled:
            return None
        from repro.cache import NO_POLICY, CacheKey

        def tag(axis: Axis) -> str:
            kind = "t" if isinstance(axis, TimeAxis) else "l"
            return f"{kind}:{axis.name}"

        digest = f"pivot:{mode}|{tag(row_axis)}|{tag(col_axis)}|{measure}"
        policy = self._policy_digest if self._policy_digest is not None else NO_POLICY
        return CacheKey(
            getattr(self.mvft, "snapshot_version", 0),
            getattr(self.mvft, "schema_token", 0),
            policy,
            digest,
        )

    @staticmethod
    def _lattice_axes(
        row_axis: Axis, col_axis: Axis
    ) -> "tuple[TimeAxis, LevelAxis, bool] | None":
        """``(time_axis, level_axis, transposed)`` when the pivot shape is
        one the lattice stores (time × level either way), else ``None``."""
        if isinstance(row_axis, TimeAxis) and isinstance(col_axis, LevelAxis):
            return row_axis, col_axis, False
        if isinstance(row_axis, LevelAxis) and isinstance(col_axis, TimeAxis):
            return col_axis, row_axis, True
        return None

    def _pivot_from_lattice(
        self,
        mode: str,
        row_axis: Axis,
        col_axis: Axis,
        measure: str,
        time_range,
    ) -> "CubeView | None":
        """Serve a (time × level) pivot from the lattice, if possible."""
        if self.lattice is None or time_range is not None:
            return None
        axes = self._lattice_axes(row_axis, col_axis)
        if axes is None:
            return None
        time_axis, level_axis, transposed = axes
        node = self.lattice.totals(
            mode,
            time_axis.granularity,
            level_axis.dimension,
            level_axis.level,
            measure,
        )
        if not node:
            return None
        rows: list[object] = []
        cols: list[object] = []
        cells: dict[tuple[object, object], CubeCell] = {}
        for (time_label, level_label), (value, cf) in node.items():
            if time_label not in rows:
                rows.append(time_label)
            if level_label not in cols:
                cols.append(level_label)
            cells[(time_label, level_label)] = CubeCell(value, cf)
        rows.sort(key=lambda x: (x is None, str(x)))
        cols.sort(key=lambda x: (x is None, str(x)))
        view = CubeView(mode, time_axis, level_axis, measure, rows, cols, cells)
        return view.transpose() if transposed else view

    def pivot(
        self,
        mode: str,
        row_axis: Axis,
        col_axis: Axis,
        measure: str,
        *,
        time_range=None,
        filters=(),
    ) -> CubeView:
        """Materialize a 2-D view: ``measure`` over ``row × column``.

        ``filters`` are :class:`~repro.core.query.LevelFilter` slice/dice
        restrictions, resolved through this mode's hierarchy.  Filtered
        pivots always go through the engine (the aggregate lattice caches
        unfiltered group-bys only).
        """
        if row_axis == col_axis:
            raise QueryError("row and column axes must differ")
        self.refresh()
        tracer = self._tracer if self._tracer is not None else _obs.current_tracer()
        metrics = (
            self._metrics if self._metrics is not None else _obs.current_metrics()
        )
        view_key = self._view_key(mode, row_axis, col_axis, measure, time_range, filters)
        if view_key is not None:
            cached = self.cache.get(view_key)
            if cached is not None:
                # The finished view itself is memoized (not just the
                # underlying result table), so a hot repeat skips the
                # grid rebuild as well as the scan.
                if metrics.enabled:
                    metrics.counter("olap.pivots").inc()
                    metrics.counter("olap.view_cache_hits").inc()
                return cached
        with tracer.span(
            "olap.pivot",
            attributes={
                "mode": mode,
                "rows": row_axis.name,
                "cols": col_axis.name,
                "measure": measure,
            },
        ) as span:
            # Lattice-served pivots bypass the engine entirely, so an
            # explaining cube always takes the engine path — lineage would
            # otherwise be silently empty.
            lineage_on = self.lineage is not None and self.lineage.enabled
            servable = (
                self.lattice is not None
                and not filters
                and not lineage_on
                and time_range is None
                and self._lattice_axes(row_axis, col_axis) is not None
            )
            if servable:
                served = self._pivot_from_lattice(
                    mode, row_axis, col_axis, measure, time_range
                )
                if served is not None:
                    span.set("served_by", "lattice")
                    if metrics.enabled:
                        metrics.counter("olap.pivots").inc()
                        metrics.counter("olap.lattice_hits").inc()
                    if view_key is not None:
                        self.cache.put(view_key, served, cost=served.nbytes)
                    return served
            span.set("served_by", "engine")
            if metrics.enabled:
                metrics.counter("olap.pivots").inc()
                if servable:
                    # A servable shape whose node came back empty — the
                    # only case that is genuinely a lattice *miss*.
                    metrics.counter("olap.lattice_misses").inc()
                elif self.lattice is not None:
                    # Shapes the lattice never stores (filters, time
                    # windows, level × level, lineage capture) are
                    # bypasses, not misses — they say nothing about the
                    # lattice's effectiveness.
                    metrics.counter("olap.lattice_bypass").inc()
            view = self._pivot_engine(
                mode, row_axis, col_axis, measure, time_range, filters
            )
            if view_key is not None:
                self.cache.put(view_key, view, cost=view.nbytes)
            return view

    def explain_cell(
        self, row: object, col: object, measure: str, *, mode: str | None = None
    ):
        """The lineage of the cell at (row label, column label).

        Requires the cube to have been built with ``explain=True`` (or a
        ``lineage=`` recorder) and a pivot to have run; returns the
        :class:`~repro.observability.lineage.CellLineage` recorded for
        that cell's group.
        """
        if self.lineage is None:
            raise QueryError(
                "this cube records no lineage — build it with explain=True "
                "(or pass lineage=LineageRecorder())"
            )
        return self.lineage.explain_cell((row, col), measure, mode=mode)

    def _pivot_engine(
        self,
        mode: str,
        row_axis: Axis,
        col_axis: Axis,
        measure: str,
        time_range,
        filters,
    ) -> CubeView:
        """The engine-path pivot (runs sharded when an executor is set)."""
        query = Query(
            mode=mode,
            group_by=(row_axis.group_term(), col_axis.group_term()),
            measures=(measure,),
            time_range=time_range,
            level_filters=tuple(filters),
        )
        runner = self.executor if self.executor is not None else self.engine
        result = runner.execute(query)
        row_labels, col_labels = result.group_columns
        k = result.measures.index(measure)
        cells = {
            (r, c): CubeCell(value, confidence)
            for r, c, value, confidence in zip(
                row_labels, col_labels,
                result.value_columns[k], result.confidence_columns[k],
            )
        }
        # First-seen order, then a stable sort: labels that render alike
        # keep the order the result has them in.
        rows = sorted(dict.fromkeys(row_labels), key=lambda x: (x is None, str(x)))
        cols = sorted(dict.fromkeys(col_labels), key=lambda x: (x is None, str(x)))
        return CubeView(
            mode, row_axis, col_axis, measure, rows, cols, cells,
            time_range=time_range,
        )
