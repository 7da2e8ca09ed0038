"""Compact cached values: result tables held as columns, slotted result
rows, result cells and pivot cells, and the sizes the engine and the cube
price their cache entries by."""

import copy
import gc
import pickle
import tracemalloc

import pytest

import repro.cache
from repro.cache import VersionedResultCache
from repro.core import MultiVersionFactTable
from repro.core.chronology import MONTH, QUARTER
from repro.core.confidence import SD
from repro.core.query import (
    LevelGroup, Query, QueryEngine, ResultCell, ResultRow, TimeGroup,
)
from repro.mvql import MVQLSession
from repro.olap.cube import Cube, CubeCell, LevelAxis, TimeAxis
from repro.workloads.generator import ORG, WorkloadConfig, generate_workload

#: Shapes the size checks cover: tcm by month, a version mode by quarter.
SHAPES = [("tcm", MONTH), ("V5", QUARTER)]

#: The memory guard's bound on what the result cache retains per row:
#: 59 B measured (columns of owned slots and floats), plus headroom.
MAX_BYTES_PER_ROW = 72


@pytest.fixture(scope="module")
def mvft():
    schema = generate_workload(
        WorkloadConfig(seed=0, n_departments=100, n_years=10)
    ).schema
    return MultiVersionFactTable.build(schema)


def retained_by(make):
    """``make()`` and the bytes tracemalloc sees it retain; ``make`` runs
    once untraced first, so warm structure caches are not counted."""
    make()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = make()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def by_department(mode, grain):
    return Query(mode=mode, group_by=(TimeGroup(grain), LevelGroup(ORG, "Department")))


def pivot(cube, mode, grain):
    return cube.pivot(mode, TimeAxis(grain), LevelAxis(ORG, "Department"), "amount")


def table_state(table):
    return (table.columns, table.measures, table.mode, table.rows)


def view_state(view):
    return (
        view.mode, view.row_axis, view.col_axis, view.measure, view.rows, view.cols,
        [view.cell(r, c) for r in view.rows for c in view.cols],
    )


class TestSlottedValues:
    @pytest.mark.parametrize("value", [
        ResultCell("amount", 1.5, SD),
        ResultRow(("2001", "Sales"), (ResultCell("amount", 1.5, SD),)),
        CubeCell(1.5, SD),
    ], ids=type)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        # FrozenInstanceError, or TypeError from the frozen __setattr__ of a
        # slotted dataclass on some Python versions
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1


class TestPricedByConstruction:
    @pytest.mark.parametrize("mode, grain", SHAPES)
    def test_table_nbytes_matches_retained_memory(self, mvft, mode, grain):
        engine = QueryEngine(mvft)
        table, retained = retained_by(lambda: engine.execute(by_department(mode, grain)))
        assert len(table) > 100
        assert abs(table.nbytes - retained) <= 0.1 * retained, (table.nbytes, retained)

    @pytest.mark.parametrize("mode, grain", SHAPES)
    def test_view_nbytes_matches_retained_memory(self, mvft, mode, grain):
        # A one-byte cache admits nothing, so only the view is retained.
        cube = Cube(mvft, cache=VersionedResultCache(1))
        view, retained = retained_by(lambda: pivot(cube, mode, grain))
        assert len(view.cols) > 10
        assert abs(view.nbytes - retained) <= 0.1 * retained, (view.nbytes, retained)

    def test_engine_and_cube_never_walk_their_values(self, mvft, monkeypatch):
        def walk(value):
            raise AssertionError(f"estimate_cost called on {type(value).__name__}")

        monkeypatch.setattr(repro.cache, "estimate_cost", walk)
        cache = VersionedResultCache()
        QueryEngine(mvft, cache=cache).execute(by_department("tcm", QUARTER))
        pivot(Cube(mvft, cache=cache), "V5", MONTH)
        pivot(Cube(mvft, cache=cache, materialize=True), "V5", QUARTER)
        # a table; a pivot's table and view; a lattice node's table and view
        assert len(cache) == 5
        assert cache.bytes_used == sum(cache.get(key).nbytes for key in cache.keys())

    @pytest.mark.parametrize("mode, grain", SHAPES)
    def test_round_trips_compare_equal(self, mvft, mode, grain):
        table = QueryEngine(mvft).execute(by_department(mode, grain))
        view = pivot(Cube(mvft), mode, grain)
        for clone in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert table_state(clone) == table_state(table)
        for clone in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view)):
            assert view_state(clone) == view_state(view)


class TestResultCacheMemory:
    def test_cache_retains_under_bound_per_row(self, mvft):
        """Every mode × {year, quarter, month} × {Division, Department}
        shape, cached: the cache retains under 72 B a row (columns; about
        240 B as slotted row and cell objects, 450 B as plain dataclasses)."""
        cache = VersionedResultCache()
        session = MVQLSession(mvft, cache=cache)
        statements = [
            f"SELECT amount BY {grain}, org.{level} IN MODE {mode}"
            for mode in mvft.modes.labels
            for grain in ("year", "quarter", "month")
            for level in ("Division", "Department")
        ]
        gc.collect()
        tracemalloc.start()
        try:
            rows = sum(len(session.execute(statement)) for statement in statements)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            used = cache.bytes_used
            # What clearing frees is what the cache held: the engine's
            # structure caches, also built here, stay.
            cache.clear()
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(statements) == 66 and rows > 30_000
        assert retained / rows < MAX_BYTES_PER_ROW, f"{retained / rows:.0f} B a row"
        # The stated sizes track the real ones.
        assert abs(used - retained) <= 0.1 * retained, (used, retained)
