"""Deterministic shard-merge: sharded == serial, byte for byte (§5 case study).

The executor partitions the mode's row slice into contiguous shards and
merges partial group maps in shard order, so the merged contribution
lists reproduce the serial fold order exactly — the results must be
*identical*, not merely numerically close.
"""

import pytest

from repro.concurrency import ShardedExecutor, SnapshotManager, shard_rows
from repro.core import (
    Interval, LevelFilter, LevelGroup, QUARTER, Query, QueryEngine, TimeGroup, YEAR,
)
from repro.core.chronology import ym
from repro.core.query import merge_contributions
from repro.observability import LineageRecorder
from repro.robustness import TransactionManager
from repro.workloads.generator import WorkloadConfig, generate_workload

QUERIES = [
    Query(group_by=(TimeGroup(YEAR), LevelGroup("org", "Division"))),
    Query(group_by=(TimeGroup(YEAR), LevelGroup("org", "Department"))),
    Query(
        group_by=(TimeGroup(YEAR), LevelGroup("org", "Division")),
        time_range=Interval(ym(2001, 1), ym(2002, 12)),
    ),
]


@pytest.fixture()
def mvft(study):
    return study.schema.multiversion_facts()


class TestShardRows:
    def test_partitions_cover_in_order(self):
        rows = list(range(10))
        parts = shard_rows(rows, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [x for part in parts for x in part] == rows

    def test_more_shards_than_rows(self):
        assert [list(p) for p in shard_rows([1, 2], 8)] == [[1], [2]]

    def test_empty_input(self):
        assert shard_rows([], 4) == []

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_rows([1], 0)


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("shards", [2, 3, 7])
    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_identical_results_across_modes(self, mvft, shards, query_index):
        executor = ShardedExecutor(mvft, shards=shards)
        base = QUERIES[query_index]
        for mode in mvft.modes.labels:
            query = base.with_mode(mode)
            serial = executor.execute_serial(query)
            sharded = executor.execute(query)
            assert sharded.to_text() == serial.to_text()
            assert [
                (r.group, [(c.measure, c.value, c.confidence) for c in r.cells])
                for r in sharded
            ] == [
                (r.group, [(c.measure, c.value, c.confidence) for c in r.cells])
                for r in serial
            ]

    def test_merge_preserves_serial_fold_order(self, mvft):
        executor = ShardedExecutor(mvft, shards=4)
        query = QUERIES[1]
        engine = executor.engine
        mode, _ = engine.resolve(query)
        rows = range(len(mvft.slice(mode.label)))
        serial_groups = engine.collect_contributions(query, rows)
        assert serial_groups == engine.collect_contributions(query)
        partials = [
            engine.collect_contributions(query, part)
            for part in shard_rows(rows, 4)
        ]
        assert merge_contributions(partials) == serial_groups

    @pytest.mark.parametrize("shards", [2, 5])
    def test_generator_modes_with_where_during_and_lineage(self, shards):
        mvft = generate_workload(
            WorkloadConfig(seed=7, n_departments=12)
        ).schema.multiversion_facts()
        query = Query(
            group_by=(TimeGroup(QUARTER), LevelGroup("org", "Department")),
            time_range=Interval(ym(2001, 1), ym(2002, 12)),
            level_filters=(LevelFilter("org", "Division", ("DIV0", "DIV2")),),
        )
        serial = QueryEngine(mvft, lineage=LineageRecorder())
        executor = ShardedExecutor(mvft, shards=shards, lineage=LineageRecorder())
        for mode in mvft.modes.labels:
            expected = serial.execute(query.with_mode(mode))
            actual = executor.execute(query.with_mode(mode))
            assert len(expected) > 0
            assert actual.to_text() == expected.to_text()
            assert [
                (r.group, [(c.measure, repr(c.value), c.confidence) for c in r.cells])
                for r in actual
            ] == [
                (r.group, [(c.measure, repr(c.value), c.confidence) for c in r.cells])
                for r in expected
            ]
        for lineage in (serial.lineage, executor.engine.lineage):
            assert {key[0] for key in lineage.cells()} == set(mvft.modes.labels)
        assert [
            serial.lineage.explain_cell(g, m, mode=mode).to_text()
            for mode, g, m in serial.lineage.cells()
        ] == [
            executor.engine.lineage.explain_cell(g, m, mode=mode).to_text()
            for mode, g, m in executor.engine.lineage.cells()
        ]

    def test_single_shard_falls_back_to_serial(self, mvft):
        executor = ShardedExecutor(mvft, shards=1)
        query = QUERIES[0]
        assert (
            executor.execute(query).to_text()
            == executor.execute_serial(query).to_text()
        )


    @pytest.mark.parametrize("shards", [1, 3])
    def test_unfilled_mode_as_forced(self, study, shards):
        """A version mode no reader has needed yet is filled by the read
        that needs it, serial or sharded, never read as empty."""
        forced = study.schema.multiversion_facts()
        forced.unmapped  # fills every mode
        serial, sharded = (study.schema.multiversion_facts() for _ in range(2))
        query = Query(group_by=(TimeGroup(YEAR), LevelGroup("org", "Division")))
        for mode in forced.modes.version_modes:
            assert mode.label not in serial.cell_count()
            assert mode.label not in sharded.cell_count()
            expected = QueryEngine(forced).execute(query.with_mode(mode.label))
            assert len(expected) > 0
            for actual in (
                QueryEngine(serial).execute(query.with_mode(mode.label)),
                ShardedExecutor(sharded, shards=shards).execute(query.with_mode(mode.label)),
            ):
                assert actual.to_text() == expected.to_text()
                assert [
                    (r.group, [(c.measure, repr(c.value), c.confidence) for c in r.cells])
                    for r in actual
                ] == [
                    (r.group, [(c.measure, repr(c.value), c.confidence) for c in r.cells])
                    for r in expected
                ]
        assert serial.cell_count() == sharded.cell_count() == forced.cell_count()


class TestExecutorIntegration:
    def test_cube_pivots_through_the_executor(self, study, mvft):
        from repro.olap import Cube, LevelAxis, TimeAxis

        executor = ShardedExecutor(mvft, shards=3)
        plain = Cube(mvft)
        sharded = Cube(mvft, executor=executor)
        view_a = plain.pivot(
            "tcm", TimeAxis(YEAR), LevelAxis("org", "Division"), "amount"
        )
        view_b = sharded.pivot(
            "tcm", TimeAxis(YEAR), LevelAxis("org", "Division"), "amount"
        )
        from repro.olap import render_view

        assert render_view(view_b) == render_view(view_a)

    def test_lattice_materializes_through_the_executor(self, mvft):
        from repro.olap import AggregateLattice

        executor = ShardedExecutor(mvft, shards=3)
        serial = AggregateLattice(mvft)
        sharded = AggregateLattice(mvft, executor=executor)
        assert sharded.node_count == serial.node_count
        assert dict(sharded._walk_nodes()) == dict(serial._walk_nodes())

    def test_snapshot_cursor_feeds_the_executor(self, study, txm):
        manager = SnapshotManager(txm)
        cursor = manager.open_cursor()
        executor = ShardedExecutor(cursor.mvft, shards=3)
        query = QUERIES[0]
        before = executor.execute(query).to_text()
        from .conftest import insert_department

        with manager.transaction():
            insert_department(txm, "shx_a", "ShxA")
        assert executor.execute(query).to_text() == before


class TestShardedCache:
    def test_sharded_hit_is_counted_like_a_serial_one(self, mvft):
        from repro.cache import VersionedResultCache
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        executor = ShardedExecutor(
            mvft, shards=3, cache=VersionedResultCache(), metrics=metrics
        )
        query = QUERIES[0].with_mode("V2")
        first = executor.execute(query)
        assert executor.execute(query) is first
        assert executor.execute_serial(query) is first
        counters = metrics.snapshot()["counters"]
        assert counters['query.cache_misses{mode="V2"}'] == 1
        assert counters['query.cache_hits{mode="V2"}'] == 2
