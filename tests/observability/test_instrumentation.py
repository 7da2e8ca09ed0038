"""Instrumentation woven through the hot paths: spans, counters, and the
guarantee that observing a run never changes its result."""

import pytest

from repro.concurrency import SnapshotManager
from repro.concurrency.sharding import ShardedExecutor
from repro.core import (
    EM,
    SUM,
    IdentityMapping,
    Interval,
    LevelGroup,
    MappingRelationship,
    Measure,
    MeasureMap,
    MemberVersion,
    MultiVersionFactTable,
    Query,
    QueryEngine,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    TemporalRelationship,
    TimeGroup,
    YEAR,
    ym,
)
from repro.mvql import MVQLSession
from repro.observability import MetricsRegistry, Tracer, instrumented
from repro.olap import Cube
from repro.robustness import TransactionManager
from repro.workloads.case_study import ORG, build_case_study


@pytest.fixture()
def q1():
    return Query(
        group_by=(TimeGroup(YEAR), LevelGroup(ORG, "Division")),
        time_range=Interval(ym(2001, 1), ym(2002, 12)),
    )


class TestQueryEngine:
    def test_execute_records_phase_spans(self, mvft, q1):
        tracer = Tracer()
        QueryEngine(mvft, tracer=tracer).execute(q1)
        root = tracer.find("query.execute")[0]
        names = [s.name for s in tracer.children(root)]
        assert names == [
            "query.resolve",
            "query.collect_contributions",
            "query.finalize",
        ]

    def test_counters_keyed_by_mode(self, mvft, q1):
        metrics = MetricsRegistry()
        engine = QueryEngine(mvft, metrics=metrics)
        engine.execute(q1)
        engine.execute(q1.with_mode("V1"))
        counters = metrics.snapshot()["counters"]
        assert counters['query.rows_scanned{mode="tcm"}'] > 0
        assert counters['query.rows_scanned{mode="V1"}'] > 0
        assert counters['query.cells_emitted{mode="tcm"}'] > 0
        assert counters['query.executed{mode="tcm"}'] == 1

    def test_cold_resolution_shows_under_the_collect_phase(self, case_study, q1):
        """Each structure version builds a level's labels once, under a
        ``structure.labels`` span; a second read, even by a new engine,
        opens none."""
        mvft = case_study.schema.multiversion_facts()  # nothing resolved yet
        tracer = Tracer()
        with instrumented(tracer=tracer):
            QueryEngine(mvft).execute(q1)
            cold = tracer.find("structure.labels")
            QueryEngine(mvft).execute(q1)
        assert len(tracer.find("structure.labels")) == len(cold)
        collect = tracer.find("query.collect_contributions")[0]
        assert [s.parent_id for s in cold] == [collect.span_id] * len(cold)
        # q1 reads 2001-2002 in tcm: the versions that cover those years.
        assert [s.attributes for s in cold] == [
            {"mode": vsid, "dimension": ORG, "level": "Division", "members": 5}
            for vsid in ("V1", "V2")
        ]

    def test_instrumented_result_is_byte_equal(self, mvft, q1):
        plain = QueryEngine(mvft).execute(q1).to_text()
        traced = (
            QueryEngine(mvft, tracer=Tracer(), metrics=MetricsRegistry())
            .execute(q1)
            .to_text()
        )
        assert plain == traced


class TestShardedExecutor:
    def test_per_shard_spans_under_root(self, mvft, q1):
        tracer = Tracer()
        metrics = MetricsRegistry()
        executor = ShardedExecutor(
            mvft, shards=4, tracer=tracer, metrics=metrics
        )
        executor.execute(q1)
        root = tracer.find("shard.execute")[0]
        collects = tracer.find("shard.collect")
        assert len(collects) == root.attributes["shards"]
        assert all(s.parent_id == root.span_id for s in collects)
        assert sum(s.attributes["rows"] for s in collects) == (
            root.attributes["rows"]
        )
        assert tracer.find("shard.merge")[0].parent_id == root.span_id
        counters = metrics.snapshot()["counters"]
        assert counters["shard.queries"] == 1
        assert counters["shard.shards_run"] == len(collects)

    def test_sharded_read_counts_query_executed(self, mvft, q1):
        metrics = MetricsRegistry()
        ShardedExecutor(mvft, shards=4, metrics=metrics).execute(q1)
        counters = metrics.snapshot()["counters"]
        assert counters['query.executed{mode="tcm"}'] == 1

    def test_shard_fan_out_nests_in_the_collect_phase(self, mvft, q1):
        tracer = Tracer()
        ShardedExecutor(mvft, shards=4, tracer=tracer).execute(q1)
        root = tracer.find("query.execute")[0]
        names = [s.name for s in tracer.children(root)]
        assert names == [
            "query.resolve",
            "query.collect_contributions",
            "query.finalize",
        ]
        collect = tracer.find("query.collect_contributions")[0]
        assert tracer.find("shard.execute")[0].parent_id == collect.span_id
        assert tracer.find("shard.finalize") == []

    def test_instrumented_sharded_result_matches_serial(self, mvft, q1):
        serial = QueryEngine(mvft).execute(q1).to_text()
        sharded = (
            ShardedExecutor(mvft, shards=4, tracer=Tracer(), metrics=MetricsRegistry())
            .execute(q1)
            .to_text()
        )
        assert serial == sharded


class TestMVQLSession:
    def test_statement_span_and_counter(self, mvft):
        tracer = Tracer()
        metrics = MetricsRegistry()
        session = MVQLSession(mvft, tracer=tracer, metrics=metrics)
        session.execute("SELECT amount BY year, org.Division")
        span = tracer.find("mvql.statement")[0]
        assert span.attributes["kind"] == "SelectStatement"
        assert "SELECT amount" in span.attributes["statement"]
        # the engine spans nest under the statement span
        execute = tracer.find("query.execute")[0]
        assert execute.parent_id == span.span_id
        counters = metrics.snapshot()["counters"]
        assert counters['mvql.statements{kind="SelectStatement"}'] == 1


class TestCube:
    def test_lattice_hits_and_bypasses_counted(self):
        from repro.olap.cube import LevelAxis, TimeAxis

        study = build_case_study()
        mvft = study.schema.multiversion_facts()
        metrics = MetricsRegistry()
        cube = Cube(mvft, materialize=True, metrics=metrics)
        cube.pivot("tcm", TimeAxis(YEAR), LevelAxis(ORG, "Division"), "amount")
        # A level × level grid is a shape the lattice never stores — it
        # counts as a *bypass*, not a miss (misses are reserved for
        # servable shapes whose node came back empty, so the hit rate
        # actually measures lattice effectiveness).
        cube.pivot(
            "tcm",
            LevelAxis(ORG, "Division"),
            LevelAxis(ORG, "Department"),
            "amount",
        )
        counters = metrics.snapshot()["counters"]
        assert counters["olap.pivots"] == 2
        assert counters["olap.lattice_hits"] == 1
        assert counters["olap.lattice_bypass"] == 1
        assert "olap.lattice_misses" not in counters

    def test_pivot_span_names_server(self):
        from repro.olap.cube import LevelAxis, TimeAxis

        study = build_case_study()
        mvft = study.schema.multiversion_facts()
        tracer = Tracer()
        cube = Cube(mvft, tracer=tracer)
        cube.pivot("tcm", TimeAxis(YEAR), LevelAxis(ORG, "Division"), "amount")
        span = tracer.find("olap.pivot")[0]
        assert span.attributes["served_by"] == "engine"


class TestTransactions:
    def test_commit_latency_and_counters(self, tmp_path):
        study = build_case_study()
        metrics = MetricsRegistry()
        txm = TransactionManager(
            study.schema, wal=tmp_path / "txn.wal", metrics=metrics
        )
        with txm.transaction():
            txm.editor.insert(
                "org", "obs", "Obs", ym(2003, 6),
                level="Department", parents=["sales"],
            )
        snap = metrics.snapshot()
        assert snap["counters"]["txn.committed"] == 1
        assert snap["counters"]["txn.operators_applied"] >= 1
        assert snap["histograms"]["txn.commit_seconds"]["count"] == 1
        assert snap["counters"]['wal.appends{kind="begin"}'] == 1
        assert snap["counters"]['wal.appends{kind="commit"}'] == 1
        assert snap["counters"]["wal.bytes_written"] > 0
        assert snap["gauges"]["wal.size_bytes"] > 0

    def test_rollback_counted(self):
        study = build_case_study()
        metrics = MetricsRegistry()
        txm = TransactionManager(study.schema, metrics=metrics)
        with pytest.raises(RuntimeError):
            with txm.transaction():
                raise RuntimeError("abort")
        assert metrics.snapshot()["counters"]["txn.rolled_back"] == 1

    def test_checkpoint_span_carries_its_bytes(self, tmp_path):
        path = tmp_path / "txn.wal"
        tracer = Tracer()
        with instrumented(tracer=tracer):
            TransactionManager(build_case_study().schema, wal=path).wal.close()
        (span,) = tracer.find("wal.checkpoint")
        assert span.attributes["bytes"] == path.stat().st_size > 0
        assert span.attributes["facts"] == len(build_case_study().schema.facts) > 0


class TestSnapshotManager:
    def test_mvcc_counters(self):
        study = build_case_study()
        metrics = MetricsRegistry()
        txm = TransactionManager(study.schema)
        manager = SnapshotManager(txm, metrics=metrics)
        with manager.open_cursor():
            with manager.transaction():
                txm.editor.insert(
                    "org", "obs2", "Obs2", ym(2003, 6),
                    level="Department", parents=["sales"],
                )
        snap = metrics.snapshot()
        assert snap["counters"]["mvcc.cursors_opened"] == 1
        assert snap["counters"]["mvcc.commits"] == 1
        assert snap["gauges"]["mvcc.open_cursors"] == 0
        assert snap["gauges"]["mvcc.version"] == manager.version


class TestStorage:
    def test_rows_inserted_counter(self):
        from repro.storage import Column, Database, TEXT

        metrics = MetricsRegistry()
        db = Database(metrics=metrics)
        db.create_table("dim", [Column("id", TEXT)], primary_key=["id"])
        db.insert("dim", {"id": "a"})
        db.insert_many("dim", [{"id": "b"}, {"id": "c"}])
        counters = metrics.snapshot()["counters"]
        assert counters['storage.rows_inserted{table="dim"}'] == 3


class TestInference:
    """Each mode fill's ``mvft.build`` span counts the contributions the
    kernel emits as column blocks and those it folds into shared cells
    one by one."""

    @staticmethod
    def _merge_schema():
        """``a`` and ``b`` merge into ``m`` at 10 (identity both ways);
        ``s`` never changes."""
        org = TemporalDimension("org")
        org.add_member(MemberVersion("all", "All", Interval(0), level="All"))
        for mvid, valid in (("a", Interval(0, 9)), ("b", Interval(0, 9)),
                            ("m", Interval(10)), ("s", Interval(0))):
            org.add_member(MemberVersion(mvid, mvid.upper(), valid, level="Leaf"))
            org.add_relationship(TemporalRelationship(mvid, "all", valid))
        schema = TemporalMultidimensionalSchema([org], [Measure("amount", SUM)])
        identity = {"amount": MeasureMap(IdentityMapping(), EM)}
        for source in ("a", "b"):
            schema.add_mapping(
                MappingRelationship(source, "m", forward=identity, reverse=identity)
            )
        for mvid, t in (("s", 5), ("s", 15), ("a", 5), ("b", 5), ("m", 15)):
            schema.add_fact({"org": mvid}, t, amount=1.0)
        return schema

    @staticmethod
    def _counts(schema):
        """Both counts, summed over the fills of every version mode."""
        tracer = Tracer()
        with instrumented(tracer=tracer):
            MultiVersionFactTable.build(schema).unmapped  # fills every mode
        full, *fills = (span.attributes for span in tracer.find("mvft.build"))
        assert full["kind"] == "full"
        assert full["structure_versions"] == 2
        assert [fill["kind"] for fill in fills] == ["mode"] * 2
        return (
            sum(fill["cells_blocked"] for fill in fills),
            sum(fill["cells_folded"] for fill in fills),
        )

    def test_blocked_and_folded_cells(self):
        # In each mode, s's two facts are a block.  Before 10, a and b each
        # share their key with m's way back; from 10, a, b and m land on m.
        assert self._counts(self._merge_schema()) == (2 + 2, 4 + 3)

    def test_a_repeated_cell_is_folded(self):
        schema = self._merge_schema()
        schema.add_fact({"org": "s"}, 5, amount=2.0)
        assert self._counts(schema) == (0, 7 + 3 + 3)
