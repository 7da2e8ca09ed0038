"""Tests for the health layer: slow-query log, alert rules, doctor."""

import threading

import pytest

from repro.concurrency.sharding import ShardedExecutor
from repro.core import Interval, LevelGroup, Query, QueryEngine, TimeGroup, YEAR, ym
from repro.mvql import MVQLSession
from repro.observability import (
    AlertRule,
    DEFAULT_RULES,
    MetricsRegistry,
    SlowQueryLog,
    Tracer,
    evaluate_rules,
    histogram_quantile,
    run_doctor,
    statement_digest,
)
from repro.workloads.case_study import ORG


Q1 = Query(
    group_by=(TimeGroup(YEAR), LevelGroup(ORG, "Division")),
    time_range=Interval(ym(2001, 1), ym(2002, 12)),
)


class TestSlowQueryLog:
    def test_under_threshold_queries_are_not_retained(self):
        log = SlowQueryLog(threshold=10.0)
        assert log.record(mode="tcm", seconds=0.01) is None
        assert log.records() == []
        assert log.total_queries == 1 and log.total_slow == 0

    def test_over_threshold_queries_are_retained_with_phases(self):
        log = SlowQueryLog(threshold=0.05)
        record = log.record(
            mode="V1",
            seconds=0.2,
            phases={"resolve": 0.01, "collect_contributions": 0.15},
        )
        assert record is not None
        assert dict(record.phases)["collect_contributions"] == 0.15
        assert log.records() == [record]

    def test_ring_buffer_drops_oldest(self):
        log = SlowQueryLog(threshold=0.0, capacity=3)
        for i in range(5):
            log.record(mode=f"m{i}", seconds=float(i))
        assert [r.mode for r in log.records()] == ["m2", "m3", "m4"]
        assert log.total_slow == 5

    def test_statement_context_labels_records(self):
        log = SlowQueryLog(threshold=0.0)
        with log.statement("SELECT   amount BY year"):
            record = log.record(mode="tcm", seconds=1.0)
        assert record.statement == "SELECT amount BY year"
        assert record.digest == statement_digest("select amount by year")

    def test_statement_context_is_thread_local(self):
        log = SlowQueryLog(threshold=0.0)
        seen = {}

        def worker():
            seen["worker"] = log.current_statement

        with log.statement("SELECT a BY year"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["worker"] is None

    def test_query_signature_excludes_the_coordinate_filter(self):
        log = SlowQueryLog(threshold=0.0)
        query = Q1.with_mode("V1")
        filtered = Query(
            mode="V1",
            group_by=Q1.group_by,
            time_range=Q1.time_range,
            coordinate_filter=lambda row: True,
        )
        a = log.record(mode="V1", seconds=1.0, query=query)
        b = log.record(mode="V1", seconds=1.0, query=filtered)
        assert a.digest == b.digest

    def test_engine_records_slow_queries_with_phase_breakdown(self, mvft):
        log = SlowQueryLog(threshold=0.0)  # everything is "slow"
        engine = QueryEngine(mvft, slow_log=log)
        engine.execute(Q1.with_mode("V1"))
        (record,) = log.records()
        assert record.mode == "V1"
        phases = dict(record.phases)
        assert set(phases) == {"resolve", "collect_contributions", "finalize"}
        assert record.seconds >= sum(phases.values()) * 0.5

    def test_sharded_records_use_the_engine_phase_names(self, mvft):
        log = SlowQueryLog(threshold=0.0)
        ShardedExecutor(mvft, shards=4, slow_log=log).execute(Q1)
        (record,) = log.records()
        assert set(dict(record.phases)) == {
            "resolve",
            "collect_contributions",
            "finalize",
        }

    @pytest.mark.parametrize("shards", [None, 4])
    def test_recorded_times_are_the_span_durations(self, mvft, shards):
        log = SlowQueryLog(threshold=0.0)
        tracer = Tracer()
        if shards is None:
            QueryEngine(mvft, tracer=tracer, slow_log=log).execute(Q1)
        else:
            ShardedExecutor(
                mvft, shards=shards, tracer=tracer, slow_log=log
            ).execute(Q1)
        (record,) = log.records()
        assert record.seconds == tracer.find("query.execute")[0].duration_s
        for phase, seconds in record.phases:
            assert seconds == tracer.find(f"query.{phase}")[0].duration_s

    def test_session_publishes_mvql_text_to_engine_records(self, mvft):
        log = SlowQueryLog(threshold=0.0)
        session = MVQLSession(mvft, slow_log=log)
        session.execute("SELECT amount BY year, org.Division IN MODE V1")
        engine_records = [
            r for r in log.records() if r.statement and "SELECT" in r.statement
        ]
        assert engine_records
        assert "org.Division" in engine_records[0].statement

    def test_disabled_log_records_nothing(self, mvft):
        log = SlowQueryLog(threshold=0.0)
        log.enabled = False
        engine = QueryEngine(mvft, slow_log=log)
        engine.execute(Q1.with_mode("V1"))
        assert log.records() == []

    def test_to_text_reports_counts_and_slowest_first(self):
        log = SlowQueryLog(threshold=0.0)
        log.record(mode="fast", seconds=0.1)
        log.record(mode="slow", seconds=0.9)
        text = log.to_text()
        assert "2/2" in text
        assert text.index("slow") < text.index("fast")

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            SlowQueryLog(threshold=-1)
        with pytest.raises(ValueError, match="capacity"):
            SlowQueryLog(capacity=0)


class TestHistogramQuantile:
    def test_interpolates_within_the_winning_bucket(self):
        # 10 observations <= 1.0, 10 more <= 2.0.
        buckets = [("1", 10), ("2", 20), ("+Inf", 20)]
        assert histogram_quantile(0.5, buckets) == pytest.approx(1.0)
        assert histogram_quantile(0.75, buckets) == pytest.approx(1.5)
        assert histogram_quantile(1.0, buckets) == pytest.approx(2.0)

    def test_empty_histogram_returns_none(self):
        assert histogram_quantile(0.99, [("1", 0), ("+Inf", 0)]) is None
        assert histogram_quantile(0.99, []) is None

    def test_inf_bucket_reports_largest_finite_bound(self):
        buckets = [("0.5", 0), ("1", 0), ("+Inf", 7)]
        assert histogram_quantile(0.99, buckets) == pytest.approx(1.0)

    def test_quantile_bounds_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantile(1.5, [("1", 1), ("+Inf", 1)])

    def test_real_registry_buckets_feed_the_quantile(self):
        metrics = MetricsRegistry()
        h = metrics.histogram("x.seconds")
        for _ in range(100):
            h.observe(0.003)
        entry = metrics.snapshot()["histograms"]["x.seconds"]
        q = histogram_quantile(0.99, entry["buckets"])
        assert 0.0025 <= q <= 0.005


class TestAlertRules:
    def test_counter_rule_fires_on_threshold(self):
        metrics = MetricsRegistry()
        metrics.counter("snapshot.conflicts").inc(3)
        rule = AlertRule(
            name="conflicts", metric="snapshot.conflicts", op=">", threshold=0
        )
        result = rule.evaluate(metrics.snapshot())
        assert result.fired and result.observed == 3

    def test_labelled_series_aggregate(self):
        metrics = MetricsRegistry()
        metrics.counter("query.rows_scanned", {"mode": "tcm"}).inc(10)
        metrics.counter("query.rows_scanned", {"mode": "V1"}).inc(5)
        rule = AlertRule(
            name="scans", metric="query.rows_scanned", op=">=", threshold=15
        )
        assert rule.evaluate(metrics.snapshot()).observed == 15

    def test_histogram_percentile_rule(self):
        metrics = MetricsRegistry()
        h = metrics.histogram("wal.fsync_seconds")
        for _ in range(99):
            h.observe(0.0002)
        h.observe(4.0)  # one catastrophic fsync
        rule = AlertRule(
            name="fsync p99",
            metric="wal.fsync_seconds",
            stat="p99",
            op=">",
            threshold=0.05,
        )
        result = rule.evaluate(metrics.snapshot())
        assert not result.fired  # p99 still inside the fast buckets
        worst = AlertRule(
            name="fsync max-ish",
            metric="wal.fsync_seconds",
            stat="p99.9",
            op=">",
            threshold=0.05,
        )
        assert worst.evaluate(metrics.snapshot()).fired

    def test_missing_metric_reports_no_data_and_does_not_fire(self):
        result = AlertRule(
            name="x", metric="absent", op=">", threshold=0
        ).evaluate(MetricsRegistry().snapshot())
        assert not result.fired and result.observed is None
        assert "no data" in result.to_text()

    def test_from_dict_round_trip_and_validation(self):
        rule = AlertRule.from_dict(
            {"name": "r", "metric": "m", "op": ">", "threshold": 2,
             "stat": "mean", "severity": "fail"}
        )
        assert rule.stat == "mean" and rule.severity == "fail"
        with pytest.raises(ValueError, match="missing"):
            AlertRule.from_dict({"name": "r"})
        with pytest.raises(ValueError, match="unknown alert-rule fields"):
            AlertRule.from_dict(
                {"name": "r", "metric": "m", "op": ">", "threshold": 1,
                 "bogus": True}
            )
        with pytest.raises(ValueError, match="comparison"):
            AlertRule(name="r", metric="m", op="!!", threshold=1)
        with pytest.raises(ValueError, match="severity"):
            AlertRule(name="r", metric="m", op=">", threshold=1,
                      severity="meh")
        with pytest.raises(ValueError, match="stat"):
            AlertRule(name="r", metric="m", op=">", threshold=1, stat="p999")

    def test_evaluate_rules_preserves_order(self):
        metrics = MetricsRegistry()
        metrics.counter("a").inc()
        rules = [
            AlertRule(name="first", metric="a", op=">", threshold=0),
            AlertRule(name="second", metric="b", op=">", threshold=0),
        ]
        results = evaluate_rules(rules, metrics.snapshot())
        assert [r.rule.name for r in results] == ["first", "second"]


class TestDoctor:
    def test_clean_schema_passes(self, case_study):
        report = run_doctor(case_study.schema, metrics=MetricsRegistry())
        assert report.status == "pass" and report.exit_code == 0
        assert "doctor: PASS" in report.to_text()

    def test_default_rules_are_used_when_none_given(self, case_study):
        report = run_doctor(case_study.schema, metrics=MetricsRegistry())
        assert [a.rule.name for a in report.alerts] == [
            r.name for r in DEFAULT_RULES
        ]

    def test_warn_severity_degrades_to_warn(self, case_study):
        metrics = MetricsRegistry()
        metrics.counter("snapshot.conflicts").inc(5)
        report = run_doctor(case_study.schema, metrics=metrics)
        assert report.status == "warn" and report.exit_code == 1

    def test_fail_severity_degrades_to_fail(self, case_study):
        metrics = MetricsRegistry()
        metrics.counter("errors.total").inc()
        rules = [
            AlertRule(name="errors", metric="errors.total", op=">",
                      threshold=0, severity="fail"),
        ]
        report = run_doctor(case_study.schema, metrics=metrics, rules=rules)
        assert report.status == "fail" and report.exit_code == 2

    def test_integrity_violation_fails(self):
        from repro.robustness import IntegrityChecker
        from repro.workloads.case_study import build_case_study

        # A private schema copy — the shared fixture must stay clean.
        schema = build_case_study().schema
        member = next(iter(schema.dimension("org").members.values()))
        # Corrupt a member's valid time through internals; the public
        # surface would reject an ill-formed interval.
        object.__setattr__(member, "valid_time", "not an interval")
        assert not IntegrityChecker(schema).run().ok
        report = run_doctor(schema, metrics=MetricsRegistry())
        assert report.status == "fail" and report.exit_code == 2
        assert "integrity" in report.to_text()

    def test_wal_stats_are_summarised(self, case_study, tmp_path):
        from repro.robustness import TransactionManager

        wal = tmp_path / "journal.wal"
        txm = TransactionManager(case_study.schema, wal=str(wal))
        with txm.transaction():
            pass
        report = run_doctor(case_study.schema, wal_path=str(wal))
        assert report.wal_stats is not None
        assert report.wal_stats["records"] >= 2
        assert report.wal_stats["open_transactions"] == 0
        assert "wal:" in report.to_text()

    def test_open_wal_transaction_degrades_to_warn(self, case_study, tmp_path):
        from repro.robustness import TransactionManager

        wal = tmp_path / "torn.wal"
        txm = TransactionManager(case_study.schema, wal=str(wal))
        txm.begin()  # a crash would leave this transaction open
        report = run_doctor(case_study.schema, wal_path=str(wal))
        assert report.wal_stats["open_transactions"] == 1
        assert report.status == "warn" and report.exit_code == 1
        assert "wal open transactions" in report.to_text()
        txm.rollback()

    def test_slow_queries_degrade_to_warn(self, case_study):
        log = SlowQueryLog(threshold=0.0)
        log.record(mode="tcm", seconds=5.0)
        report = run_doctor(case_study.schema, slow_log=log)
        assert report.status == "warn"
        assert "slow queries" in report.to_text()

    def test_skipped_subsystems_are_noted(self):
        report = run_doctor()
        assert report.status == "pass"
        text = report.to_text()
        assert "metrics: none attached" in text
        assert "schema: none given" in text


class TestDoctorEventsSweep:
    """The events sweep: audit/journal LSN cross-check, push-loss alerts."""

    def _journal_with_commit(self, case_study, tmp_path):
        from repro.robustness import TransactionManager
        from repro.workloads.case_study import build_case_study

        wal = tmp_path / "events.wal"
        # a private schema: the shared case-study fixture must stay pristine
        txm = TransactionManager(build_case_study().schema, wal=str(wal))
        with txm.transaction():
            txm.editor.insert(
                "org", "idDoc", "Doc", ym(2003, 6), level="Department",
                parents=["sales"],
            )
        return wal, txm

    def test_agreeing_audit_trail_passes(self, case_study, tmp_path):
        from repro.observability import (
            AuditEvent,
            AuditLog,
            last_committed_lsn,
        )

        wal, txm = self._journal_with_commit(case_study, tmp_path)
        audit = tmp_path / "audit.jsonl"
        AuditLog(audit).record(
            AuditEvent("evolve", tenant="ops", lsn=last_committed_lsn(wal))
        )
        report = run_doctor(wal_path=str(wal), audit_log=str(audit))
        assert report.status == "pass"
        assert report.audit_stats["last_lsn"] == report.audit_stats[
            "wal_last_committed_lsn"
        ]

    def test_lsn_divergence_warns(self, case_study, tmp_path):
        from repro.observability import AuditEvent, AuditLog

        wal, txm = self._journal_with_commit(case_study, tmp_path)
        audit = tmp_path / "audit.jsonl"
        AuditLog(audit).record(AuditEvent("evolve", tenant="ops", lsn=9999))
        report = run_doctor(wal_path=str(wal), audit_log=str(audit))
        assert report.status == "warn"
        assert "LSN divergence" in report.to_text()
        assert "audit" in report.to_dict() and report.to_dict()["audit"]

    def test_unreadable_audit_log_fails(self, tmp_path):
        bad = tmp_path / "audit.jsonl"
        bad.write_text('broken\n{"action": "auth"}\n', encoding="utf-8")
        report = run_doctor(audit_log=str(bad))
        assert report.status == "fail"
        assert "audit log readable" in report.to_text()

    def test_empty_or_lsn_free_trail_skips_cross_check(self, tmp_path):
        report = run_doctor(audit_log=str(tmp_path / "missing.jsonl"))
        assert report.status == "pass"
        assert "LSN cross-check skipped" in report.to_text()

    def test_push_and_bus_losses_warn(self, tmp_path):
        from repro.observability import EventBus, FileSink, PushExporter

        exporter = PushExporter(FileSink(tmp_path / "push.jsonl"))
        exporter.submit({"n": 1})
        exporter.dropped = 3  # simulate queue overflow
        bus = EventBus()
        bus.subscribe("slow", max_queue=1)
        bus.publish("t", 1)
        bus.publish("t", 2)
        report = run_doctor(exporters=[exporter], bus=bus)
        assert report.status == "warn"
        text = report.to_text()
        assert "push exporter" in text and "dropped" in text
        assert "event bus subscriber slow dropped" in text
