"""Tests for OTLP-JSON span export and trace sampling."""

import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.concurrency import ShardedExecutor
from repro.core import Interval, LevelGroup, Query, TimeGroup, YEAR, ym
from repro.observability import (
    TraceSampler,
    Tracer,
    read_jsonl,
    read_otlp_json,
    spans_to_otlp,
    tracer_to_otlp,
    write_otlp_json,
)
from repro.workloads.case_study import ORG


HEX16 = re.compile(r"[0-9a-f]{16}\Z")
HEX32 = re.compile(r"[0-9a-f]{32}\Z")


def _otlp_spans(document):
    return document["resourceSpans"][0]["scopeSpans"][0]["spans"]


class TestOtlpShape:
    def test_resource_scope_span_structure(self):
        tracer = Tracer()
        with tracer.span("root", attributes={"mode": "V1"}):
            with tracer.span("child"):
                pass
        document = tracer_to_otlp(tracer, service_name="repro-test")
        resource = document["resourceSpans"][0]["resource"]
        assert resource["attributes"] == [
            {"key": "service.name", "value": {"stringValue": "repro-test"}}
        ]
        scope = document["resourceSpans"][0]["scopeSpans"][0]["scope"]
        assert scope["name"] == "repro.observability"
        spans = _otlp_spans(document)
        assert len(spans) == 2
        for span in spans:
            assert HEX32.match(span["traceId"])
            assert HEX16.match(span["spanId"])
            assert span["kind"] == 1
            assert int(span["endTimeUnixNano"]) >= int(
                span["startTimeUnixNano"]
            )

    def test_parent_links_and_shared_trace_id(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        document = tracer_to_otlp(tracer)
        by_name = {s["name"]: s for s in _otlp_spans(document)}
        assert by_name["root"]["parentSpanId"] == ""
        assert by_name["child"]["parentSpanId"] == by_name["root"]["spanId"]
        assert by_name["child"]["traceId"] == by_name["root"]["traceId"]
        assert int(by_name["root"]["traceId"], 16) == root.span_id

    def test_separate_roots_get_separate_trace_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        spans = _otlp_spans(tracer_to_otlp(tracer))
        assert spans[0]["traceId"] != spans[1]["traceId"]

    def test_attribute_any_value_encoding(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set("flag", True).set("n", 7).set("x", 0.5).set("s", "text")
        (otlp,) = _otlp_spans(tracer_to_otlp(tracer))
        values = {a["key"]: a["value"] for a in otlp["attributes"]}
        assert values["flag"] == {"boolValue": True}
        assert values["n"] == {"intValue": "7"}
        assert values["x"] == {"doubleValue": 0.5}
        assert values["s"] == {"stringValue": "text"}

    def test_error_span_gets_error_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (otlp,) = _otlp_spans(tracer_to_otlp(tracer))
        assert otlp["status"]["code"] == 2
        assert "RuntimeError" in otlp["status"]["message"]

    def test_wall_clock_anchor_is_plausible(self):
        import time

        before = time.time_ns()
        tracer = Tracer()
        with tracer.span("s"):
            pass
        (otlp,) = _otlp_spans(tracer_to_otlp(tracer))
        after = time.time_ns()
        assert before <= int(otlp["startTimeUnixNano"]) <= after

    def test_write_and_read_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        path = tmp_path / "trace.otlp.json"
        count = write_otlp_json(tracer, path)
        assert count == 2
        spans = read_otlp_json(path)
        assert [s["name"] for s in spans] == ["child", "root"]
        # The file is one valid JSON document.
        json.loads(path.read_text(encoding="utf-8"))

    def test_orphan_parent_keeps_its_trace_id(self):
        # A span whose parent was cleared (or never finished) must not
        # crash the converter — and exporting a subset must not change
        # trace identity: the orphan still carries the trace id it was
        # born with, so it rejoins its siblings in any collector.
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        orphans = [s for s in tracer.spans if s.name == "child"]
        document = spans_to_otlp(orphans, origin_ns=tracer.origin_ns)
        (otlp,) = _otlp_spans(document)
        assert int(otlp["traceId"], 16) == root.trace_id == root.span_id
        assert root.finished


class TestCrossThreadSpanTrees:
    """Spans created on pool threads with explicit parent= must round-trip
    through both export formats with parent ids intact."""

    def _build_cross_thread_trace(self):
        tracer = Tracer()
        with tracer.span("fanout") as root:
            def work(i):
                with tracer.span(
                    "worker", parent=root, attributes={"index": i}
                ):
                    with tracer.span("inner"):
                        pass

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(work, range(4)))
        return tracer

    def test_jsonl_round_trip_preserves_parent_ids(self, tmp_path):
        tracer = self._build_cross_thread_trace()
        path = tmp_path / "spans.jsonl"
        tracer.write_jsonl(path)
        records = read_jsonl(path)
        by_id = {r["span_id"]: r for r in records}
        root = next(r for r in records if r["name"] == "fanout")
        workers = [r for r in records if r["name"] == "worker"]
        inners = [r for r in records if r["name"] == "inner"]
        assert len(workers) == 4 and len(inners) == 4
        assert all(w["parent_id"] == root["span_id"] for w in workers)
        # Each inner span chains under some worker via the worker
        # thread's own stack.
        for inner in inners:
            assert by_id[inner["parent_id"]]["name"] == "worker"

    def test_otlp_round_trip_preserves_parent_links(self, tmp_path):
        tracer = self._build_cross_thread_trace()
        path = tmp_path / "spans.otlp.json"
        write_otlp_json(tracer, path)
        spans = read_otlp_json(path)
        by_id = {s["spanId"]: s for s in spans}
        root = next(s for s in spans if s["name"] == "fanout")
        workers = [s for s in spans if s["name"] == "worker"]
        inners = [s for s in spans if s["name"] == "inner"]
        assert all(w["parentSpanId"] == root["spanId"] for w in workers)
        for inner in inners:
            assert by_id[inner["parentSpanId"]]["name"] == "worker"
        # One fan-out, one trace: every span shares the root's trace id.
        assert {s["traceId"] for s in spans} == {root["traceId"]}

    def test_sharded_profiled_query_exports_valid_otlp(self, mvft, tmp_path):
        tracer = Tracer()
        executor = ShardedExecutor(
            mvft, shards=4, max_workers=4, tracer=tracer
        )
        query = Query(
            mode="V2",
            group_by=(TimeGroup(YEAR), LevelGroup(ORG, "Division")),
            time_range=Interval(ym(2001, 1), ym(2002, 12)),
        )
        executor.execute(query)
        path = tmp_path / "sharded.otlp.json"
        write_otlp_json(tracer, path)
        spans = read_otlp_json(path)
        ids = {s["spanId"] for s in spans}
        root = next(s for s in spans if s["name"] == "shard.execute")
        collects = [s for s in spans if s["name"] == "shard.collect"]
        assert len(collects) == 4
        for span in spans:
            assert HEX32.match(span["traceId"])
            assert HEX16.match(span["spanId"])
            if span["parentSpanId"]:
                assert span["parentSpanId"] in ids
        assert all(c["parentSpanId"] == root["spanId"] for c in collects)
        assert {s["traceId"] for s in spans} == {root["traceId"]}


class TestTraceSampler:
    def test_ratio_is_exact_and_deterministic(self):
        sampler = TraceSampler(0.25, always_on_error=False)
        decisions = [sampler.sample() for _ in range(100)]
        assert sum(decisions) == 25
        # Counter-based: the same ratio always keeps the same indices.
        other = TraceSampler(0.25, always_on_error=False)
        assert [other.sample() for _ in range(100)] == decisions

    def test_ratio_bounds_validated(self):
        with pytest.raises(ValueError, match="ratio"):
            TraceSampler(1.5)

    def test_sampled_traces_record_and_unsampled_drop(self):
        sampler = TraceSampler(0.5, always_on_error=False)
        tracer = Tracer(sampler=sampler)
        for _ in range(4):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        assert len(tracer.spans) == 4  # 2 of 4 traces × 2 spans
        assert sampler.traces_sampled == 2

    def test_children_inherit_the_trace_decision(self):
        sampler = TraceSampler(0.0, always_on_error=False)
        tracer = Tracer(sampler=sampler)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert tracer.spans == ()

    def test_error_spans_are_rescued_from_unsampled_traces(self):
        sampler = TraceSampler(0.0, always_on_error=True)
        tracer = Tracer(sampler=sampler)
        with pytest.raises(ValueError):
            with tracer.span("root"):
                with tracer.span("boom"):
                    raise ValueError("nope")
        names = [s.name for s in tracer.spans]
        assert names == ["boom", "root"]  # both exited with error set
        assert sampler.spans_rescued == 2

    def test_explicit_parent_inherits_sampling_across_threads(self):
        sampler = TraceSampler(0.0, always_on_error=False)
        tracer = Tracer(sampler=sampler)
        with tracer.span("root") as root:
            def work():
                with tracer.span("worker", parent=root):
                    pass

            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda _i: work(), range(2)))
        assert tracer.spans == ()

    def test_unsampled_spans_do_not_leak_into_otlp(self):
        sampler = TraceSampler(0.5, always_on_error=False)
        tracer = Tracer(sampler=sampler)
        for _ in range(4):
            with tracer.span("root"):
                pass
        assert len(_otlp_spans(tracer_to_otlp(tracer))) == 2


class TestPushExporters:
    """The push half: bounded queue, retrying sinks, span/metrics pushers."""

    def test_file_sink_roundtrip(self, tmp_path):
        from repro.observability import FileSink, read_push_file

        sink = FileSink(tmp_path / "push.jsonl")
        sink.emit({"a": 1})
        sink.emit({"b": [2, 3]})
        assert sink.emitted == 2
        assert read_push_file(sink.path) == [{"a": 1}, {"b": [2, 3]}]

    def test_submit_flush_and_stats(self, tmp_path):
        from repro.observability import FileSink, PushExporter

        exporter = PushExporter(FileSink(tmp_path / "p.jsonl"), name="t")
        assert exporter.submit({"n": 1}) and exporter.submit({"n": 2})
        assert exporter.flush() == 2
        stats = exporter.stats()
        assert stats["pushed"] == 2 and stats["queued"] == 0
        assert stats["name"] == "t"

    def test_full_queue_drops_incoming(self, tmp_path):
        from repro.observability import FileSink, MetricsRegistry, PushExporter

        metrics = MetricsRegistry()
        exporter = PushExporter(
            FileSink(tmp_path / "p.jsonl"), max_queue=1, metrics=metrics,
            name="tiny",
        )
        assert exporter.submit({"n": 1})
        assert not exporter.submit({"n": 2})
        assert exporter.stats()["dropped"] == 1
        counters = metrics.snapshot()["counters"]
        assert counters['export.push.dropped{exporter="tiny"}'] == 1

    def test_dead_sink_exhausts_retries_and_abandons(self, tmp_path):
        from repro.observability import PushExporter
        from repro.robustness.retry import RetryPolicy

        class DeadSink:
            attempts = 0

            def emit(self, payload):
                self.attempts += 1
                raise OSError("collector down")

        sink = DeadSink()
        exporter = PushExporter(
            sink,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, sleep=lambda s: None),
        )
        exporter.submit({"n": 1})
        assert exporter.flush() == 0
        assert sink.attempts == 3
        stats = exporter.stats()
        assert stats["failures"] == 1 and stats["queued"] == 0

    def test_flaky_sink_recovers_through_retry(self, tmp_path):
        from repro.observability import ExportError, PushExporter
        from repro.robustness.retry import RetryPolicy

        class FlakyOnce:
            calls = 0
            delivered = []

            def emit(self, payload):
                self.calls += 1
                if self.calls == 1:
                    raise ExportError("hiccup")
                self.delivered.append(payload)

        sink = FlakyOnce()
        exporter = PushExporter(
            sink,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda s: None),
        )
        exporter.submit({"n": 1})
        assert exporter.flush() == 1
        assert sink.delivered == [{"n": 1}]

    def test_span_pusher_ships_new_spans_as_otlp(self, tmp_path):
        from repro.observability import FileSink, SpanPusher, read_push_file

        tracer = Tracer()
        with tracer.span("first"):
            pass
        sink = FileSink(tmp_path / "otlp.jsonl")
        pusher = SpanPusher(tracer, sink)
        pusher.flush()
        with tracer.span("second"):
            pass
        pusher.flush()
        pusher.flush()  # no new spans: nothing pushed
        docs = read_push_file(sink.path)
        assert len(docs) == 2
        names = [s["name"] for doc in docs for s in _otlp_spans(doc)]
        assert names == ["first", "second"]
        for doc in docs:
            for span in _otlp_spans(doc):
                assert HEX32.match(span["traceId"])

    def test_span_pusher_survives_tracer_clear(self, tmp_path):
        from repro.observability import FileSink, SpanPusher, read_push_file

        tracer = Tracer()
        with tracer.span("a"):
            pass
        sink = FileSink(tmp_path / "otlp.jsonl")
        pusher = SpanPusher(tracer, sink)
        pusher.flush()
        tracer.clear()
        with tracer.span("b"):
            pass
        pusher.flush()
        names = [
            s["name"]
            for doc in read_push_file(sink.path)
            for s in _otlp_spans(doc)
        ]
        assert names == ["a", "b"]

    def test_concurrent_flushes_never_ship_a_span_twice(self, tmp_path):
        from repro.observability import FileSink, SpanPusher, read_push_file

        tracer = Tracer()
        with tracer.span("once"):
            pass

        class RendezvousSpans(tuple):
            """Slicing off the new spans waits for a second reader, so two
            collects that both read the cursor position take one slice."""

            barrier = threading.Barrier(2, timeout=0.5)

            def __getitem__(self, index):
                if isinstance(index, slice):
                    try:
                        self.barrier.wait()
                    except threading.BrokenBarrierError:
                        pass  # the other collect is held on the cursor lock
                return tuple.__getitem__(self, index)

        class RendezvousTracer:
            origin_ns = tracer.origin_ns

            @property
            def spans(self):
                return RendezvousSpans(tracer.spans)

        sink = FileSink(tmp_path / "otlp.jsonl")
        pusher = SpanPusher(RendezvousTracer(), sink)
        flushers = [threading.Thread(target=pusher.flush) for _ in range(2)]
        for thread in flushers:
            thread.start()
        for thread in flushers:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        names = [
            s["name"]
            for doc in read_push_file(sink.path)
            for s in _otlp_spans(doc)
        ]
        assert names == ["once"]

    def test_metrics_pusher_context_manager(self, tmp_path):
        from repro.observability import (
            FileSink,
            MetricsPusher,
            MetricsRegistry,
            read_push_file,
        )

        metrics = MetricsRegistry()
        metrics.counter("demo").inc(3)
        sink = FileSink(tmp_path / "m.jsonl")
        with MetricsPusher(metrics, sink, interval=0.01):
            pass  # exit stops the flusher and drains one final snapshot
        docs = read_push_file(sink.path)
        assert docs
        assert docs[-1]["type"] == "metrics"
        assert docs[-1]["snapshot"]["counters"]["demo"] == 3

    def test_validation(self, tmp_path):
        from repro.observability import FileSink, PushExporter

        with pytest.raises(ValueError, match="at least one payload"):
            PushExporter(FileSink(tmp_path / "p"), max_queue=0)
        with pytest.raises(ValueError, match="interval"):
            PushExporter(FileSink(tmp_path / "p"), interval=0)
