"""OTLP-JSON span export and trace sampling.

The tracer's native export is JSONL (one flat span dict per line, an
internal shape).  Real collectors — an OpenTelemetry Collector, Jaeger,
Tempo — ingest OTLP; this module converts finished :class:`Span` trees
into the OTLP/JSON ``ExportTraceServiceRequest`` dict shape:

``resourceSpans[].scopeSpans[].spans[]`` with 32-hex-char trace ids,
16-hex-char span ids, ``parentSpanId`` links, and nanosecond Unix
timestamps (64-bit values encoded as strings, per the proto3 JSON
mapping).  Each *root* span and its descendants share one trace id
(derived from the root's span id), so one tracer export may carry many
traces.

Span timings are monotonic (``perf_counter_ns``); the exporter rebases
them onto the wall clock with one ``time.time_ns()`` anchor taken at
export time, so ordering and durations are exact and absolute times are
as accurate as one clock read.

:class:`TraceSampler` makes production tracing affordable: a
deterministic ratio sampler (every ``1/ratio``-th root span starts a
recorded trace) with an *always-on-error* escape hatch — a span that
exits with an error is recorded even when its trace was not sampled, so
failures are never invisible.  Wire it with ``Tracer(sampler=...)`` or
the CLI's ``--trace-sample R``.

Everything above is *pull*: something asks for the document.  The push
half lives at the bottom — :class:`PushExporter` runs a background
flusher thread draining a bounded queue into a sink
(:class:`FileSink` appends JSON lines; :class:`HTTPSink` POSTs over
stdlib ``http.client``) under
:class:`~repro.robustness.retry.RetryPolicy` backoff, and the two
concrete pushers sit on top: :class:`SpanPusher` ships each tick's new
spans as one OTLP-JSON document, :class:`MetricsPusher` ships
timestamped registry snapshots.  Overflow and delivery failure are shed
into counters (``export.push.dropped`` / ``export.push.failures``) —
telemetry never blocks, and never takes the workload down with it.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Mapping

from .tracing import SpanCursor, format_traceparent, parse_traceparent

__all__ = [
    "SPAN_KIND_INTERNAL",
    "STATUS_CODE_ERROR",
    "TraceSampler",
    "span_id_hex",
    "trace_id_hex",
    "format_traceparent",
    "parse_traceparent",
    "spans_to_otlp",
    "tracer_to_otlp",
    "write_otlp_json",
    "read_otlp_json",
    "ExportError",
    "FileSink",
    "HTTPSink",
    "PushExporter",
    "SpanPusher",
    "MetricsPusher",
    "read_push_file",
]

#: OTLP ``SpanKind.SPAN_KIND_INTERNAL`` — all library spans are internal.
SPAN_KIND_INTERNAL = 1

#: OTLP ``StatusCode.STATUS_CODE_ERROR``.
STATUS_CODE_ERROR = 2


def span_id_hex(span_id: int) -> str:
    """An 8-byte span id as 16 lowercase hex characters."""
    return format(span_id & (2**64 - 1), "016x")


def trace_id_hex(root_span_id: int) -> str:
    """A 16-byte trace id as 32 lowercase hex characters.

    Derived deterministically from the trace's root span id, so repeated
    conversions of the same span tree agree.
    """
    return format(root_span_id & (2**128 - 1), "032x")


def _any_value(value: Any) -> dict[str, Any]:
    """One attribute value in OTLP ``AnyValue`` JSON shape."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # 64-bit ints are strings in proto3 JSON
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _attributes(attrs: Mapping[str, Any]) -> list[dict[str, Any]]:
    return [{"key": k, "value": _any_value(v)} for k, v in sorted(attrs.items())]


def spans_to_otlp(
    spans: Iterable,
    *,
    origin_ns: int = 0,
    base_unix_nano: int | None = None,
    service_name: str = "repro",
    scope_name: str = "repro.observability",
    scope_version: str = "1",
) -> dict[str, Any]:
    """Convert finished spans into one OTLP/JSON export request dict.

    ``origin_ns`` is the tracer's monotonic origin (span start offsets are
    relative to it); ``base_unix_nano`` anchors that origin on the wall
    clock and defaults to "now minus elapsed-since-origin", computed once.
    """
    span_list = list(spans)
    if base_unix_nano is None:
        base_unix_nano = time.time_ns() - (time.perf_counter_ns() - origin_ns)
    by_id = {s.span_id: s for s in span_list}
    root_cache: dict[int, int] = {}

    def root_of(span) -> int:
        chain: list[int] = []
        cur = span
        while True:
            cached = root_cache.get(cur.span_id)
            if cached is not None:
                root = cached
                break
            chain.append(cur.span_id)
            parent = (
                by_id.get(cur.parent_id) if cur.parent_id is not None else None
            )
            if parent is None or parent.span_id in chain:
                root = cur.span_id
                break
            cur = parent
        for sid in chain:
            root_cache[sid] = root
        return root

    def trace_for(span) -> str:
        # A span carrying an explicit trace id (a local root, anything
        # that inherited one, or a remote-parented span resumed from a
        # ``traceparent``) exports under it verbatim; only id-less spans
        # fall back to the root-walk derivation.
        explicit = getattr(span, "trace_id", None)
        if explicit is not None:
            return trace_id_hex(explicit)
        return trace_id_hex(root_of(span))

    otlp_spans: list[dict[str, Any]] = []
    for span in span_list:
        start = base_unix_nano + (span.start_ns - origin_ns)
        end = base_unix_nano + (span.end_ns - origin_ns)
        record: dict[str, Any] = {
            "traceId": trace_for(span),
            "spanId": span_id_hex(span.span_id),
            "parentSpanId": (
                span_id_hex(span.parent_id) if span.parent_id is not None else ""
            ),
            "name": span.name,
            "kind": SPAN_KIND_INTERNAL,
            "startTimeUnixNano": str(start),
            "endTimeUnixNano": str(end),
            "attributes": _attributes(span.attributes),
        }
        if "error" in span.attributes:
            record["status"] = {
                "code": STATUS_CODE_ERROR,
                "message": str(span.attributes["error"]),
            }
        else:
            record["status"] = {}
        otlp_spans.append(record)
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": service_name},
                        }
                    ]
                },
                "scopeSpans": [
                    {
                        "scope": {"name": scope_name, "version": scope_version},
                        "spans": otlp_spans,
                    }
                ],
            }
        ]
    }


def tracer_to_otlp(tracer, **kwargs: Any) -> dict[str, Any]:
    """Convert every finished span of a tracer (uses its monotonic origin)."""
    return spans_to_otlp(tracer.spans, origin_ns=tracer.origin_ns, **kwargs)


def write_otlp_json(tracer, path: str | Path, **kwargs: Any) -> int:
    """Write one OTLP/JSON document for the tracer; returns the span count."""
    document = tracer_to_otlp(tracer, **kwargs)
    Path(path).write_text(
        json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    return len(document["resourceSpans"][0]["scopeSpans"][0]["spans"])


def read_otlp_json(path: str | Path) -> list[dict[str, Any]]:
    """Parse an OTLP/JSON file back into its flat span dicts (round-trip)."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    spans: list[dict[str, Any]] = []
    for resource_spans in document.get("resourceSpans", ()):
        for scope_spans in resource_spans.get("scopeSpans", ()):
            spans.extend(scope_spans.get("spans", ()))
    return spans


class TraceSampler:
    """Deterministic ratio sampling with an always-on-error escape hatch.

    ``ratio`` is the fraction of traces to record.  The decision is
    counter-based — trace ``n`` is kept when ``floor(n·ratio)`` advances —
    so a 0.25 ratio records exactly every fourth trace, reproducibly,
    with no randomness (and therefore no seed to manage).

    ``always_on_error=True`` records any span that exits with an error
    even inside an unsampled trace: the trace's context is lost but the
    failure itself is never dropped.
    """

    def __init__(self, ratio: float = 1.0, *, always_on_error: bool = True) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"sampling ratio must be in [0, 1], got {ratio!r}")
        self.ratio = ratio
        self.always_on_error = always_on_error
        self._lock = threading.Lock()
        self.traces_started = 0
        self.traces_sampled = 0
        self.spans_rescued = 0

    def sample(self) -> bool:
        """Decide whether the next root span starts a recorded trace."""
        with self._lock:
            self.traces_started += 1
            n = self.traces_started
            keep = math.floor(n * self.ratio) > math.floor((n - 1) * self.ratio)
            if keep:
                self.traces_sampled += 1
            return keep

    def rescue(self) -> None:
        """Count one error span recorded from an unsampled trace."""
        with self._lock:
            self.spans_rescued += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceSampler(ratio={self.ratio}, "
            f"sampled={self.traces_sampled}/{self.traces_started})"
        )


# -- push-based export ------------------------------------------------------------


class ExportError(RuntimeError):
    """A sink refused (or failed to deliver) one pushed payload."""


class FileSink:
    """Appends each pushed payload as one JSON line — the durable sink
    tests and the CI smoke read back with :func:`read_push_file`."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.emitted = 0

    def emit(self, payload: Mapping[str, Any]) -> None:
        line = json.dumps(payload, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.emitted += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FileSink({str(self.path)!r}, emitted={self.emitted})"


def read_push_file(path: str | Path) -> list[dict[str, Any]]:
    """Parse a :class:`FileSink` file back into payload dicts."""
    out: list[dict[str, Any]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out


class HTTPSink:
    """POSTs each payload as JSON over stdlib :mod:`http.client`.

    One connection per emit keeps the sink state-free (a collector
    restart between pushes costs nothing); a non-2xx answer or a socket
    error raises :class:`ExportError`, which the
    :class:`PushExporter`'s retry policy backs off on.
    """

    def __init__(
        self,
        host: str,
        port: int = 4318,
        path: str = "/v1/traces",
        *,
        timeout: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.path = path
        self.timeout = timeout
        self.emitted = 0

    def emit(self, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "POST",
                self.path,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            if not 200 <= response.status < 300:
                raise ExportError(
                    f"http://{self.host}:{self.port}{self.path} answered "
                    f"{response.status} {response.reason}"
                )
        except OSError as exc:
            raise ExportError(
                f"push to http://{self.host}:{self.port}{self.path} failed: {exc}"
            ) from exc
        finally:
            connection.close()
        self.emitted += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HTTPSink(http://{self.host}:{self.port}{self.path})"


class PushExporter:
    """A bounded queue drained into a sink by a background flusher.

    ``submit`` never blocks: a full queue sheds the incoming payload
    into :attr:`dropped`.  The flusher wakes every ``interval`` seconds
    (or on :meth:`flush`) and pushes each payload through ``retry``
    (a :class:`~repro.robustness.retry.RetryPolicy`; exhausted retries
    count into :attr:`failures` and the payload is abandoned — push
    telemetry is lossy-by-design under a dead collector).  Use as a
    context manager: ``with SpanPusher(tracer, sink):`` starts the
    thread and drains on exit.
    """

    def __init__(
        self,
        sink: Any,
        *,
        interval: float = 0.25,
        max_queue: int = 1024,
        retry: Any = None,
        metrics: Any = None,
        name: str = "push",
    ) -> None:
        if max_queue < 1:
            raise ValueError("push queue needs room for at least one payload")
        if interval <= 0:
            raise ValueError("flush interval must be positive")
        if retry is None:
            from repro.robustness.retry import RetryPolicy

            retry = RetryPolicy(max_attempts=3, base_delay=0.05)
        self.sink = sink
        self.interval = interval
        self.max_queue = max_queue
        self.retry = retry
        self.name = name
        self._metrics = metrics
        self._lock = threading.Lock()
        self._queue: deque[Mapping[str, Any]] = deque()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.pushed = 0
        self.dropped = 0
        self.failures = 0

    def _metrics_now(self) -> Any:
        from . import runtime as _obs

        return self._metrics if self._metrics is not None else _obs.current_metrics()

    # -- producing ---------------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> bool:
        """Queue one payload; ``False`` (plus a drop counter) when full."""
        with self._lock:
            if len(self._queue) >= self.max_queue:
                self.dropped += 1
                full = True
            else:
                self._queue.append(payload)
                full = False
        if full:
            metrics = self._metrics_now()
            if metrics.enabled:
                metrics.counter(
                    "export.push.dropped", {"exporter": self.name}
                ).inc()
        return not full

    def collect(self) -> None:
        """Gather fresh telemetry into the queue (subclass hook); the
        flusher calls it before every drain."""

    # -- flushing ----------------------------------------------------------------

    def flush(self) -> int:
        """Collect, then drain the queue synchronously; returns how many
        payloads the sink accepted."""
        self.collect()
        with self._lock:
            batch = list(self._queue)
            self._queue.clear()
        delivered = 0
        failed = 0
        for payload in batch:
            try:
                self.retry.call(self.sink.emit, payload)
            except Exception:
                failed += 1
            else:
                delivered += 1
        if delivered or failed:
            with self._lock:
                self.pushed += delivered
                self.failures += failed
            metrics = self._metrics_now()
            if metrics.enabled:
                if delivered:
                    metrics.counter(
                        "export.push.pushed", {"exporter": self.name}
                    ).inc(delivered)
                if failed:
                    metrics.counter(
                        "export.push.failures", {"exporter": self.name}
                    ).inc(failed)
        return delivered

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    def start(self) -> "PushExporter":
        """Start the background flusher (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name=f"repro-{self.name}-flusher", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, *, flush: bool = True) -> None:
        """Stop the flusher; by default drain what is still queued."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if flush:
            self.flush()

    def __enter__(self) -> "PushExporter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def stats(self) -> dict[str, Any]:
        """Queue depth plus lifetime pushed/dropped/failed counts."""
        with self._lock:
            return {
                "name": self.name,
                "queued": len(self._queue),
                "pushed": self.pushed,
                "dropped": self.dropped,
                "failures": self.failures,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.sink!r}, queued={len(self._queue)}, "
            f"pushed={self.pushed}, dropped={self.dropped})"
        )


class SpanPusher(PushExporter):
    """Pushes each tick's *new* finished spans as one OTLP-JSON document.

    A :class:`~repro.observability.tracing.SpanCursor` remembers what
    was shipped: a tick with no new spans pushes nothing, and a
    :meth:`flush` racing the flusher thread never ships a span twice."""

    def __init__(self, tracer: Any, sink: Any, **kwargs: Any) -> None:
        kwargs.setdefault("name", "otlp")
        super().__init__(sink, **kwargs)
        self.tracer = tracer
        self._cursor = SpanCursor(tracer)

    def collect(self) -> None:
        new = self._cursor.take()
        if new:
            self.submit(
                spans_to_otlp(new, origin_ns=self.tracer.origin_ns)
            )


class MetricsPusher(PushExporter):
    """Pushes a timestamped metrics snapshot every tick."""

    def __init__(self, metrics_source: Any, sink: Any, **kwargs: Any) -> None:
        kwargs.setdefault("name", "metrics")
        super().__init__(sink, **kwargs)
        self.metrics_source = metrics_source

    def collect(self) -> None:
        self.submit(
            {
                "type": "metrics",
                "at": round(time.time(), 6),
                "snapshot": self.metrics_source.snapshot(),
            }
        )
