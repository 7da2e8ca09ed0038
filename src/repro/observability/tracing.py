"""Context-manager tracing: spans forming a tree, exported as JSONL.

A :class:`Span` is one timed region of work — a query phase, a shard
scan, a WAL append burst, one ETL source.  Spans are opened with
``with tracer.span("query.execute"):`` and nest through a *context-local*
stack (:mod:`contextvars`), so a span opened inside another becomes its
child automatically; work fanned out to worker threads passes
``parent=`` explicitly instead (the worker's own stack then chains any
deeper spans under it).

The stack being a context variable (holding an immutable tuple, replaced
on push/pop) makes nesting correct under **asyncio concurrency** too:
each task runs in its own copied context, so two statements interleaving
on one event-loop thread never adopt each other's spans as parents — the
failure mode a plain thread-local stack has on a server.  Threads behave
exactly as before: a fresh thread starts from the default (empty) stack.

Timings use the monotonic clock (``time.perf_counter_ns``) — wall-clock
adjustments can never produce a negative duration.  Finished spans
accumulate on the tracer (thread-safe) and export as one JSON object per
line (:meth:`Tracer.write_jsonl`), the shape ``repro profile
--trace-out`` emits and the CLI tests parse back.

:data:`NULL_TRACER` is the disabled counterpart: ``span()`` hands back a
single shared no-op context manager — no object allocation, no clock
read — which is what every instrumented hot path sees until
:func:`repro.observability.enable` is called.
"""

from __future__ import annotations

import contextvars
import json
import random
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "STOPWATCH",
    "SpanCursor",
    "read_jsonl",
    "format_traceparent",
    "parse_traceparent",
]

_TRACE_ID_MASK = (1 << 128) - 1
_SPAN_ID_MASK = (1 << 64) - 1


def format_traceparent(span: Any) -> str:
    """Render a span as a W3C ``traceparent`` header value.

    ``00-<32-hex traceId>-<16-hex spanId>-<flags>`` — the same 32/16-hex
    id scheme the OTLP exporter emits, so a trace stitched over the wire
    carries the ids a collector would show.  Flag ``01`` means the
    originating tracer sampled this trace; ``00`` tells the far side to
    drop its spans too.
    """
    trace_id = getattr(span, "trace_id", None)
    if trace_id is None:
        trace_id = span.span_id
    flags = "01" if getattr(span, "sampled", True) else "00"
    return (
        f"00-{trace_id & _TRACE_ID_MASK:032x}"
        f"-{span.span_id & _SPAN_ID_MASK:016x}-{flags}"
    )


def parse_traceparent(value: Any) -> tuple[int, int, bool] | None:
    """Parse a ``traceparent`` into ``(trace_id, parent_span_id, sampled)``.

    Returns ``None`` for anything malformed (wrong field widths, non-hex,
    all-zero ids, the reserved ``ff`` version) — per the W3C contract a
    bad header is *ignored*, never an error, so a confused client cannot
    break the server's own tracing.
    """
    if not isinstance(value, str):
        return None
    parts = value.split("-")
    if len(parts) != 4:
        return None
    version, trace_hex, span_hex, flag_hex = parts
    if (
        len(version) != 2
        or len(trace_hex) != 32
        or len(span_hex) != 16
        or len(flag_hex) != 2
    ):
        return None
    try:
        int(version, 16)
        trace_id = int(trace_hex, 16)
        span_id = int(span_hex, 16)
        flags = int(flag_hex, 16)
    except ValueError:
        return None
    if version == "ff" or trace_id == 0 or span_id == 0:
        return None
    return trace_id, span_id, bool(flags & 1)


class Span:
    """One timed region; a node of the trace tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start_ns",
        "end_ns",
        "attributes",
        "sampled",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attributes: Mapping[str, Any] | None,
        sampled: bool = True,
        trace_id: int | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        # Local roots use their own span id as the trace id; children
        # inherit it, and a remote parent (``traceparent=``) overrides it
        # so spans on both sides of a socket export under one trace.
        self.trace_id = span_id if trace_id is None else trace_id
        self.start_ns = 0
        self.end_ns = 0
        self.sampled = sampled
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}

    # -- lifecycle (context manager) -------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._pop(self)
        self._tracer._record(self)

    # -- accessors --------------------------------------------------------------

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute (chainable)."""
        self.attributes[key] = value
        return self

    @property
    def finished(self) -> bool:
        """Whether the span has exited."""
        return self.end_ns != 0

    @property
    def duration_ns(self) -> int:
        """Monotonic duration in nanoseconds (0 while still open)."""
        return self.end_ns - self.start_ns if self.finished else 0

    @property
    def duration_s(self) -> float:
        """Monotonic duration in seconds."""
        return self.duration_ns / 1e9

    def to_dict(self, origin_ns: int = 0) -> dict[str, Any]:
        """The JSONL record (start offset relative to ``origin_ns``)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "start_us": (self.start_ns - origin_ns) // 1000,
            "duration_us": self.duration_ns // 1000,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_ns / 1e6:.3f}ms)"
        )


class Tracer:
    """Collects spans into a tree; thread-safe; exports JSONL.

    The active-span stack is context-local (a :class:`contextvars.ContextVar`
    holding an immutable tuple): spans opened in the same context nest;
    concurrent asyncio tasks each nest within their own copied context;
    spans opened on worker threads take ``parent=`` explicitly (see
    :class:`~repro.concurrency.sharding.ShardedExecutor` and the ETL
    fan-out).

    ``sampler`` (a :class:`~repro.observability.export.TraceSampler`)
    makes tracing cheap under volume: each *root* span asks the sampler
    whether its trace records, children inherit the decision, and
    unsampled spans are dropped at exit — unless they errored and the
    sampler is ``always_on_error`` (failures always record).
    """

    enabled = True

    def __init__(self, *, sampler: Any = None) -> None:
        self._origin_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        # Span ids count up from a per-tracer random 63-bit base: within
        # one tracer they stay sequential (cheap, ordered), while two
        # tracers whose spans meet in a single distributed trace (client
        # + server joined by a ``traceparent``) cannot collide.
        self._next_id = random.getrandbits(63) | 1
        self._finished: list[Span] = []
        # The stack holds an immutable tuple and is *replaced* on
        # push/pop: tasks sharing a copied context therefore never see
        # each other's mutations (a shared mutable list would leak).
        self._stack: contextvars.ContextVar[tuple[Span, ...]] = (
            contextvars.ContextVar("repro-tracer-stack", default=())
        )
        self.sampler = sampler

    @property
    def origin_ns(self) -> int:
        """The tracer's monotonic origin (span offsets are relative to it)."""
        return self._origin_ns

    # -- span creation -----------------------------------------------------------

    def span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        attributes: Mapping[str, Any] | None = None,
        traceparent: str | None = None,
    ) -> Span:
        """A new span; use as a context manager.

        ``parent`` overrides the context-local nesting (for work handed
        to another thread); by default the innermost open span of the
        current context is the parent.  ``traceparent`` resumes a trace
        started by a *remote* caller: the span adopts the wire trace id,
        names the remote span as its parent, and honours the caller's
        sampling decision (children then inherit all three through the
        context stack as usual).  A malformed ``traceparent`` is ignored.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        remote = parse_traceparent(traceparent) if traceparent else None
        trace_id: int | None = None
        if remote is not None:
            trace_id, parent_id, sampled = remote
        elif parent is not None:
            parent_id = parent.span_id
            sampled = getattr(parent, "sampled", True)
            trace_id = getattr(parent, "trace_id", None)
        else:
            stack = self._stack.get()
            if stack:
                parent_id = stack[-1].span_id
                sampled = stack[-1].sampled
                trace_id = stack[-1].trace_id
            else:
                parent_id = None
                sampled = self.sampler.sample() if self.sampler else True
        return Span(
            self, name, span_id, parent_id, attributes, sampled, trace_id
        )

    def _push(self, span: Span) -> None:
        self._stack.set(self._stack.get() + (span,))

    def _pop(self, span: Span) -> None:
        stack = self._stack.get()
        if stack and stack[-1] is span:
            self._stack.set(stack[:-1])
        elif span in stack:  # pragma: no cover - defensive
            self._stack.set(tuple(s for s in stack if s is not span))

    def _record(self, span: Span) -> None:
        if not span.sampled:
            sampler = self.sampler
            if (
                sampler is None
                or not sampler.always_on_error
                or "error" not in span.attributes
            ):
                return
            sampler.rescue()
        with self._lock:
            self._finished.append(span)

    # -- reading -----------------------------------------------------------------

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every finished span, in completion order."""
        with self._lock:
            return tuple(self._finished)

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def roots(self) -> list[Span]:
        """Finished spans with no parent, in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id is None),
            key=lambda s: s.start_ns,
        )

    def children(self, span: Span) -> list[Span]:
        """Finished children of ``span``, in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id == span.span_id),
            key=lambda s: s.start_ns,
        )

    def clear(self) -> None:
        """Drop every finished span (open spans keep recording)."""
        with self._lock:
            self._finished.clear()

    # -- rendering / export -------------------------------------------------------

    def tree_text(self) -> str:
        """The span tree rendered with indentation and millisecond timings."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = ""
            if span.attributes:
                attrs = " " + " ".join(
                    f"{k}={v}" for k, v in sorted(span.attributes.items())
                )
            lines.append(
                f"{'  ' * depth}{span.name}  "
                f"{span.duration_ns / 1e6:.3f}ms{attrs}"
            )
            for child in self.children(span):
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return "\n".join(lines)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Every finished span as a JSON-ready dict, in completion order."""
        origin = self._origin_ns
        return [span.to_dict(origin) for span in self.spans]

    def write_jsonl(self, path: str | Path) -> int:
        """Write one JSON object per span; returns the span count."""
        records = self.to_dicts()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(spans={len(self.spans)})"


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse a span JSONL file back into dicts (the CLI round-trip)."""
    out: list[dict[str, Any]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out


class _NullSpan:
    """The shared do-nothing span the null tracer hands out."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    trace_id = None
    sampled = True
    attributes: dict[str, Any] = {}
    duration_ns = 0
    duration_s = 0.0
    finished = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: ``span()`` returns one shared no-op object."""

    enabled = False
    origin_ns = 0
    sampler = None

    def span(self, name: str, **_kwargs: Any) -> _NullSpan:
        """A shared no-op context manager — no allocation, no clock read."""
        return _NULL_SPAN

    spans: tuple[Span, ...] = ()

    def find(self, name: str) -> list[Span]:
        return []

    def roots(self) -> list[Span]:
        return []

    def to_dicts(self) -> list[dict[str, Any]]:
        return []

    def tree_text(self) -> str:
        return ""

    def clear(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


NULL_TRACER = NullTracer()


class _Stopwatch:
    """Times spans and nothing else: no ids, no nesting, no recording.

    The slow-query log's clock when tracing is off.  Stateless, so one
    shared :data:`STOPWATCH` serves every caller; a private
    :class:`Tracer` per query would leave a context variable behind.
    """

    enabled = False

    def span(self, name: str, **_kwargs: Any) -> Span:
        return Span(self, name, 0, None, None)  # type: ignore[arg-type]

    def _push(self, span: Span) -> None:
        return None

    _pop = _record = _push


STOPWATCH = _Stopwatch()


class SpanCursor:
    """A read position in one tracer's finished spans.

    :meth:`take` returns the spans finished since its last call.  The
    position is anchored on the last taken span's id, so a
    ``tracer.clear()`` — which can leave the list as long as it was —
    restarts the cursor instead of skipping or repeating spans.  ``take``
    advances under a lock: concurrent callers never get the same span.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self._lock = threading.Lock()
        self._seen = 0
        self._anchor: int | None = None

    def take(self) -> tuple[Span, ...]:
        """The spans finished since the previous call, in completion order."""
        with self._lock:
            spans = self.tracer.spans
            if self._seen and (
                len(spans) < self._seen
                or spans[self._seen - 1].span_id != self._anchor
            ):
                self._seen = 0  # the tracer was cleared under us
            fresh = spans[self._seen:]
            self._seen = len(spans)
            if fresh:
                self._anchor = fresh[-1].span_id
            return fresh
