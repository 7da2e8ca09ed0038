"""The flight recorder: a bounded ring of recent telemetry, dumpable.

When a warehouse misbehaves the operator's first question is "what just
happened?" — and by then the interesting spans have scrolled past any
live view.  :class:`FlightRecorder` keeps the recent past on hand in
bounded rings: finished spans pulled from a
:class:`~repro.observability.tracing.Tracer` through a
:class:`~repro.observability.tracing.SpanCursor` (so a
``tracer.clear()`` never double-counts), audit events captured off an
:class:`~repro.observability.events.EventBus` subscription, and — read
fresh at dump time, since they already live in rings of their own — the
:class:`~repro.observability.health.SlowQueryLog` and the usage ledger.

:meth:`dump` writes one diagnostic directory:

``spans.otlp.json``
    the span ring as OTLP/JSON, re-importable via
    :func:`~repro.observability.export.read_otlp_json`;
``slow_queries.jsonl`` / ``audit.jsonl`` / ``usage.jsonl``
    one JSON object per line;
``metrics.json``
    a registry snapshot;
``MANIFEST.json``
    what was written, entry counts, and a SHA-256 per file — the bundle
    self-verifies, so a truncated copy is detectable.

``repro debug-bundle`` wires this to the shell, and ``run_doctor`` dumps
a bundle automatically when a sweep lands on FAIL.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

from .export import spans_to_otlp
from .tracing import SpanCursor

__all__ = ["FlightRecorder", "read_manifest"]

MANIFEST_NAME = "MANIFEST.json"


class FlightRecorder:
    """Collects recent spans/audit events; dumps a checksummed bundle."""

    def __init__(
        self,
        *,
        tracer: Any = None,
        metrics: Any = None,
        slow_log: Any = None,
        usage: Any = None,
        bus: Any = None,
        capacity: int = 512,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.tracer = tracer
        self.metrics = metrics
        self.slow_log = slow_log
        self.usage = usage
        self.capacity = capacity
        self._clock = clock
        self._spans: deque[Any] = deque(maxlen=capacity)
        self._audit: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._cursor = SpanCursor(tracer) if tracer is not None else None
        self._subscription = (
            bus.subscribe("flight-recorder", topics=["audit"], max_queue=capacity)
            if bus is not None
            else None
        )

    # -- collection --------------------------------------------------------------

    def collect(self) -> int:
        """Pull new finished spans and queued audit events into the rings;
        returns how many new spans arrived."""
        fresh = self._cursor.take() if self._cursor is not None else ()
        self._spans.extend(fresh)
        if self._subscription is not None:
            for _topic, event in self._subscription.drain():
                self.record_audit(event)
        return len(fresh)

    def record_audit(self, entry: dict[str, Any]) -> None:
        """Append one audit entry directly (for callers without a bus)."""
        self._audit.append(dict(entry))

    @property
    def spans(self) -> tuple[Any, ...]:
        return tuple(self._spans)

    @property
    def audit_events(self) -> tuple[dict[str, Any], ...]:
        return tuple(self._audit)

    # -- dumping -----------------------------------------------------------------

    def dump(self, directory: str | Path) -> dict[str, Any]:
        """Write the bundle; returns the manifest (also written as
        ``MANIFEST.json``)."""
        self.collect()
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        files: dict[str, dict[str, Any]] = {}

        def write(name: str, text: str, entries: int) -> None:
            path = target / name
            path.write_text(text, encoding="utf-8")
            files[name] = {
                "entries": entries,
                "bytes": len(text.encode("utf-8")),
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            }

        spans = list(self._spans)
        origin = self.tracer.origin_ns if self.tracer is not None else 0
        document = spans_to_otlp(spans, origin_ns=origin)
        write(
            "spans.otlp.json",
            json.dumps(document, indent=2) + "\n",
            len(spans),
        )
        slow_records = (
            [r.to_dict() for r in self.slow_log.records()]
            if self.slow_log is not None
            else []
        )
        write("slow_queries.jsonl", _jsonl(slow_records), len(slow_records))
        audit = list(self._audit)
        write("audit.jsonl", _jsonl(audit), len(audit))
        usage_records = (
            self.usage.to_dicts() if self.usage is not None else []
        )
        write("usage.jsonl", _jsonl(usage_records), len(usage_records))
        snapshot = (
            self.metrics.snapshot()
            if self.metrics is not None
            else {"counters": {}, "gauges": {}, "histograms": {}}
        )
        write("metrics.json", json.dumps(snapshot, indent=2) + "\n", 1)

        manifest = {
            "at": round(self._clock(), 6),
            "capacity": self.capacity,
            "files": files,
        }
        (target / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        return manifest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder(spans={len(self._spans)}, "
            f"audit={len(self._audit)}, capacity={self.capacity})"
        )


def _jsonl(records: list[dict[str, Any]]) -> str:
    if not records:
        return ""
    return (
        "\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n"
    )


def read_manifest(directory: str | Path) -> dict[str, Any]:
    """Read a bundle's manifest back and verify every checksum.

    Raises ``ValueError`` when a listed file is missing or its SHA-256
    disagrees — a corrupt or truncated bundle announces itself.
    """
    target = Path(directory)
    manifest = json.loads((target / MANIFEST_NAME).read_text(encoding="utf-8"))
    for name, info in manifest["files"].items():
        path = target / name
        if not path.exists():
            raise ValueError(f"bundle file missing: {name}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != info["sha256"]:
            raise ValueError(f"bundle file corrupt: {name}")
    return manifest
