"""Operational health: slow-query log, alert rules, and the doctor report.

Three layers that turn the PR-3 telemetry into *decisions*:

* :class:`SlowQueryLog` — a ring buffer of queries that exceeded a
  latency threshold, each with its per-phase breakdown (resolve /
  collect_contributions / finalize, sharded or not), the originating
  MVQL statement when one is known, and a short stable digest so
  repeated occurrences of the same statement group together.  The
  engine's one execution pipeline records into it, reading the total
  and every phase off its spans, so a disabled or absent log costs one
  boolean test per query.

* :class:`AlertRule` — a declarative threshold over one metric series of
  a :class:`~repro.observability.metrics.MetricsRegistry` snapshot:
  ``AlertRule("fsync p99", metric="wal.fsync_seconds", stat="p99",
  op=">", threshold=0.05)``.  Histogram quantiles use Prometheus-style
  linear interpolation over the fixed cumulative buckets.

* :func:`run_doctor` — the ``repro doctor`` engine: evaluates alert
  rules, sweeps the schema with
  :class:`~repro.robustness.integrity.IntegrityChecker`, and summarises
  WAL/journal state into one pass / warn / fail report whose
  ``exit_code`` (0 / 1 / 2) the CLI returns.  The robustness imports
  happen lazily inside the function — ``repro.robustness.wal`` imports
  the observability runtime, so a module-level import here would cycle.
"""

from __future__ import annotations

import contextvars
import hashlib
import re
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "statement_digest",
    "SlowQueryRecord",
    "SlowQueryLog",
    "histogram_quantile",
    "AlertRule",
    "AlertResult",
    "evaluate_rules",
    "DEFAULT_RULES",
    "DoctorReport",
    "run_doctor",
]


def statement_digest(text: str) -> str:
    """A short stable digest of a normalised MVQL statement.

    Whitespace runs collapse and case folds before hashing, so the same
    logical statement typed differently groups under one digest.
    """
    normalized = " ".join(text.split()).lower()
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:12]


def _query_signature(query: Any) -> str:
    """A stable one-line description of a Query (for records without MVQL).

    ``coordinate_filter`` is deliberately excluded — a callable's repr
    embeds a memory address and would break digest grouping.
    """
    parts = [f"mode={query.mode}"]
    if getattr(query, "group_by", ()):
        parts.append(
            "by=" + ",".join(type(term).__name__ for term in query.group_by)
        )
    if getattr(query, "measures", ()):
        parts.append("measures=" + ",".join(query.measures))
    time_range = getattr(query, "time_range", None)
    if time_range is not None:
        parts.append(f"during={time_range}")
    if getattr(query, "level_filters", ()):
        parts.append(f"filters={len(query.level_filters)}")
    return " ".join(parts)


@dataclass(frozen=True)
class SlowQueryRecord:
    """One over-threshold query: what ran, how long, where the time went."""

    mode: str
    seconds: float
    phases: tuple[tuple[str, float], ...]
    statement: str | None
    digest: str
    tenant: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly rendering."""
        return {
            "mode": self.mode,
            "seconds": self.seconds,
            "phases": dict(self.phases),
            "statement": self.statement,
            "digest": self.digest,
            "tenant": self.tenant,
        }

    def to_text(self) -> str:
        """One readable line plus the phase breakdown."""
        head = (
            f"{self.seconds * 1000:.1f}ms  mode={self.mode}  "
            f"digest={self.digest}"
        )
        if self.tenant:
            head += f"  tenant={self.tenant}"
        if self.statement:
            head += f"  {self.statement}"
        breakdown = "  ".join(f"{k}={v * 1000:.1f}ms" for k, v in self.phases)
        return f"{head}\n    phases: {breakdown}" if breakdown else head


class SlowQueryLog:
    """A bounded, thread-safe log of queries slower than ``threshold``.

    ``threshold`` is in seconds; ``capacity`` bounds memory (oldest
    records fall off).  The MVQL layer publishes the statement text for
    the engine-level record through :meth:`statement` — a
    *context-local* (:mod:`contextvars`) context manager, so concurrent
    sessions sharing one log never mislabel each other's queries: worker
    threads are isolated exactly as with a thread-local, and concurrent
    asyncio statements on one event-loop thread (the server's shape) are
    isolated per task instead of cross-contaminating.
    """

    def __init__(self, threshold: float = 0.1, capacity: int = 128) -> None:
        if threshold < 0:
            raise ValueError("slow-query threshold must be >= 0 seconds")
        if capacity < 1:
            raise ValueError("slow-query capacity must be >= 1")
        self.enabled = True
        self.threshold = threshold
        self._records: deque[SlowQueryRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._statement_var: contextvars.ContextVar[str | None] = (
            contextvars.ContextVar("repro-slow-query-statement", default=None)
        )
        self._tenant_var: contextvars.ContextVar[str | None] = (
            contextvars.ContextVar("repro-slow-query-tenant", default=None)
        )
        self.total_queries = 0
        self.total_slow = 0

    # -- statement context -------------------------------------------------------

    @contextmanager
    def statement(self, text: str) -> Iterator[None]:
        """Label engine-level records inside the block with this MVQL text."""
        token = self._statement_var.set(" ".join(text.split()))
        try:
            yield
        finally:
            self._statement_var.reset(token)

    @property
    def current_statement(self) -> str | None:
        """The MVQL text published in this context, if any."""
        return self._statement_var.get()

    @contextmanager
    def tenant(self, name: str) -> Iterator[None]:
        """Attribute records inside the block to a tenant.

        A server session wraps each statement with this, so one shared
        log serving interleaved tenants groups slow queries by *who* ran
        them, not just by statement shape.  Context-local like
        :meth:`statement`, so concurrent sessions never mislabel each
        other.
        """
        token = self._tenant_var.set(name)
        try:
            yield
        finally:
            self._tenant_var.reset(token)

    @property
    def current_tenant(self) -> str | None:
        """The tenant published in this context, if any."""
        return self._tenant_var.get()

    # -- recording (called by the query engine) ----------------------------------

    def record(
        self,
        *,
        mode: str,
        seconds: float,
        phases: Mapping[str, float] | None = None,
        query: Any = None,
    ) -> SlowQueryRecord | None:
        """Record one finished query; keeps it only when over threshold."""
        with self._lock:
            self.total_queries += 1
        if seconds < self.threshold:
            return None
        statement = self.current_statement
        if statement is None and query is not None:
            statement = _query_signature(query)
        record = SlowQueryRecord(
            mode=mode,
            seconds=seconds,
            phases=tuple((phases or {}).items()),
            statement=statement,
            digest=statement_digest(statement or mode),
            tenant=self._tenant_var.get(),
        )
        with self._lock:
            self.total_slow += 1
            self._records.append(record)
        return record

    # -- reading -----------------------------------------------------------------

    def records(self) -> list[SlowQueryRecord]:
        """The retained slow queries, oldest first."""
        with self._lock:
            return list(self._records)

    def slowest(self, n: int = 5) -> list[SlowQueryRecord]:
        """The ``n`` slowest retained queries, slowest first."""
        return sorted(self.records(), key=lambda r: -r.seconds)[:n]

    def by_digest(self) -> dict[str, int]:
        """Occurrence counts per statement digest."""
        out: dict[str, int] = {}
        for record in self.records():
            out[record.digest] = out.get(record.digest, 0) + 1
        return out

    def by_tenant(self) -> dict[str, dict[str, int]]:
        """Digest occurrence counts grouped by tenant.

        Records outside any :meth:`tenant` context land under ``""``.
        """
        out: dict[str, dict[str, int]] = {}
        for record in self.records():
            digests = out.setdefault(record.tenant or "", {})
            digests[record.digest] = digests.get(record.digest, 0) + 1
        return out

    def to_text(self) -> str:
        """A readable report of the retained slow queries."""
        records = self.records()
        head = (
            f"slow queries: {self.total_slow}/{self.total_queries} over "
            f"{self.threshold * 1000:g}ms (retained {len(records)})"
        )
        if not records:
            return head
        lines = [head]
        for record in sorted(records, key=lambda r: -r.seconds):
            lines.append("  " + record.to_text().replace("\n", "\n  "))
        return "\n".join(lines)

    def clear(self) -> None:
        """Drop retained records and reset the counters."""
        with self._lock:
            self._records.clear()
            self.total_queries = 0
            self.total_slow = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlowQueryLog(threshold={self.threshold}, "
            f"slow={self.total_slow}/{self.total_queries})"
        )


# -- alert rules ------------------------------------------------------------------


def histogram_quantile(
    q: float, buckets: Sequence[tuple[str, int]]
) -> float | None:
    """Prometheus-style quantile from cumulative fixed buckets.

    ``buckets`` is the snapshot shape: ``(upper-bound label, cumulative
    count)`` pairs ending at ``+Inf``.  Linear interpolation within the
    winning bucket; a quantile landing in ``+Inf`` reports the largest
    finite bound (all that is knowable).  ``None`` when empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if not buckets:
        return None
    total = buckets[-1][1]
    if total == 0:
        return None
    rank = q * total
    previous_bound = 0.0
    previous_count = 0
    for label, cumulative in buckets:
        if label == "+Inf":
            return previous_bound if previous_bound else None
        bound = float(label)
        if cumulative >= rank:
            in_bucket = cumulative - previous_count
            if in_bucket == 0:  # pragma: no cover - defensive
                return bound
            fraction = (rank - previous_count) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound = bound
        previous_count = cumulative
    return previous_bound  # pragma: no cover - +Inf always terminates


_PERCENTILE_RE = re.compile(r"p(\d{1,2}(?:\.\d+)?)\Z")

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold over a metrics-snapshot series.

    ``metric`` names the instrument (``wal.fsync_seconds``); series with
    labels aggregate (counters/gauges sum; histograms merge buckets).
    ``stat`` selects what to compare: ``value`` for counters/gauges,
    ``count``/``sum``/``mean`` or a percentile like ``p99`` for
    histograms.  ``severity`` decides whether a firing rule degrades the
    doctor report to *warn* or *fail*.
    """

    name: str
    metric: str
    op: str
    threshold: float
    stat: str = "value"
    severity: str = "warn"

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"unknown comparison {self.op!r}; use one of {sorted(_OPS)}"
            )
        if self.severity not in ("warn", "fail"):
            raise ValueError(
                f"severity must be 'warn' or 'fail', got {self.severity!r}"
            )
        if self.stat not in ("value", "count", "sum", "mean") and not (
            _PERCENTILE_RE.match(self.stat)
        ):
            raise ValueError(
                f"unknown stat {self.stat!r}; use value/count/sum/mean/pNN"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AlertRule":
        """Build a rule from a plain dict (the ``--rules`` JSON shape)."""
        known = {"name", "metric", "op", "threshold", "stat", "severity"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown alert-rule fields: {sorted(unknown)}")
        missing = {"name", "metric", "op", "threshold"} - set(payload)
        if missing:
            raise ValueError(f"alert rule missing fields: {sorted(missing)}")
        return cls(
            name=str(payload["name"]),
            metric=str(payload["metric"]),
            op=str(payload["op"]),
            threshold=float(payload["threshold"]),
            stat=str(payload.get("stat", "value")),
            severity=str(payload.get("severity", "warn")),
        )

    def evaluate(self, snapshot: Mapping[str, Any]) -> "AlertResult":
        """Check this rule against one ``MetricsRegistry.snapshot()``."""
        observed = self._observe(snapshot)
        if observed is None:
            return AlertResult(rule=self, fired=False, observed=None)
        fired = _OPS[self.op](observed, self.threshold)
        return AlertResult(rule=self, fired=fired, observed=observed)

    # -- internals ---------------------------------------------------------------

    def _series(self, table: Mapping[str, Any]) -> list[Any]:
        prefix = self.metric + "{"
        return [
            value
            for key, value in table.items()
            if key == self.metric or key.startswith(prefix)
        ]

    def _observe(self, snapshot: Mapping[str, Any]) -> float | None:
        if self.stat == "value":
            values = self._series(snapshot.get("counters", {}))
            if not values:
                values = self._series(snapshot.get("gauges", {}))
            return float(sum(values)) if values else None
        series = self._series(snapshot.get("histograms", {}))
        if not series:
            return None
        if self.stat in ("count", "sum"):
            return float(sum(entry[self.stat] for entry in series))
        if self.stat == "mean":
            count = sum(entry["count"] for entry in series)
            total = sum(entry["sum"] for entry in series)
            return total / count if count else None
        match = _PERCENTILE_RE.match(self.stat)
        assert match is not None  # __post_init__ guarantees it
        merged = _merge_buckets(series)
        return histogram_quantile(float(match.group(1)) / 100.0, merged)


def _merge_buckets(series: Sequence[Mapping[str, Any]]) -> list[tuple[str, int]]:
    """Element-wise sum of same-name histogram series' cumulative buckets."""
    merged: dict[str, int] = {}
    order: list[str] = []
    for entry in series:
        for label, cumulative in entry.get("buckets", ()):
            if label not in merged:
                merged[label] = 0
                order.append(label)
            merged[label] += cumulative
    return [(label, merged[label]) for label in order]


@dataclass(frozen=True)
class AlertResult:
    """One rule's outcome against one snapshot."""

    rule: AlertRule
    fired: bool
    observed: float | None

    def to_text(self) -> str:
        """One readable status line."""
        if self.observed is None:
            return f"-    {self.rule.name}: no data for {self.rule.metric!r}"
        marker = self.rule.severity.upper() if self.fired else "ok"
        return (
            f"{marker:<4} {self.rule.name}: "
            f"{self.rule.metric}.{self.rule.stat} = {self.observed:g} "
            f"({self.rule.op} {self.rule.threshold:g}"
            f"{' fired' if self.fired else ''})"
        )


def evaluate_rules(
    rules: Iterable[AlertRule], snapshot: Mapping[str, Any]
) -> list[AlertResult]:
    """Evaluate every rule against one snapshot, in rule order."""
    return [rule.evaluate(snapshot) for rule in rules]


#: The doctor's built-in rules: fsync tail latency and MVCC conflict volume.
DEFAULT_RULES: tuple[AlertRule, ...] = (
    AlertRule(
        name="wal fsync p99",
        metric="wal.fsync_seconds",
        stat="p99",
        op=">",
        threshold=0.05,
        severity="warn",
    ),
    AlertRule(
        name="snapshot conflicts",
        metric="snapshot.conflicts",
        stat="value",
        op=">",
        threshold=0,
        severity="warn",
    ),
)


# -- doctor -----------------------------------------------------------------------


@dataclass
class DoctorReport:
    """The consolidated pass / warn / fail health report."""

    alerts: list[AlertResult] = field(default_factory=list)
    integrity: Any = None
    wal_stats: dict[str, Any] | None = None
    audit_stats: dict[str, Any] | None = None
    cache_stats: dict[str, Any] | None = None
    usage_stats: dict[str, Any] | None = None
    slow_queries: list[SlowQueryRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        """``pass``, ``warn`` or ``fail`` (the worst observed)."""
        if self.integrity is not None and not self.integrity.ok:
            return "fail"
        if any(a.fired and a.rule.severity == "fail" for a in self.alerts):
            return "fail"
        if any(a.fired for a in self.alerts) or self.slow_queries:
            return "warn"
        return "pass"

    @property
    def exit_code(self) -> int:
        """0 pass, 1 warn, 2 fail — what ``repro doctor`` returns."""
        return {"pass": 0, "warn": 1, "fail": 2}[self.status]

    def to_dict(self) -> dict[str, Any]:
        """The machine-readable report — what ``repro doctor --format
        json`` prints and the server's readiness op embeds, so external
        probes consume structure instead of scraping text."""
        integrity = None
        if self.integrity is not None:
            integrity = {
                "ok": self.integrity.ok,
                "violations": [
                    {
                        "code": v.code,
                        "subject": v.subject,
                        "message": v.message,
                    }
                    for v in self.integrity.violations
                ],
            }
        return {
            "status": self.status,
            "exit_code": self.exit_code,
            "alerts": [
                {
                    "name": result.rule.name,
                    "metric": result.rule.metric,
                    "stat": result.rule.stat,
                    "op": result.rule.op,
                    "threshold": result.rule.threshold,
                    "severity": result.rule.severity,
                    "fired": result.fired,
                    "observed": result.observed,
                }
                for result in self.alerts
            ],
            "integrity": integrity,
            "wal": self.wal_stats,
            "audit": self.audit_stats,
            "cache": self.cache_stats,
            "usage": self.usage_stats,
            "slow_queries": [r.to_dict() for r in self.slow_queries],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        """The full readable report."""
        lines = [f"doctor: {self.status.upper()}"]
        if self.alerts:
            lines.append("alerts:")
            for result in self.alerts:
                lines.append(f"  {result.to_text()}")
        if self.integrity is not None:
            lines.append(self.integrity.to_text())
        if self.wal_stats is not None:
            lines.append("wal:")
            for key, value in self.wal_stats.items():
                lines.append(f"  {key}: {value}")
        if self.audit_stats is not None:
            lines.append("audit:")
            for key, value in self.audit_stats.items():
                lines.append(f"  {key}: {value}")
        if self.cache_stats is not None:
            lines.append("cache:")
            for key, value in self.cache_stats.items():
                lines.append(f"  {key}: {value}")
        if self.usage_stats is not None:
            lines.append("usage:")
            for key, value in self.usage_stats.items():
                if key == "tenants":
                    for tenant, totals in value.items():
                        summary = "  ".join(
                            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                            for k, v in totals.items()
                        )
                        lines.append(f"  tenant {tenant}: {summary}")
                else:
                    lines.append(f"  {key}: {value}")
        if self.slow_queries:
            lines.append(f"slow queries ({len(self.slow_queries)}):")
            for record in self.slow_queries:
                lines.append("  " + record.to_text().replace("\n", "\n  "))
        for note in self.notes:
            lines.append(note)
        return "\n".join(lines)


def run_doctor(
    schema: Any = None,
    *,
    metrics: Any = None,
    rules: Iterable[AlertRule] | None = None,
    wal_path: Any = None,
    slow_log: SlowQueryLog | None = None,
    audit_log: Any = None,
    exporters: Iterable[Any] = (),
    bus: Any = None,
    cache: Any = None,
    usage: Any = None,
    flight: Any = None,
    flight_dir: Any = None,
) -> DoctorReport:
    """One health sweep: alerts + integrity + WAL stats + slow queries.

    Every input is optional; absent subsystems are skipped with a note,
    so the doctor runs identically on a bare schema and on a fully wired
    deployment.

    The events sweep covers the CDC/audit layer: ``audit_log`` (a path)
    is cross-checked against ``wal_path`` — an audit trail that names a
    commit LSN the journal does not know about, or that never saw the
    journal's last commit, means the two diverged (wrong file, truncated
    journal, or a crash between the WAL append and the audit append) and
    warns.  ``exporters`` (objects with ``.stats()``, e.g.
    :class:`~repro.observability.export.PushExporter`) and ``bus`` (an
    :class:`~repro.observability.events.EventBus`) warn when they have
    dropped events or exhausted push retries — the telemetry pipeline is
    lossy by design, and the doctor is where the loss becomes visible.

    ``cache`` (a :class:`~repro.cache.VersionedResultCache`, or anything
    with a ``stats()`` dict) adds a residency/hit-rate section.  Cache
    numbers are purely informational — a cold or thrashing cache is a
    performance fact, not a health fault — so they never move ``status``.

    ``usage`` (a :class:`~repro.observability.usage.UsageMeter`) adds a
    per-tenant attribution section — like the cache section it informs
    and never moves ``status``.  ``flight`` (a
    :class:`~repro.observability.flight.FlightRecorder`) arms the
    post-mortem path: when the sweep lands on FAIL the recorder dumps a
    checksummed debug bundle into ``flight_dir`` (default
    ``debug-bundle``) and the report notes where it went — the moment
    the doctor says "something is wrong" is exactly when the recent
    spans/audit trail should stop scrolling away.
    """
    # Imported lazily: repro.robustness.wal imports the observability
    # runtime, so a module-level import here would be a cycle.
    from repro.robustness import IntegrityChecker, WALError, WriteAheadJournal

    report = DoctorReport()
    active_rules = DEFAULT_RULES if rules is None else tuple(rules)
    if metrics is not None:
        report.alerts = evaluate_rules(active_rules, metrics.snapshot())
    else:
        report.notes.append("metrics: none attached (alert rules skipped)")
    if schema is not None:
        report.integrity = IntegrityChecker(schema).run()
    else:
        report.notes.append("schema: none given (integrity sweep skipped)")
    if wal_path is not None:
        from repro.robustness.wal import sweep_journal

        sweep = sweep_journal(wal_path)
        for severity, message in sweep["problems"]:
            report.alerts.append(
                AlertResult(
                    rule=AlertRule(
                        name=f"wal sweep: {message}",
                        metric="wal",
                        op=">",
                        threshold=0,
                        severity=severity,
                    ),
                    fired=True,
                    observed=1.0,
                )
            )
        if metrics is not None and getattr(metrics, "enabled", False):
            if sweep["checksum_failures"]:
                metrics.counter("wal.checksum_failures").inc(
                    sweep["checksum_failures"]
                )
            metrics.gauge("wal.archive_segments").set(sweep["archive_segments"])
    if wal_path is not None and any(
        severity == "fail" for severity, _ in sweep["problems"]
    ):
        # The sweep found unreadable or checksum-mismatched records: a
        # strict open would either raise or (policy-dependent) rewrite the
        # journal, and the doctor must never mutate what it diagnoses.
        report.wal_stats = {
            "path": str(wal_path),
            "records": sweep["records"],
            "checksum_failures": sweep["checksum_failures"],
            "archive_segments": sweep["archive_segments"],
            "archived_records": sweep["archived_records"],
            "error": "; ".join(msg for _, msg in sweep["problems"]),
        }
    elif wal_path is not None:
        try:
            with WriteAheadJournal(wal_path) as journal:
                records = journal.records()
                kinds: dict[str, int] = {}
                for record in records:
                    kind = record.get("kind", "?")
                    kinds[kind] = kinds.get(kind, 0) + 1
                open_txids = {
                    r["txid"] for r in records if r.get("kind") == "begin"
                } - {
                    r["txid"]
                    for r in records
                    if r.get("kind") in ("commit", "abort")
                }
                report.wal_stats = {
                    "path": str(wal_path),
                    "size_bytes": journal.size_bytes,
                    "last_lsn": journal.last_lsn,
                    "records": len(records),
                    "kinds": dict(sorted(kinds.items())),
                    "open_transactions": len(open_txids),
                    "checksum_failures": sweep["checksum_failures"],
                    "archive_segments": sweep["archive_segments"],
                    "archived_records": sweep["archived_records"],
                }
                if open_txids:
                    # A begin without commit/abort means a crash tore the
                    # journal mid-transaction: recovery would discard it.
                    report.alerts.append(
                        AlertResult(
                            rule=AlertRule(
                                name="wal open transactions",
                                metric="wal",
                                op=">",
                                threshold=0,
                            ),
                            fired=True,
                            observed=float(len(open_txids)),
                        )
                    )
        except WALError as exc:
            report.wal_stats = {"path": str(wal_path), "error": str(exc)}
            report.alerts.append(
                AlertResult(
                    rule=AlertRule(
                        name="wal readable",
                        metric="wal",
                        op=">",
                        threshold=0,
                        severity="fail",
                    ),
                    fired=True,
                    observed=1.0,
                )
            )
    if audit_log is not None:
        _sweep_audit(report, audit_log, wal_path)
    for exporter in exporters:
        stats = exporter.stats()
        for counter in ("dropped", "failures"):
            if stats.get(counter, 0) > 0:
                report.alerts.append(
                    AlertResult(
                        rule=AlertRule(
                            name=(
                                f"push exporter "
                                f"{stats.get('name', '?')} {counter}"
                            ),
                            metric="export.push",
                            op=">",
                            threshold=0,
                        ),
                        fired=True,
                        observed=float(stats[counter]),
                    )
                )
    if bus is not None:
        for name, stats in bus.stats()["subscribers"].items():
            if stats.get("dropped", 0) > 0:
                report.alerts.append(
                    AlertResult(
                        rule=AlertRule(
                            name=f"event bus subscriber {name} dropped",
                            metric="events.bus",
                            op=">",
                            threshold=0,
                        ),
                        fired=True,
                        observed=float(stats["dropped"]),
                    )
                )
    if cache is not None:
        report.cache_stats = dict(
            cache if isinstance(cache, Mapping) else cache.stats()
        )
    if usage is not None:
        report.usage_stats = dict(
            usage if isinstance(usage, Mapping) else usage.stats()
        )
    if slow_log is not None:
        report.slow_queries = slow_log.slowest(5)
    if flight is not None and report.status == "fail":
        target = flight_dir if flight_dir is not None else "debug-bundle"
        try:
            manifest = flight.dump(target)
        except OSError as exc:  # pragma: no cover - environment-dependent
            report.notes.append(f"flight recorder: dump failed ({exc})")
        else:
            spans = manifest["files"]["spans.otlp.json"]["entries"]
            report.notes.append(
                f"flight recorder: dumped {spans} spans to {target}"
            )
    return report


def _sweep_audit(report: DoctorReport, audit_log: Any, wal_path: Any) -> None:
    """Cross-check the audit trail against the journal's commit history."""
    from repro.observability.events import last_committed_lsn, read_audit_log

    try:
        entries = read_audit_log(audit_log)
    except (OSError, ValueError) as exc:
        report.audit_stats = {"path": str(audit_log), "error": str(exc)}
        report.alerts.append(
            AlertResult(
                rule=AlertRule(
                    name="audit log readable",
                    metric="audit",
                    op=">",
                    threshold=0,
                    severity="fail",
                ),
                fired=True,
                observed=1.0,
            )
        )
        return
    audit_lsn = max(
        (entry["lsn"] for entry in entries if "lsn" in entry), default=None
    )
    report.audit_stats = {
        "path": str(audit_log),
        "entries": len(entries),
        "last_lsn": audit_lsn,
    }
    if wal_path is None:
        report.notes.append("audit: no journal given (LSN cross-check skipped)")
        return
    wal_lsn = last_committed_lsn(wal_path)
    report.audit_stats["wal_last_committed_lsn"] = wal_lsn
    if audit_lsn is None:
        return
    if wal_lsn is None or audit_lsn != wal_lsn:
        report.alerts.append(
            AlertResult(
                rule=AlertRule(
                    name=(
                        f"audit/journal LSN divergence (audit {audit_lsn}, "
                        f"journal {wal_lsn})"
                    ),
                    metric="audit",
                    op=">",
                    threshold=0,
                ),
                fired=True,
                observed=float(audit_lsn),
            )
        )
