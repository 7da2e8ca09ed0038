"""Per-layer tracing for the layer benchmark, from the benchmark's own files.

The program under test is not edited: :class:`Tracer` replaces the
public functions of each layer with thin wrappers that record one span
``(name, start_ns, end_ns)`` per call, and restores the originals when
uninstalled.  The server runs in-process (``serve_background``), so the
same wrappers see the client, the event-loop thread and the executor
threads.  Functions called once per row (``result_row_to_dict``,
``_labels_at_level``, ``routes``) are deliberately not wrapped: a span
per row would cost more than the row, and their time stays in the
caller's self time.

:func:`self_times` turns the spans into self times.  One request is in
flight at a time, so a span belongs to the benchmark operation whose
interval contains it, and a span's parent is the innermost span whose
interval contains it, whatever thread recorded either.  A layer's self
time is its spans' time minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: The root span of one benchmark operation; its self time is the
#: benchmark's own code, which no layer accounts for.
ROOT = "bench.op"

#: (module, owner attribute or None for a module function, function, span name)
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.server.client", "WarehouseClient", "query", "client.api:query"),
    ("repro.server.client", "WarehouseClient", "pivot", "client.api:pivot"),
    ("repro.server.client", "WarehouseClient", "refresh", "client.api:refresh"),
    ("repro.server.client", "WarehouseClient", "evolve", "client.api:evolve"),
    ("repro.server.client", "WarehouseClient", "call", "client.wire"),
    ("repro.server.server", None, "decode_line", "protocol.decode"),
    ("repro.server.server", None, "encode_message", "protocol.encode"),
    ("repro.server.server", "WarehouseServer", "_respond", "server.dispatch"),
    ("repro.server.quotas", "AdmissionController", "try_admit", "admission:admit"),
    ("repro.server.quotas", "AdmissionController", "release", "admission:release"),
    ("repro.server.session", "ServerSession", "execute", "session:execute"),
    ("repro.server.session", "ServerSession", "pivot", "session:pivot"),
    ("repro.server.session", "ServerSession", "fetch", "session:fetch"),
    ("repro.server.session", "ServerSession", "refresh", "session:refresh"),
    ("repro.server.session", "ServerSession", "evolve", "session:evolve"),
    ("repro.server.rls", "RLSPolicy", "apply", "rls"),
    ("repro.mvql.session", None, "parse", "mvql.parse"),
    ("repro.mvql.session", "MVQLSession", "compile_select", "mvql.compile"),
    ("repro.server.session", "SecuredMVQLSession", "compile_select", "mvql.compile"),
    ("repro.cache", "VersionedResultCache", "key_for", "cache:key_for"),
    ("repro.cache", "VersionedResultCache", "get", "cache:get"),
    ("repro.cache", "VersionedResultCache", "put", "cache:put"),
    ("repro.core.query", "QueryEngine", "resolve", "engine.resolve"),
    ("repro.core.query", "QueryEngine", "collect_contributions", "engine.collect"),
    ("repro.core.query", "QueryEngine", "finalize", "engine.finalize"),
    ("repro.olap.cube", "Cube", "pivot", "olap.pivot"),
    ("repro.core.multiversion", "MultiVersionFactTable", "build", "mvft.build"),
    ("repro.concurrency.manager", None, "clone_schema", "snapshot.clone"),
    ("repro.concurrency.manager", "SnapshotManager", "open_cursor", "snapshot.open_cursor"),
    ("repro.robustness.transactions", "TransactionManager", "commit", "txn:commit"),
    ("repro.robustness.transactions", "TransactionManager", "add_fact", "txn:add_fact"),
    ("repro.robustness.wal", "WriteAheadJournal", "append", "wal"),
)

#: How many MVFT builds per traced window are diffed against the table
#: they replace (each holds every MV row, so keep few).
DIFF_BUILDS = 4


def layer_of(name: str) -> str:
    """``"session:fetch"`` → ``"session"``."""
    return name.split(":", 1)[0]


class Tracer:
    """Installs and removes the span-recording wrappers; holds the spans."""

    def __init__(
        self,
        probe: Callable[[], dict[str, float]],
        current_table: Callable[[], Any],
    ) -> None:
        """``probe`` reads the program's own counters (cache, WAL size)
        around each traced operation; ``current_table`` is the MVFT of the
        published snapshot, the base a new build is diffed against."""
        self.probe = probe
        self.current_table = current_table
        self.spans: list[tuple[str, int, int]] = []
        self.ops: list[tuple[int, int]] = []
        self.errors: Counter[str] = Counter()
        self.deltas: Counter[str] = Counter()
        self.last_probe: dict[str, float] = {}
        self.response_bytes = 0
        self.rows_scanned = 0
        self.result_rows = 0
        self.gen2 = 0
        self.rows_built = 0
        self.build_pairs: list[tuple[Any, Any]] = []
        self._build: Any = None
        self._saved: list[tuple[Any, str, Any, Any]] = []
        self._gc_start = 0

    # -- wrappers ----------------------------------------------------------------

    def _after(self, name: str, args: tuple, kwargs: dict, result: Any) -> None:
        """Counts taken at layer boundaries, outside the span's interval."""
        if name == "protocol.encode":
            self.response_bytes += len(result)
        elif name == "engine.collect":
            engine, query = args[0], args[1]
            rows = args[2] if len(args) > 2 else kwargs.get("rows")
            self.rows_scanned += (
                engine._mvft.cell_count().get(query.mode, 0)
                if rows is None
                else len(rows)
            )
        elif name == "engine.finalize":
            self.result_rows += len(result)
        elif name == "mvft.build":
            self.rows_built += len(result)
            self._build = result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        errors = self.errors
        after = self._after
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append((name, start, clock()))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((name, start, clock()))
                errors[name] += 1
                raise
            spans.append((name, start, clock()))
            after(name, args, kwargs, result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self.spans.append(("runtime.gc", self._gc_start, time.perf_counter_ns()))
        if info.get("generation") == 2:
            self.gen2 += 1

    # -- lifecycle ---------------------------------------------------------------

    def _patches(self) -> list[tuple[Any, str, Any, Any]]:
        """``(owner, attribute, original, wrapper)`` for every target,
        built once so switching tracing on per operation is cheap."""
        if not self._saved:
            for module_name, owner_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                if owner_name is None:
                    owner, raw = module, getattr(module, attr)
                else:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._saved.append((owner, attr, raw, wrapped))
        return self._saved

    def install(self) -> None:
        """Put every wrapper in place."""
        for owner, attr, _raw, wrapped in self._patches():
            setattr(owner, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every original function."""
        gc.callbacks.remove(self._on_gc)
        for owner, attr, raw, _wrapped in self._saved:
            setattr(owner, attr, raw)

    def op(self, step: Callable[[], Any]) -> Any:
        """Run one benchmark operation traced, as a root span."""
        before = self.probe()
        base = self.current_table() if len(self.build_pairs) < DIFF_BUILDS else None
        self._build = None
        self.install()
        start = time.perf_counter_ns()
        try:
            return step()
        finally:
            self.ops.append((start, time.perf_counter_ns()))
            self.uninstall()
            self.last_probe = self.probe()
            for key, value in before.items():
                self.deltas[key] += self.last_probe[key] - value
            if base is not None and self._build is not None:
                self.build_pairs.append((base, self._build))


# -- analysis -------------------------------------------------------------------


def self_times(
    spans: list[tuple[str, int, int]], ops: list[tuple[int, int]]
) -> tuple[dict[str, int], dict[str, list[int]]]:
    """Self time per layer (ns) and durations per span name, over every
    span inside an operation.  Spans outside every operation are
    dropped; a span that ends after its parent is clipped to it.
    """
    items = [(start, end, name) for name, start, end in spans]
    items.extend((start, end, ROOT) for start, end in ops)
    items.sort(key=lambda item: (item[0], -item[1], item[2] != ROOT))
    self_ns: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    stack: list[list[Any]] = []  # [start, end, name, covered_by_children]

    def close(entry: list[Any]) -> None:
        start, end, name, covered = entry
        # Clamped: children that overlap each other can cover more than
        # their parent's interval.
        self_ns[layer_of(name)] += max(0, (end - start) - covered)
        durations[name].append(end - start)

    for start, end, name in items:
        while stack and stack[-1][1] <= start:
            close(stack.pop())
        if not stack:
            if name != ROOT:
                continue
        elif end > stack[-1][1]:
            end = stack[-1][1]
        if stack:
            stack[-1][3] += end - start
        stack.append([start, end, name, 0])
    while stack:
        close(stack.pop())
    return dict(self_ns), dict(durations)


def _diff_rows(old: Any, new: Any) -> int:
    """Rows of ``new`` whose content no row of ``old`` has."""

    def signature(row: Any) -> tuple:
        return (
            row.mode,
            row.t,
            tuple(sorted(row.coordinates.items())),
            tuple(row.values.items()),
            tuple((m, cf.symbol) for m, cf in row.confidences.items()),
            row.provenance,
        )

    before = {signature(row) for row in old.rows()}
    return sum(1 for row in new.rows() if signature(row) not in before)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metric values of one traced window; ``overhead_ratio``
    is traced / untraced operation time, measured by the caller."""
    self_ns, durations = self_times(tracer.spans, tracer.ops)
    ops = len(tracer.ops)
    commits = len(durations.get("txn:commit", []))

    def per_op_us(layer: str) -> float:
        return self_ns.get(layer, 0) / ops / 1e3

    def per_commit_us(layer: str) -> float:
        return self_ns.get(layer, 0) / commits / 1e3 if commits else 0.0

    builds = durations.get("mvft.build", [])
    changed = (
        statistics.fmean(_diff_rows(old, new) for old, new in tracer.build_pairs)
        if tracer.build_pairs
        else 0.0
    )
    hits, misses = tracer.deltas["hits"], tracer.deltas["misses"]
    op_ns = sum(end - start for start, end in tracer.ops)
    return {
        "client.api_us_per_op": per_op_us("client.api"),
        "client.wire_us_per_op": per_op_us("client.wire"),
        "protocol.decode_us_per_op": per_op_us("protocol.decode"),
        "protocol.encode_us_per_op": per_op_us("protocol.encode"),
        "protocol.response_bytes_per_op": tracer.response_bytes / ops,
        "server.dispatch_us_per_op": per_op_us("server.dispatch"),
        "admission.us_per_op": per_op_us("admission"),
        "admission.rejected": float(tracer.errors["admission:admit"]),
        "session.us_per_op": per_op_us("session"),
        "session.fetches_per_op": len(durations.get("session:fetch", [])) / ops,
        "rls.us_per_op": per_op_us("rls"),
        "mvql.parse_us_per_op": per_op_us("mvql.parse"),
        "mvql.compile_us_per_op": per_op_us("mvql.compile"),
        "cache.us_per_op": per_op_us("cache"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": float(tracer.deltas["evictions"]),
        "cache.bytes": float(tracer.last_probe["bytes"]),
        "engine.resolve_us_per_op": per_op_us("engine.resolve"),
        "engine.collect_us_per_op": per_op_us("engine.collect"),
        "engine.finalize_us_per_op": per_op_us("engine.finalize"),
        "engine.rows_scanned_per_op": tracer.rows_scanned / ops,
        "engine.result_rows_per_op": tracer.result_rows / ops,
        "engine.collect_ns_per_row": (
            self_ns.get("engine.collect", 0) / tracer.rows_scanned
            if tracer.rows_scanned
            else 0.0
        ),
        "olap.pivot_us_per_op": per_op_us("olap.pivot"),
        "mvft.build_ms_p50": statistics.median(builds) / 1e6 if builds else 0.0,
        "mvft.builds_per_commit": len(builds) / commits if commits else 0.0,
        "mvft.rows_built_per_commit": tracer.rows_built / commits if commits else 0.0,
        "mvft.rows_changed_per_commit": (
            changed * len(builds) / commits if commits else 0.0
        ),
        "snapshot.clone_us_per_commit": per_commit_us("snapshot.clone"),
        "snapshot.open_cursor_us_per_op": per_op_us("snapshot.open_cursor"),
        "txn.commit_us_per_commit": per_commit_us("txn"),
        "wal.us_per_commit": per_commit_us("wal"),
        "wal.bytes_per_commit": (
            tracer.deltas["wal_bytes"] / commits if commits else 0.0
        ),
        "runtime.gc_ms_per_op": self_ns.get("runtime.gc", 0) / ops / 1e6,
        "runtime.gc_gen2_per_op": tracer.gen2 / ops,
        "trace.overhead_ratio": overhead_ratio,
        # The root's own self time is what no wrapped layer covers.
        "trace.unattributed_pct": self_ns.get(ROOT, 0) / op_ns * 100.0,
    }
