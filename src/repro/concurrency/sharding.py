"""Shard-parallel multiversion aggregation over immutable snapshots.

Snapshot isolation makes the inputs of a query — the MultiVersion fact
table rows and the structure versions behind them — immutable, so they
are trivially shareable across a ``concurrent.futures`` pool.
:class:`ShardedExecutor` exploits the two-phase split of
:class:`~repro.core.query.QueryEngine`:

1. the mode's row slice is partitioned into contiguous shards;
2. each worker runs phase one
   (:meth:`~repro.core.query.QueryEngine.collect_contributions`) over its
   shard, producing a partial group map;
3. partials are merged in shard order
   (:func:`~repro.core.query.merge_contributions`) — contribution lists
   concatenate, so the merged map is *identical* to the serial one, fold
   order included — and phase two
   (:meth:`~repro.core.query.QueryEngine.finalize`) folds ``⊕``/``⊗cf``
   once.

Determinism therefore does not depend on aggregate associativity: the
sharded result is byte-equal to the serial result by construction, which
``tests/concurrency/test_sharded_executor.py`` asserts on the §5 case
study.

Workers default to threads.  CPython's GIL means pure-Python shard work
only overlaps on multi-core interpreters with free-threading or when the
per-shard work releases the GIL; the benchmark records the measured
speedup honestly rather than assuming one (on a single-core container
the win is bounded to ~1×, on multicore builds it approaches the shard
count).  Process pools are deliberately not used: fact rows expose
``MappingProxyType`` views and do not pickle.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.core.multiversion import MultiVersionFactTable, MVFactRow
from repro.core.query import Query, QueryEngine, ResultTable, merge_contributions

__all__ = ["ShardedExecutor", "shard_rows"]


def shard_rows(
    rows: Sequence[MVFactRow], shards: int
) -> list[Sequence[MVFactRow]]:
    """Partition ``rows`` into at most ``shards`` contiguous, near-equal
    slices (empty slices are dropped; order is preserved)."""
    if shards < 1:
        raise ValueError("need at least one shard")
    n = len(rows)
    if n == 0:
        return []
    shards = min(shards, n)
    size, extra = divmod(n, shards)
    out: list[Sequence[MVFactRow]] = []
    start = 0
    for i in range(shards):
        end = start + size + (1 if i < extra else 0)
        out.append(rows[start:end])
        start = end
    return out


class ShardedExecutor:
    """Runs queries shard-parallel over one (snapshot) MVFT.

    Parameters
    ----------
    mvft:
        The MultiVersion fact table to execute against — open a
        :class:`~repro.concurrency.cursor.SnapshotCursor` and pass its
        ``mvft`` so the inputs are guaranteed immutable.
    max_workers:
        Pool width; defaults to ``os.cpu_count()`` (minimum 2 so the
        sharded path is exercised even on single-core containers).
    shards:
        How many row shards each query is split into; defaults to the
        pool width.
    """

    def __init__(
        self,
        mvft: MultiVersionFactTable,
        *,
        max_workers: int | None = None,
        shards: int | None = None,
        tracer=None,
        metrics=None,
        lineage=None,
        slow_log=None,
        cache=None,
        cache_policy_digest=None,
    ) -> None:
        self.mvft = mvft
        self.engine = QueryEngine(
            mvft,
            tracer=tracer,
            metrics=metrics,
            lineage=lineage,
            slow_log=slow_log,
            cache=cache,
            cache_policy_digest=cache_policy_digest,
        )
        self.max_workers = max_workers or max(2, os.cpu_count() or 1)
        self.shards = shards or self.max_workers

    def execute(self, query: Query) -> ResultTable:
        """Execute ``query`` shard-parallel; byte-equal to the serial path.

        With a cache attached to the shared engine the sharded path goes
        through the engine's own cached path, under the same keys and
        counters — a result computed serially serves sharded readers and
        vice versa.
        """
        return self.engine.execute_with(query, self._execute)

    def _execute(self, query: Query) -> ResultTable:
        mode, _ = self.engine.resolve(query)
        rows = self.mvft.slice(mode.label)
        parts = shard_rows(rows, self.shards)
        if len(parts) <= 1:
            return self.engine._execute_uncached(query)
        # Shard workers record through the shared engine (thread-safe);
        # finalize folds the merged lists, so the recorded ⊗cf steps match
        # the serial fold order exactly.
        if self.engine.lineage.enabled:
            self.engine.lineage.begin(mode.label)
        slow = self.engine.slow_log
        slow_on = slow is not None and slow.enabled
        tracer, metrics = self.engine._observability()
        if not (tracer.enabled or metrics.enabled or slow_on):
            return self._execute_sharded(query, parts)
        with tracer.span(
            "shard.execute",
            attributes={
                "mode": mode.label,
                "shards": len(parts),
                "rows": len(rows),
            },
        ) as root:
            # Workers run on pool threads, so the shard spans name their
            # parent explicitly instead of relying on thread-local nesting.
            def collect(indexed):
                index, part = indexed
                with tracer.span(
                    "shard.collect",
                    parent=root,
                    attributes={"shard": index, "rows": len(part)},
                ):
                    return self.engine.collect_contributions(query, part)

            started = time.perf_counter()
            partials = [collect((0, parts[0]))]
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                partials.extend(pool.map(collect, enumerate(parts[1:], start=1)))
            merge_start = time.perf_counter()
            with tracer.span("shard.merge", parent=root) as merge_span:
                merged = merge_contributions(partials)
                merge_span.set("groups", len(merged))
            merged_at = time.perf_counter()
            metrics.histogram("shard.merge_seconds").observe(merged_at - merge_start)
            with tracer.span("shard.finalize", parent=root):
                table = self.engine.finalize(query, merged)
            finished = time.perf_counter()
        metrics.counter("shard.queries").inc()
        metrics.counter("shard.shards_run").inc(len(parts))
        if slow_on:
            slow.record(
                mode=mode.label,
                seconds=finished - started,
                phases={
                    "collect": merge_start - started,
                    "merge": merged_at - merge_start,
                    "finalize": finished - merged_at,
                },
                query=query,
            )
        return table

    def _execute_sharded(
        self, query: Query, parts: list[Sequence[MVFactRow]]
    ) -> ResultTable:
        """The uninstrumented fan-out (identical work, zero tracing cost)."""
        # Warm the engine's structure caches serially on the first shard:
        # the per-(mode, dimension, t) snapshot cache is shared across
        # workers and dict writes are atomic, so concurrent misses are
        # safe, merely redundant.
        partials = [self.engine.collect_contributions(query, parts[0])]
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            partials.extend(
                pool.map(
                    lambda part: self.engine.collect_contributions(query, part),
                    parts[1:],
                )
            )
        return self.engine.finalize(query, merge_contributions(partials))

    def execute_serial(self, query: Query) -> ResultTable:
        """The serial reference path (same engine, whole slice at once)."""
        return self.engine.execute(query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedExecutor(shards={self.shards}, "
            f"max_workers={self.max_workers}, rows={len(self.mvft)})"
        )
