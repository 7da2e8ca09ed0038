"""Shard-parallel multiversion aggregation over immutable snapshots.

Snapshot isolation makes the inputs of a query — the MultiVersion fact
table's columns and the structure versions behind them — immutable, so
they are trivially shareable across a ``concurrent.futures`` pool.
:class:`ShardedExecutor` is a collect strategy for the one execution
pipeline of :class:`~repro.core.query.QueryEngine` — resolve, collect,
finalize, with its spans, counters, lineage and slow log — and changes
only the collect phase:

1. the positions of the mode's rows are partitioned into contiguous
   ranges, one per shard;
2. each worker runs
   :meth:`~repro.core.query.QueryEngine.collect_contributions` over its
   range of the columns, producing a partial group map;
3. partials are merged in shard order
   (:func:`~repro.core.query.merge_contributions`) — contribution lists
   concatenate, so the merged map is *identical* to the serial one, fold
   order included.

The engine's finalize then folds ``⊕``/``⊗cf`` once, as it does for a
serial read.

Determinism therefore does not depend on aggregate associativity: the
sharded result is byte-equal to the serial result by construction, which
``tests/concurrency/test_sharded_executor.py`` asserts on the §5 case
study.

Workers default to threads.  CPython's GIL means pure-Python shard work
only overlaps on multi-core interpreters with free-threading or when the
per-shard work releases the GIL; the benchmark records the measured
speedup honestly rather than assuming one (on a single-core container
the win is bounded to ~1×, on multicore builds it approaches the shard
count).  Process pools are not used.  The table's columns would pickle,
but a worker process also needs the schema they resolve against, and a
schema's mapping functions may be arbitrary callables (lambdas included)
that do not; whether shipping the structure per worker could pay off is
unmeasured.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence, TypeVar

from repro.core.multiversion import MultiVersionFactTable
from repro.core.query import Query, QueryEngine, ResultTable, merge_contributions

__all__ = ["ShardedExecutor", "shard_rows"]


_Rows = TypeVar("_Rows", bound=Sequence)


def shard_rows(rows: _Rows, shards: int) -> list[_Rows]:
    """Partition ``rows`` into at most ``shards`` contiguous, near-equal
    slices (empty slices are dropped; order is preserved).  A ``range``
    of row positions partitions into ranges."""
    if shards < 1:
        raise ValueError("need at least one shard")
    n = len(rows)
    if n == 0:
        return []
    shards = min(shards, n)
    size, extra = divmod(n, shards)
    out = []
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

        The engine's one pipeline runs with :meth:`_collect` as its
        collect phase, behind the engine's cached path — same keys and
        counters, so a result computed serially serves sharded readers
        and vice versa.
        """
        return self.engine.execute_with(
            query, lambda q: self.engine._execute_uncached(q, self._collect)
        )

    def _collect(self, query: Query) -> dict[tuple[object, ...], dict[str, list]]:
        """The shard-parallel collect phase: the merged group map.

        Workers record lineage through the shared engine (thread-safe);
        the merged lists keep the serial fold order, so the ``⊗cf`` steps
        finalize records match a serial read's."""
        mode, _ = self.engine.resolve(query)
        rows = range(self.mvft._count(mode.label))
        parts = shard_rows(rows, self.shards)
        if len(parts) <= 1:
            return self.engine.collect_contributions(query)
        tracer, metrics = self.engine._observability()
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

            # The first shard runs here, warming the structure versions'
            # resolved levels; concurrent misses after it are safe (dict
            # writes are atomic and the builds equal), merely redundant.
            partials = [collect((0, parts[0]))]
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                partials.extend(pool.map(collect, enumerate(parts[1:], start=1)))
            with tracer.span("shard.merge", parent=root) as merge_span:
                merged = merge_contributions(partials)
                merge_span.set("groups", len(merged))
        if metrics.enabled:
            metrics.counter("shard.queries").inc()
            metrics.counter("shard.shards_run").inc(len(parts))
        return merged

    def execute_serial(self, query: Query) -> ResultTable:
        """The serial reference path (same engine, whole slice at once)."""
        return self.engine.execute(query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedExecutor(shards={self.shards}, "
            f"max_workers={self.max_workers}, rows={len(self.mvft)})"
        )
