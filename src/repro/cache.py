"""Versioned result caching — MVCC-keyed memoization of query results.

The paper's §1.1 premise is that "query results are pre-calculated in the
form of aggregates"; the MVCC layer (PR 2) makes a *principled* cache
possible: committed snapshots are immutable and the live schema carries a
strictly-increasing structure-version token (:mod:`repro.core.tokens`),
so a result keyed by

``(snapshot_version, structure_version, rls_policy_digest, query_digest)``

is **permanently valid** — no invalidation protocol, no TTLs, no
dirty-tracking.  A write simply produces new versions and therefore new
keys; entries for old versions keep serving the readers still pinned to
them (the snapshot-keyed recycling discipline of MonetDB-style query
recycling applied to the warehouse read path).

Three pieces live here:

* :func:`query_digest` — a canonical digest over compiled
  :class:`~repro.core.query.Query` plans.  Order-*sensitive* where order
  shapes the result (``group_by``, ``measures``: they determine column
  and cell order) and order-*insensitive* where it does not
  (``level_filters`` are conjunctive and each filter's value set has
  OR semantics, so both sort before hashing).  Plans with a
  ``coordinate_filter`` (an opaque callable) are uncacheable and digest
  to ``None``.
* :func:`policy_digest` — a canonical digest of an RLS rule list, the
  tenant-isolation component of the key.  RLS filters are already merged
  into the plan (and therefore into the query digest); keying by the
  policy as well is defense-in-depth: two tenants can never share an
  entry even if a future statement shape bypasses plan-level merging.
* :class:`VersionedResultCache` — a bounded, thread-safe store with
  CLOCK (second-chance) eviction, an LRU fallback policy, per-entry cost
  accounting and hit/miss/eviction/bytes instrumentation through the
  existing :class:`~repro.observability.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.query import AttributeGroup, LevelGroup, Query, TimeGroup
from repro.observability import runtime as _obs

__all__ = [
    "NO_POLICY",
    "CacheKey",
    "query_digest",
    "policy_digest",
    "estimate_cost",
    "VersionedResultCache",
]

# The policy-digest of an unrestricted session (no RLS rules). A fixed
# sentinel rather than a hash so operators can spot open-scope entries.
NO_POLICY = "open"

DEFAULT_MAX_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class CacheKey:
    """One versioned result-cache key (see the module docstring)."""

    snapshot_version: int
    structure_version: int
    policy_digest: str
    query_digest: str


def query_digest(query: Query) -> str | None:
    """A canonical digest of a compiled query plan, or ``None`` when the
    plan is uncacheable.

    ``mode``, ``group_by`` and ``measures`` hash in order — they shape
    the result table (column order, cell order).  ``level_filters`` and
    each filter's value tuple hash sorted — the engine applies filters
    conjunctively and values as an OR-set, so ``WHERE a AND b`` equals
    ``WHERE b AND a`` and both map to one entry.  A ``coordinate_filter``
    is an opaque callable whose identity says nothing about its
    behaviour: such plans return ``None`` and bypass the cache.
    """
    if query.coordinate_filter is not None:
        return None
    terms: list[list[object]] = []
    for term in query.group_by:
        if isinstance(term, TimeGroup):
            terms.append(["time", term.granularity.name])
        elif isinstance(term, LevelGroup):
            terms.append(["level", term.dimension, term.level])
        elif isinstance(term, AttributeGroup):
            terms.append(["attr", term.dimension, term.attribute])
        else:  # an extension term this digest does not understand
            return None
    time_range = None
    if query.time_range is not None:
        time_range = [str(query.time_range.start), str(query.time_range.end)]
    filters = sorted(
        [flt.dimension, flt.level, sorted(flt.values)]
        for flt in query.level_filters
    )
    payload = {
        "mode": query.mode,
        "group_by": terms,
        "measures": list(query.measures),
        "time_range": time_range,
        "filters": filters,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def policy_digest(rules: Any) -> str:
    """A canonical digest of an RLS policy's rule list.

    ``rules`` is either an object with ``to_dicts()`` (an
    :class:`~repro.server.rls.RLSPolicy`) or the dict list itself.  Rules
    and their value lists sort before hashing — RLS rules are conjunctive
    — so equivalent policies written in different orders share a digest.
    An empty policy digests to the fixed :data:`NO_POLICY` sentinel.
    """
    if rules is None:
        return NO_POLICY
    if hasattr(rules, "to_dicts"):
        rules = rules.to_dicts()
    canonical = sorted(
        [str(r["dimension"]), str(r["level"]), sorted(str(v) for v in r["values"])]
        for r in rules
    )
    if not canonical:
        return NO_POLICY
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return "rls-" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# Py_TPFLAGS_HEAPTYPE: set on classes defined in Python, whose instance
# attributes the walk follows.
_HEAPTYPE = 1 << 9


def estimate_cost(value: Any) -> int:
    """A recursive memory estimate of a cached value, in bytes.

    Walks containers, mapping views and the attributes of instances of
    Python classes, counting every reachable object once.  Attributes are
    read through :func:`gc.get_referents`, not ``__dict__``: on Python
    3.11+ reading ``__dict__`` creates the dict and leaves it on the
    object, so pricing a value would grow it.  An estimate, not an audit —
    what matters for eviction is that costs are *consistent* across
    entries so relative sizes are honest.  The engine and the cube price
    their results by construction (``nbytes``); this is the default for
    every other value.
    """
    seen: set[int] = set()
    stack = [value]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        try:
            total += sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic objects
            total += 64
        if isinstance(obj, Mapping):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, (str, bytes, int, float, bool, type(None))):
            continue
        elif type(obj).__flags__ & _HEAPTYPE:
            stack.extend(
                ref for ref in gc.get_referents(obj) if not isinstance(ref, type)
            )
    return total


class _Entry:
    __slots__ = ("key", "value", "cost", "referenced")

    def __init__(self, key: CacheKey, value: Any, cost: int) -> None:
        self.key = key
        self.value = value
        self.cost = cost
        self.referenced = False


class VersionedResultCache:
    """A bounded, thread-safe, version-keyed result store.

    Parameters
    ----------
    max_bytes:
        Memory budget over the summed per-entry cost estimates.
    policy:
        ``"clock"`` (default) — CLOCK / second-chance: a hand cycles over
        the entries; a referenced entry gets its bit cleared and one more
        round, an unreferenced one is evicted.  Near-LRU behaviour at
        O(1) bookkeeping per hit (set one flag, move nothing).
        ``"lru"`` — exact least-recently-used, the simpler fallback.
    metrics:
        A :class:`~repro.observability.metrics.MetricsRegistry`; left
        ``None`` the process-wide default resolves at call time (no-op
        until instrumentation is enabled).  Counters: ``cache.hits``,
        ``cache.misses``, ``cache.evictions``; gauges: ``cache.bytes``,
        ``cache.entries``.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        *,
        policy: str = "clock",
        metrics: Any = None,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if policy not in ("clock", "lru"):
            raise ValueError(f"unknown eviction policy {policy!r}")
        self.max_bytes = max_bytes
        self.policy = policy
        self._metrics = metrics
        self._entries: dict[CacheKey, _Entry] = {}
        self._ring: list[CacheKey] = []  # CLOCK order (insertion order)
        self._hand = 0
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0
        self._lock = threading.Lock()

    # -- key construction ---------------------------------------------------------

    def key_for(
        self, mvft: Any, query: Query, policy_digest: str | None = None
    ) -> CacheKey | None:
        """The cache key of ``query`` against ``mvft``, or ``None`` when
        the plan is uncacheable.

        The structure version is the *table's* build stamp
        (``mvft.schema_token``) — entries describe what the frozen table
        serves, which is exactly what the engine returns even if the live
        schema has mutated since.
        """
        digest = query_digest(query)
        if digest is None:
            return None
        return CacheKey(
            snapshot_version=getattr(mvft, "snapshot_version", 0),
            structure_version=getattr(mvft, "schema_token", 0),
            policy_digest=policy_digest if policy_digest else NO_POLICY,
            query_digest=digest,
        )

    # -- instrumentation ----------------------------------------------------------

    def _metrics_now(self) -> Any:
        return self._metrics if self._metrics is not None else _obs.current_metrics()

    def _publish_size(self, metrics: Any) -> None:
        metrics.gauge("cache.bytes").set(float(self._bytes))
        metrics.gauge("cache.entries").set(float(len(self._entries)))

    # -- access -------------------------------------------------------------------

    def get(self, key: CacheKey | None) -> Any | None:
        """The cached value, or ``None`` on a miss (or a ``None`` key)."""
        if key is None:
            return None
        metrics = self._metrics_now()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                if metrics.enabled:
                    metrics.counter("cache.misses").inc()
                return None
            self._hits += 1
            if self.policy == "clock":
                entry.referenced = True
            else:  # lru: move to the MRU end of the ordered dict
                del self._entries[key]
                self._entries[key] = entry
            if metrics.enabled:
                metrics.counter("cache.hits").inc()
            return entry.value

    def put(self, key: CacheKey | None, value: Any, cost: int | None = None) -> bool:
        """Store ``value`` under ``key``; returns whether it was admitted.

        ``cost`` defaults to :func:`estimate_cost`.  A value costlier
        than the whole budget is rejected rather than flushing the cache
        for one entry.
        """
        if key is None:
            return False
        if cost is None:
            cost = estimate_cost(value)
        metrics = self._metrics_now()
        with self._lock:
            if cost > self.max_bytes:
                self._rejected += 1
                return False
            existing = self._entries.get(key)
            if existing is not None:
                self._bytes += cost - existing.cost
                existing.value = value
                existing.cost = cost
                existing.referenced = False
            else:
                entry = _Entry(key, value, cost)
                self._entries[key] = entry
                self._ring.append(key)
                self._bytes += cost
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                self._evict_one(metrics)
            if self._bytes > self.max_bytes:
                # the only remaining entry is the one just inserted
                self._evict_one(metrics)
            if metrics.enabled:
                self._publish_size(metrics)
        return key in self._entries

    def _evict_one(self, metrics: Any) -> None:
        if self.policy == "lru":
            key = next(iter(self._entries))  # dict order = recency order
            entry = self._entries.pop(key)
        else:
            while True:
                if self._hand >= len(self._ring):
                    self._hand = 0
                key = self._ring[self._hand]
                entry = self._entries.get(key)
                if entry is None:  # a hole left by a same-key overwrite
                    self._ring.pop(self._hand)
                    continue
                if entry.referenced:  # second chance
                    entry.referenced = False
                    self._hand += 1
                    continue
                self._ring.pop(self._hand)
                del self._entries[key]
                break
        self._bytes -= entry.cost
        self._evictions += 1
        if metrics.enabled:
            metrics.counter("cache.evictions").inc()

    # -- maintenance & introspection ----------------------------------------------

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()
            self._ring.clear()
            self._hand = 0
            self._bytes = 0
            metrics = self._metrics_now()
            if metrics.enabled:
                self._publish_size(metrics)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def keys(self) -> Iterable[CacheKey]:
        """A snapshot of the resident keys (tenant-isolation tests)."""
        with self._lock:
            return list(self._entries)

    @property
    def bytes_used(self) -> int:
        """The summed cost estimates of resident entries."""
        return self._bytes

    def stats(self) -> dict[str, Any]:
        """The counters the CLI, doctor and benchmarks report."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "policy": self.policy,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "rejected": self._rejected,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VersionedResultCache(policy={self.policy}, "
            f"entries={len(self._entries)}, bytes={self._bytes}/{self.max_bytes})"
        )
