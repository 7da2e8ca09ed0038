"""Unit tests for :mod:`repro.cache` — digests, keys, eviction, accounting."""

import gc
import sys
import tracemalloc

import pytest

from repro.cache import (
    NO_POLICY,
    CacheKey,
    VersionedResultCache,
    estimate_cost,
    policy_digest,
    query_digest,
)
from repro.core.chronology import Interval, YEAR, QUARTER, ym
from repro.core.query import LevelFilter, LevelGroup, Query, TimeGroup
from repro.observability import MetricsRegistry
from repro.server.rls import RLSPolicy, RLSRule
from repro.workloads.case_study import ORG, build_case_study


def q(**kwargs):
    defaults = dict(
        mode="tcm", group_by=(TimeGroup(YEAR), LevelGroup(ORG, "Division"))
    )
    defaults.update(kwargs)
    return Query(**defaults)


class TestQueryDigest:
    def test_identical_plans_share_a_digest(self):
        assert query_digest(q()) == query_digest(q())

    def test_group_by_order_is_significant(self):
        # group order shapes the result (row/column roles swap)
        flipped = q(group_by=(LevelGroup(ORG, "Division"), TimeGroup(YEAR)))
        assert query_digest(q()) != query_digest(flipped)

    def test_measure_order_is_significant(self):
        assert query_digest(q(measures=("a", "b"))) != query_digest(
            q(measures=("b", "a"))
        )

    def test_mode_granularity_and_window_are_significant(self):
        base = query_digest(q())
        assert query_digest(q(mode="V1")) != base
        assert (
            query_digest(q(group_by=(TimeGroup(QUARTER), LevelGroup(ORG, "Division"))))
            != base
        )
        assert (
            query_digest(q(time_range=Interval(ym(2001, 1), ym(2002, 1)))) != base
        )

    def test_filters_are_order_insensitive(self):
        f1 = LevelFilter(ORG, "Division", ("Sales",))
        f2 = LevelFilter(ORG, "Department", ("Jones", "Smith"))
        f2_flipped = LevelFilter(ORG, "Department", ("Smith", "Jones"))
        assert query_digest(q(level_filters=(f1, f2))) == query_digest(
            q(level_filters=(f2_flipped, f1))
        )
        # ...but the filters themselves are significant
        assert query_digest(q(level_filters=(f1,))) != query_digest(q())

    def test_coordinate_filter_is_uncacheable(self):
        assert query_digest(q(coordinate_filter=lambda c, t: True)) is None


class TestPolicyDigest:
    def test_no_policy_sentinel(self):
        assert policy_digest(None) == NO_POLICY
        assert policy_digest([]) == NO_POLICY
        assert policy_digest(RLSPolicy(())) == NO_POLICY

    def test_rule_order_is_insensitive(self):
        a = RLSRule(dimension=ORG, level="Division", values=("Sales",))
        b = RLSRule(dimension=ORG, level="Department", values=("Jones", "Smith"))
        b_flipped = RLSRule(
            dimension=ORG, level="Department", values=("Smith", "Jones")
        )
        assert policy_digest(RLSPolicy((a, b))) == policy_digest(
            RLSPolicy((b_flipped, a))
        )

    def test_different_scopes_differ(self):
        sales = RLSPolicy((RLSRule(ORG, "Division", ("Sales",)),))
        rd = RLSPolicy((RLSRule(ORG, "Division", ("R&D",)),))
        assert policy_digest(sales) != policy_digest(rd)
        assert policy_digest(sales) != NO_POLICY


class TestKeyFor:
    def test_key_binds_both_versions_and_policy(self):
        study = build_case_study()
        mvft = study.schema.multiversion_facts()
        cache = VersionedResultCache()
        key = cache.key_for(mvft, q())
        assert isinstance(key, CacheKey)
        assert key.structure_version == mvft.schema_token
        assert key.policy_digest == NO_POLICY
        assert cache.key_for(mvft, q(), "rls-abc").policy_digest == "rls-abc"
        # a write bumps the structure token: the rebuilt table keys differently
        from repro.workloads.case_study import fact_instant

        study.schema.add_fact({ORG: "jones"}, fact_instant(2001), amount=1.0)
        rebuilt = study.schema.multiversion_facts()
        assert cache.key_for(rebuilt, q()) != key

    def test_uncacheable_plans_key_to_none(self):
        study = build_case_study()
        mvft = study.schema.multiversion_facts()
        cache = VersionedResultCache()
        assert cache.key_for(mvft, q(coordinate_filter=lambda c, t: True)) is None
        assert cache.get(None) is None
        assert cache.put(None, object()) is False


def key(n: int) -> CacheKey:
    return CacheKey(1, 1, NO_POLICY, f"digest-{n}")


class TestEviction:
    def test_clock_gives_referenced_entries_a_second_chance(self):
        cache = VersionedResultCache(100, policy="clock")
        cache.put(key(1), "a", cost=40)
        cache.put(key(2), "b", cost=40)
        assert cache.get(key(1)) == "a"  # sets entry 1's reference bit
        cache.put(key(3), "c", cost=40)  # over budget: hand skips 1, evicts 2
        assert cache.get(key(1)) == "a"
        assert cache.get(key(2)) is None
        assert cache.get(key(3)) == "c"
        assert cache.stats()["evictions"] == 1

    def test_lru_evicts_least_recently_used(self):
        cache = VersionedResultCache(100, policy="lru")
        cache.put(key(1), "a", cost=40)
        cache.put(key(2), "b", cost=40)
        assert cache.get(key(1)) == "a"  # 2 is now least recently used
        cache.put(key(3), "c", cost=40)
        assert cache.get(key(1)) == "a"
        assert cache.get(key(2)) is None
        assert cache.get(key(3)) == "c"

    def test_oversize_values_are_rejected_not_flushed(self):
        cache = VersionedResultCache(100)
        cache.put(key(1), "a", cost=40)
        assert cache.put(key(2), "big", cost=400) is False
        assert cache.get(key(1)) == "a"
        assert cache.stats()["rejected"] == 1

    def test_byte_accounting_tracks_residency(self):
        cache = VersionedResultCache(100)
        cache.put(key(1), "a", cost=30)
        cache.put(key(2), "b", cost=30)
        assert cache.bytes_used == 60
        cache.put(key(1), "a2", cost=50)  # same-key overwrite adjusts cost
        assert cache.bytes_used == 80
        cache.clear()
        assert cache.bytes_used == 0
        assert len(cache) == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            VersionedResultCache(policy="fifo")


class TestCostEstimate:
    def test_costs_grow_with_content(self):
        small = estimate_cost({"rows": list(range(5))})
        large = estimate_cost({"rows": list(range(500))})
        assert 0 < small < large

    def test_shared_objects_count_once(self):
        shared = list(range(100))
        assert estimate_cost([shared, shared]) < 2 * estimate_cost([shared])

    def test_pricing_does_not_grow_the_value(self):
        # Reading ``__dict__`` creates an instance's dict on Python 3.11+
        # (about 64 B each); the walk must leave its value as it found it.
        class Plain:
            def __init__(self, i):
                self.i = i
                self.x = float(i)

        value = [Plain(i) for i in range(10_000)]
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            # the walk still reaches each instance's attributes
            assert estimate_cost(value) > 10_000 * (
                sys.getsizeof(value[0]) + sys.getsizeof(0.5)
            )
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024, f"pricing grew the value by {grown} B"


class TestMetrics:
    def test_hit_miss_eviction_and_bytes_instrumented(self):
        metrics = MetricsRegistry()
        cache = VersionedResultCache(100, metrics=metrics)
        cache.get(key(1))  # miss
        cache.put(key(1), "a", cost=40)
        cache.get(key(1))  # hit
        cache.put(key(2), "b", cost=40)
        cache.put(key(3), "c", cost=40)  # forces one eviction
        snap = metrics.snapshot()
        assert snap["counters"]["cache.misses"] == 1
        assert snap["counters"]["cache.hits"] == 1
        assert snap["counters"]["cache.evictions"] == 1
        assert snap["gauges"]["cache.bytes"] == 80.0
        assert snap["gauges"]["cache.entries"] == 2.0
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
