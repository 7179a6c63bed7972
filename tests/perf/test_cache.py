"""ExecutionCache: memoization contract, LRU bound, counters, metrics."""

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.graph.instrument import EdgeAttribution
from repro.obs.registry import MetricsRegistry
from repro.perf.cache import (
    CacheStats,
    ExecutionCache,
    ensure_execution_cache,
    execution_cache,
)
from repro.spec.adt import (
    active_execution_cache,
    execute_invocation,
    execute_uncached,
    install_execution_cache,
)
from repro.spec.operation import Invocation

ADT = QStackSpec(capacity=2, domain=("a", "b"))
PUSH_A = Invocation("Push", ("a",))
POP = Invocation("Pop")


class TestMemoization:
    def test_hit_returns_identical_execution(self):
        cache = ExecutionCache()
        first = cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        second = cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_cached_equals_uncached(self):
        cache = ExecutionCache()
        for state in ADT.state_list():
            for invocation in ADT.invocations():
                cached = cache.get_or_execute(
                    ADT, state, invocation, EdgeAttribution.BOTH
                )
                fresh = execute_uncached(
                    ADT, state, invocation, EdgeAttribution.BOTH
                )
                assert cached.post_state == fresh.post_state
                assert cached.returned == fresh.returned
                assert cached.trace == fresh.trace

    def test_distinct_attributions_are_distinct_entries(self):
        cache = ExecutionCache()
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.SOURCE)
        assert cache.misses == 2 and cache.hits == 0

    def test_adt_instances_key_by_identity(self):
        cache = ExecutionCache()
        other = QStackSpec(capacity=2, domain=("a", "b"))
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        cache.get_or_execute(other, (), PUSH_A, EdgeAttribution.BOTH)
        assert cache.misses == 2 and cache.hits == 0


class TestEviction:
    def test_lru_bound_holds(self):
        cache = ExecutionCache(maxsize=3)
        states = ADT.state_list()
        for state in states[:5]:
            cache.get_or_execute(ADT, state, POP, EdgeAttribution.BOTH)
        assert len(cache) == 3
        assert cache.evictions == 2

    def test_oldest_entry_is_evicted_first(self):
        cache = ExecutionCache(maxsize=2)
        s0, s1, s2 = ADT.state_list()[:3]
        cache.get_or_execute(ADT, s0, POP, EdgeAttribution.BOTH)
        cache.get_or_execute(ADT, s1, POP, EdgeAttribution.BOTH)
        # Touch s0 so s1 becomes the LRU victim.
        cache.get_or_execute(ADT, s0, POP, EdgeAttribution.BOTH)
        cache.get_or_execute(ADT, s2, POP, EdgeAttribution.BOTH)
        cache.get_or_execute(ADT, s0, POP, EdgeAttribution.BOTH)
        assert cache.hits == 2  # s0 twice
        cache.get_or_execute(ADT, s1, POP, EdgeAttribution.BOTH)
        assert cache.misses == 4  # s0, s1, s2, then s1 again after eviction

    def test_clear_preserves_counters(self):
        cache = ExecutionCache()
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        cache.clear()
        assert len(cache) == 0 and cache.misses == 1

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionCache(maxsize=0)


class TestChaos:
    def test_corruption_is_cache_confined_and_detectable(self):
        adt = AccountSpec(max_balance=100)
        deposit = Invocation("Deposit", (1,))
        with execution_cache(maxsize=64) as cache:
            honest = execute_invocation(adt, 0, deposit)
            assert honest.post_state == 1
            assert cache.chaos_corrupt()
            # The poisoned entry now serves a stale post-state...
            assert execute_invocation(adt, 0, deposit).post_state == 0
            # ...but the uncached path — the one every recovery replay
            # and invariant audit uses — is untouched by construction.
            fresh = execute_uncached(adt, 0, deposit, EdgeAttribution.BOTH)
            assert fresh.post_state == 1
        # Outside the context the poisoned cache is uninstalled: the
        # default path tells the truth again.
        assert execute_invocation(adt, 0, deposit).post_state == 1


class TestStats:
    def test_stats_snapshot(self):
        cache = ExecutionCache()
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        stats = cache.stats()
        assert stats == CacheStats(hits=1, misses=1, evictions=0, size=1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_hit_rate_before_first_lookup(self):
        assert ExecutionCache().stats().hit_rate == 0.0

    def test_publish_exports_counters(self):
        cache = ExecutionCache()
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        registry = MetricsRegistry()
        cache.publish(registry)
        metrics = {
            instrument.name: instrument.value
            for instrument in registry.instruments()
        }
        assert metrics["execution_cache_hits"] == 1
        assert metrics["execution_cache_misses"] == 1
        assert metrics["execution_cache_evictions"] == 0
        assert metrics["execution_cache_size"] == 1

    def test_publish_is_delta_based(self):
        cache = ExecutionCache()
        registry = MetricsRegistry()
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        cache.publish(registry)
        cache.publish(registry)  # no traffic since: counters must not move
        cache.get_or_execute(ADT, (), PUSH_A, EdgeAttribution.BOTH)
        cache.publish(registry)
        metrics = {
            instrument.name: instrument.value
            for instrument in registry.instruments()
        }
        assert metrics["execution_cache_misses"] == 1
        assert metrics["execution_cache_hits"] == 1


class TestInstallation:
    def test_execute_invocation_consults_installed_cache(self):
        with execution_cache() as cache:
            execute_invocation(ADT, (), PUSH_A)
            execute_invocation(ADT, (), PUSH_A)
            assert cache.hits == 1 and cache.misses == 1

    def test_context_restores_previous_cache(self):
        assert active_execution_cache() is None
        with execution_cache() as outer:
            assert active_execution_cache() is outer
            with execution_cache() as inner:
                assert active_execution_cache() is inner
            assert active_execution_cache() is outer
        assert active_execution_cache() is None

    def test_ensure_joins_installed_cache(self):
        with execution_cache() as outer:
            with ensure_execution_cache() as joined:
                assert joined is outer
        with ensure_execution_cache() as fresh:
            assert active_execution_cache() is fresh
        assert active_execution_cache() is None

    def test_install_returns_previous(self):
        cache = ExecutionCache()
        previous = install_execution_cache(cache)
        try:
            assert previous is None
            assert active_execution_cache() is cache
        finally:
            install_execution_cache(previous)
        assert active_execution_cache() is None

    def test_account_adt_also_caches(self):
        adt = AccountSpec(max_balance=2, amounts=(1,))
        deposit = Invocation("Deposit", (1,))
        with execution_cache() as cache:
            first = execute_invocation(adt, 0, deposit)
            second = execute_invocation(adt, 0, deposit)
            assert first is second
            assert cache.hits == 1
