"""Tests for the SpalRouter facade (functional SPAL flow, Sec. 3.3)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.core import CacheConfig, SpalConfig, SpalRouter
from repro.routing import Prefix, addresses_matching, random_small_table
from repro.tries import BinaryTrie


@pytest.fixture(scope="module")
def table():
    return random_small_table(400, seed=77)


def make_router(table, **overrides):
    kw = dict(n_lcs=4, cache=CacheConfig(n_blocks=64, victim_blocks=4))
    kw.update(overrides)
    return SpalRouter(table.copy(), SpalConfig(**kw))


class TestCorrectness:
    def test_lookup_matches_oracle(self, table):
        router = make_router(table)
        addrs = addresses_matching(table, 300, seed=1)
        rng = np.random.default_rng(2)
        arrivals = rng.integers(0, 4, size=300)
        for a, lc in zip(addrs, arrivals):
            assert router.lookup(int(a), int(lc)) == table.lookup(int(a))

    def test_lookup_correct_with_cache_hits(self, table):
        """Repeated lookups (cache-served) still return the right hop."""
        router = make_router(table)
        addrs = [int(a) for a in addresses_matching(table, 30, seed=3)]
        for _ in range(3):
            for a in addrs:
                assert router.lookup(a, 0) == table.lookup(a)
        # Second and third rounds must have hit the cache.
        assert router.caches[0].stats.hits > 0

    def test_lookup_direct_bypasses_caches(self, table):
        router = make_router(table)
        addrs = addresses_matching(table, 100, seed=4)
        for a in addrs:
            assert router.lookup_direct(int(a)) == table.lookup(int(a))

    def test_no_cache_config(self, table):
        router = make_router(table, cache=None)
        addrs = addresses_matching(table, 100, seed=5)
        for a in addrs:
            assert router.lookup(int(a), 1) == table.lookup(int(a))

    def test_minimize_rejected(self, table):
        with pytest.raises(SimulationError, match="minimize_table"):
            make_router(table, minimize="full")

    def test_arrival_lc_out_of_range(self, table):
        router = make_router(table)
        with pytest.raises(SimulationError):
            router.lookup(1, 9)

    def test_custom_matcher_factory(self, table):
        router = SpalRouter(
            table.copy(),
            SpalConfig(n_lcs=2, cache=None),
            matcher_factory=BinaryTrie,
        )
        addrs = addresses_matching(table, 100, seed=6)
        for a in addrs:
            assert router.lookup(int(a)) == table.lookup(int(a))


class TestStatistics:
    def test_remote_vs_local_accounting(self, table):
        router = make_router(table)
        addrs = addresses_matching(table, 200, seed=7)
        for a in addrs:
            router.lookup(int(a), 0)
        s = router.stats
        assert s.lookups == 200
        # With 4 LCs, roughly 3/4 of first-seen addresses are remote.
        assert s.remote_requests > 0
        assert s.remote_replies == s.remote_requests
        assert router.fabric.messages == 2 * s.remote_requests

    def test_local_miss_probes_arrival_cache_once(self, table):
        router = make_router(table, n_lcs=2)
        addrs = [int(a) for a in addresses_matching(table, 100, seed=12)]
        local = next(a for a in addrs if router.plan.home_lc(a) == 0)
        router.lookup(local, 0)
        s = router.caches[0].stats
        assert (s.lookups, s.misses, s.insertions) == (1, 1, 1)
        assert router.caches[1].stats.lookups == 0
        assert router.fe_lookups == [1, 0]

    def test_remote_miss_probes_each_lc_once(self, table):
        router = make_router(table, n_lcs=2)
        addrs = [int(a) for a in addresses_matching(table, 100, seed=13)]
        remote = next(a for a in addrs if router.plan.home_lc(a) == 1)
        router.lookup(remote, 0)
        for cache in router.caches:
            s = cache.stats
            assert (s.lookups, s.misses, s.insertions) == (1, 1, 1)
        assert router.fe_lookups == [0, 1]

    def test_remote_result_cached_as_rem(self, table):
        router = make_router(table)
        addrs = [int(a) for a in addresses_matching(table, 100, seed=8)]
        remote = next(a for a in addrs if router.plan.home_lc(a) != 0)
        router.lookup(remote, 0)
        entry = router.caches[0].peek(remote)
        assert entry is not None
        from repro.core import REM

        assert entry.mix == REM

    def test_cache_remote_results_off(self, table):
        router = make_router(table, cache_remote_results=False)
        addrs = [int(a) for a in addresses_matching(table, 100, seed=9)]
        remote = next(a for a in addrs if router.plan.home_lc(a) != 0)
        router.lookup(remote, 0)
        assert router.caches[0].peek(remote) is None

    def test_storage_report(self, table):
        router = make_router(table)
        report = router.storage_report()
        assert report["total_bytes"] == sum(report["per_lc_bytes"])
        assert len(report["partition_sizes"]) == 4
        assert report["max_lc_bytes"] >= max(report["trie_bytes"])

    def test_partition_reduces_trie_size(self, table):
        whole = make_router(table, n_lcs=1, cache=None)
        split = make_router(table, n_lcs=8, cache=None)
        whole_bytes = whole.storage_report()["trie_bytes"][0]
        assert max(split.storage_report()["trie_bytes"]) < whole_bytes


class TestUpdates:
    def test_update_changes_lookups(self, table):
        router = make_router(table)
        prefix = Prefix.from_string("123.45.0.0/16")
        addr = 0x7B2D0001
        before = router.lookup(addr, 0)
        router.apply_update(prefix, 99)
        assert router.lookup(addr, 0) == 99
        assert router.lookup(addr, 3) == 99

    def test_update_flushes_caches(self, table):
        router = make_router(table)
        addrs = [int(a) for a in addresses_matching(table, 50, seed=10)]
        for a in addrs:
            router.lookup(a, 0)
        router.apply_update(Prefix.from_string("200.1.2.0/24"), 5)
        for cache in router.caches:
            assert cache.occupancy() == 0
            assert cache.stats.flushes == 1

    def test_delete_route(self, table):
        router = make_router(table)
        prefix = Prefix.from_string("77.0.0.0/8")
        router.apply_update(prefix, 42)
        assert router.lookup(0x4D010203, 0) == 42
        router.apply_update(prefix, None)
        assert router.lookup(0x4D010203, 1) == router.table.lookup(0x4D010203)

    def test_update_keeps_lpm_invariant(self, table):
        router = make_router(table)
        router.apply_update(Prefix.from_string("10.20.0.0/14"), 31)
        router.apply_update(Prefix.from_string("10.20.1.0/24"), 32)
        addrs = addresses_matching(router.table, 200, seed=11)
        for a in addrs:
            assert router.lookup_direct(int(a)) == router.table.lookup(int(a))
