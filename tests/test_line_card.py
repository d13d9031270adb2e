"""Per-line-card behaviour of SpalRouter: each LC's FE and LR-cache.

A single-LC router is one line card (its table is the whole table), so
these cases pin what one card does on its own; a two-LC router adds the
remote (REM) side.
"""

import pytest

from repro.core import LOC, REM, CacheConfig, SpalConfig, SpalRouter
from repro.routing import Prefix, random_small_table
from repro.tries import BinaryTrie, MultibitTrie


@pytest.fixture
def table():
    return random_small_table(80, seed=31)


def make(table, cache=True, n_lcs=1, matcher_factory=BinaryTrie):
    config = CacheConfig(n_blocks=64, victim_blocks=4) if cache else None
    return SpalRouter(
        table, SpalConfig(n_lcs=n_lcs, cache=config),
        matcher_factory=matcher_factory,
    )


def remote_address(router, arrival_lc=0):
    """An address whose home LC is not ``arrival_lc``."""
    return next(
        a for a in range(0, 1 << 32, 0x01010101)
        if router.plan.home_lc(a) != arrival_lc
    )


class TestForwardingEngine:
    def test_lookup_counts(self, table):
        router = make(table, cache=False)
        addr = 0x0A000001
        assert router.lookup(addr) == table.lookup(addr)
        router.lookup(addr)
        assert router.fe_lookups == [2]

    def test_rebuild_after_update(self, table):
        # MultibitTrie has no incremental path: the update rebuilds it.
        router = make(table, matcher_factory=MultibitTrie)
        router.apply_update(Prefix.from_string("250.0.0.0/8"), 42)
        assert router.stats.update_rebuilds == 1
        assert router.lookup(0xFA000001) == 42

    def test_storage(self, table):
        router = make(table, cache=False)
        assert (
            router.storage_report()["trie_bytes"][0]
            == BinaryTrie(table).storage_bytes()
        )


class TestLineCard:
    def test_lookup_local_correct(self, table):
        router = make(table)
        addr = 0x0A000001
        assert router.lookup(addr) == table.lookup(addr)

    def test_second_lookup_hits_cache(self, table):
        router = make(table)
        addr = 0x0A000001
        router.lookup(addr)
        fe_before = router.fe_lookups[0]
        router.lookup(addr)
        assert router.fe_lookups[0] == fe_before  # served from LR-cache

    def test_no_cache_always_fe(self, table):
        router = make(table, cache=False)
        addr = 0x0A000001
        router.lookup(addr)
        router.lookup(addr)
        assert router.fe_lookups[0] == 2

    def test_record_remote(self, table):
        router = make(table, n_lcs=2)
        addr = remote_address(router)
        router.lookup(addr, 0)
        entry = router.caches[0].peek(addr)
        assert entry is not None
        assert entry.mix == REM
        assert entry.next_hop == table.lookup(addr)

    def test_record_remote_without_cache_is_noop(self, table):
        router = make(table, cache=False, n_lcs=2)
        addr = remote_address(router)
        assert router.lookup(addr, 0) == table.lookup(addr)  # must not raise

    def test_flush(self, table):
        router = make(table)
        router.lookup(0x0A000001)
        router.apply_update(Prefix.from_string("250.0.0.0/8"), 42)
        assert router.caches[0].occupancy() == 0

    def test_storage_includes_cache(self, table):
        with_cache = make(table).storage_report()
        without = make(table, cache=False).storage_report()
        cache_bytes = make(table).caches[0].storage_bytes()
        assert (
            with_cache["per_lc_bytes"][0]
            == without["per_lc_bytes"][0] + cache_bytes
        )

    def test_invalid_cache_config_rejected(self, table):
        from repro.errors import CacheConfigError

        with pytest.raises(CacheConfigError):
            SpalRouter(table, SpalConfig(n_lcs=1, cache=CacheConfig(mix=9.0)))

    def test_local_results_marked_loc(self, table):
        router = make(table)
        addr = 0x0A000001
        router.lookup(addr)
        assert router.caches[0].peek(addr).mix == LOC
