"""Tests for update streams, selective invalidation and the E10 runners."""

import pytest

from repro.core import LOC, REM, CacheConfig, LRCache, SpalConfig, SpalRouter
from repro.errors import SimulationError
from repro.routing import (
    Prefix,
    RouteUpdate,
    UpdateMix,
    generate_updates,
    random_small_table,
)


@pytest.fixture
def table():
    return random_small_table(200, seed=21)


class TestUpdateStream:
    def test_count_and_determinism(self, table):
        a = list(generate_updates(table, 50, seed=5))
        b = list(generate_updates(table, 50, seed=5))
        assert len(a) == 50
        assert a == b

    def test_mix_kinds_present(self, table):
        updates = list(generate_updates(table, 400, seed=6))
        withdrawals = sum(1 for u in updates if u.is_withdrawal)
        announces = len(updates) - withdrawals
        assert withdrawals > 0
        assert announces > withdrawals  # modifies dominate

    def test_applicable_in_order(self, table):
        """The stream must apply cleanly: no withdrawal of absent routes."""
        router = SpalRouter(
            table.copy(),
            SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=64)),
        )
        for update in generate_updates(table, 150, seed=7):
            if update.is_withdrawal and update.prefix not in router.table:
                pytest.fail("withdrawal of an absent prefix")
            if update.is_withdrawal:
                router.apply_update(update.prefix, None)
            else:
                router.apply_update(update.prefix, update.next_hop)

    def test_churn_concentration(self, table):
        updates = list(
            generate_updates(table, 300, seed=8, churn_fraction=0.02)
        )
        touched = {u.prefix for u in updates if not u.is_withdrawal}
        # Most updates hit the small churn set (plus a few new prefixes).
        assert len(touched) < 60

    def test_validation(self, table):
        with pytest.raises(ValueError):
            list(generate_updates(table, -1))
        with pytest.raises(ValueError):
            list(generate_updates(table, 5, churn_fraction=0.0))
        from repro.routing import RoutingTable

        empty = RoutingTable()
        empty.update(Prefix.default(), 0)
        with pytest.raises(ValueError):
            list(generate_updates(empty, 5))

    def test_update_mix_normalization(self):
        mix = UpdateMix(modify=2, withdraw=1, announce=1, new=0)
        assert sum(mix.normalized()) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            UpdateMix(0, 0, 0, 0).normalized()


class TestSelectiveInvalidation:
    def test_drops_only_covered_entries(self):
        cache = LRCache(n_blocks=64, victim_blocks=4)
        inside = [0x0A000001, 0x0A0000FF, 0x0AFFFFFF]
        outside = [0x0B000001, 0xC0A80001]
        for a in inside + outside:
            cache.insert_complete(a, 1, LOC)
        dropped = cache.invalidate_matching(Prefix.from_string("10.0.0.0/8"))
        assert dropped == len(inside)
        assert all(cache.peek(a) is None for a in inside)
        assert all(cache.peek(a) is not None for a in outside)

    def test_waiting_entries_survive(self):
        cache = LRCache(n_blocks=64, victim_blocks=0)
        entry = cache.allocate(0x0A000001, REM)
        cache.insert_complete(0x0A000002 % 16, 1, LOC)
        cache.invalidate_matching(Prefix.default())
        assert cache.peek(0x0A000001) is entry  # W=1 entries stay

    def test_victim_cache_also_invalidated(self):
        cache = LRCache(n_blocks=8, associativity=4, victim_blocks=4, mix=0.0)
        # Fill set 0 beyond capacity to push an entry into the victim cache.
        for a in (0x0A000000, 0x0A000002, 0x0A000004, 0x0A000006, 0x0A000008):
            cache.insert_complete(a, 1, LOC)
        assert len(cache.victim) == 1
        cache.invalidate_matching(Prefix.from_string("10.0.0.0/8"))
        assert len(cache.victim) == 0

    def test_router_selective_policy(self, table):
        router = SpalRouter(
            table.copy(), SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64))
        )
        # Warm the caches with two disjoint destinations.
        router.lookup(0x0A000001, 0)
        router.lookup(0xC0000001, 0)
        router.apply_update(
            Prefix.from_string("10.0.0.0/8"), 9, invalidation="selective"
        )
        cache = router.caches[0]
        assert cache.peek(0x0A000001) is None
        assert cache.peek(0xC0000001) is not None
        assert router.lookup(0x0A000001, 0) == 9

    def test_router_rejects_unknown_policy(self, table):
        router = SpalRouter(table.copy(), SpalConfig(n_lcs=2))
        with pytest.raises(SimulationError):
            router.apply_update(Prefix.from_string("10.0.0.0/8"), 1,
                                invalidation="sometimes")


class TestSimulatorUpdateEvents:
    def test_selective_events_cheaper_than_flush(self, table):
        from repro.routing import ChurnEvent, ChurnSchedule
        from repro.sim import SpalSimulator
        from repro.traffic import FlowPopulation, TraceSpec, generate_router_streams

        spec = TraceSpec("t", n_flows=300, recency=0.3, seed=1)
        pop = FlowPopulation(spec, table)
        cycles = list(range(1000, 20000, 1000))
        updates = ChurnSchedule([
            ChurnEvent(t, u)
            for t, u in zip(cycles, generate_updates(table, len(cycles), seed=3))
        ])

        def run(policy):
            # The same table changes and FE service either way; only the
            # cache invalidation differs.
            sim = SpalSimulator(
                table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=256))
            )
            streams = generate_router_streams(pop, 2, 2000)
            return sim.run(streams, updates=updates, update_policy=policy)

        flush = run("flush")
        selective = run("selective")
        assert flush.update_events_applied == len(cycles)
        assert selective.mean_lookup_cycles <= flush.mean_lookup_cycles


class TestUpdateExperiments:
    def test_update_sensitivity_degrades_with_rate(self):
        from repro.experiments import run_update_sensitivity

        result = run_update_sensitivity(packets_per_lc=3000, n_lcs=2)
        first = result.rows[0]["mean_cycles"]
        last = result.rows[-1]["mean_cycles"]
        assert last > first

    def test_invalidation_comparison(self):
        from repro.experiments import run_invalidation_comparison

        result = run_invalidation_comparison(packets_per_lc=3000, n_lcs=2)
        by_key = {(r["updates_per_s"], r["policy"]): r for r in result.rows}
        rate = 50_000
        assert (
            by_key[(rate, "selective")]["mean_cycles"]
            <= by_key[(rate, "flush")]["mean_cycles"]
        )
