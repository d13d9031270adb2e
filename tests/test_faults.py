"""Fault injection, remote-lookup timeouts, and failover."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CacheConfig,
    FaultSchedule,
    SpalConfig,
    SpalRouter,
)
from repro.core.partition import partition_table
from repro.errors import (
    FaultScheduleError,
    PartitionError,
    SimulationError,
    UnreachablePatternError,
)
from repro.routing import random_small_table
from repro.routing.churn import generate_churn
from repro.routing.ipv6 import make_ipv6_table
from repro.sim import SpalSimulator
from repro.tries.lulea import LuleaTrie

from .conftest import result_digest


@pytest.fixture(scope="module")
def table():
    return random_small_table(120, seed=17, max_length=20)


def small_config(n_lcs=4, replicas=2, **kw):
    return SpalConfig(
        n_lcs=n_lcs,
        cache=CacheConfig(n_blocks=64, victim_blocks=4),
        fe_lookup_cycles=5,
        replicas=replicas,
        **kw,
    )


def locality_streams(n_lcs, n=400, seed=3, alphabet=1 << 14):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, alphabet, size=n).astype(np.uint64)
        for _ in range(n_lcs)
    ]


def run_once(table, config, streams, faults=None, speed_gbps=40,
             engine="array"):
    return SpalSimulator(table, config).run(
        streams, faults=faults, speed_gbps=speed_gbps, name="t",
        engine=engine,
    )


class TestFaultSchedule:
    def test_builders_chain_and_validate(self):
        f = (
            FaultSchedule(seed=4)
            .fail_lc(100, 1)
            .recover_lc(200, 1)
            .degrade_fabric(50, 150, extra_latency=3, drop_prob=0.1)
        )
        assert not f.empty
        assert f.has_lc_events and f.has_drops
        assert f.lc_events() == [(100, "fail", 1), (200, "recover", 1)]

    def test_same_cycle_fail_before_recover(self):
        f = FaultSchedule().recover_lc(100, 2).fail_lc(100, 2)
        assert [k for _, k, _ in f.lc_events()] == ["fail", "recover"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: f.fail_lc(-1, 0),
            lambda f: f.fail_lc(10, -2),
            lambda f: f.recover_lc(-5, 0),
            lambda f: f.degrade_fabric(10, 10),
            lambda f: f.degrade_fabric(20, 10),
            lambda f: f.degrade_fabric(0, 10, extra_latency=-1),
            lambda f: f.degrade_fabric(0, 10, drop_prob=1.0),
            lambda f: f.degrade_fabric(0, 10, drop_prob=-0.1),
            lambda f: f.slow_lc(10, 10, 0, 2.0),
            lambda f: f.slow_lc(0, 10, -1, 2.0),
            lambda f: f.slow_lc(0, 10, 0, 0.5),
            lambda f: f.flap_link(0, 10, period=0, down_cycles=1),
            lambda f: f.flap_link(0, 10, period=4, down_cycles=5),
            lambda f: f.flap_link(0, 10, period=4, down_cycles=0),
            lambda f: f.flap_link(0, 10, period=4, down_cycles=2, src=-1),
            lambda f: f.degrade_lc_cache(10, 5, 0, 0.5),
            lambda f: f.degrade_lc_cache(0, 10, 0, 0.0),
            lambda f: f.degrade_lc_cache(0, 10, 0, 1.0),
        ],
    )
    def test_malformed_events_raise(self, call):
        with pytest.raises(FaultScheduleError):
            call(FaultSchedule())

    def test_validate_against_router_shape(self):
        f = FaultSchedule().fail_lc(10, 7)
        f.validate(8)  # in range
        with pytest.raises(FaultScheduleError):
            f.validate(4)

    def test_drop_prob_composes_independent_windows(self):
        f = (
            FaultSchedule()
            .degrade_fabric(0, 100, drop_prob=0.5)
            .degrade_fabric(50, 100, drop_prob=0.5)
        )
        assert f.drop_prob_at(10) == 0.5
        assert f.drop_prob_at(60) == pytest.approx(0.75)
        assert f.drop_prob_at(100) == 0.0


class TestDeterminism:
    def test_empty_schedule_bit_identical_to_no_schedule(self, table):
        cfg = small_config()
        streams = locality_streams(4)
        base = run_once(table, cfg, streams)
        empty = run_once(table, cfg, streams, faults=FaultSchedule())
        assert np.array_equal(base.latencies, empty.latencies)
        assert base.horizon_cycles == empty.horizon_cycles
        assert base.summary() == empty.summary()
        # Fault-free runs keep the degraded-mode defaults untouched.
        assert empty.drops == {} and empty.lc_availability == []

    def test_fault_run_repeatable(self, table):
        cfg = small_config()
        streams = locality_streams(4)
        faults = [
            FaultSchedule(seed=7)
            .fail_lc(500, 1)
            .recover_lc(4000, 1)
            .degrade_fabric(200, 2500, extra_latency=4, drop_prob=0.2)
            for _ in range(2)
        ]
        a = run_once(table, cfg, streams, faults=faults[0])
        b = run_once(table, cfg, streams, faults=faults[1])
        assert np.array_equal(a.latencies, b.latencies)
        assert a.drops == b.drops
        assert a.retries == b.retries
        assert a.fabric_dropped_messages == b.fabric_dropped_messages
        assert a.horizon_cycles == b.horizon_cycles
        assert a.lc_availability == b.lc_availability

    def test_fault_run_identical_with_fast_path_off(self, table):
        # The array engine's precompute blocks against the scalar loop's
        # whole-stream pass, across a fail/recover that changes the plan.
        cfg = small_config()
        streams = locality_streams(4)
        faults = lambda: (
            FaultSchedule(seed=2)
            .fail_lc(800, 2)
            .recover_lc(5000, 2)
            .degrade_fabric(100, 3000, extra_latency=2, drop_prob=0.15)
        )
        on = run_once(table, cfg, streams, faults=faults())
        off = run_once(table, cfg, streams, faults=faults(), engine="scalar")
        assert np.array_equal(on.latencies, off.latencies)
        assert on.drops == off.drops
        assert on.retries == off.retries
        assert on.fabric_dropped_messages == off.fabric_dropped_messages
        assert on.horizon_cycles == off.horizon_cycles


class TestFailover:
    def test_replicated_failure_no_unreachable_drops(self, table):
        cfg = small_config(replicas=2)
        streams = locality_streams(4)
        faults = FaultSchedule().fail_lc(1000, 1)
        # 10 Gbps: failover needs capacity headroom on the survivors — at
        # saturation, congestion timeouts can exhaust the retry budget.
        r = run_once(table, cfg, streams, faults=faults, speed_gbps=10)
        assert r.drops["unreachable"] == 0
        # The dead card's own offered traffic is lost at ingress.
        assert r.drops["ingress"] > 0
        assert r.lc_availability[1] < 1.0
        assert all(a == 1.0 for i, a in enumerate(r.lc_availability) if i != 1)

    def test_unreplicated_failure_counted_never_raised(self, table):
        cfg = small_config(replicas=1)
        streams = locality_streams(4)
        faults = FaultSchedule().fail_lc(500, 1)
        r = run_once(table, cfg, streams, faults=faults)  # must not raise
        assert r.drops["unreachable"] > 0
        assert r.delivery_rate < 1.0
        assert r.packets + r.total_drops == sum(len(s) for s in streams)

    def test_recovery_restores_service_with_cold_cache(self, table):
        cfg = small_config(replicas=1)
        streams = locality_streams(4, n=600)
        sim = SpalSimulator(table, cfg)
        faults = FaultSchedule().fail_lc(1000, 1).recover_lc(3000, 1)
        r = sim.run(streams, faults=faults, name="t")
        # Cold restart: the recovered card's cache was flushed.
        assert sim.caches[1].stats.flushes >= 1
        # Down window is exactly fail..recover.
        horizon = r.horizon_cycles
        assert r.lc_availability[1] == pytest.approx(1 - 2000 / horizon)

    def test_conservation_under_heavy_faults(self, table):
        cfg = small_config(replicas=2)
        streams = locality_streams(4, n=500, seed=11)
        faults = (
            FaultSchedule(seed=3)
            .fail_lc(300, 0)
            .fail_lc(600, 2)
            .recover_lc(2500, 0)
            .recover_lc(4000, 2)
            .degrade_fabric(100, 5000, extra_latency=5, drop_prob=0.3)
        )
        r = run_once(table, cfg, streams, faults=faults)
        assert r.packets + r.total_drops == sum(len(s) for s in streams)

    def test_retries_recover_from_fabric_loss(self, table):
        cfg = small_config(replicas=2)
        streams = locality_streams(4)
        faults = FaultSchedule(seed=6).degrade_fabric(0, 10**9, drop_prob=0.2)
        r = run_once(table, cfg, streams, faults=faults)
        assert r.fabric_dropped_messages > 0
        assert r.retries > 0
        # Lost messages recovered by retry show up as failover packets.
        assert r.failover_packets > 0

    def test_degradation_latency_slows_remote_lookups(self, table):
        cfg = small_config(replicas=1)
        streams = locality_streams(4)
        base = run_once(table, cfg, streams)
        slow = run_once(
            table,
            cfg,
            streams,
            faults=FaultSchedule().degrade_fabric(
                0, 10**9, extra_latency=50
            ),
        )
        assert slow.mean_lookup_cycles > base.mean_lookup_cycles

    def test_fault_events_counted(self, table):
        cfg = small_config()
        streams = locality_streams(4, n=200)
        faults = FaultSchedule().fail_lc(100, 0).recover_lc(400, 0)
        r = run_once(table, cfg, streams, faults=faults)
        assert r.fault_events == 2

    def test_schedule_rejected_against_wrong_shape(self, table):
        cfg = small_config(n_lcs=2)
        streams = locality_streams(2, n=50)
        with pytest.raises(FaultScheduleError):
            run_once(
                table, cfg, streams, faults=FaultSchedule().fail_lc(10, 5)
            )

    def test_memoized_plan_not_mutated(self, table):
        cfg = small_config(replicas=2)
        plan = partition_table(
            table, 4, replicas=2
        )
        from repro.tries.reference import HashReferenceMatcher

        matchers = [HashReferenceMatcher(t) for t in plan.tables]
        sim = SpalSimulator(table, cfg, plan=plan, matchers=matchers)
        faults = FaultSchedule().fail_lc(200, 1)
        sim.run(locality_streams(4, n=200), faults=faults, name="t")
        # The injected plan must come back untouched (the simulator works
        # on a private copy under LC faults).
        assert plan.failed_lcs == set()
        assert sim.plan is not plan
        assert sim.plan.failed_lcs == {1}


class TestPlanEpoch:
    def test_epoch_bumps_on_state_change_only(self, table):
        plan = partition_table(table, 4, replicas=2)
        e0 = plan.epoch
        plan.fail_lc(1)
        assert plan.epoch == e0 + 1
        plan.fail_lc(1)  # already failed: no change
        assert plan.epoch == e0 + 1
        plan.restore_lc(1)
        assert plan.epoch == e0 + 2
        plan.restore_lc(1)  # already live: no change
        assert plan.epoch == e0 + 2

    def test_restore_out_of_range_raises(self, table):
        plan = partition_table(table, 4)
        with pytest.raises(PartitionError):
            plan.restore_lc(99)
        with pytest.raises(PartitionError):
            plan.restore_lc(-1)

    def test_live_replica_table_cached_per_epoch(self, table):
        plan = partition_table(table, 4, replicas=2)
        addrs = np.arange(512, dtype=np.uint64)
        plan.home_lc_batch(addrs)
        cached = plan._live_cache
        assert cached is not None and cached[0] == plan.epoch
        plan.home_lc_batch(addrs)
        assert plan._live_cache is cached  # reused, not rebuilt
        plan.fail_lc(2)
        plan.home_lc_batch(addrs)
        assert plan._live_cache is not cached
        assert plan._live_cache[0] == plan.epoch

    def test_copy_for_faults_isolated(self, table):
        plan = partition_table(table, 4, replicas=2)
        copy = plan.copy_for_faults()
        copy.fail_lc(3)
        assert plan.failed_lcs == set()
        assert copy.failed_lcs == {3}
        assert copy.epoch == plan.epoch + 1
        # Tables are shared (they are immutable during simulation).
        assert copy.tables is plan.tables or list(copy.tables) == list(
            plan.tables
        )


class TestRouterFacade:
    def make_router(self, table, replicas=2):
        return SpalRouter(
            table,
            SpalConfig(
                n_lcs=4,
                cache=CacheConfig(n_blocks=64),
                replicas=replicas,
            ),
            matcher_factory=LuleaTrie,
        )

    def test_lookup_at_failed_lc_raises(self, table):
        router = self.make_router(table)
        router.fail_line_card(1)
        with pytest.raises(SimulationError):
            router.lookup(12345, arrival_lc=1)
        # Other cards still answer.
        assert router.lookup(12345, arrival_lc=0) is not None

    def test_failover_to_replica_preserves_results(self, table):
        router = self.make_router(table, replicas=2)
        rng = np.random.default_rng(46)
        addrs = [int(a) for a in rng.integers(0, 1 << 32, size=150, dtype=np.uint64)]
        expected = [router.lookup_direct(a) for a in addrs]
        router.fail_line_card(2)
        got = [router.lookup(a, arrival_lc=0) for a in addrs]
        assert got == expected

    def test_unreplicated_dead_home_raises_unreachable(self, table):
        router = self.make_router(table, replicas=1)
        rng = np.random.default_rng(44)
        victim = None
        for a in rng.integers(0, 1 << 32, size=4096, dtype=np.uint64):
            if router.plan.home_lc(int(a)) == 2:
                victim = int(a)
                break
        assert victim is not None
        router.fail_line_card(2)
        with pytest.raises(UnreachablePatternError):
            router.lookup(victim, arrival_lc=0)
        router.recover_line_card(2)
        assert router.lookup(victim, arrival_lc=0) is not None

    def test_fail_invalidates_rem_entries_elsewhere(self, table):
        router = self.make_router(table, replicas=1)
        # Warm LC 0's cache with remote results homed across the router.
        rng = np.random.default_rng(45)
        for a in rng.integers(0, 1 << 32, size=600, dtype=np.uint64):
            router.lookup(int(a), arrival_lc=0)
        from repro.core.lr_cache import REM

        def rem_count():
            return sum(
                1
                for s in router.caches[0]._sets
                for e in s.values()
                if e.mix == REM
            )

        before = rem_count()
        assert before > 0
        router.fail_line_card(2)
        assert rem_count() < before

    def test_out_of_range_fail_recover(self, table):
        router = self.make_router(table)
        with pytest.raises(SimulationError):
            router.fail_line_card(9)
        with pytest.raises(SimulationError):
            router.recover_line_card(9)


class TestLineCard:
    def test_fail_recover_cycle_flushes_cache(self, table):
        router = SpalRouter(
            table,
            SpalConfig(n_lcs=1, cache=CacheConfig(n_blocks=16)),
            matcher_factory=LuleaTrie,
        )
        router.lookup(1234)
        cache = router.caches[0]
        assert cache.occupancy() > 0
        router.fail_line_card(0)
        assert 0 in router.plan.failed_lcs
        assert router.metrics_snapshot()["lc.alive{lc=0}"] == 0.0
        router.recover_line_card(0)
        assert 0 not in router.plan.failed_lcs
        assert router.metrics_snapshot()["lc.alive{lc=0}"] == 1.0
        assert cache.occupancy() == 0


class TestOverload:
    """Bounded queues, load shedding, and gray failures."""

    def test_none_capacities_bit_identical_to_unbounded(self, table):
        streams = locality_streams(4)
        base = run_once(table, small_config(), streams)
        # shed_policy is inert until a capacity is set.
        armed = run_once(table, small_config(shed_policy="red"), streams)
        assert np.array_equal(base.latencies, armed.latencies)
        assert base.summary() == armed.summary()
        assert armed.drops == {}

    def test_bounded_fe_queue_sheds_and_audits(self, table):
        streams = locality_streams(4, n=600)
        cfg = small_config(fe_queue_capacity=2, fabric_queue_capacity=4)
        r = run_once(table, cfg, streams)
        assert r.drops.get("queue_full", 0) > 0
        assert r.packets + r.total_drops == sum(len(s) for s in streams)
        # The run-end audit's invariant, restated from the outside: the
        # recorded high-water marks never reached the bounds.
        assert max(r.extra["max_fe_backlog"]) < 2
        assert r.extra["max_fabric_backlog"] < 4

    @pytest.mark.parametrize("policy", ["tail_drop", "red", "priority"])
    def test_shed_policies_conserve_and_repeat(self, table, policy):
        streams = locality_streams(4, n=500, seed=8)
        cfg = small_config(
            fe_queue_capacity=3, fabric_queue_capacity=6, shed_policy=policy
        )
        a = run_once(table, cfg, streams)
        b = run_once(table, cfg, streams)
        assert a.packets + a.total_drops == sum(len(s) for s in streams)
        assert np.array_equal(a.latencies, b.latencies)
        assert a.drops == b.drops
        if policy == "tail_drop":
            assert a.drops.get("shed", 0) == 0

    def test_slow_lc_inflates_latency(self, table):
        streams = locality_streams(4)
        base = run_once(table, small_config(), streams)
        slow = run_once(
            table,
            small_config(),
            streams,
            faults=FaultSchedule().slow_lc(0, 10**9, lc=0, multiplier=4.0),
        )
        assert slow.mean_lookup_cycles > base.mean_lookup_cycles
        assert sum(slow.drops.values()) == 0  # slowdown degrades, never drops

    def test_flap_link_loses_messages_retries_recover(self, table):
        streams = locality_streams(4)
        faults = FaultSchedule().flap_link(
            0, 10**9, period=100, down_cycles=50
        )
        r = run_once(table, small_config(replicas=2), streams, faults=faults)
        assert r.fabric_dropped_messages > 0
        assert r.retries > 0
        assert r.packets + r.total_drops == sum(len(s) for s in streams)

    def test_degraded_cache_lowers_hit_rate(self, table):
        streams = locality_streams(4)
        base = run_once(table, small_config(), streams)
        gray = run_once(
            table,
            small_config(),
            streams,
            faults=FaultSchedule(seed=3).degrade_lc_cache(
                0, 10**9, lc=0, miss_fraction=0.5
            ),
        )
        assert gray.cache_stats[0]["hit_rate"] < base.cache_stats[0]["hit_rate"]
        assert gray.packets == base.packets  # forced misses never drop


#: LCs the ``next_change`` property draws over, and a cycle past every
#: window it draws (windows start before 400 and last at most 300).
NC_LCS = 3
NC_HORIZON = 800


@st.composite
def gray_schedules(draw):
    """Random windows of every kind ``next_change`` steps over."""
    f = FaultSchedule(seed=1)
    window = st.tuples(st.integers(0, 400), st.integers(1, 300))
    # Overlapping cache degradations, mostly on LC 0.
    for start, span in draw(st.lists(window, max_size=4)):
        f.degrade_lc_cache(
            start, start + span,
            lc=draw(st.sampled_from([0, 0, 1])),
            miss_fraction=draw(st.sampled_from([0.2, 0.5, 0.9])),
        )
    # Stacked slowdowns, multiplier 1.0 included.
    for start, span in draw(st.lists(window, max_size=4)):
        f.slow_lc(
            start, start + span,
            lc=draw(st.sampled_from([0, 0, 2])),
            multiplier=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        )
    # Flaps with and without src/dst, down_cycles == period included.
    for start, span in draw(st.lists(window, max_size=3)):
        period = draw(st.integers(1, 64))
        f.flap_link(
            start, start + span, period=period,
            down_cycles=draw(st.integers(1, period)),
            src=draw(st.one_of(st.none(), st.integers(0, NC_LCS - 1))),
            dst=draw(st.one_of(st.none(), st.integers(0, NC_LCS - 1))),
        )
    for start, span in draw(st.lists(window, max_size=3)):
        f.degrade_fabric(
            start, start + span,
            extra_latency=draw(st.integers(0, 3)),
            drop_prob=draw(st.sampled_from([0.0, 0.1, 0.3])),
        )
    return f


def nc_queries(f):
    """(kind, lc, query at a cycle) for every cursor ``next_change`` serves."""
    pairs = [(s, d) for s in range(NC_LCS) for d in range(NC_LCS)]
    out = [
        ("drop", None, f.drop_prob_at),
        ("flap", None,
         lambda c: tuple(f.flap_drops(c, s, d) for s, d in pairs)),
    ]
    for lc in range(NC_LCS):
        out.append(("cache", lc, lambda c, lc=lc: f.miss_fraction_at(c, lc)))
        out.append((
            "slow", lc,
            lambda c, lc=lc: tuple(
                f.fe_service_cycles(c, lc, base) for base in (1, 5, 40)
            ),
        ))
    return out


class TestNextChange:
    """``FaultSchedule.next_change`` against the per-cycle queries."""

    @given(
        f=gray_schedules(),
        probes=st.lists(st.integers(0, NC_HORIZON), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_queries_constant_until_next_change(self, f, probes):
        for kind, lc, query in nc_queries(f):
            # A cursor walk from 0 covers every cycle up to the horizon;
            # the drawn probes also start intervals off the window edges.
            c = 0
            while c < NC_HORIZON:
                c = self.check_interval(f, kind, lc, query, c)
            for c in probes:
                self.check_interval(f, kind, lc, query, c)

    @staticmethod
    def check_interval(f, kind, lc, query, c):
        nxt = f.next_change(kind, c, lc)
        assert nxt > c
        value = query(c)
        for x in range(c + 1, int(min(nxt, NC_HORIZON + 1))):
            assert query(x) == value, (kind, lc, c, nxt, x)
        return nxt

    def test_no_window_ahead_is_never(self):
        f = FaultSchedule().degrade_lc_cache(10, 20, lc=1, miss_fraction=0.5)
        assert f.next_change("cache", 20, 1) == float("inf")
        assert f.next_change("cache", 0, 0) == float("inf")
        assert f.next_change("cache", 0, 1) == 10
        assert f.next_change("cache", 10, 1) == 20

    def test_unknown_kind_and_missing_lc_raise(self):
        f = FaultSchedule()
        with pytest.raises(FaultScheduleError):
            f.next_change("bogus", 0)
        with pytest.raises(FaultScheduleError):
            f.next_change("cache", 0)


IPV4_TABLE = random_small_table(80, seed=5, max_length=18)
IPV6_TABLE = make_ipv6_table(80, seed=6)


class TestProperties:
    @given(
        failed=st.sets(st.integers(0, 5), max_size=5),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_home_lc_batch_matches_scalar_under_failures_ipv4(
        self, failed, seed
    ):
        plan = partition_table(IPV4_TABLE, 6, replicas=2)
        for lc in failed:
            plan.fail_lc(lc)
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 32, size=128, dtype=np.uint64)
        self.check_batch_matches_scalar(plan, [int(a) for a in addrs])

    @given(
        failed=st.sets(st.integers(0, 3), max_size=3),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=20, deadline=None)
    def test_home_lc_batch_matches_scalar_under_failures_ipv6(
        self, failed, seed
    ):
        plan = partition_table(IPV6_TABLE, 4, replicas=2)
        for lc in failed:
            plan.fail_lc(lc)
        rng = np.random.default_rng(seed)
        addrs = [
            (0x2000 << 112) | int(x)
            for x in rng.integers(0, 1 << 62, size=64)
        ]
        self.check_batch_matches_scalar(plan, addrs)

    @staticmethod
    def check_batch_matches_scalar(plan, addrs):
        """Batch and scalar homing must agree elementwise — including on
        raising when every replica of some pattern in the set has failed."""
        try:
            batch = plan.home_lc_batch(addrs)
        except UnreachablePatternError:
            scalar_raises = False
            for a in addrs:
                try:
                    plan.home_lc(a)
                except UnreachablePatternError:
                    scalar_raises = True
                    break
            assert scalar_raises
            return
        for a, got in zip(addrs, batch):
            assert plan.home_lc(a) == int(got)

    @given(seed=st.integers(0, 300), n=st.integers(20, 120))
    @settings(max_examples=15, deadline=None)
    def test_zero_fault_schedule_identical_fast_path_on_off(self, seed, n):
        """An empty fault schedule leaves the array engine and the scalar
        loop bit-identical to each other and to a fault-free run."""
        cfg = SpalConfig(
            n_lcs=3,
            cache=CacheConfig(n_blocks=32),
            fe_lookup_cycles=5,
            replicas=2,
        )
        rng = np.random.default_rng(seed)
        streams = [
            rng.integers(0, 1 << 12, size=n).astype(np.uint64)
            for _ in range(3)
        ]
        runs = [
            SpalSimulator(IPV4_TABLE, cfg).run(
                [s.copy() for s in streams], faults=faults, name="t",
                engine=engine,
            )
            for faults in (FaultSchedule(), None)
            for engine in ("array", "scalar")
        ]
        for other in runs[1:]:
            assert result_digest(other) == result_digest(runs[0])

    @given(
        fe_cap=st.one_of(st.none(), st.integers(1, 4)),
        fab_cap=st.one_of(st.none(), st.integers(2, 8)),
        policy=st.sampled_from(("tail_drop", "red", "priority")),
        gray=st.booleans(),
        churny=st.booleans(),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=12, deadline=None)
    def test_conservation_bounded_gray_churn_fast_path(
        self, fe_cap, fab_cap, policy, gray, churny, seed,
    ):
        """The overload invariants hold at every point of the bounded x
        gray x churn cube: every offered packet completes or is one
        counted drop, and bounded queues never reach their capacity."""
        cfg = SpalConfig(
            n_lcs=3,
            cache=CacheConfig(n_blocks=32),
            fe_lookup_cycles=5,
            replicas=2,
            fe_queue_capacity=fe_cap,
            fabric_queue_capacity=fab_cap,
            shed_policy=policy,
        )
        rng = np.random.default_rng(seed)
        streams = [
            rng.integers(0, 1 << 12, size=150).astype(np.uint64)
            for _ in range(3)
        ]
        faults = (
            FaultSchedule(seed=seed)
            .slow_lc(200, 2500, lc=1, multiplier=2.0)
            .flap_link(300, 2000, period=128, down_cycles=16)
            .degrade_lc_cache(250, 2200, lc=0, miss_fraction=0.3)
            if gray
            else None
        )
        updates = (
            generate_churn(
                IPV4_TABLE, rate_per_s=200_000, horizon_cycles=3000, seed=seed
            )
            if churny
            else None
        )
        on = SpalSimulator(IPV4_TABLE, cfg).run(
            streams, faults=faults, updates=updates, name="t"
        )
        assert on.packets + on.total_drops == 450
        assert sum(on.drops.values()) == on.total_drops
        if fe_cap is not None:
            assert max(on.extra["max_fe_backlog"]) < fe_cap
        if fab_cap is not None:
            assert on.extra["max_fabric_backlog"] < fab_cap
