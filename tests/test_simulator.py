"""Tests for the discrete-event engine and the SPAL cycle simulator."""

import numpy as np
import pytest

from repro.errors import FaultScheduleError, SimulationError, TableError
from repro.core import CacheConfig, FaultSchedule, SpalConfig
from repro.obs import HealthMonitor
from repro.routing import ChurnSchedule, Prefix, random_small_table
from repro.sim import (
    ConventionalSimulator,
    EventQueue,
    Resource,
    SpalSimulator,
    cache_only_simulator,
    conventional_mean_cycles,
    conventional_mpps,
)
from repro.traffic import FlowPopulation, TraceSpec, generate_router_streams


@pytest.fixture(scope="module")
def table():
    return random_small_table(300, seed=60)


def streams_for(table, n_lcs, n_packets, seed=1, **spec_kw):
    spec = TraceSpec("test", n_flows=400, seed=seed, **spec_kw)
    pop = FlowPopulation(spec, table)
    return generate_router_streams(pop, n_lcs, n_packets)


class TestEventQueue:
    def test_ordering_and_stability(self):
        q = EventQueue()
        out = []
        q.schedule(5, out.append, "b")
        q.schedule(3, out.append, "a")
        q.schedule(5, out.append, "c")
        q.run()
        assert out == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(2, lambda: q.schedule(1, lambda: None))
        with pytest.raises(SimulationError):
            q.run()

    def test_run_until(self):
        q = EventQueue()
        out = []
        for t in (1, 5, 9):
            q.schedule(t, out.append, t)
        q.run(until=5)
        assert out == [1, 5]
        q.run()
        assert out == [1, 5, 9]

    def test_handler_scheduling_more_events(self):
        q = EventQueue()
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                q.schedule(q.now + 1, chain, n + 1)

        q.schedule(0, chain, 0)
        q.run()
        assert out == [0, 1, 2, 3]


class TestResource:
    def test_serialization(self):
        r = Resource()
        assert r.acquire(0, 10) == (0, 10)
        assert r.acquire(5, 10) == (10, 20)  # queued behind the first
        assert r.acquire(50, 10) == (50, 60)  # idle gap

    def test_utilization(self):
        r = Resource()
        r.acquire(0, 30)
        assert r.utilization(60) == pytest.approx(0.5)
        assert r.utilization(0) == 0.0


class TestSpalSimulator:
    def test_all_packets_complete(self, table):
        sim = SpalSimulator(
            table,
            SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256, victim_blocks=4)),
        )
        result = sim.run(streams_for(table, 4, 500), name="t")
        assert result.packets == 2000
        assert (result.latencies >= 1).all()

    def test_latency_bounds(self, table):
        """A cache hit costs ≥1 cycle; a worst-case miss is bounded by FE
        time plus queueing plus two fabric transits."""
        sim = SpalSimulator(
            table,
            SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=1024)),
        )
        result = sim.run(streams_for(table, 2, 800))
        assert result.mean_lookup_cycles >= 1.0
        assert result.max_lookup_cycles >= 40

    def test_cache_lowers_mean_latency(self, table):
        cached = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=1024))
        ).run(streams_for(table, 4, 1000))
        uncached = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=None)
        ).run(streams_for(table, 4, 1000))
        assert cached.mean_lookup_cycles < uncached.mean_lookup_cycles

    def test_hit_rate_reported(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=2048))
        )
        result = sim.run(streams_for(table, 2, 2000, recency=0.3))
        assert 0.3 < result.overall_hit_rate <= 1.0

    def test_wrong_stream_count(self, table):
        sim = SpalSimulator(table, SpalConfig(n_lcs=4))
        with pytest.raises(SimulationError):
            sim.run(streams_for(table, 2, 10))

    @pytest.mark.parametrize("bad", [
        {"update_policy": "sometimes"},
        # One name per engine: "auto" is no longer one of them.
        {"engine": "auto"},
        {"n_streams": 1},
        {"speed_gbps": [40]},
        # Also armed with a fabric degradation, which must not leak into
        # the correct call that follows.
        {
            "monitor": HealthMonitor(),
            "faults": FaultSchedule().degrade_fabric(
                0, 10**6, extra_latency=5
            ),
        },
        {
            "partitioned": False,
            "updates": ChurnSchedule().announce(
                100, Prefix.from_string("10.0.0.0/8"), 3
            ),
        },
        # Schedule checks: a fault on an LC the router does not have, and
        # a withdrawal of a prefix the table does not hold, on a plain and
        # on a minimised simulator (whose check is the translation).
        {"faults": FaultSchedule().fail_lc(100, 7),
         "raises": FaultScheduleError},
        {"updates": ChurnSchedule().withdraw(100, Prefix.from_string(
            "203.0.113.0/24")), "raises": ValueError},
        {"minimize": "full", "updates": ChurnSchedule().withdraw(
            100, Prefix.from_string("203.0.113.0/24")), "raises": TableError},
        # No stream is longer than the warmup, so nothing could be measured.
        {"warmup_packets": 200},
    ], ids=["update_policy", "engine_auto", "stream_count", "speed_count",
            "monitor_unsampled", "updates_unpartitioned", "fault_lc_range",
            "withdraw_absent", "withdraw_absent_minimized", "warmup_only"])
    def test_rejected_call_leaves_simulator_runnable(self, table, bad):
        """Simulators are single-use, but a call rejected by the argument
        or schedule checks has not used one up: a correct second call runs
        it, and only a third is refused."""
        kwargs = dict(bad)
        partitioned = kwargs.pop("partitioned", True)
        n_streams = kwargs.pop("n_streams", 2)
        raises = kwargs.pop("raises", SimulationError)
        config = SpalConfig(
            n_lcs=2, cache=CacheConfig(n_blocks=256),
            minimize=kwargs.pop("minimize", None),
        )
        streams = streams_for(table, 2, 200)
        assert Prefix.from_string("203.0.113.0/24") not in table
        sim = SpalSimulator(table, config, partitioned=partitioned)
        with pytest.raises(raises):
            sim.run([s.copy() for s in streams[:n_streams]], **kwargs)
        result = sim.run([s.copy() for s in streams])
        assert result.packets == 400
        fresh = SpalSimulator(table, config, partitioned=partitioned)
        assert result.summary() == fresh.run(
            [s.copy() for s in streams]
        ).summary()
        with pytest.raises(SimulationError, match="single-use"):
            sim.run([s.copy() for s in streams])

    def test_flush_mid_run(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=512))
        )
        updates = (
            ChurnSchedule()
            .announce(2000, Prefix.from_string("10.0.0.0/8"), 3)
            .announce(4000, Prefix.from_string("10.0.0.0/8"), 4)
        )
        result = sim.run(
            streams_for(table, 2, 1000), updates=updates,
            update_policy="flush",
        )
        assert result.update_events_applied == 2
        assert result.flushes == 2
        assert result.packets == 2000  # flushes lose no packets

    def test_flush_hurts_latency(self, table):
        """The same 15 announcements under the flush policy and under
        selective invalidation: both change the tables and charge the
        same FE service, so the flushes alone raise the mean."""
        streams = streams_for(table, 2, 1500, seed=9)
        # Host routes no destination falls under: selective invalidation
        # drops nothing for them.
        dests = {int(a) for s in streams for a in s}
        hosts = [a for a in range(1, 1 << 16) if a not in dests][:15]
        updates = ChurnSchedule()
        for t, a in zip(range(500, 8000, 500), hosts):
            updates.announce(t, Prefix(a, 32), 1)

        def run(policy):
            return SpalSimulator(
                table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=1024))
            ).run(
                [s.copy() for s in streams], updates=updates,
                update_policy=policy,
            )

        quiet = run("selective")
        noisy = run("flush")
        assert quiet.invalidation_entries_dropped == 0
        assert noisy.flushes == quiet.flushes == 15
        assert noisy.mean_lookup_cycles > quiet.mean_lookup_cycles

    def test_10gbps_slower_arrivals(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=512))
        )
        result = sim.run(streams_for(table, 2, 500), speed_gbps=10)
        # Mean interarrival 40 cycles -> horizon near 40*500.
        assert result.horizon_cycles >= 35 * 500

    def test_remote_sharing_cuts_fe_load(self, table):
        """The same popular destinations hit at all LCs; with sharing, each
        home LC computes a result once and the caches serve the rest."""
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=2048))
        )
        result = sim.run(streams_for(table, 4, 2000, recency=0.2))
        assert sum(result.fe_lookups) < result.packets * 0.7

    def test_fabric_traffic_counted(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256))
        )
        result = sim.run(streams_for(table, 4, 500))
        assert result.fabric_messages > 0

    def test_early_recording_reduces_fabric_traffic(self, table):
        streams = streams_for(table, 4, 1500, seed=11, recency=0.35)
        on = SpalSimulator(
            table,
            SpalConfig(
                n_lcs=4, cache=CacheConfig(n_blocks=512), early_recording=True
            ),
        ).run([s.copy() for s in streams])
        off = SpalSimulator(
            table,
            SpalConfig(
                n_lcs=4, cache=CacheConfig(n_blocks=512), early_recording=False
            ),
        ).run([s.copy() for s in streams])
        assert on.fabric_messages <= off.fabric_messages

    def test_deterministic(self, table):
        def once():
            sim = SpalSimulator(
                table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=256))
            )
            return sim.run(streams_for(table, 2, 600)).mean_lookup_cycles

        assert once() == once()


class TestBaselines:
    def test_conventional_analytic(self):
        assert conventional_mean_cycles(40) == 40.0
        # 40 cycles = 200 ns -> 5 Mpps per LC (paper Sec. 5.2).
        assert conventional_mpps(16, 40) == pytest.approx(80.0)

    def test_conventional_simulated_saturates_at_40g(self, table):
        sim = ConventionalSimulator(n_lcs=2, fe_lookup_cycles=40)
        result = sim.run(streams_for(table, 2, 500), speed_gbps=40)
        # Offered interarrival ~10 cycles < 40-cycle service: queue builds.
        assert result.mean_lookup_cycles > 100

    def test_conventional_stable_at_10g(self, table):
        sim = ConventionalSimulator(n_lcs=2, fe_lookup_cycles=40)
        result = sim.run(streams_for(table, 2, 500), speed_gbps=10)
        # Offered 40-cycle interarrival ~= service rate: no blow-up.
        assert result.mean_lookup_cycles < 400

    def test_conventional_validation(self):
        with pytest.raises(SimulationError):
            ConventionalSimulator(0)
        with pytest.raises(SimulationError):
            ConventionalSimulator(2, fe_lookup_cycles=0)

    def test_cache_only_all_local(self, table):
        sim = cache_only_simulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=512))
        )
        result = sim.run(streams_for(table, 4, 500))
        assert result.fabric_messages == 0
        assert result.packets == 2000

    def test_spal_beats_cache_only(self, table):
        """Partitioning + sharing must beat caches alone at equal size:
        the paper's central claim."""
        streams = streams_for(table, 8, 1500, seed=13)
        spal = SpalSimulator(
            table, SpalConfig(n_lcs=8, cache=CacheConfig(n_blocks=256))
        ).run([s.copy() for s in streams])
        only = cache_only_simulator(
            table, SpalConfig(n_lcs=8, cache=CacheConfig(n_blocks=256))
        ).run([s.copy() for s in streams])
        assert spal.mean_lookup_cycles < only.mean_lookup_cycles

    def test_length_partitioned_storage(self, table):
        from repro.sim import LengthPartitionedRouter

        router = LengthPartitionedRouter(table)
        assert router.per_lc_prefixes() == len(table)
        assert 0 < router.largest_subset_share() <= 1.0
        assert sum(router.subset_sizes().values()) == len(table)


class TestResultSummary:
    def test_summary_fields(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=256))
        )
        result = sim.run(streams_for(table, 2, 400))
        s = result.summary()
        assert s["packets"] == 800
        assert s["mean_cycles"] > 0
        assert s["router_mpps"] > 0
        assert result.percentile(50) <= result.percentile(99)
        assert result.mean_lookup_ns == pytest.approx(
            result.mean_lookup_cycles * 5.0
        )


class TestEngineLimits:
    def test_max_events_stops_early(self):
        from repro.sim import EventQueue

        q = EventQueue()
        out = []
        for t in range(10):
            q.schedule(t, out.append, t)
        q.run(max_events=4)
        assert len(out) == 4
        q.run()
        assert len(out) == 10

    def test_latency_timeline(self):
        import numpy as np
        from repro.sim.results import SimulationResult

        r = SimulationResult(
            name="t",
            n_lcs=1,
            latencies=np.array([10, 10, 2, 2], dtype=np.int64),
            horizon_cycles=100,
        )
        assert r.latency_timeline(2) == [10.0, 2.0]
        import pytest as _pt

        with _pt.raises(ValueError):
            r.latency_timeline(0)
