"""Property-based tests for the simulator: conservation and causality."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import CacheConfig, FaultSchedule, SpalConfig
from repro.obs import Tracer
from repro.routing import ChurnSchedule, Prefix, random_small_table
from repro.sim import SpalSimulator


@st.composite
def sim_configs(draw):
    n_lcs = draw(st.sampled_from([1, 2, 3, 4]))
    cache = draw(
        st.one_of(
            st.none(),
            st.builds(
                CacheConfig,
                n_blocks=st.sampled_from([16, 64, 256]),
                mix=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                victim_blocks=st.sampled_from([0, 4]),
            ),
        )
    )
    return SpalConfig(
        n_lcs=n_lcs,
        cache=cache,
        fe_lookup_cycles=draw(st.sampled_from([5, 40])),
        early_recording=draw(st.booleans()),
        cache_remote_results=draw(st.booleans()),
        fabric=draw(st.sampled_from(["ideal", "bus", "crossbar"])),
    )


@st.composite
def small_streams(draw, n_lcs):
    n = draw(st.integers(1, 120))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    # Small destination alphabet maximizes waiting-list and cache churn.
    return [
        rng.integers(0, 1 << 16, size=n).astype(np.uint64)
        for _ in range(n_lcs)
    ]


TABLE = random_small_table(60, seed=91, max_length=16)


class TestConservation:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_packet_completes_with_positive_latency(self, data):
        config = data.draw(sim_configs())
        streams = data.draw(small_streams(config.n_lcs))
        sim = SpalSimulator(TABLE, config)
        result = sim.run(streams)
        assert result.packets == sum(len(s) for s in streams)
        assert (result.latencies >= 1).all()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_flushes_never_lose_packets(self, data):
        config = data.draw(sim_configs())
        streams = data.draw(small_streams(config.n_lcs))
        flushes = data.draw(
            st.lists(st.integers(1, 2000), min_size=1, max_size=10)
        )
        # Each announcement re-points a /8 over the streams' addresses
        # and flushes every cache.
        updates = ChurnSchedule()
        for i, t in enumerate(sorted(flushes)):
            updates.announce(t, Prefix(0, 8), 1 + i % 7)
        sim = SpalSimulator(TABLE, config)
        result = sim.run(streams, updates=updates, update_policy="flush")
        assert result.flushes == len(flushes)
        assert result.packets == sum(len(s) for s in streams)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_fe_lookups_bounded_by_misses(self, data):
        """FE work can never exceed one lookup per packet (the caches and
        waiting lists only ever merge work, never amplify it)."""
        config = data.draw(sim_configs())
        streams = data.draw(small_streams(config.n_lcs))
        sim = SpalSimulator(TABLE, config)
        result = sim.run(streams)
        assert sum(result.fe_lookups) <= result.packets

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_cache_only_mode_never_uses_fabric(self, data):
        config = data.draw(sim_configs())
        streams = data.draw(small_streams(config.n_lcs))
        sim = SpalSimulator(TABLE, config, partitioned=False)
        result = sim.run(streams)
        assert result.fabric_messages == 0


def _result_fields(r):
    """Every SimulationResult field, hashable-comparable (observability
    contract: tracing must not change a single one of these)."""
    return (
        r.name,
        r.n_lcs,
        r.latencies.tobytes(),
        r.horizon_cycles,
        r.cache_stats,
        r.fe_lookups,
        r.fe_utilization,
        r.fabric_messages,
        r.flushes,
        r.extra,
        r.drops,
        r.retries,
        r.fabric_dropped_messages,
        r.fault_events,
        r.lc_availability,
        r.failover_packets,
        r.failover_mean_cycles,
        r.metrics_snapshot,
    )


class TestTracingInvariance:
    """Tracing is observation only: a traced run, a run with a disabled
    tracer, and an untraced run produce bit-identical results — with the
    batch fast path on or off, with and without fault injection."""

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_tracing_never_changes_any_result_field(
        self, fast_path_toggle, data
    ):
        config = data.draw(sim_configs())
        streams = data.draw(small_streams(config.n_lcs))
        batch = data.draw(st.booleans())
        faults = None
        if config.n_lcs > 1 and data.draw(st.booleans()):
            lc = data.draw(st.integers(0, config.n_lcs - 1))
            fail = data.draw(st.integers(0, 1500))
            recover = fail + data.draw(st.integers(1, 2000))
            faults = FaultSchedule(seed=7).fail_lc(fail, lc).recover_lc(
                recover, lc
            )
        with fast_path_toggle(batch):
            def run(trace):
                sim = SpalSimulator(TABLE, config, trace=trace)
                return sim.run(
                    [s.copy() for s in streams], faults=faults, name="t"
                )

            plain = run(None)
            disabled = run(Tracer(enabled=False))
            traced = run(Tracer())
        for other in (disabled, traced):
            assert _result_fields(other) == _result_fields(plain)
