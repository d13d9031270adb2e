"""Overload engine gate: the array engine's miss chain against the scalar
loop on an E21-shaped run.

The headline gate (``test_bench_headline.py``) runs ~96 % cache hits, so
it says little about the path a miss takes: the replacement with its
victim cache, FE queueing behind a slowed LC, the shared bus with
bounded queues and shedding, flapping links, forced misses and churn.
This gate runs all of them at once, E21's gray cell at reduced scale,
and asserts the two engines agree.  It prints the array engine's
events/s and has no speed floor.
"""

import sys
from dataclasses import replace

import numpy as np

from repro.core import CacheConfig, FaultSchedule, SpalConfig
from repro.obs import HealthMonitor
from repro.routing import make_rt2
from repro.sim import SpalSimulator
from repro.traffic import (
    FlowPopulation,
    LinkSpec,
    churn_storm,
    flash_crowd,
    trace_spec,
    uniform_scan,
)

#: Packets per LC (the benchmark's ``overload_gray`` runs 15k): enough
#: for every fault window and the churn storm to fire, small enough that
#: the scalar loop takes well under a second.
GATE_PACKETS = 10_000

N_LCS = 4
SPEED_GBPS = 40


def overload_inputs(n=GATE_PACKETS):
    """Table, config, streams and run arguments of the E21 gray cell:
    ψ=4 on the shared bus, bounded FE and fabric queues under
    ``priority`` shedding, a slow LC, a flapping link, a degraded cache,
    a churn storm and the telemetry sampler."""
    table = make_rt2(size=20_000)
    spec = trace_spec("D_81").scaled(16 * n)
    before = FlowPopulation(spec, table)
    after = FlowPopulation(
        replace(spec, name=f"{spec.name}-pivot", seed=spec.seed + 101), table
    )
    streams = [uniform_scan(before, n, lc=0, seed=21)] + [
        flash_crowd(before, after, n, lc=lc, seed=21)
        for lc in range(1, N_LCS)
    ]
    horizon = int(n * LinkSpec(SPEED_GBPS).mean_interarrival_cycles)
    faults = (
        FaultSchedule(seed=11)
        .slow_lc(int(0.20 * horizon), int(0.60 * horizon), lc=1,
                 multiplier=2.0)
        .flap_link(int(0.30 * horizon), int(0.55 * horizon), period=2048,
                   down_cycles=128)
        .degrade_lc_cache(int(0.25 * horizon), int(0.70 * horizon), lc=2,
                          miss_fraction=0.3)
    )
    config = SpalConfig(
        n_lcs=N_LCS,
        cache=CacheConfig(n_blocks=1024, victim_blocks=8),
        fabric="bus",
        fe_queue_capacity=4,
        fabric_queue_capacity=8,
        shed_policy="priority",
        sample_interval_cycles=max(1, horizon // 200),
    )
    run_kwargs = dict(
        speed_gbps=SPEED_GBPS,
        warmup_packets=n // 10,
        faults=faults,
        updates=churn_storm(table, rate_per_s=5_000, horizon_cycles=horizon,
                            seed=5),
        update_policy="selective",
    )
    return table, config, streams, run_kwargs


def run_engine(inputs, engine):
    """One run; returns (result, sim, loop seconds)."""
    table, config, streams, run_kwargs = inputs
    sim = SpalSimulator(table, config=config)
    # The streams are PacketStreams: each run pulls its own chunks.
    result = sim.run(streams, engine=engine, monitor=HealthMonitor(),
                     **run_kwargs)
    return result, sim, sim.phase_seconds["run"]


def test_bench_overload_engine_identity(benchmark):
    """Scalar ≡ array on latencies, drops, cache stats and the event
    count.  ``timeseries`` is left out: its window attribution is still
    engine-specific (see ``repro.obs.timeseries``)."""
    inputs = overload_inputs()
    r_s, sim_s, loop_s = run_engine(inputs, "scalar")
    r_a, sim_a, loop_a = benchmark.pedantic(
        run_engine, args=(inputs, "array"), rounds=1, iterations=1
    )

    assert sim_s.queue.processed == sim_a.queue.processed
    assert np.array_equal(r_s.latencies, r_a.latencies)
    assert r_s.drops == r_a.drops
    assert r_s.cache_stats == r_a.cache_stats
    assert r_s.fabric_dropped_messages == r_a.fabric_dropped_messages
    # The gate is only worth its time if the miss chain actually ran.
    assert sum(s["evictions"] for s in r_a.cache_stats) > 0
    assert r_a.drops.get("shed", 0) > 0
    assert r_a.fabric_dropped_messages > 0

    events = sim_a.queue.processed
    sys.stderr.write(
        f"\noverload gate: {events} events; scalar "
        f"{events / loop_s / 1e3:.0f}k ev/s, array "
        f"{events / loop_a / 1e3:.0f}k ev/s\n"
    )
