"""Differential suite: the array engine is bit-identical to the scalar loop.

The array-time engine (``repro.sim.array_engine``) replays the scalar
event timeline over packed state; its determinism contract says every
observable — ``SimulationResult`` field, metrics snapshot, trace stream,
post-run cache/queue state — matches the scalar loop exactly, including
under fault injection, live churn and tracing.  This module enforces the
contract two ways:

* a Hypothesis test drawing random (table, ψ, cache geometry, fault
  schedule, churn schedule, stream seed) configurations, and
* a curated deterministic scenario matrix covering the corners the
  random draw reaches rarely (IPv6, no-cache, unpartitioned, per-LC
  speeds, bus fabric, victim caches, every update policy).

Both run each configuration through ``engine="scalar"`` and
``engine="array"`` and diff the full result digest.  The curated matrix
always traces and also demands trace-stream equality: the array engine
recycles per-packet state, so the trace (whose ``complete`` records carry
the served next hop) is the per-packet comparison.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheConfig, FaultSchedule, SpalConfig
from repro.obs import Tracer
from repro.routing import random_small_table
from repro.routing.churn import generate_churn
from repro.sim import SpalSimulator

from .conftest import result_digest

TABLE = random_small_table(60, seed=91, max_length=16)
TABLE_WIDE = random_small_table(250, seed=5, max_length=24)
TABLE_V6 = random_small_table(40, seed=17, max_length=48, width=128)


def run_both(table, config, run_kwargs=None, sim_kwargs=None,
             streams=None, trace=False, n_packets=300):
    """Run one configuration under both engines; return their digests
    plus (trace events, simulator) pairs for deeper comparisons."""
    run_kwargs = dict(run_kwargs or {})
    sim_kwargs = dict(sim_kwargs or {})
    out = []
    for engine in ("scalar", "array"):
        if streams is None:
            rng = np.random.default_rng(5)
            eng_streams = [
                rng.integers(0, 1 << 16, size=n_packets).astype(np.uint64)
                for _ in range(config.n_lcs)
            ]
        else:
            eng_streams = [np.array(s, copy=True) for s in streams]
        tracer = Tracer() if trace else None
        sim = SpalSimulator(table, config=config, trace=tracer, **sim_kwargs)
        result = sim.run(eng_streams, engine=engine, **run_kwargs)
        events = tracer.events if tracer is not None else None
        out.append((result_digest(result), events, sim))
    return out


def assert_engines_identical(table, config, run_kwargs=None,
                             sim_kwargs=None, streams=None, trace=False,
                             n_packets=300):
    (d_s, ev_s, sim_s), (d_a, ev_a, sim_a) = run_both(
        table, config, run_kwargs, sim_kwargs, streams, trace, n_packets
    )
    for key in d_s:
        assert d_s[key] == d_a[key], f"engines disagree on {key!r}"
    if trace:
        # The per-packet view: every ingress/hit/miss/fabric record in
        # order, and each ``complete`` record carries the served hop.
        assert ev_s == ev_a, "trace streams differ"
        assert all("hop" in e for e in ev_a if e["name"] == "complete")
    # The array engine recycles per-packet state and keeps counts only.
    assert len(sim_s.completed) == len(sim_a.completed)
    assert len(sim_s.dropped_packets) == len(sim_a.dropped_packets)
    assert (sim_s.queue.now, sim_s.queue.processed) == \
        (sim_a.queue.now, sim_a.queue.processed)
    # Resident cache state (the arrays were written back into the caches).
    for ca, cb in zip(sim_s.caches, sim_a.caches):
        if ca is None:
            continue
        flat = lambda c: [
            [(a, e.next_hop, e.mix, e.waiting, e.last_used, e.inserted)
             for a, e in s.items()]
            for s in c._sets
        ]
        assert flat(ca) == flat(cb)
        assert vars(ca.stats) == vars(cb.stats)


# -- random configurations ---------------------------------------------------


@st.composite
def scenarios(draw):
    n_lcs = draw(st.integers(2, 4))
    if draw(st.booleans()):
        cache = None
    else:
        cache = CacheConfig(
            n_blocks=draw(st.sampled_from([16, 32, 64, 128])),
            victim_blocks=draw(st.sampled_from([0, 4])),
            policy=draw(st.sampled_from(["lru", "fifo", "random"])),
            index=draw(st.sampled_from(["mod", "xor"])),
        )
    config = SpalConfig(
        n_lcs=n_lcs,
        cache=cache,
        replicas=draw(st.sampled_from([1, 2])),
        fe_lookup_cycles=draw(st.sampled_from([1, 5])),
    )
    if draw(st.booleans()):
        # Bounded queues: small caps so the shed paths actually fire.
        config = SpalConfig(
            n_lcs=config.n_lcs,
            cache=config.cache,
            replicas=config.replicas,
            fe_lookup_cycles=config.fe_lookup_cycles,
            fe_queue_capacity=draw(st.sampled_from([None, 1, 2, 4])),
            fabric_queue_capacity=draw(st.sampled_from([None, 2, 4, 8])),
            shed_policy=draw(st.sampled_from(["tail_drop", "red", "priority"])),
            shed_seed=draw(st.integers(0, 20)),
        )
    seed = draw(st.integers(0, 10_000))
    n_packets = draw(st.integers(40, 250))
    faults = None
    if draw(st.booleans()):
        lc = draw(st.integers(0, n_lcs - 1))
        fail = draw(st.integers(0, 1200))
        faults = FaultSchedule(seed=draw(st.integers(0, 50)))
        faults.fail_lc(fail, lc)
        faults.recover_lc(fail + draw(st.integers(1, 2500)), lc)
        if draw(st.booleans()):
            start = draw(st.integers(0, 1500))
            faults.degrade_fabric(
                start, start + draw(st.integers(1, 1200)),
                extra_latency=draw(st.integers(0, 4)),
                drop_prob=draw(st.sampled_from([0.0, 0.1, 0.3])),
            )
        if draw(st.booleans()):
            # Gray failures: slow FEs, flapping links, degraded caches.
            start = draw(st.integers(0, 1000))
            faults.slow_lc(
                start, start + draw(st.integers(1, 2000)),
                lc=draw(st.integers(0, n_lcs - 1)),
                multiplier=draw(st.sampled_from([1.5, 2.0, 4.0])),
            )
            start = draw(st.integers(0, 1000))
            faults.flap_link(
                start, start + draw(st.integers(1, 2000)),
                period=draw(st.sampled_from([64, 256])),
                down_cycles=draw(st.sampled_from([16, 64])),
            )
            if config.cache is not None:
                start = draw(st.integers(0, 1000))
                faults.degrade_lc_cache(
                    start, start + draw(st.integers(1, 2000)),
                    lc=draw(st.integers(0, n_lcs - 1)),
                    miss_fraction=draw(st.sampled_from([0.2, 0.5])),
                )
    updates = None
    update_policy = "selective"
    if cache is not None and draw(st.booleans()):
        updates = generate_churn(
            TABLE, rate_per_s=draw(st.sampled_from([1, 3, 8])) * 1_000_000,
            horizon_cycles=4000, seed=draw(st.integers(0, 50)),
        )
        update_policy = draw(st.sampled_from(["flush", "selective", "rem"]))
    warmup = draw(st.sampled_from([0, 0, 25]))
    trace = draw(st.booleans())
    return (config, seed, n_packets, faults, updates, update_policy,
            warmup, trace)


class TestRandomizedIdentity:
    @given(scenarios())
    @settings(max_examples=30, deadline=None)
    def test_engines_bit_identical(self, scenario):
        (config, seed, n_packets, faults, updates, update_policy,
         warmup, trace) = scenario
        rng = np.random.default_rng(seed)
        streams = [
            rng.integers(0, 1 << 16, size=n_packets).astype(np.uint64)
            for _ in range(config.n_lcs)
        ]
        run_kwargs = {"warmup_packets": warmup}
        if faults is not None:
            run_kwargs["faults"] = faults
        if updates is not None:
            run_kwargs["updates"] = updates
            run_kwargs["update_policy"] = update_policy
        assert_engines_identical(
            TABLE, config, run_kwargs, streams=streams, trace=trace
        )


# -- curated corners ---------------------------------------------------------

FAULTS = (
    FaultSchedule(seed=7)
    .fail_lc(500, 1)
    .recover_lc(2500, 1)
    .degrade_fabric(800, 1600, extra_latency=3, drop_prob=0.2)
)

GRAY = (
    FaultSchedule(seed=19)
    .slow_lc(200, 2500, lc=1, multiplier=2.0)
    .flap_link(400, 2000, period=128, down_cycles=32)
    .degrade_lc_cache(300, 2200, lc=0, miss_fraction=0.4)
)


def bounded(policy, fe_cap=2, fab_cap=4):
    return SpalConfig(
        n_lcs=3,
        cache=CacheConfig(n_blocks=64, victim_blocks=4),
        replicas=2,
        fe_lookup_cycles=5,
        fe_queue_capacity=fe_cap,
        fabric_queue_capacity=fab_cap,
        shed_policy=policy,
        shed_seed=3,
    )


def churn(policy):
    return {
        "updates": generate_churn(
            TABLE, rate_per_s=5_000_000, horizon_cycles=5000, seed=13
        ),
        "update_policy": policy,
    }


CASES = {
    "clean-traced": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4)),
        {}, {},
    ),
    "faults-traced": (
        SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=64), replicas=2),
        {"faults": FAULTS}, {},
    ),
    "churn-rem": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4)),
        churn("rem"), {},
    ),
    "churn-flush": (
        SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=32)),
        churn("flush"), {},
    ),
    "faults+churn": (
        SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=64, victim_blocks=4),
                   replicas=2),
        {"faults": FAULTS, **churn("selective")}, {},
    ),
    "no-cache": (
        SpalConfig(n_lcs=3, cache=None), {}, {},
    ),
    "unpartitioned": (
        SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64)),
        {}, {"partitioned": False},
    ),
    "fifo-xor-victim": (
        SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=32, policy="fifo",
                                              index="xor", victim_blocks=4)),
        {}, {},
    ),
    "random-policy": (
        SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=32, policy="random",
                                              victim_blocks=4)),
        {}, {},
    ),
    "flush-cycles": (
        SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64)),
        {"flush_cycles": [700, 1500]}, {},
    ),
    "warmup-verify": (
        SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64)),
        {"warmup_packets": 50}, {"verify": True},
    ),
    "per-lc-speeds": (
        SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64)),
        {"speed_gbps": [10, 40]}, {},
    ),
    "bus-fabric": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64), fabric="bus"),
        {}, {},
    ),
    "early-recording-off": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64),
                   early_recording=False),
        {}, {},
    ),
    "remote-caching-off": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64),
                   cache_remote_results=False),
        {}, {},
    ),
    "bounded-tail": (bounded("tail_drop"), {}, {}),
    "bounded-red": (bounded("red"), {}, {}),
    "bounded-priority": (bounded("priority"), {}, {}),
    "gray-failures": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4),
                   replicas=2, fe_lookup_cycles=5),
        {"faults": GRAY}, {},
    ),
    "bounded+gray+churn": (
        bounded("red", fe_cap=3, fab_cap=6),
        {"faults": GRAY, **churn("selective")}, {},
    ),
}


class TestCuratedIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_scenario(self, case):
        config, run_kwargs, sim_kwargs = CASES[case]
        # speed_gbps is a run() argument, not a per-case stream change.
        assert_engines_identical(
            TABLE, config, run_kwargs, sim_kwargs, trace=True
        )

    def test_wide_table(self):
        assert_engines_identical(
            TABLE_WIDE,
            SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=128)),
            trace=True,
        )

    def test_ipv6(self):
        rng = np.random.default_rng(9)
        streams = [
            np.array([(0x2001 << 112) | int(x)
                      for x in rng.integers(0, 1 << 16, size=150)],
                     dtype=object)
            for _ in range(2)
        ]
        assert_engines_identical(
            TABLE_V6,
            SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64,
                                                  victim_blocks=4)),
            streams=streams, trace=True,
        )


# -- telemetry sampler on/off ------------------------------------------------

SAMPLED_CASES = ("clean-traced", "no-cache", "gray-failures",
                 "bounded-tail", "bounded+gray+churn")


class TestSamplerIdentity:
    """Enabling ``sample_interval_cycles`` must not change any core
    result field, metric or trace event — per engine — and the sampled
    run's series must be self-consistent (window totals equal the run
    totals).  The series itself may differ *between* engines (window
    attribution is quantized to each engine's loop granularity), so the
    cross-engine comparison pops it before diffing.
    """

    @pytest.mark.parametrize("case", SAMPLED_CASES)
    def test_sampler_on_off(self, case):
        config, run_kwargs, sim_kwargs = CASES[case]
        sampled = dataclasses.replace(config, sample_interval_cycles=256)
        off = run_both(TABLE, config, run_kwargs, sim_kwargs, trace=True)
        on = run_both(TABLE, sampled, run_kwargs, sim_kwargs, trace=True)
        for (d_off, ev_off, _), (d_on, ev_on, sim_on) in zip(off, on):
            ts = d_on.pop("timeseries")
            assert d_off.pop("timeseries") is None
            assert ts is not None and len(ts["columns"]["t_end"]) > 0
            for key in d_off:
                assert d_off[key] == d_on[key], f"sampling changed {key!r}"
            assert ev_off == ev_on, "sampling changed the trace stream"
            # Window deltas must re-add to the run totals exactly.
            assert sum(ts["columns"]["completed"]) == len(sim_on.completed)
            assert sum(ts["columns"]["dropped"]) == \
                len(sim_on.dropped_packets)
            assert sum(ts["columns"]["lat_count"]) == len(d_on["latencies"])
        # Core fields still agree across engines with sampling on.
        d_scalar, d_array = on[0][0], on[1][0]
        for key in d_scalar:
            assert d_scalar[key] == d_array[key], \
                f"sampled engines disagree on {key!r}"

    def test_sampler_streamed_chunk_independent(self):
        from repro.sim.streaming import PacketStream

        config = SpalConfig(
            n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4)
        )
        sampled = dataclasses.replace(config, sample_interval_cycles=256)
        rng = np.random.default_rng(5)
        streams = [
            rng.integers(0, 1 << 16, size=300).astype(np.uint64)
            for _ in range(config.n_lcs)
        ]

        def run(cfg, chunk):
            sim = SpalSimulator(TABLE, config=cfg)
            ss = [
                PacketStream.from_array(s, chunk_size=chunk)
                for s in streams
            ]
            return result_digest(sim.run(ss, engine="array"))

        d_off = run(config, 64)
        d_on = run(sampled, 64)
        d_on_whole = run(sampled, None)
        ts = d_on.pop("timeseries")
        assert d_off.pop("timeseries") is None
        assert ts is not None
        for key in d_off:
            assert d_off[key] == d_on[key], f"sampling changed {key!r}"
        # O(windows) memory means the series cannot depend on chunking.
        assert ts == d_on_whole.pop("timeseries"), \
            "series depends on the streaming chunk size"
