"""Differential suite: the array engine is bit-identical to the scalar loop.

The array-time engine (``repro.sim.array_engine``) replays the scalar
event timeline over packed state; its determinism contract says every
observable — ``SimulationResult`` field, metrics snapshot, trace stream,
post-run cache/queue state — matches the scalar loop exactly, including
under fault injection, live churn and tracing.  This module enforces the
contract two ways:

* a Hypothesis test drawing random (table, ψ, replica count from 1 to ψ,
  cache geometry, fault schedule, churn schedule, sampling interval and
  health monitor, stream seed) configurations, with destinations that
  make every LC a home, and
* a curated deterministic scenario matrix covering the corners the
  random draw reaches rarely (IPv6, no-cache, unpartitioned, per-LC
  speeds, bus fabric, victim caches, every update policy).

Both run each configuration through ``engine="scalar"`` and
``engine="array"`` and diff the full result digest.  The curated matrix
runs traced and untraced: traced, it also demands trace-stream equality
(the array engine recycles per-packet state, so the trace, whose
``complete`` records carry the served next hop, is the per-packet
comparison); untraced, the array engine takes its inline hit path.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheConfig, FaultSchedule, SpalConfig
from repro.core.victim_cache import VictimCache
from repro.obs import HealthMonitor, Tracer
from repro.routing import Prefix, random_small_table
from repro.routing.churn import ChurnSchedule, generate_churn
from repro.sim import SpalSimulator
from repro.sim.streaming import PacketStream

from .conftest import result_digest

TABLE = random_small_table(60, seed=91, max_length=16)
TABLE_WIDE = random_small_table(250, seed=5, max_length=24)
TABLE_V6 = random_small_table(40, seed=17, max_length=48, width=128)

#: Destinations for the random draws, over the whole 32-bit space: the
#: control bits of ``TABLE``'s plans include bit 0, so destinations below
#: 2**16 would all fall in one pattern and reach one home LC.
DEST_POOL = np.random.default_rng(2004).integers(
    0, 1 << 32, size=400, dtype=np.uint64
)


def run_both(table, config, run_kwargs=None, sim_kwargs=None,
             streams=None, trace=False, n_packets=300, chunk_size=None):
    """Run one configuration under both engines; return their digests
    plus (trace events, simulator) pairs for deeper comparisons.  A
    ``monitor`` in ``run_kwargs`` is copied per engine, and its events
    join the digest as ``monitor_events``; a ``chunk_size`` feeds the
    streams as :class:`PacketStream` chunks."""
    run_kwargs = dict(run_kwargs or {})
    sim_kwargs = dict(sim_kwargs or {})
    monitor = run_kwargs.pop("monitor", None)
    out = []
    for engine in ("scalar", "array"):
        eng_kwargs = dict(run_kwargs)
        if monitor is not None:
            eng_kwargs["monitor"] = copy.deepcopy(monitor)
        if streams is None:
            rng = np.random.default_rng(5)
            eng_streams = [
                rng.integers(0, 1 << 16, size=n_packets).astype(np.uint64)
                for _ in range(config.n_lcs)
            ]
        else:
            eng_streams = [np.array(s, copy=True) for s in streams]
        if chunk_size is not None:
            eng_streams = [
                PacketStream.from_array(s, chunk_size=chunk_size)
                for s in eng_streams
            ]
        tracer = Tracer() if trace else None
        sim = SpalSimulator(table, config=config, trace=tracer, **sim_kwargs)
        result = sim.run(eng_streams, engine=engine, **eng_kwargs)
        events = tracer.events if tracer is not None else None
        digest = result_digest(result)
        if monitor is not None:
            digest["monitor_events"] = eng_kwargs["monitor"].events
        out.append((digest, events, sim))
    return out


def assert_engines_identical(table, config, run_kwargs=None,
                             sim_kwargs=None, streams=None, trace=False,
                             n_packets=300, chunk_size=None):
    (d_s, ev_s, sim_s), (d_a, ev_a, sim_a) = run_both(
        table, config, run_kwargs, sim_kwargs, streams, trace, n_packets,
        chunk_size,
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
    # Cache-port occupancy, which no result field carries: the array
    # engine counts a plain hit's port cycle only in its writeback.
    ports = lambda sim: [(p.free_at, p.busy_cycles) for p in sim.cache_ports]
    assert ports(sim_s) == ports(sim_a)
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
    return ev_s


# -- random configurations ---------------------------------------------------


@st.composite
def scenarios(draw, intervals=(None, 1, 7, 64, 256)):
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
    fabric = draw(st.sampled_from(
        ["default", "ideal", "bus", "crossbar", "multistage"]
    ))
    config = SpalConfig(
        n_lcs=n_lcs,
        cache=cache,
        replicas=draw(st.integers(1, n_lcs)),
        fe_lookup_cycles=draw(st.sampled_from([1, 5])),
        fabric=fabric,
        fabric_latency=(
            draw(st.integers(0, 8)) if fabric == "crossbar" else None
        ),
        early_recording=draw(st.booleans()),
        cache_remote_results=draw(st.booleans()),
    )
    if draw(st.booleans()):
        # Bounded queues: small caps so the shed paths actually fire.
        config = dataclasses.replace(
            config,
            fe_queue_capacity=draw(st.sampled_from([None, 1, 2, 4])),
            fabric_queue_capacity=draw(st.sampled_from([None, 2, 4, 8])),
            shed_policy=draw(st.sampled_from(["tail_drop", "red", "priority"])),
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
    chunk_size = draw(st.sampled_from([None, 1, 37]))
    interval = draw(st.sampled_from(intervals))
    monitor = None
    if interval is not None:
        config = dataclasses.replace(config, sample_interval_cycles=interval)
        monitor = HealthMonitor(
            slo_p99_cycles=draw(st.sampled_from([None, 8, 40])),
            window=draw(st.sampled_from([2, 8])),
        )
    return (config, seed, n_packets, faults, updates, update_policy,
            warmup, trace, monitor, chunk_size)


def _check_scenario(scenario):
    (config, seed, n_packets, faults, updates, update_policy,
     warmup, trace, monitor, chunk_size) = scenario
    rng = np.random.default_rng(seed)
    streams = [
        DEST_POOL[rng.integers(0, len(DEST_POOL), size=n_packets)]
        for _ in range(config.n_lcs)
    ]
    # Every LC is some arrival's home on the run-start plan, so failures
    # and replica choices reach every card.
    plan = SpalSimulator(TABLE, config=config).plan
    homes = np.unique(plan.home_lc_batch(np.concatenate(streams)))
    assert homes.tolist() == list(range(config.n_lcs))
    run_kwargs = {"warmup_packets": warmup}
    if faults is not None:
        run_kwargs["faults"] = faults
    if updates is not None:
        run_kwargs["updates"] = updates
        run_kwargs["update_policy"] = update_policy
    if monitor is not None:
        run_kwargs["monitor"] = monitor
    assert_engines_identical(
        TABLE, config, run_kwargs, streams=streams, trace=trace,
        chunk_size=chunk_size,
    )


class TestRandomizedIdentity:
    @given(scenarios())
    @settings(max_examples=30, deadline=None)
    def test_engines_bit_identical(self, scenario):
        _check_scenario(scenario)

    @given(scenarios(intervals=(1, 7, 64, 256)))
    @settings(max_examples=20, deadline=None)
    def test_sampler_series_bit_identical(self, scenario):
        """Every draw is sampled: the series, digested with the other
        fields, and the health monitor's events match across engines."""
        _check_scenario(scenario)


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
    )


def churn(policy):
    return {
        "updates": generate_churn(
            TABLE, rate_per_s=5_000_000, horizon_cycles=5000, seed=13
        ),
        "update_policy": policy,
    }


def covering_churn(policy):
    """Announce-then-withdraw churn on prefixes under the curated streams'
    address range (< 2^16), so every update invalidates cached entries."""
    rng = np.random.default_rng(23)
    prefixes = []
    for _ in range(40):
        length = int(rng.choice([17, 19, 21, 23]))
        shift = 32 - length
        p = Prefix((int(rng.integers(0, 1 << 16)) >> shift) << shift, length)
        if p not in prefixes:
            prefixes.append(p)
    sched = ChurnSchedule(seed=23)
    for i, p in enumerate(prefixes):
        sched.announce(500 + 800 * i, p, 1 + i % 7)
    for i, p in enumerate(prefixes[::2]):
        sched.withdraw(900 + 1600 * i, p)
    return {"updates": sched, "update_policy": policy}


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
        # Two sparse flushes hit warm caches (dense churn keeps them cold).
        SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64)),
        {
            "updates": ChurnSchedule()
            .announce(700, Prefix(0, 18), 3)
            .announce(1500, Prefix(1 << 14, 18), 5),
            "update_policy": "flush",
        },
        {},
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
    # The inlined shared bus, bounded; a degraded bus takes the method
    # path (see TestMissChain).
    "bus-bounded": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4),
                   fabric="bus", replicas=2, fe_lookup_cycles=5,
                   fe_queue_capacity=2, fabric_queue_capacity=4,
                   shed_policy="priority"),
        {}, {},
    ),
    "bus-degraded": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4),
                   fabric="bus", replicas=2, fe_lookup_cycles=5,
                   fabric_queue_capacity=4),
        {"faults": FaultSchedule(seed=5).degrade_fabric(
            600, 1800, extra_latency=2, drop_prob=0.1)},
        {},
    ),
    # Fault cursors: two overlapping degradations on LC 0, one on LC 1.
    "gray-overlap": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4),
                   fe_lookup_cycles=5),
        {"faults": FaultSchedule(seed=8)
            .degrade_lc_cache(200, 1500, lc=0, miss_fraction=0.3)
            .degrade_lc_cache(900, 2400, lc=0, miss_fraction=0.5)
            .degrade_lc_cache(500, 1100, lc=1, miss_fraction=0.6)},
        {},
    ),
    # RED at capacities whose admit floor is 0 and 1.
    "bounded-red-cap1": (bounded("red", fe_cap=1, fab_cap=1), {}, {}),
    "bounded-red-cap2": (bounded("red", fe_cap=2, fab_cap=2), {}, {}),
    # Churn translated onto a minimised table (no table copy advanced).
    "minimize+churn": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4),
                   minimize="full"),
        covering_churn("selective"), {},
    ),
    # A tiny cache recycles entry ids constantly, so the entry-pool
    # invalidation meets free ids whose stale address lies under the
    # updated prefix and must skip them.
    "thrash+churn-rem": (
        SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=16, victim_blocks=4)),
        covering_churn("rem"), {},
    ),
}


class TestCuratedIdentity:
    # A traced run takes every arrival through ``arrive``; an untraced one
    # walks the arrival window and completes plain hits inline.  Each
    # class here has an ``...Untraced`` twin.
    trace = True

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_scenario(self, case):
        config, run_kwargs, sim_kwargs = CASES[case]
        # speed_gbps is a run() argument, not a per-case stream change.
        assert_engines_identical(
            TABLE, config, run_kwargs, sim_kwargs, trace=self.trace
        )

    def test_wide_table(self):
        assert_engines_identical(
            TABLE_WIDE,
            SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=128)),
            trace=self.trace,
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
            streams=streams, trace=self.trace,
        )


class TestCuratedIdentityUntraced(TestCuratedIdentity):
    trace = False


MISS_CHAIN = SpalConfig(
    n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4), replicas=2,
    fe_lookup_cycles=5,
)


def scalar_trace(config, run_kwargs=None, streams=None):
    """The trace of a scalar run (``run_both``'s default streams unless
    ``streams`` is given)."""
    if streams is None:
        rng = np.random.default_rng(5)
        streams = [
            rng.integers(0, 1 << 16, size=300).astype(np.uint64)
            for _ in range(config.n_lcs)
        ]
    streams = [np.array(s, copy=True) for s in streams]
    tracer = Tracer()
    SpalSimulator(TABLE, config=config, trace=tracer).run(
        streams, engine="scalar", **(run_kwargs or {})
    )
    return tracer.events


def identical_events(config, run_kwargs=None, streams=None, trace=True):
    """Assert scalar == array at ``trace``; return the scalar trace (from
    the traced comparison, or from a separate scalar run)."""
    events = assert_engines_identical(
        TABLE, config, run_kwargs, streams=streams, trace=trace
    )
    return events if trace else scalar_trace(config, run_kwargs, streams)


class TestMissChain:
    """Fault-window edges on the exact cycle of the query they change,
    the bus fabric's two paths and in-place victim-cache replacement."""

    trace = True

    @pytest.mark.parametrize("edge", ["opens", "closes"])
    def test_flap_edge_on_send_cycle(self, edge):
        # Nothing before the first send depends on the flap, so a down
        # phase that opens (or closes) at its cycle meets that send.
        when = next(e for e in scalar_trace(MISS_CHAIN)
                    if e["name"] == "fabric.send")["cycle"]
        period, down = 16, 4
        start = when if edge == "opens" else when - down
        assert start >= 0
        faults = FaultSchedule(seed=4).flap_link(
            start, start + 40 * period, period=period, down_cycles=down
        )
        events = identical_events(
            MISS_CHAIN, {"faults": faults}, trace=self.trace
        )
        sends = [e for e in events
                 if e["name"] == "fabric.send" and e["cycle"] == when]
        assert sends and all(e["dropped"] == (edge == "opens")
                             for e in sends)

    def test_slowdown_opens_on_fe_start(self):
        # The second FE start at an LC: its cursor was stepped by the
        # first, so the window edge must come from ``next_change``.
        fes = [e for e in scalar_trace(MISS_CHAIN) if e["name"] == "fe"]
        first = fes[0]
        fe = next(e for e in fes[1:] if e["lc"] == first["lc"]
                  and e["cycle"] > first["cycle"])
        faults = FaultSchedule(seed=4).slow_lc(
            fe["cycle"], fe["cycle"] + 3000, lc=fe["lc"], multiplier=3.0
        )
        events = identical_events(
            MISS_CHAIN, {"faults": faults}, trace=self.trace
        )
        (slowed,) = [e for e in events if e["name"] == "fe"
                     and (e["cycle"], e["lc"]) == (fe["cycle"], fe["lc"])]
        assert slowed["done"] - slowed["start"] == 3 * 5

    def test_cache_degradation_opens_on_probe(self):
        # A hit that is not its LC's first probe: the window opening on
        # its cycle must force the draw there (seeded to force the miss).
        rng = np.random.default_rng(6)
        hot = rng.integers(0, 1 << 16, size=64).astype(np.uint64)
        streams = [rng.choice(hot, size=300) for _ in range(MISS_CHAIN.n_lcs)]
        probes = [e for e in scalar_trace(MISS_CHAIN, streams=streams)
                  if e["name"] in ("cache.hit", "cache.miss", "cache.wait")]
        hit = next(e for e in probes if e["name"] == "cache.hit" and any(
            p["lc"] == e["lc"] and p["cycle"] < e["cycle"] for p in probes))
        faults = FaultSchedule(seed=5).degrade_lc_cache(
            hit["cycle"], hit["cycle"] + 3000, lc=hit["lc"], miss_fraction=0.9
        )
        events = identical_events(
            MISS_CHAIN, {"faults": faults}, streams=streams,
            trace=self.trace,
        )
        assert any(e["name"] == "cache.miss" and e["lc"] == hit["lc"]
                   and e["cycle"] == hit["cycle"] for e in events)

    @pytest.mark.parametrize("where", ["local", "remote"])
    def test_lc_fails_on_a_booked_probe_slot(self, where):
        # A probe deferred to a booked port slot finds its LC failed on
        # that cycle: an arrival drops as "crash", a remote request is
        # lost and its origin times out.  Four LCs, because three see no
        # deferred local probe on these streams.  The slot is found under
        # a failure after the run, which arms the same timeouts.
        config = dataclasses.replace(MISS_CHAIN, n_lcs=4)
        late = FaultSchedule(seed=4).fail_lc(10**6, 0).recover_lc(
            10**6 + 1, 0
        )
        seen = {}
        for e in scalar_trace(config, {"faults": late}):
            if where == "local":
                if e["name"] == "ingress":
                    seen[e["pid"]] = e["cycle"]
                elif (e["name"] in ("cache.hit", "cache.miss", "cache.wait")
                      and e["cycle"] > seen.get(e["pid"], e["cycle"])):
                    break
            elif e["name"] == "remote.recv":
                seen[e["pid"], e["lc"]] = e["cycle"]
            elif (e["name"] == "fe"
                  and e["cycle"] > seen.get((e["pid"], e["lc"]), e["cycle"])):
                break
        else:
            pytest.fail(f"no deferred {where} probe in the trace")
        pid, lc, cycle = e["pid"], e["lc"], e["cycle"]
        faults = FaultSchedule(seed=4).fail_lc(cycle, lc).recover_lc(
            cycle + 1000, lc
        )
        events = identical_events(config, {"faults": faults},
                                  trace=self.trace)
        mine = [x for x in events if x.get("pid") == pid]
        if where == "local":
            assert ("drop", cycle, "crash") in [
                (x["name"], x["cycle"], x.get("reason")) for x in mine
            ]
            assert not any(x["name"].startswith("cache.") for x in mine)
        else:
            assert not any(x["name"] == "fe" and x["lc"] == lc
                           and x["cycle"] == cycle for x in mine)
            assert any(x["name"] == "timeout.retry" for x in mine)

    def test_degraded_bus_takes_method_path(self):
        config = CASES["bus-degraded"][0]
        rng = np.random.default_rng(5)
        streams = [rng.integers(0, 1 << 16, size=300).astype(np.uint64)
                   for _ in range(config.n_lcs)]
        for faults in (None, CASES["bus-degraded"][1]["faults"]):
            sim = SpalSimulator(TABLE, config=config,
                                trace=Tracer() if self.trace else None)
            calls = []
            transfer = sim.fabric.transfer
            sim.fabric.transfer = lambda *a: calls.append(a) or transfer(*a)
            sim.run([s.copy() for s in streams], engine="array",
                    faults=faults)
            # The healthy bus is inlined; the degraded one is not.
            assert len(calls) == (0 if faults is None
                                  else sim.fabric.messages)
            assert sim.fabric.messages > 0

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_victim_in_place_replacement(self, policy, monkeypatch):
        # Without early recording a reply inserts its address into the
        # main set even while the victim cache holds it, so a later
        # eviction finds the address already there.
        in_place = []
        insert = VictimCache.insert

        def spy(self, entry):
            if entry.address in self._entries:
                in_place.append(entry.address)
            insert(self, entry)

        monkeypatch.setattr(VictimCache, "insert", spy)
        rng = np.random.default_rng(3)
        hot = rng.integers(0, 1 << 16, size=24).astype(np.uint64)
        streams = [rng.choice(hot, size=400) for _ in range(2)]
        config = SpalConfig(
            n_lcs=2,
            cache=CacheConfig(n_blocks=8, victim_blocks=4, policy=policy),
            early_recording=False,
        )
        assert_engines_identical(
            TABLE, config, streams=streams, trace=self.trace
        )
        assert in_place


class TestMissChainUntraced(TestMissChain):
    trace = False


class TestChurnPoolGrowth:
    """Misses after an invalidation grow the entry pool that the
    invalidation's range query has just read.  The pool's key column must
    stay appendable, and each later update must find the entries added
    since the one before it."""

    @pytest.mark.parametrize("width", [32, 128])
    def test_churn_misses_grow_pool_after_invalidation(self, width):
        table = TABLE if width == 32 else TABLE_V6
        base = 0 if width == 32 else 0x2001 << 112
        n_lcs, n = 2, 200
        # Distinct destinations in a cache with room for all of them:
        # every arrival misses and appends a new entry id.
        dests = np.random.default_rng(31).permutation(1 << 16)[: n_lcs * n]
        dests = [base | int(a) for a in dests]
        streams = [
            np.array(dests[i * n:(i + 1) * n],
                     dtype=np.uint64 if width == 32 else object)
            for i in range(n_lcs)
        ]
        # Each update covers a destination that arrived after the update
        # before it (LC 0 sees one arrival every ~10 cycles at 40 Gbps).
        sched = ChurnSchedule(seed=31)
        for k, cycle in enumerate((300, 800, 1300, 1800)):
            addr = dests[cycle // 10 - 15]
            sched.announce(
                cycle, Prefix(addr >> 8 << 8, width - 8, width), 1 + k
            )
        config = SpalConfig(n_lcs=n_lcs, cache=CacheConfig(n_blocks=1024),
                            fe_lookup_cycles=5)
        (d_s, ev_s, _), (d_a, ev_a, _) = run_both(
            table, config, {"updates": sched, "update_policy": "selective"},
            streams=streams, trace=True,
        )
        assert d_s == d_a
        assert ev_s == ev_a
        assert all(
            s["hits"] + s["waiting_hits"] == 0 for s in d_a["cache_stats"]
        )
        names = [e["name"] for e in ev_a
                 if e["name"] in ("flush", "cache.miss")]
        flushes = [i for i, name in enumerate(names) if name == "flush"]
        assert len(flushes) == 4
        # Misses (pool growth) sit between consecutive invalidations.
        assert all(b - a > 1 for a, b in zip(flushes, flushes[1:]))
        assert d_a["invalidation_entries_dropped"] >= 4


# -- telemetry sampler on/off ------------------------------------------------

SAMPLED_CASES = ("clean-traced", "no-cache", "gray-failures",
                 "bounded-tail", "bounded+gray+churn")


class TestSamplerIdentity:
    """Enabling ``sample_interval_cycles`` must not change any core
    result field, metric or trace event, and the sampled run's series
    must be self-consistent (window totals equal the run totals).  Both
    engines close a window before the first event at or past its
    boundary, so the series is part of the cross-engine comparison like
    any other field.
    """

    @pytest.mark.parametrize("case", SAMPLED_CASES)
    def test_sampler_on_off(self, case):
        config, run_kwargs, sim_kwargs = CASES[case]
        sampled = dataclasses.replace(config, sample_interval_cycles=256)
        off = run_both(TABLE, config, run_kwargs, sim_kwargs, trace=True)
        on = run_both(TABLE, sampled, run_kwargs, sim_kwargs, trace=True)
        for (d_off, ev_off, _), (d_on, ev_on, sim_on) in zip(off, on):
            ts = d_on["timeseries"]
            assert d_off["timeseries"] is None
            assert ts is not None and len(ts["columns"]["t_end"]) > 0
            for key in d_off:
                if key != "timeseries":
                    assert d_off[key] == d_on[key], \
                        f"sampling changed {key!r}"
            assert ev_off == ev_on, "sampling changed the trace stream"
            # Window deltas must re-add to the run totals exactly.
            assert sum(ts["columns"]["completed"]) == len(sim_on.completed)
            assert sum(ts["columns"]["dropped"]) == \
                len(sim_on.dropped_packets)
            assert sum(ts["columns"]["lat_count"]) == len(d_on["latencies"])
        # Every field, the series included, agrees across engines.
        d_scalar, d_array = on[0][0], on[1][0]
        for key in d_scalar:
            assert d_scalar[key] == d_array[key], \
                f"sampled engines disagree on {key!r}"

    def test_sampler_streamed_chunk_independent(self):
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
