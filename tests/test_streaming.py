"""Chunked streams are semantically invisible: streamed == materialized.

The streaming path (:class:`repro.sim.PacketStream` +
:meth:`ArrayEngine.run_streamed`) promises bit-identity with the
materialized run for *every* chunking — per-packet chunks, odd sizes, one
whole-trace chunk — on both engines (the scalar engine materializes).
This module pins that three ways:

* the six golden scenarios (IPv4/IPv6 × clean/faults/churn) replayed
  through streams at chunk sizes {1, 64, 4096, ∞} and diffed field by
  field against the materialized digest;
* a Hypothesis property that cuts the same traces at *random* chunk
  boundaries — with faults and churn in play — and demands digest **and
  trace-stream** equality;
* unit pins for the stream primitives themselves: the resumable
  :class:`ArrivalClock` equals one-shot :func:`arrival_times` under any
  split, declared-length violations and destinations outside the
  table's width fail loudly, and
  :func:`random_stream` chunks are consumption-order independent.

It also pins the array engine's capped arrival windows: traces several
window caps long replay exactly, windows and precompute blocks stay
within the cap at any LC count, a block precomputed during an outage
equals one precomputed at run start, peak memory follows neither the
chunk size nor the LC count, and a finished run leaves no reference
cycles behind.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheConfig, FaultSchedule, SpalConfig
from repro.errors import SimulationError
from repro.obs import Tracer
from repro.routing import random_small_table
from repro.routing.churn import generate_churn
from repro.sim import DEFAULT_CHUNK, PacketStream, SpalSimulator, random_stream
from repro.sim import array_engine
from repro.traffic.packets import ArrivalClock, LinkSpec, arrival_times

from .conftest import result_digest
from .test_golden_results import SCENARIOS, _build

CHUNK_SIZES = [1, 64, 4096, None]


def _run(table, config, streams, kwargs, engine="array", trace=False):
    tracer = Tracer() if trace else None
    sim = SpalSimulator(table, config=config, trace=tracer)
    digest = result_digest(sim.run(streams, engine=engine, **kwargs))
    return digest, (tracer.events if tracer is not None else None), sim


# -- golden scenarios through streams ----------------------------------------


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_streamed_bit_identical(name, chunk_size):
    table, config, streams, kwargs = _build(name)
    base, _, _ = _run(table, config, streams, kwargs)
    table, config, streams, kwargs = _build(name)
    chunked = [
        PacketStream.from_array(s, chunk_size=chunk_size) for s in streams
    ]
    got, _, sim = _run(table, config, chunked, kwargs)
    for key in base:
        assert got[key] == base[key], (
            f"{name} streamed (chunk={chunk_size}) drifted on {key!r}"
        )
    # Streamed runs keep counts only; len() and truthiness still work.
    assert len(sim.completed) + len(sim.dropped_packets) == sum(
        len(s) for s in streams
    )
    with pytest.raises(TypeError, match="counts only"):
        sim.completed[0]


@pytest.mark.parametrize("name", ["ipv4-faults", "ipv6-churn"])
def test_golden_streamed_scalar_materializes(name):
    """The scalar engine accepts streams by materializing them — same
    digest as feeding it the raw arrays."""
    table, config, streams, kwargs = _build(name)
    base, _, _ = _run(table, config, streams, kwargs, engine="scalar")
    table, config, streams, kwargs = _build(name)
    chunked = [PacketStream.from_array(s, chunk_size=64) for s in streams]
    got, _, sim = _run(table, config, chunked, kwargs, engine="scalar")
    assert got == base
    # Materialized path keeps real packet objects.
    assert sim.completed[0].complete_time >= 0


def test_streamed_trace_identical():
    """Tracer event streams — every ingress/hit/miss/fabric record in
    order — survive chunking."""
    table, config, streams, kwargs = _build("ipv4-faults")
    base, ev_base, _ = _run(table, config, streams, kwargs, trace=True)
    table, config, streams, kwargs = _build("ipv4-faults")
    chunked = [PacketStream.from_array(s, chunk_size=7) for s in streams]
    got, ev_got, _ = _run(table, config, chunked, kwargs, trace=True)
    assert got == base
    assert ev_got == ev_base


# -- random chunk boundaries (Hypothesis) ------------------------------------

_PROP_TABLE = random_small_table(120, seed=29, max_length=20)

#: Destinations for the chunking and window tests: spread over the whole
#: 32-bit space, because ``_PROP_TABLE``'s control bits are high-order
#: bits and every address below 2^16 shares one home set; few enough
#: that the caches still see reuse.
_DEST_POOL = np.random.default_rng(2004).integers(
    0, 1 << 32, size=400, dtype=np.uint64
)


def _dests(rng, size: int, pool: int = 200) -> np.ndarray:
    """``size`` destinations drawn from the first ``pool`` of the pool."""
    return _DEST_POOL[rng.integers(0, pool, size=size)]


def _assert_every_lc_is_home(config, raw):
    """The run's destinations reach every LC as a home LC (so at least 2
    whenever the router has 2), on the run-start plan."""
    plan = SpalSimulator(_PROP_TABLE, config=config).plan
    homes = np.unique(plan.home_lc_batch(np.concatenate(raw)))
    assert homes.tolist() == list(range(config.n_lcs))


def _prop_scenario(with_faults, with_churn):
    config = SpalConfig(
        n_lcs=3,
        cache=CacheConfig(n_blocks=32, victim_blocks=4),
        replicas=2,
        fe_lookup_cycles=5,
    )
    kwargs = {"warmup_packets": 10}
    if with_faults:
        kwargs["faults"] = (
            FaultSchedule(seed=5)
            .fail_lc(300, 1)
            .recover_lc(1800, 1)
            .degrade_fabric(200, 1200, extra_latency=1, drop_prob=0.1)
        )
    if with_churn:
        kwargs["updates"] = generate_churn(
            _PROP_TABLE, rate_per_s=5_000_000, horizon_cycles=3000, seed=9
        )
        kwargs["update_policy"] = "selective"
    return config, kwargs


def _cut_stream(dests: np.ndarray, cuts: list) -> PacketStream:
    """A stream over ``dests`` with arbitrary (irregular) chunk
    boundaries, including empty chunks."""
    bounds = sorted({c for c in cuts if 0 <= c <= len(dests)})
    edges = [0] + bounds + [len(dests)]

    def factory():
        for lo, hi in zip(edges, edges[1:]):
            yield dests[lo:hi]

    return PacketStream(len(dests), factory)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_random_chunk_boundaries_bit_identical(data):
    with_faults = data.draw(st.booleans(), label="faults")
    with_churn = data.draw(st.booleans(), label="churn")
    seed = data.draw(st.integers(0, 1000), label="seed")
    n = data.draw(st.integers(30, 160), label="n_packets")

    rng = np.random.default_rng(seed)
    raw = [_dests(rng, n) for _ in range(3)]

    config, kwargs = _prop_scenario(with_faults, with_churn)
    _assert_every_lc_is_home(config, raw)
    base, ev_base, _ = _run(
        _PROP_TABLE, config, [s.copy() for s in raw], kwargs, trace=True
    )

    cuts = [
        data.draw(
            st.lists(st.integers(0, n), max_size=8), label=f"cuts[{lc}]"
        )
        for lc in range(3)
    ]
    config, kwargs = _prop_scenario(with_faults, with_churn)
    streams = [_cut_stream(s, c) for s, c in zip(raw, cuts)]
    got, ev_got, _ = _run(_PROP_TABLE, config, streams, kwargs, trace=True)

    assert got == base
    assert ev_got == ev_base


# -- capped arrival windows --------------------------------------------------


@pytest.mark.slow
def test_capped_windows_match_scalar_and_per_packet_chunks():
    """One whole-trace chunk per LC, each longer than three window caps
    plus an odd remainder and of uneven length, is cut into capped
    windows; with faults and tracing on, the run equals the scalar loop
    (digest and trace stream) and the streamed run at ``chunk_size=1``."""
    cap = array_engine._WINDOW_CAP
    lengths = [3 * cap + 1, 3 * cap + 517, 3 * cap + 2049]
    rng = np.random.default_rng(41)
    raw = [_dests(rng, n, pool=400) for n in lengths]
    horizon = int(min(lengths) * LinkSpec(40).mean_interarrival_cycles)
    config = SpalConfig(
        n_lcs=3,
        cache=CacheConfig(n_blocks=64, victim_blocks=4),
        replicas=2,
        fe_lookup_cycles=5,
    )
    _assert_every_lc_is_home(config, raw)

    def kwargs():
        return {
            "warmup_packets": 101,
            "faults": (
                FaultSchedule(seed=5)
                .fail_lc(horizon // 3, 1)
                .recover_lc(horizon // 2, 1)
                .degrade_fabric(horizon // 4, horizon // 3 * 2,
                                extra_latency=1, drop_prob=0.05)
            ),
        }

    base, ev_base, _ = _run(_PROP_TABLE, config, [s.copy() for s in raw],
                            kwargs(), engine="scalar", trace=True)
    whole, ev_whole, _ = _run(_PROP_TABLE, config, [s.copy() for s in raw],
                              kwargs(), trace=True)
    assert whole == base
    assert ev_whole == ev_base
    del ev_whole
    per_packet = [PacketStream.from_array(s, chunk_size=1) for s in raw]
    got, ev_got, _ = _run(_PROP_TABLE, config, per_packet, kwargs(),
                          trace=True)
    assert got == base
    assert ev_got == ev_base


def _run_peak(streams, n_blocks: int = 256) -> int:
    """tracemalloc peak (bytes) of one untraced array run over
    ``streams``; the simulator is built before tracing starts."""
    config = SpalConfig(n_lcs=len(streams),
                        cache=CacheConfig(n_blocks=n_blocks))
    sim = SpalSimulator(_PROP_TABLE, config=config)
    gc.collect()
    tracemalloc.start()
    try:
        sim.run(streams, engine="array")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_peak_memory_does_not_track_chunk_size(monkeypatch):
    """A window holds at most ``_WINDOW_CAP`` arrivals, and a feed
    precomputes patterns one block of at most the cap at a time,
    so a chunk 8x the cap barely moves the peak: the chunk adds only its
    arrival cycles, not per-arrival window state.  Under tracemalloc every
    allocation in the engine loop pays for a line-number lookup, so the
    cap is shrunk to keep the stream short; chunk / cap = 8 matches
    65,536-packet chunks at the real cap of 8,192."""
    cap = 256
    monkeypatch.setattr(array_engine, "_WINDOW_CAP", cap)
    rng = np.random.default_rng(8)
    raw = [rng.integers(0, 200, size=16 * cap).astype(np.uint64)
           for _ in range(2)]
    small = _run_peak([PacketStream.from_array(s, chunk_size=cap)
                       for s in raw])
    big = _run_peak([PacketStream.from_array(s, chunk_size=8 * cap)
                     for s in raw])
    assert big <= 1.3 * small, (big, small)


def test_streamed_peak_memory_does_not_track_lc_count(monkeypatch):
    """The cap bounds the whole merged window, not each LC's share of it,
    so spreading the same arrivals over 8 LCs instead of 2 barely moves
    the peak: an extra LC adds its buffered chunk and its precomputed
    patterns (8 bytes an arrival), not ~200-byte window arrivals.  Chunks
    are one cap long, as the default 65,536-packet chunk is longer than
    the real cap; eight destinations keep every LC's cache warm, so the
    in-flight population stays small."""
    cap = 256
    monkeypatch.setattr(array_engine, "_WINDOW_CAP", cap)
    total = 48 * cap
    peaks = []
    for n_lcs in (2, 8):
        rng = np.random.default_rng(8)
        raw = [rng.integers(0, 8, size=total // n_lcs).astype(np.uint64)
               for _ in range(n_lcs)]
        peaks.append(_run_peak(
            [PacketStream.from_array(s, chunk_size=cap) for s in raw],
            n_blocks=64,
        ))
    assert peaks[1] <= 1.3 * peaks[0], peaks


def _window_and_block_sizes(sim, streams, kwargs):
    """Run ``sim`` on the array engine and record, from a profile hook,
    the length of every window ``build_window`` returns and, for every
    ``(pattern, hop)`` precompute block, its LC, its length and the LCs
    the partition plan had marked failed when the block was computed."""
    windows = []
    blocks = []
    path = array_engine.__file__

    def prof(frame, event, arg):
        code = frame.f_code
        if code.co_filename != path:
            return
        if event == "return" and code.co_name == "build_window":
            if arg is not None:
                windows.append(len(arg[0]))
        elif event == "call" and code.co_name == "precompute":
            f = frame.f_locals
            blocks.append((f["lc"], len(f["dests"]),
                           frozenset(sim.plan.failed_lcs)))

    sys.setprofile(prof)
    try:
        result = sim.run(streams, engine="array", **kwargs)
    finally:
        sys.setprofile(None)
    return result, windows, blocks


@pytest.mark.parametrize("n_lcs", [1, 3, 16])
def test_windows_and_precompute_blocks_are_capped(monkeypatch, n_lcs):
    """Whatever the LC count, every window holds at most ``_WINDOW_CAP``
    arrivals and every precompute block covers at most ``_WINDOW_CAP``
    arrivals of one LC; each arrival is windowed and precomputed exactly
    once, and the run equals the scalar loop."""
    cap = 48
    monkeypatch.setattr(array_engine, "_WINDOW_CAP", cap)
    rng = np.random.default_rng(n_lcs)
    raw = [_dests(rng, 5 * cap + 7 * lc) for lc in range(n_lcs)]
    config = SpalConfig(n_lcs=n_lcs, cache=CacheConfig(n_blocks=32),
                        fe_lookup_cycles=5)
    _assert_every_lc_is_home(config, raw)
    kwargs = {"warmup_packets": 3}
    base, _, _ = _run(_PROP_TABLE, config, [s.copy() for s in raw], kwargs,
                      engine="scalar")
    sim = SpalSimulator(_PROP_TABLE, config=config)
    streams = [PacketStream.from_array(s, chunk_size=3 * cap) for s in raw]
    result, windows, blocks = _window_and_block_sizes(sim, streams, kwargs)
    assert result_digest(result) == base
    total = sum(len(s) for s in raw)
    assert max(windows) <= cap
    assert sum(windows) == total
    assert max(n for _, n, _ in blocks) <= cap
    for lc in range(n_lcs):
        assert sum(n for b_lc, n, _ in blocks if b_lc == lc) == len(raw[lc])


def test_precompute_block_after_a_fault_sees_the_pristine_plan(monkeypatch):
    """LCs 1 and 2 fail together for a while, which leaves the patterns
    only they hold with no live replica, and blocks of their later
    arrivals are precomputed during that outage.  A block holds each
    arrival's pattern and hop, which no failure changes, so a block
    computed mid-outage equals the scalar loop's pass before the first
    event, and the run equals the scalar loop.  LC 0 receives only
    patterns it holds, so no live packet needs a home during the
    outage."""
    cap = 32
    monkeypatch.setattr(array_engine, "_WINDOW_CAP", cap)
    config = SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=32),
                        replicas=2, fe_lookup_cycles=5)
    plan = SpalSimulator(_PROP_TABLE, config=config).plan
    rng = np.random.default_rng(13)
    pool = rng.integers(0, 1 << 32, size=4000).astype(np.uint64)
    holders = [set(plan.live_replicas(int(a))) for a in pool]
    held_by_0 = pool[[0 in h for h in holders]][:64]
    only_1_2 = pool[[h == {1, 2} for h in holders]][:64]
    n = 12 * cap
    raw = [rng.choice(held_by_0, n), rng.choice(only_1_2, n),
           rng.choice(only_1_2, n)]
    out = int(n * LinkSpec(40).mean_interarrival_cycles) // 3

    def kwargs():
        return {"faults": FaultSchedule(seed=3)
                .fail_lc(out, 1).fail_lc(out, 2)
                .recover_lc(2 * out, 1).recover_lc(2 * out, 2)}

    base, _, _ = _run(_PROP_TABLE, config, [s.copy() for s in raw],
                      kwargs(), engine="scalar")
    sim = SpalSimulator(_PROP_TABLE, config=config)
    result, _, blocks = _window_and_block_sizes(sim, raw, kwargs())
    assert any(lc > 0 and failed == {1, 2} for lc, _, failed in blocks)
    assert result_digest(result) == base


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["ipv4-faults", "ipv4-churn", "ipv6-clean"])
def test_array_run_leaves_no_cyclic_garbage(name, trace):
    """A finished array run is freed by reference counting alone: with
    the collector off during the run, a full collection afterwards finds
    nothing the run left behind."""
    table, config, streams, kwargs = _build(name)
    sim = SpalSimulator(table, config=config,
                        trace=Tracer() if trace else None)
    gc.collect()
    gc.disable()
    try:
        result = sim.run(streams, engine="array", **kwargs)
        freed = gc.collect()
    finally:
        gc.enable()
    assert result.packets > 0
    assert freed == 0


def _slots_at_exit(sim, streams):
    """(slots, free slots) of the array loop's packet columns as
    ``run_streamed`` returns, read from its frame."""
    seen = {}
    code = array_engine.ArrayEngine.run_streamed.__code__

    def prof(frame, event, arg):
        if event == "return" and frame.f_code is code:
            seen["slots"] = len(frame.f_locals["p_ref"])
            seen["free"] = len(frame.f_locals["free_slots"])

    sys.setprofile(prof)
    try:
        result = sim.run(streams, engine="array")
    finally:
        sys.setprofile(None)
    return result, seen["slots"], seen["free"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("policy", ["tail_drop", "red", "priority"])
def test_finished_run_frees_every_packet_slot(policy, trace):
    """Every packet has completed or dropped when the loop ends, so each
    slot is back on the free list.  That includes a remote request whose
    FE run its home rejects: the rejection discards the request's fresh
    home reservation and must still release the request parked on it."""
    config = SpalConfig(
        n_lcs=3, cache=CacheConfig(n_blocks=64, victim_blocks=4),
        replicas=2, fe_lookup_cycles=5, fe_queue_capacity=2,
        fabric_queue_capacity=4, shed_policy=policy,
    )
    rng = np.random.default_rng(5)
    streams = [rng.integers(0, 1 << 16, size=1000).astype(np.uint64)
               for _ in range(3)]
    sim = SpalSimulator(_PROP_TABLE, config=config,
                        trace=Tracer() if trace else None)
    result, slots, free = _slots_at_exit(sim, streams)
    assert result.drops["queue_full"] + result.drops["shed"] > 0
    assert slots > 0
    assert free == slots


# -- stream primitives -------------------------------------------------------


def test_arrival_clock_matches_one_shot():
    for speed in (10, 40):
        want = arrival_times(1000, speed_gbps=speed, seed=77)
        clock = ArrivalClock(speed, seed=77)
        parts = [clock.next(n) for n in (0, 1, 7, 250, 742)]
        np.testing.assert_array_equal(np.concatenate(parts), want)
        assert clock.emitted == 1000


def test_stream_underproduction_raises():
    s = PacketStream(10, lambda: iter([np.arange(4, dtype=np.uint64)]))
    sim = SpalSimulator(_PROP_TABLE, config=SpalConfig(n_lcs=1))
    with pytest.raises(SimulationError, match="declared 10 .* produced 4"):
        sim.run([s], engine="array")


def test_stream_overproduction_raises():
    s = PacketStream(3, lambda: iter([np.arange(9, dtype=np.uint64)]))
    sim = SpalSimulator(_PROP_TABLE, config=SpalConfig(n_lcs=1))
    with pytest.raises(SimulationError, match="declared 3"):
        sim.run([s], engine="array")


@pytest.mark.parametrize("engine", ["array", "scalar"])
@pytest.mark.parametrize("bad", [2**40 + 5, -1, 2.5],
                         ids=["too_wide", "negative", "fractional"])
def test_streamed_destination_outside_width_raises(engine, bad):
    """A chunk's destinations are checked as the run reads them: the
    bad one sits in the second chunk, and both engines check its type and
    range before the uint64 cast could truncate or wrap it."""
    chunks = [np.arange(4, dtype=np.int64), np.array([7, bad])]
    s = PacketStream(6, lambda: iter(chunks))
    sim = SpalSimulator(_PROP_TABLE, config=SpalConfig(n_lcs=1))
    with pytest.raises(SimulationError,
                       match="outside the 32-bit|non-integer"):
        sim.run([s], engine=engine)


@pytest.mark.parametrize("engine", ["array", "scalar"])
@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("dests", [[5, -1, 7], [5.7, 1.2]],
                         ids=["negative", "fractional"])
def test_from_array_stream_checked_at_every_width(engine, width, dests):
    """A wrapped array keeps its dtype until a run reads it: at 64 bits
    a -1 once became 2**64 - 1, and at any width 5.7 once ran as 5."""
    table = random_small_table(40, seed=3, max_length=20, width=width)
    s = PacketStream.from_array(np.array(dests))
    sim = SpalSimulator(table, config=SpalConfig(n_lcs=1))
    with pytest.raises(SimulationError, match="outside the|non-integer"):
        sim.run([s], engine=engine)


def test_stream_validation():
    with pytest.raises(SimulationError, match="non-negative"):
        PacketStream(-1, lambda: iter([]))
    with pytest.raises(SimulationError, match="positive"):
        PacketStream.from_array([1, 2], chunk_size=0)
    with pytest.raises(SimulationError, match="positive"):
        PacketStream.from_generator(4, lambda lo, n: np.zeros(n), 0)
    with pytest.raises(SimulationError, match="widths 1..64"):
        random_stream(4, width=128)


def test_materialize_round_trip():
    dests = np.arange(1000, dtype=np.uint64)
    for cs in (1, 17, None):
        s = PacketStream.from_array(dests, chunk_size=cs)
        np.testing.assert_array_equal(s.materialize(), dests)
        # Streams are reusable: a second pass yields the same data.
        np.testing.assert_array_equal(s.materialize(), dests)


def test_from_array_preserves_ipv6_object_dtype():
    dests = np.array([(0x2001 << 112) | i for i in range(5)], dtype=object)
    s = PacketStream.from_array(dests, chunk_size=2)
    out = s.materialize()
    assert out.dtype == object
    assert out[0] == (0x2001 << 112)
    # An object column is a 128-bit table's format only.
    with pytest.raises(SimulationError, match="non-integer"):
        s.materialize(width=64)


_V6_TABLE = random_small_table(40, seed=17, max_length=48, width=128)


@pytest.mark.parametrize("bad", [-1, 1 << 128, 2.5, True],
                         ids=["negative", "too_wide", "fractional", "bool"])
def test_ipv6_object_column_checked_on_both_engines(bad):
    """A 128-bit object column runs identically materialized and
    streamed, on both engines; one bad element is refused by both —
    before the run when materialized, where it is read when streamed."""
    rng = np.random.default_rng(5)
    good = np.array(
        [(0x2001 << 112) | int(x) for x in rng.integers(0, 1 << 40, 60)]
        + [(1 << 128) - 1],
        dtype=object,
    )
    config = SpalConfig(n_lcs=1, cache=CacheConfig(n_blocks=16))
    digests = [
        _run(_V6_TABLE, config, [stream], {}, engine=engine)[0]
        for engine in ("array", "scalar")
        for stream in (good, PacketStream.from_array(good, chunk_size=7))
    ]
    assert all(d == digests[0] for d in digests)
    bad_col = good.copy()
    bad_col[30] = bad
    for engine in ("array", "scalar"):
        sim = SpalSimulator(_V6_TABLE, config=config)
        with pytest.raises(SimulationError,
                           match="outside the 128-bit|non-integer"):
            sim.run([bad_col], engine=engine)
        assert sim.run([good], engine=engine).packets == len(good)
        sim = SpalSimulator(_V6_TABLE, config=config)
        with pytest.raises(SimulationError,
                           match="outside the 128-bit|non-integer"):
            sim.run([PacketStream.from_array(bad_col, chunk_size=7)],
                    engine=engine)


def test_random_stream_consumption_order_independent():
    s = random_stream(3 * DEFAULT_CHUNK // 2, width=32, seed=3)
    full = s.materialize()
    it = s.chunks()
    first = next(it)
    np.testing.assert_array_equal(first, full[: len(first)])
    # A fresh pass is unaffected by the half-consumed iterator above.
    np.testing.assert_array_equal(s.materialize(), full)
