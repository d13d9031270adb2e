"""SpalRouter ≡ SpalSimulator: one SPAL lookup flow, two drivers.

The untimed :class:`~repro.core.SpalRouter` and the timed
:class:`~repro.sim.SpalSimulator` run the same Sec. 3.3 flow over the same
parts (partition plan, LR-caches, per-LC matchers).  When lookups are
spaced far enough apart that each one resolves before the next arrives,
timing can no longer change what happens — no port wait, no W-bit wait,
no two lookups interleaving their cache operations — so the two must
agree exactly:

* the next hop served to every packet;
* every LC's cache statistics (lookups, hits, victim hits, misses,
  insertions, evictions, ...);
* every LC's final cache contents (address → next hop, LOC/REM);
* every LC's FE lookup count;
* the number of fabric messages (request, reply, invalidation).

LC failures and recoveries and routing updates are interleaved between
the lookups: the router gets ``fail_line_card`` / ``recover_line_card`` /
``apply_update`` calls, and the simulator the equivalent
:class:`~repro.core.FaultSchedule` / :class:`~repro.routing.ChurnSchedule`
events at the same positions.  The simulator is the reference: the
goldens and the benchmark digests pin its output.

The simulator draws each LC's arrival cycles from
:func:`repro.traffic.packets.arrival_times` (seeded ``1000 + lc``); the
property replaces that process, for the scalar loop it runs, with
explicit cycles ``GAP`` apart.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CacheConfig, FaultSchedule, SpalConfig, SpalRouter
from repro.routing import ChurnSchedule, Prefix, random_small_table
from repro.sim import SpalSimulator, spal_sim
from repro.tries import BinaryTrie, LuleaTrie, MultibitTrie

#: Cycles between consecutive steps (lookups and events).  A lookup here
#: completes within ~60 cycles of arriving (40 FE cycles plus a fabric
#: round trip) and an update holds an FE for far fewer than GAP cycles,
#: so every step completes before the next begins.
GAP = 100_000

TABLES = {
    32: random_small_table(60, seed=41, max_length=24),
    128: random_small_table(40, seed=42, max_length=48, width=128),
}

#: Per-width FE structures for the router (the simulator always runs the
#: hash reference matcher).  MultibitTrie has no incremental update path,
#: so it exercises the router's rebuild fallback.
MATCHERS = {
    32: [LuleaTrie, BinaryTrie, MultibitTrie],
    128: [LuleaTrie, BinaryTrie],
}


def address_pool(table, seed, size):
    """Addresses under the table's prefixes (random host bits), plus a few
    uniformly random ones."""
    rng = np.random.default_rng(seed)
    prefixes = table.prefixes()
    width = table.width

    def bits():
        return int.from_bytes(rng.bytes(width // 8), "big")

    pool = []
    for _ in range(size):
        p = prefixes[int(rng.integers(len(prefixes)))]
        pool.append(p.value | bits() % (1 << (width - p.length)))
    return pool + [bits() for _ in range(2)]


@st.composite
def scenarios(draw, width):
    table = TABLES[width]
    n_lcs = draw(st.integers(1, 6))
    cache = draw(
        st.one_of(
            st.none(),
            st.builds(
                CacheConfig,
                n_blocks=st.sampled_from([8, 16, 32]),
                associativity=st.sampled_from([2, 4]),
                mix=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                policy=st.sampled_from(["lru", "fifo", "random"]),
                victim_blocks=st.sampled_from([0, 4]),
                index=st.sampled_from(["mod", "xor"]),
            ),
        )
    )
    config = SpalConfig(
        n_lcs=n_lcs,
        cache=cache,
        replicas=draw(st.integers(1, min(2, n_lcs))),
        early_recording=draw(st.booleans()),
        cache_remote_results=draw(st.booleans()),
        fabric=draw(st.sampled_from(["default", "bus", "crossbar"])),
    )
    policy = draw(st.sampled_from(["flush", "selective", "rem"]))
    pool = address_pool(
        table, draw(st.integers(0, 1000)), draw(st.sampled_from([6, 12, 24]))
    )
    # Prefixes present as the steps are drawn, so every withdrawal names
    # a route the table holds at that point.
    present = set(table.prefixes())
    steps = []
    for _ in range(draw(st.integers(1, 80))):
        kind = draw(st.sampled_from(
            ["lookup"] * 24 + ["fail", "recover", "announce", "withdraw"]
        ))
        if kind == "lookup":
            steps.append(("lookup", draw(st.integers(0, n_lcs - 1)),
                          draw(st.sampled_from(pool))))
        elif kind in ("fail", "recover"):
            steps.append((kind, draw(st.integers(0, n_lcs - 1))))
        elif kind == "announce":
            address = draw(st.sampled_from(pool))
            length = draw(st.integers(1, min(width, 40)))
            shift = width - length
            prefix = Prefix((address >> shift) << shift, length, width)
            steps.append(("update", prefix, draw(st.integers(1, 60))))
            present.add(prefix)
        elif present:
            prefix = draw(st.sampled_from(sorted(
                present, key=lambda p: (p.value, p.length)
            )))
            steps.append(("update", prefix, None))
            present.discard(prefix)
    return dict(
        table=table,
        config=config,
        policy=policy,
        matcher=draw(st.sampled_from(MATCHERS[width])),
        steps=steps,
    )


def drive_router(scenario):
    """Run the steps through the router; return what the simulator needs
    to replay them and the hop the router served each arrival."""
    config = scenario["config"]
    router = SpalRouter(
        scenario["table"].copy(), config, matcher_factory=scenario["matcher"]
    )
    plan = router.plan
    faults = FaultSchedule()
    churn = ChurnSchedule()
    arrivals = {lc: ([], []) for lc in range(config.n_lcs)}
    served = {}
    cycle = 0
    for step in scenario["steps"]:
        cycle += GAP
        kind = step[0]
        if kind == "lookup":
            _, lc, address = step
            # A dead arrival LC drops at ingress and a pattern with no
            # live holder is unreachable: neither is a served lookup.
            if lc in plan.failed_lcs or not plan.live_replicas(address):
                continue
            served[cycle] = router.lookup(address, lc)
            arrivals[lc][0].append(cycle)
            arrivals[lc][1].append(address)
        elif kind == "fail":
            faults.fail_lc(cycle, step[1])
            router.fail_line_card(step[1])
        elif kind == "recover":
            faults.recover_lc(cycle, step[1])
            router.recover_line_card(step[1])
        else:
            _, prefix, hop = step
            if hop is None:
                churn.withdraw(cycle, prefix)
            else:
                churn.announce(cycle, prefix, hop)
            router.apply_update(prefix, hop, invalidation=scenario["policy"])
    return router, faults, churn, arrivals, served


def run_simulator(scenario, faults, churn, arrivals):
    config = scenario["config"]
    times = {1000 + lc: np.array(t, dtype=np.int64)
             for lc, (t, _) in arrivals.items()}

    def spaced_arrivals(n_packets, speed_gbps=40, seed=0):
        assert len(times[seed]) == n_packets
        return times[seed]

    dtype = np.uint64 if scenario["table"].width <= 64 else object
    streams = [np.array(a, dtype=dtype) for _, a in arrivals.values()]
    sim = SpalSimulator(scenario["table"].copy(), config)
    with mock.patch.object(spal_sim, "arrival_times", spaced_arrivals):
        result = sim.run(
            streams, faults=faults, updates=churn,
            update_policy=scenario["policy"], engine="scalar",
        )
    return sim, result


def cache_contents(cache):
    """Every resident entry as address → (next hop, LOC/REM)."""
    out = {}
    for address in cache.resident_addresses():
        entry = cache.peek(address)
        out[address] = (entry.next_hop, entry.mix)
    return out


def assert_router_matches_simulator(scenario):
    router, faults, churn, arrivals, served = drive_router(scenario)
    if not served:
        return  # nothing to simulate: every lookup hit a dead card
    sim, result = run_simulator(scenario, faults, churn, arrivals)
    assert result.packets == len(served)
    assert not sim.dropped_packets
    assert {p.arrival_time: p.served for p in sim.completed} == served
    assert result.fe_lookups == router.fe_lookups
    assert result.fabric_messages == router.fabric.messages
    for lc, (sim_cache, router_cache) in enumerate(
        zip(sim.caches, router.caches)
    ):
        if sim_cache is None:
            assert router_cache is None
            continue
        assert router_cache.stats == sim_cache.stats, f"LC {lc}"
        assert router_cache.occupancy() == sim_cache.occupancy(), f"LC {lc}"
        assert cache_contents(router_cache) == cache_contents(sim_cache), (
            f"LC {lc}"
        )


def test_conflicts_and_victim_hits_match():
    """A curated case the random draws reach rarely: more hot addresses
    than one 2-way set holds, on both LCs, with a victim cache, so LOC and
    REM entries evict each other and come back as victim hits."""
    table = TABLES[32]
    config = SpalConfig(
        n_lcs=2, cache=CacheConfig(n_blocks=8, associativity=2,
                                   victim_blocks=4),
    )
    # The table's prefixes are at most /24, so these addresses are all
    # multiples of 4: they share set 0 of the 4-set ("mod") cache.
    hot = [p.value | 0x40 for p in table.prefixes()[:6]]
    steps = [("lookup", i % 2, hot[(i * 5) // 3 % len(hot)])
             for i in range(60)]
    scenario = dict(table=table, config=config, policy="selective",
                    matcher=LuleaTrie, steps=steps)
    router = drive_router(scenario)[0]
    assert sum(c.stats.evictions for c in router.caches) > 0
    assert sum(c.stats.victim_hits for c in router.caches) > 0
    assert_router_matches_simulator(scenario)


@pytest.mark.parametrize("width", [32, 128])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_router_matches_simulator(width, data):
    assert_router_matches_simulator(data.draw(scenarios(width)))
