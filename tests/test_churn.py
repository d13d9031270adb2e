"""Tests for the live route-churn pipeline: schedule generation, the
incremental matcher updates, staleness-free cache invalidation, and the
cycle-interleaved simulator path."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CacheConfig, SpalConfig, SpalRouter
from repro.errors import SimulationError, TrieError
from repro.obs import Tracer
from repro.routing import (
    ChurnSchedule,
    Prefix,
    RoutingTable,
    generate_churn,
    random_small_table,
)
from repro.sim import SpalSimulator
from repro.traffic import FlowPopulation, TraceSpec, generate_router_streams
from repro.tries import (
    BinaryTrie,
    DPTrie,
    HashReferenceMatcher,
    LCTrie,
    LuleaTrie,
    UpdateResult,
)


@pytest.fixture(scope="module")
def table():
    return random_small_table(300, seed=33)


def streams_for(table, n_lcs, n_packets, seed=1):
    spec = TraceSpec("churn-test", n_flows=400, seed=seed, recency=0.3)
    pop = FlowPopulation(spec, table)
    return generate_router_streams(pop, n_lcs, n_packets)


class TestChurnGenerator:
    def test_deterministic(self, table):
        a = generate_churn(table, 50_000, 100_000, seed=4)
        b = generate_churn(table, 50_000, 100_000, seed=4)
        assert [(e.cycle, e.update) for e in a] == [
            (e.cycle, e.update) for e in b
        ]

    def test_mean_rate_matches_request(self, table):
        horizon = 1_000_000
        sched = generate_churn(table, 100_000, horizon, seed=2)
        assert sched.mean_rate_per_second(horizon) == pytest.approx(
            100_000, rel=0.01
        )

    def test_bursty_not_uniform(self, table):
        """Inter-event gaps must be bimodal: tight intra-burst spacing
        plus long quiet gaps — not a uniform drizzle."""
        sched = generate_churn(
            table, 200_000, 2_000_000, seed=5, burst_mean=8.0
        )
        cycles = [e.cycle for e in sched]
        gaps = np.diff(cycles)
        assert len(gaps) > 50
        tight = (gaps <= 400).sum()
        loose = (gaps > 4_000).sum()
        assert tight > len(gaps) // 2   # bursts dominate event count
        assert loose > 0                # separated by quiet gaps

    def test_validates_and_applies_in_order(self, table):
        horizon = 500_000
        sched = generate_churn(table, 100_000, horizon, seed=6)
        sched.validate(table)  # must not raise
        work = table.copy()
        for ev in sched:
            if ev.next_hop is None:
                work.remove(ev.prefix)
            else:
                work.update(ev.prefix, ev.next_hop)

    def test_builder_and_validation_errors(self, table):
        sched = (
            ChurnSchedule()
            .announce(100, Prefix.from_string("10.0.0.0/8"), 3)
            .withdraw(200, Prefix.from_string("10.0.0.0/8"))
        )
        assert len(sched) == 2
        sched.validate(table)
        bad = ChurnSchedule().withdraw(50, Prefix.from_string("99.0.0.0/8"))
        with pytest.raises(ValueError):
            bad.validate(table)
        with pytest.raises(ValueError):
            generate_churn(table, -1, 1000)
        with pytest.raises(ValueError):
            generate_churn(table, 100, 0)


@st.composite
def prefixes(draw, width=32):
    length = draw(st.integers(0, width))
    value = draw(st.integers(0, (1 << width) - 1))
    mask = ((1 << length) - 1) << (width - length) if length else 0
    return Prefix(value & mask, length, width)


@st.composite
def interleavings(draw, width=32):
    """A base table plus a mixed sequence of updates and lookups."""
    base = draw(
        st.lists(
            st.tuples(prefixes(width), st.integers(0, 63)),
            min_size=1,
            max_size=25,
        )
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("update"),
                    prefixes(width),
                    st.integers(0, 63),
                ),
                st.tuples(
                    st.just("lookup"),
                    st.integers(0, (1 << width) - 1),
                    st.none(),
                ),
            ),
            max_size=30,
        )
    )
    return base, ops


class TestInterleavedUpdateProperty:
    @settings(max_examples=60, deadline=None)
    @given(interleavings())
    def test_matchers_agree_with_final_table_oracle(self, data):
        """After any interleaved update/lookup sequence, every matcher
        agrees with a reference oracle rebuilt from the final table."""
        base, ops = data
        table = RoutingTable(32)
        for prefix, hop in base:
            table.update(prefix, hop)
        final = table.copy()
        matchers = [
            BinaryTrie(table),
            DPTrie(table),
            LuleaTrie(table),
            LCTrie(table),
            HashReferenceMatcher(table),
        ]
        probes = []
        for op in ops:
            if op[0] == "update":
                _, prefix, hop = op
                final.update(prefix, hop)
                for m in matchers:
                    res = m.apply_update(prefix, hop)
                    assert isinstance(res, UpdateResult)
                    assert res.kind in ("patch", "rebuild")
                    assert res.service_cycles > 0
            else:
                probes.append(op[1])
        # Mid-sequence probes plus a final sweep over collected addresses
        # and every route's first address.
        probes.extend(p.first_address() for p, _ in base)
        oracle = HashReferenceMatcher(final)
        for addr in probes:
            expected = oracle.lookup(addr)
            for m in matchers:
                assert m.lookup(addr) == expected, type(m).__name__

    @settings(max_examples=30, deadline=None)
    @given(interleavings())
    def test_withdrawals_interleave_cleanly(self, data):
        """Announce-then-withdraw sequences keep matchers oracle-exact."""
        base, ops = data
        table = RoutingTable(32)
        for prefix, hop in base:
            table.update(prefix, hop)
        final = table.copy()
        matchers = [LuleaTrie(table), LCTrie(table)]
        for op in ops:
            if op[0] != "update":
                continue
            _, prefix, hop = op
            final.update(prefix, hop)
            for m in matchers:
                m.apply_update(prefix, hop)
            # Withdraw every other announced prefix straight away.
            if hop % 2 == 0 and prefix in final:
                final.remove(prefix)
                for m in matchers:
                    m.apply_update(prefix, None)
        oracle = HashReferenceMatcher(final)
        for p, _ in base:
            addr = p.first_address()
            for m in matchers:
                assert m.lookup(addr) == oracle.lookup(addr)


class TestIncrementalStructures:
    def test_lulea_patches_deep_and_rebuilds_shallow(self, table):
        trie = LuleaTrie(table)
        # A deep update inside a 16-bit group that already holds deep
        # routes patches just that group's chunk; the *first* deep route
        # of a group (and any shallow update) restructures level 1 and
        # rebuilds.
        seeded = next(p for p, _ in table.routes() if p.length > 24)
        deep = Prefix(seeded.value >> 8 << 8, 24, 32)
        res = trie.apply_update(deep, 7)
        assert res.kind == "patch"
        assert trie.lookup(deep.first_address()) == 7
        shallow = Prefix.from_string("10.0.0.0/8")
        res2 = trie.apply_update(shallow, 9)
        assert res2.kind == "rebuild"
        assert trie.update_patches >= 1
        assert trie.update_rebuilds >= 1

    def test_lulea_leak_threshold_forces_rebuild(self, table):
        trie = LuleaTrie(table)
        trie.rebuild_threshold = 0.0  # any leaked chunk trips the limit
        p = Prefix.from_string("10.20.0.0/24")
        trie.apply_update(p, 5)
        kinds = set()
        for i in range(24):
            r = trie.apply_update(Prefix.from_string(f"10.20.{i}.0/24"), i)
            kinds.add(r.kind)
            if r.kind == "rebuild":
                break
        assert "rebuild" in kinds  # threshold 0 forces compaction
        assert trie.leaked_chunks == 0  # a rebuild clears the leak count

    def test_lulea_withdraw_absent_raises(self, table):
        trie = LuleaTrie(table)
        with pytest.raises(TrieError):
            trie.apply_update(Prefix.from_string("250.1.2.0/24"), None)

    def test_lc_trie_patches_next_hop_change(self, table):
        trie = LCTrie(table)
        # A maximal-length route: its first address has no longer match,
        # so the patched hop is observable via lookup.
        prefix, old_hop = max(table.routes(), key=lambda r: r[0].length)
        res = trie.apply_update(prefix, old_hop + 1)
        assert res.kind == "patch"
        assert trie.lookup(prefix.first_address()) == old_hop + 1
        res2 = trie.apply_update(Prefix.from_string("1.2.3.0/24"), 5)
        assert res2.kind == "rebuild"
        assert trie.lookup(Prefix.from_string("1.2.3.0/24").first_address()) == 5

    def test_service_cycles_model(self):
        r = UpdateResult("patch", 10)
        assert r.service_ns == pytest.approx(10 * 12.0 + 120.0)
        assert r.service_cycles == 48  # ceil(240 / 5)


class TestRouterInvalidation:
    def _warm_router(self, table, policy_table=None):
        router = SpalRouter(
            table.copy(),
            SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256)),
        )
        return router

    def test_selective_never_serves_stale_loc_or_rem(self, table):
        """The regression the selective policy must pass: warm LOC and REM
        entries under a prefix, update its next hop, and every subsequent
        lookup must see the new hop — from any arrival LC."""
        router = self._warm_router(table)
        prefix = Prefix.from_string("10.0.0.0/8")
        addr = 0x0A010203
        # Warm from two LCs: one gets a LOC or REM entry, the other a REM.
        before = [router.lookup(addr, lc) for lc in range(4)]
        assert len(set(before)) == 1
        new_hop = (before[0] + 1) % 60
        router.apply_update(prefix, new_hop, invalidation="selective")
        after = [router.lookup(addr, lc) for lc in range(4)]
        assert after == [new_hop] * 4

    def test_rem_policy_also_stale_free_and_narrower(self, table):
        router = self._warm_router(table)
        prefix = Prefix.from_string("10.0.0.0/8")
        addr = 0x0A010203
        miss_addr = 0xC0A80101
        for lc in range(4):
            router.lookup(addr, lc)
            router.lookup(miss_addr, lc)
        new_hop = (router.lookup(addr, 0) + 1) % 60
        router.apply_update(prefix, new_hop, invalidation="rem")
        assert [router.lookup(addr, lc) for lc in range(4)] == [new_hop] * 4
        # Unrelated entries survive at every LC (selectivity).
        assert any(
            lc.cache.peek(miss_addr) is not None for lc in router.line_cards
        )

    def test_incremental_stats_accumulate(self, table):
        router = self._warm_router(table)
        router.apply_update(
            Prefix.from_string("10.1.2.0/24"), 3, invalidation="selective"
        )
        stats = router.stats
        assert stats.updates == 1
        assert stats.update_patches + stats.update_rebuilds >= 1
        assert stats.update_service_cycles > 0
        snap = router.metrics_snapshot()
        assert snap["router.updates"] == 1
        assert "router.update_service_cycles" in snap


class TestSimulatorChurn:
    def _run(self, table, updates=None, policy="selective", verify=True,
             n_packets=1500, registry=None, trace=None):
        config = SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256))
        sim = SpalSimulator(
            table, config, verify=verify, registry=registry, trace=trace
        )
        streams = streams_for(table, 4, n_packets)
        kwargs = {}
        if updates is not None:
            kwargs["updates"] = updates
            kwargs["update_policy"] = policy
        return sim, sim.run(streams, speed_gbps=10, **kwargs)

    def test_zero_update_runs_bit_identical(self, table):
        _, base = self._run(table)
        _, empty = self._run(table, updates=ChurnSchedule())
        assert np.array_equal(base.latencies, empty.latencies)
        assert base.summary() == empty.summary()
        assert base.metrics_snapshot == empty.metrics_snapshot

    def test_zero_update_bit_identity_survives_fast_path_off(
        self, table, fast_path_bit_identity
    ):
        """Exercised in subprocesses (via the shared conftest helper) so
        REPRO_BATCH=0 is seen at import."""
        fast_path_bit_identity(subprocess_code=(
            "import numpy as np\n"
            "from repro.core import CacheConfig, SpalConfig\n"
            "from repro.routing import random_small_table\n"
            "from repro.sim import SpalSimulator\n"
            "from repro.traffic import FlowPopulation, TraceSpec, "
            "generate_router_streams\n"
            "table = random_small_table(300, seed=33)\n"
            "spec = TraceSpec('churn-test', n_flows=400, seed=1, recency=0.3)\n"
            "streams = generate_router_streams("
            "FlowPopulation(spec, table), 4, 800)\n"
            "cfg = SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256))\n"
            "sim = SpalSimulator(table, cfg)\n"
            "res = sim.run(streams, speed_gbps=10)\n"
            "print(res.packets, round(res.mean_lookup_cycles, 6), "
            "res.horizon_cycles, res.fabric_messages)\n"
        ))

    def test_churn_run_is_deterministic_and_oracle_verified(self, table):
        horizon = 150_000
        updates = generate_churn(table, 100_000, horizon, seed=9)
        assert len(updates) > 0
        _, a = self._run(table, updates=updates, policy="selective")
        updates2 = generate_churn(table, 100_000, horizon, seed=9)
        _, b = self._run(table, updates=updates2, policy="selective")
        # verify=True already oracle-checked every FE result in both runs.
        assert np.array_equal(a.latencies, b.latencies)
        assert a.summary() == b.summary()
        assert a.update_events_applied == len(updates)
        assert a.update_service_cycles > 0
        assert a.invalidation_messages > 0

    def test_selective_never_serves_stale_hop_end_to_end(self, table):
        """Every packet's *served* next hop must match an oracle replayed
        over the update timeline at its completion cycle — through LOC
        hits, REM hits, waiting lists and fabric replies."""
        horizon = 150_000
        updates = generate_churn(table, 200_000, horizon, seed=11)
        for policy in ("selective", "rem"):
            sched = generate_churn(table, 200_000, horizon, seed=11)
            tr = Tracer()
            _, res = self._run(table, updates=sched, policy=policy, trace=tr)
            events = sorted(updates.events(), key=lambda e: e.cycle)
            # The packets as the engine saw them: ``ingress`` records give
            # each packet's destination and arrival cycle, ``complete``
            # records its completion cycle and served next hop.
            ingress = {e["pid"]: e for e in tr if e["name"] == "ingress"}
            done = sorted(
                (
                    (e["cycle"], ingress[e["pid"]]["dest"],
                     ingress[e["pid"]]["cycle"], e["hop"])
                    for e in tr
                    if e["name"] == "complete"
                ),
                key=lambda d: d[0],
            )
            assert len(done) == res.packets
            # Replay: oracle state as a function of cycle.
            oracle = HashReferenceMatcher(table)
            idx = 0
            for complete_time, dest, arrival_time, served in done:
                while idx < len(events) and events[idx].cycle < complete_time:
                    oracle.apply_update(
                        events[idx].prefix, events[idx].next_hop
                    )
                    idx += 1
                # The served hop must be the oracle answer at *some* cycle
                # in [arrival, completion] — the update may land mid-flight.
                want_now = oracle.lookup(dest)
                if served != want_now:
                    # Tolerate a hop read legitimately before an update
                    # that landed while the packet was in flight.
                    pre = HashReferenceMatcher(table)
                    for ev in events:
                        if ev.cycle >= arrival_time:
                            break
                        pre.apply_update(ev.prefix, ev.next_hop)
                    valid = {want_now, pre.lookup(dest)}
                    mid = HashReferenceMatcher(table)
                    for ev in events:
                        if ev.cycle > complete_time:
                            break
                        mid.apply_update(ev.prefix, ev.next_hop)
                        valid.add(mid.lookup(dest))
                    assert served in valid, (
                        f"stale hop for {dest:#x} under {policy}"
                    )

    def test_flush_policy_costs_more_than_selective(self, table):
        horizon = 150_000
        runs = {}
        for policy in ("flush", "selective"):
            sched = generate_churn(table, 300_000, horizon, seed=13)
            _, runs[policy] = self._run(table, updates=sched, policy=policy)
        assert (
            runs["selective"].mean_lookup_cycles
            <= runs["flush"].mean_lookup_cycles
        )
        assert runs["selective"].churn_misses <= runs["flush"].churn_misses
        assert (
            runs["selective"].invalidation_entries_dropped
            < runs["flush"].invalidation_entries_dropped
        )

    def test_churn_metrics_in_registry_and_summary(self, table):
        from repro.obs import MetricsRegistry

        horizon = 150_000
        sched = generate_churn(table, 200_000, horizon, seed=15)
        reg = MetricsRegistry()
        _, res = self._run(table, updates=sched, registry=reg)
        snap = res.metrics_snapshot
        assert snap["sim.updates.applied"] == res.update_events_applied
        assert (
            snap["sim.updates.service_cycles"] == res.update_service_cycles
        )
        assert snap["sim.updates.invalidation_msgs"] == (
            res.invalidation_messages
        )
        s = res.summary()
        assert s["updates_applied"] == res.update_events_applied
        assert "churn_misses" in s

    def test_churn_events_traced(self, table):
        from repro.obs import Tracer

        horizon = 150_000
        sched = generate_churn(table, 200_000, horizon, seed=17)
        tracer = Tracer(enabled=True)
        _, res = self._run(table, updates=sched, trace=tracer)
        kinds = {ev["name"] for ev in tracer.events}
        assert "update" in kinds
        assert res.update_events_applied > 0

    def test_requires_partitioned_and_valid_policy(self, table):
        sched = ChurnSchedule().announce(
            100, Prefix.from_string("10.0.0.0/8"), 1
        )
        config = SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64))
        sim = SpalSimulator(table, config, partitioned=False)
        streams = streams_for(table, 2, 200)
        with pytest.raises(SimulationError):
            sim.run(streams, updates=sched)
        sim2 = SpalSimulator(table, config)
        with pytest.raises(SimulationError):
            sim2.run(streams, updates=sched, update_policy="sometimes")

    def test_injected_plan_and_matchers_untouched(self, table):
        from repro.core.partition import partition_table

        plan = partition_table(table, 4)
        sizes = plan.partition_sizes()
        matchers = [HashReferenceMatcher(t) for t in plan.tables]
        probe = 0x0A000001
        before = [m.lookup(probe) for m in matchers]
        config = SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256))
        sim = SpalSimulator(table, config, plan=plan, matchers=matchers)
        sched = generate_churn(table, 200_000, 150_000, seed=19)
        sim.run(streams_for(table, 4, 800), speed_gbps=10, updates=sched)
        assert plan.partition_sizes() == sizes
        assert [m.lookup(probe) for m in matchers] == before
