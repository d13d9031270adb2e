"""Tests for the live route-churn pipeline: schedule generation, the
incremental matcher updates, staleness-free cache invalidation, and the
cycle-interleaved simulator path."""


import random
from array import array
from itertools import compress, count

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CacheConfig, SpalConfig, SpalRouter
from repro.errors import ChurnScheduleError, SimulationError, TrieError
from repro.obs import Tracer
from repro.routing import (
    ArrayRoutingTable,
    ChurnSchedule,
    Prefix,
    RoutingTable,
    generate_churn,
    random_small_table,
    table_columns,
)
from repro.sim import SpalSimulator
from repro.sim.array_engine import _ids_under
from repro.traffic import FlowPopulation, TraceSpec, generate_router_streams
from repro.tries import (
    BinaryTrie,
    DPTrie,
    HashReferenceMatcher,
    LCTrie,
    LuleaTrie,
    UpdateResult,
)

from .conftest import result_digest


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

    @pytest.mark.parametrize("columnar", [True, False])
    def test_validation_reads_only_the_scheduled_prefixes(self, columnar):
        """Withdrawals are checked against earlier events, then the table's
        exact-match index; no route is enumerated."""

        class Unlisted(ArrayRoutingTable if columnar else RoutingTable):
            def routes(self):
                raise AssertionError("validate enumerated the table")

            prefixes = __iter__ = routes

        routes = [("10.0.0.0/8", 1), ("11.0.0.0/8", 2)]
        if columnar:
            table = Unlisted(
                *table_columns(RoutingTable.from_strings(routes)), 32
            )
        else:
            table = Unlisted(32)
            for text, hop in routes:
                table.update(Prefix.from_string(text), hop)
        p10, p11, p12 = (
            Prefix.from_string(f"{n}.0.0.0/8") for n in (10, 11, 12)
        )
        ok = (
            ChurnSchedule()
            .withdraw(1, p10)
            .announce(2, p10, 5)
            .withdraw(3, p10)
            .announce(4, p12, 6)
            .withdraw(5, p12)
            .withdraw(6, p11)
        )
        ok.validate(table)
        assert len(table) == 2
        for bad in (
            ChurnSchedule().withdraw(1, p10).withdraw(2, p10),
            ChurnSchedule().announce(1, p12, 3).withdraw(2, p12)
            .withdraw(3, p12),
            ChurnSchedule().withdraw(1, p12),
        ):
            with pytest.raises(ValueError, match="withdrawal of absent"):
                bad.validate(table)
        wide = ChurnSchedule().announce(1, Prefix(0, 0, 128), 1)
        with pytest.raises(ValueError, match="width"):
            wide.validate(table)

    @pytest.mark.parametrize("bad", ["withdraw_absent", "width"])
    def test_one_error_type_minimised_or_not(self, table, bad):
        """One bad schedule raises one error type on both paths: checked
        by ``ChurnSchedule.validate`` on a plain simulator and by the
        translation onto the minimised table on a minimised one."""
        absent = Prefix.from_string("203.0.113.0/24")
        assert absent not in table
        schedule = (
            ChurnSchedule().announce(50, Prefix.from_string("10.0.0.0/8"), 3)
            .withdraw(100, absent)
            if bad == "withdraw_absent"
            else ChurnSchedule().announce(100, Prefix(0, 0, 128), 1)
        )
        streams = streams_for(table, 2, 50)
        for minimize in (None, "full"):
            sim = SpalSimulator(
                table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64),
                                  minimize=minimize)
            )
            with pytest.raises(ChurnScheduleError, match="cycle 100"):
                sim.run([s.copy() for s in streams], updates=schedule)
        # Still a ValueError, as the older checks expect.
        assert issubclass(ChurnScheduleError, ValueError)


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


def pool_scan(e_addr, value, span):
    """The entry-pool scan the range query replaces: every id whose
    address lies under the prefix, in id order."""
    return list(compress(
        count(), map(span.__gt__, map(value.__xor__, e_addr))
    ))


def build_pool(ops, kshift):
    """An entry pool as the array engine grows it: ``(addr, slot)`` ops
    append a new id (``slot`` None) or overwrite a recycled one."""
    e_addr = []
    e_key = array("Q")
    for addr, slot in ops:
        if slot is None or not e_addr:
            e_addr.append(addr)
            e_key.append(addr >> kshift)
        else:
            e = slot % len(e_addr)
            e_addr[e] = addr
            e_key[e] = addr >> kshift
    return e_addr, e_key


#: Prefix lengths where the key column's high-word test changes shape:
#: the whole space, one bit, the 64-bit /0 key-span overflow, either side
#: of the 64-bit word boundary, and full length.
CORNER_LENGTHS = (0, 1, 63, 64, 65)


@st.composite
def pooled_queries(draw):
    """A prefix of a drawn width plus an entry pool (with recycled ids)
    whose addresses sit under it, one bit outside it, or anywhere."""
    width = draw(st.sampled_from([32, 64, 128]))
    length = draw(st.one_of(
        st.sampled_from(
            [n for n in CORNER_LENGTHS if n <= width] + [width]
        ),
        st.integers(0, width),
    ))
    host = width - length
    value = (draw(st.integers(0, (1 << width) - 1)) >> host) << host
    addrs = st.one_of(
        st.integers(0, (1 << host) - 1).map(value.__or__),
        st.integers(0, width - 1).map(lambda b: value ^ (1 << b)),
        st.integers(0, (1 << width) - 1),
    )
    ops = draw(st.lists(
        st.tuples(addrs, st.none() | st.integers(0, 1 << 16)),
        max_size=60,
    ))
    return Prefix(value, length, width), ops


class TestIdsUnder:
    """``_ids_under`` — the vector range query behind the array engine's
    churn invalidation — returns exactly the old pool scan's ids."""

    @settings(deadline=None)
    @given(pooled_queries())
    def test_matches_pool_scan(self, query):
        prefix, ops = query
        kshift = max(0, prefix.width - 64)
        e_addr, e_key = build_pool(ops, kshift)
        span = 1 << (prefix.width - prefix.length)
        got = _ids_under(e_key, e_addr, prefix.value, span, kshift)
        assert got == pool_scan(e_addr, prefix.value, span)
        # The query leaves no view exported over the key column.
        e_key.append(0)

    @pytest.mark.parametrize("width,length", [
        (width, length)
        for width in (32, 64, 128)
        for length in CORNER_LENGTHS + (width,)
        if length <= width
    ])
    def test_corner_lengths(self, width, length):
        kshift = max(0, width - 64)
        rng = random.Random(width * 100 + length)
        host = width - length
        value = (rng.getrandbits(width) >> host) << host
        ops = []
        for i in range(200):
            anywhere = rng.getrandbits(width)
            under = value | (anywhere & ((1 << host) - 1))
            outside = value ^ (1 << (i % width))
            addr = (under, outside, anywhere)[i % 3]
            # Every fifth op recycles an earlier id.
            ops.append((addr, i if i % 5 == 4 else None))
        e_addr, e_key = build_pool(ops, kshift)
        span = 1 << host
        want = pool_scan(e_addr, value, span)
        assert want, "the pool must hold addresses under the prefix"
        assert _ids_under(e_key, e_addr, value, span, kshift) == want


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
            cache.peek(miss_addr) is not None for cache in router.caches
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
             n_packets=1500, registry=None, trace=None, engine="array"):
        config = SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256))
        sim = SpalSimulator(
            table, config, verify=verify, registry=registry, trace=trace
        )
        streams = streams_for(table, 4, n_packets)
        kwargs = {}
        if updates is not None:
            kwargs["updates"] = updates
            kwargs["update_policy"] = policy
        return sim, sim.run(streams, speed_gbps=10, engine=engine, **kwargs)

    def test_zero_update_runs_bit_identical(self, table):
        _, base = self._run(table)
        _, empty = self._run(table, updates=ChurnSchedule())
        assert np.array_equal(base.latencies, empty.latencies)
        assert base.summary() == empty.summary()
        assert base.metrics_snapshot == empty.metrics_snapshot

    def test_zero_update_bit_identity_survives_fast_path_off(self, table):
        """A zero-update run is bit-identical on the scalar loop and the
        array engine, with an empty schedule or none."""
        base = result_digest(self._run(table)[1])
        for engine in ("array", "scalar"):
            for updates in (None, ChurnSchedule()):
                _, r = self._run(table, updates=updates, engine=engine)
                assert result_digest(r) == base

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
        # The policy is checked unconditionally: with nothing to apply ...
        sim3 = SpalSimulator(table, config)
        with pytest.raises(SimulationError):
            sim3.run(streams, updates=ChurnSchedule(),
                     update_policy="sometimes")
        # ... and before a minimised run translates its schedule.
        sim4 = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64),
                              minimize="full")
        )

        def translate(schedule):
            pytest.fail("schedule translated before the policy check")

        sim4._minimize_state.translate_schedule = translate
        with pytest.raises(SimulationError):
            sim4.run(streams, updates=sched, update_policy="sometimes")

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
