"""Tests for the FIB-minimisation pipeline (routing.minimize).

The equivalence contract is the whole point: every pass set must preserve
the longest-prefix-match function exactly — against the dict table, against
all five matcher structures, through the partition plan, under churn, and
through a full simulation replay.  The recursive ORTC constructor
(``_aggregate_table_recursive``) serves as the independent oracle for
*minimality*: the array pipeline must reproduce its output bit for bit.
The scalar walks in ``tests/minimize_oracle.py`` are the oracle for the
columnar passes: every pass and pass set must reproduce them entry for
entry.  Its ``DictChurnOracle`` (the churn state as key dicts) is the
oracle for churn: ``apply_update`` and ``translate_schedule`` must
reproduce it op for op at widths 32 and 128.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import (
    ArrayRoutingTable,
    Prefix,
    RoutingTable,
    random_small_table,
)
from repro.routing.churn import ChurnEvent, ChurnSchedule, generate_churn
from repro.routing.minimize import (
    PASS_SETS,
    minimization_ratio,
    minimize_table,
    ordered_covering,
    ortc_table,
    remove_default_routes,
)
from repro.routing.table import NO_ROUTE, TableError
from repro.routing.updates import RouteUpdate
from repro.tries import (
    BinaryTrie,
    HashReferenceMatcher,
    LCTrie,
    LuleaTrie,
    MultibitTrie,
)

from .minimize_oracle import (
    DictChurnOracle,
    entries_of,
    scalar_minimize,
    scalar_pass,
)
from .ortc_oracle import _aggregate_table_recursive

MATCHERS = (BinaryTrie, LCTrie, LuleaTrie, MultibitTrie, HashReferenceMatcher)


def probe_addresses(table, rng, n_extra=60):
    """Prefix boundaries plus random addresses — the discriminating set."""
    width = table.width
    addrs = set()
    for p in table.prefixes():
        addrs.add(p.value)
        addrs.add(p.last_address())
        if p.length < width:
            addrs.add(p.value | (1 << (width - p.length - 1)))
    for a in rng.integers(0, 1 << min(width, 63), size=n_extra):
        addrs.add(int(a))
    return sorted(addrs)


def assert_equivalent(original, candidate, addrs):
    for a in addrs:
        assert candidate.lookup(a) == original.lookup(a), hex(a)


def assert_state_holds(state, original, minimized):
    """``state``'s churn state holds exactly these sorted entries, whatever
    its layout: its original table, its minimised table and their sizes."""
    assert entries_of(state.original_table()) == original
    assert sorted(entries_of(state.table)) == minimized
    assert state.original_routes == len(original)
    assert state.minimized_routes == len(minimized)


@st.composite
def tables(draw, width=32, max_routes=22, max_length=None):
    """Random tables with hops drawn from an alphabet of 1–150 hops; with
    enough routes, past 64 distinct hops, the candidate masks need a
    second 64-bit word."""
    if max_length is None:
        max_length = min(width, 12)
    n_hops = draw(st.integers(1, 150))
    size = draw(st.integers(0, max_routes))
    routes = draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << width) - 1),
                st.integers(0, max_length),
                st.integers(0, n_hops - 1),
            ),
            min_size=size,
            max_size=size,
        )
    )
    table = RoutingTable(width)
    for value, length, hop in routes:
        mask = ((1 << length) - 1) << (width - length) if length else 0
        table.update(Prefix(value & mask, length, width), hop)
    return table


@st.composite
def oracle_tables(draw):
    """IPv4 or IPv6 tables, array- or dict-backed, with default routes,
    full-length prefixes, explicit null routes, deep chains along a few
    shared paths and hop alphabets of up to 150 hops."""
    width = draw(st.sampled_from([32, 128]))
    n_hops = draw(st.integers(1, 150))
    paths = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=4)
    )
    route = st.tuples(
        st.one_of(st.sampled_from(paths), st.integers(0, (1 << width) - 1)),
        st.one_of(
            st.integers(0, width), st.sampled_from([0, 1, width - 1, width])
        ),
        st.integers(NO_ROUTE, n_hops - 1),
    )
    # Hypothesis alone rarely draws more than 64 distinct hops: an explicit
    # size, and optionally hops dealt round-robin, get past one mask word.
    size = draw(st.one_of(st.integers(0, 40), st.integers(100, 160)))
    routes = draw(st.lists(route, min_size=size, max_size=size))
    dealt = draw(st.booleans())
    unique = {}
    for i, (value, length, hop) in enumerate(routes):
        mask = ((1 << length) - 1) << (width - length) if length else 0
        unique[(value & mask, length)] = i % n_hops if dealt else hop
    if draw(st.booleans()):
        return ArrayRoutingTable(
            [v for v, _ in unique],
            np.array([l for _, l in unique], dtype=np.int64),
            np.array(list(unique.values()), dtype=np.int64),
            width,
        )
    table = RoutingTable(width)
    for (value, length), hop in unique.items():
        table.update(Prefix(value, length, width), hop)
    return table


@st.composite
def churn_cases(draw):
    """``(table, updates, mode)`` at width 32 or 128: an applicable update
    sequence that withdraws and re-announces keys, changes the hop of base
    keys, announces and withdraws the default route, and announces fresh
    prefixes along a few shared paths (so regions nest and overlap)."""
    width = draw(st.sampled_from([32, 128]))
    hop = st.integers(NO_ROUTE, draw(st.integers(0, 6)))
    paths = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=3)
    )

    def fresh():
        value = draw(st.one_of(st.sampled_from(paths),
                               st.integers(0, (1 << width) - 1)))
        length = draw(st.one_of(st.integers(0, width),
                                st.sampled_from([1, 8, width - 1, width])))
        mask = ((1 << length) - 1) << (width - length) if length else 0
        return value & mask, length

    live = {fresh(): draw(hop) for _ in range(draw(st.integers(0, 30)))}
    if draw(st.booleans()):
        table = ArrayRoutingTable(
            [v for v, _ in live],
            np.array([l for _, l in live], dtype=np.int64),
            np.array(list(live.values()), dtype=np.int64),
            width,
        )
    else:
        table = RoutingTable(width)
        for (value, length), h in live.items():
            table.update(Prefix(value, length, width), h)
    gone = []
    updates = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(
            ("withdraw", "reannounce", "modify", "default", "fresh")
        ))
        if kind == "withdraw" and live:
            key = draw(st.sampled_from(sorted(live)))
        elif kind == "reannounce" and gone:
            key = draw(st.sampled_from(gone))
        elif kind == "modify" and live:
            key = draw(st.sampled_from(sorted(live)))
        elif kind == "default":
            key = (0, 0)
            kind = "withdraw" if key in live else "fresh"
        else:
            key, kind = fresh(), "fresh"
        prefix = Prefix(key[0], key[1], width)
        if kind == "withdraw":
            del live[key]
            gone.append(key)
            updates.append(RouteUpdate(prefix, None))
        else:
            live[key] = draw(hop)
            updates.append(RouteUpdate(prefix, live[key]))
    return table, updates, draw(st.sampled_from(sorted(PASS_SETS)))


def schedule_of(updates, start=0):
    """One update every 10 cycles, from cycle ``10 * start``."""
    return ChurnSchedule(
        [ChurnEvent(10 * i, u) for i, u in enumerate(updates, start)]
    )


def wide_alphabet_table(symbols):
    """A dense IPv4 table whose alphabet, ``NO_ROUTE`` included, has
    exactly ``symbols`` symbols (each hop on three prefixes)."""
    rng = np.random.default_rng(symbols)
    n_hops = symbols - 1
    keys = set()
    while len(keys) < 3 * n_hops:
        length = int(rng.integers(1, 14))
        keys.add((int(rng.integers(0, 1 << length)) << (32 - length), length))
    hops = rng.permutation(np.arange(3 * n_hops) % n_hops).tolist()
    table = RoutingTable()
    for (value, length), hop in zip(sorted(keys), hops):
        table.update(Prefix(value, length), hop)
    assert len(set(table.next_hops()) | {NO_ROUTE}) == symbols
    return table


class TestKnownCases:
    def test_mergeable_siblings(self):
        table = RoutingTable.from_strings(
            [("10.0.0.0/9", 1), ("10.128.0.0/9", 1)]
        )
        out = minimize_table(table, "full").table
        assert len(out) == 1
        assert out.lookup(0x0A000001) == 1
        assert out.lookup(0x0B000001) == NO_ROUTE

    def test_default_route_absorbs_redundant_specifics(self):
        table = RoutingTable.from_strings(
            [("0.0.0.0/0", 7), ("10.0.0.0/8", 7), ("11.0.0.0/8", 2)]
        )
        out = remove_default_routes(table)
        assert len(out) == 2
        assert out.lookup(0x0A000001) == 7
        assert out.lookup(0x0B000001) == 2

    def test_ordered_covering_merges_and_prunes(self):
        # Sibling /9s with one hop collapse into the parent /8, whose own
        # conflicting entry is unreachable and must be replaced.
        table = RoutingTable.from_strings(
            [("10.0.0.0/8", 3), ("10.0.0.0/9", 1), ("10.128.0.0/9", 1)]
        )
        out = ordered_covering(table)
        assert len(out) == 1
        assert out.lookup(0x0A000001) == 1
        assert out.lookup(0x0AFFFFFF) == 1

    def test_null_route_emitted_for_hole(self):
        # ORTC may widen a route and must then re-open the hole with an
        # explicit null route; equivalence includes the unmatched space.
        table = RoutingTable.from_strings(
            [("10.0.0.0/9", 1), ("10.64.0.0/10", 1)]
        )
        out = ortc_table(table)
        assert out.lookup(0x0A800000) == NO_ROUTE
        assert out.lookup(0x0A000001) == 1

    def test_empty_table(self):
        for mode in PASS_SETS:
            state = minimize_table(RoutingTable(), mode)
            assert len(state.table) == 0
            assert state.stats.ratio == 1.0
        assert minimization_ratio(RoutingTable()) == 1.0

    def test_unknown_pass_set_rejected(self):
        with pytest.raises(TableError):
            minimize_table(RoutingTable(), "fastest")

    def test_stats_are_populated(self):
        table = random_small_table(300, seed=7, max_length=18)
        stats = minimize_table(table, "full").stats
        assert stats.original_routes == len(table)
        assert stats.after_pass["defaults"] >= stats.after_pass["ortc"]
        assert stats.minimized_routes == stats.after_pass["oc"]
        assert stats.ratio >= 1.0
        assert stats.build_seconds >= 0.0


class TestMinimalityOracle:
    """The array ORTC must reproduce the recursive reference exactly."""

    @given(tables(max_routes=150), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_recursive_ipv4(self, table, data):
        ref = _aggregate_table_recursive(table)
        new = ortc_table(table)
        assert sorted(ref.routes()) == sorted(new.routes())

    @given(tables(width=128, max_routes=14, max_length=16))
    @settings(max_examples=50, deadline=None)
    def test_matches_recursive_ipv6(self, table):
        ref = _aggregate_table_recursive(table)
        new = ortc_table(table)
        assert sorted(ref.routes()) == sorted(new.routes())

    def test_full_equals_ortc_size(self):
        # "full" adds cheap pre/post passes but cannot beat ORTC's
        # proven minimum — nor fall short of it.
        table = random_small_table(500, seed=11, max_length=20)
        assert len(minimize_table(table, "full").table) == len(
            ortc_table(table)
        )

    @pytest.mark.parametrize("symbols", [63, 64, 65])
    def test_wide_alphabet_matches_recursive(self, symbols):
        # Past 64 symbols, NO_ROUTE included, the candidate masks need a
        # second 64-bit word.
        table = wide_alphabet_table(symbols)
        ref = _aggregate_table_recursive(table)
        assert sorted(ref.routes()) == sorted(ortc_table(table).routes())
        for mode in PASS_SETS:
            expected, _ = scalar_minimize(table, mode)
            assert entries_of(minimize_table(table, mode).table) == expected


class TestScalarOracle:
    """The columnar passes reproduce the scalar walks of
    ``tests/minimize_oracle.py`` entry for entry, in sorted order."""

    PASS_LISTS = [("defaults",), ("ortc",), ("oc",)] + sorted(PASS_SETS)
    TRANSFORMS = (
        ("defaults", remove_default_routes),
        ("ortc", ortc_table),
        ("oc", ordered_covering),
    )

    @given(oracle_tables())
    @settings(max_examples=150, deadline=None)
    def test_columnar_passes_equal_scalar_walks(self, table):
        for passes in self.PASS_LISTS:
            expected, after = scalar_minimize(table, passes)
            state = minimize_table(table, passes)
            assert entries_of(state.table) == expected
            assert state.stats.after_pass == after
            assert_state_holds(state, sorted(entries_of(table)), expected)
        entries = entries_of(table)
        for name, transform in self.TRANSFORMS:
            assert entries_of(transform(table)) == scalar_pass(
                name, entries, table.width
            )

    def test_state_entries_equal_its_tables(self):
        table = random_small_table(200, seed=5)
        state = minimize_table(table, "full")
        expected, _ = scalar_minimize(table, "full")
        assert_state_holds(state, sorted(entries_of(table)), expected)


class TestEquivalenceProperties:
    @pytest.mark.parametrize("mode", sorted(PASS_SETS))
    @given(table=tables(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lookup_equivalence_ipv4(self, mode, table, data):
        state = minimize_table(table, mode)
        assert len(state.table) <= len(table)
        rng = np.random.default_rng(0)
        assert_equivalent(table, state.table, probe_addresses(table, rng))

    @pytest.mark.parametrize("mode", sorted(PASS_SETS))
    @given(table=tables(width=128, max_routes=12, max_length=20))
    @settings(max_examples=25, deadline=None)
    def test_lookup_equivalence_ipv6(self, mode, table):
        state = minimize_table(table, mode)
        rng = np.random.default_rng(1)
        assert_equivalent(table, state.table, probe_addresses(table, rng))

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, table):
        once = minimize_table(table, "full").table
        twice = minimize_table(once, "full").table
        assert sorted(once.routes()) == sorted(twice.routes())


class TestMatcherEquivalence:
    @pytest.mark.parametrize("factory", MATCHERS)
    def test_all_matchers_agree_on_minimized_table(self, factory):
        table = random_small_table(600, seed=23, max_length=22)
        minimized = minimize_table(table, "full").table
        matcher = factory(minimized)
        rng = np.random.default_rng(5)
        for a in probe_addresses(table, rng, n_extra=300):
            assert matcher.lookup(a) == table.lookup(a), hex(a)

    def test_partition_preserves_equivalence(self):
        from repro.core import partition_table

        table = random_small_table(500, seed=31, max_length=20)
        minimized = minimize_table(table, "full").table
        plan = partition_table(minimized, 8)
        rng = np.random.default_rng(6)
        for a in probe_addresses(table, rng, n_extra=200):
            home = plan.home_lc(a)
            assert plan.tables[home].lookup(a) == table.lookup(a)


class TestChurn:
    @given(
        table=tables(max_routes=16),
        ops=st.lists(
            st.tuples(
                st.integers(0, (1 << 32) - 1),
                st.integers(0, 10),
                st.integers(-1, 5),  # -1 = withdraw
            ),
            min_size=1,
            max_size=10,
        ),
        mode=st.sampled_from(sorted(PASS_SETS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_update_stays_equivalent(self, table, ops, mode):
        state = minimize_table(table, mode)
        evolved = table.copy()
        for value, length, hop in ops:
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            prefix = Prefix(value & mask, length)
            if hop < 0:
                if prefix not in evolved:
                    continue
                evolved.remove(prefix)
                state.apply_update(RouteUpdate(prefix, None))
            else:
                evolved.update(prefix, hop)
                state.apply_update(RouteUpdate(prefix, hop))
            rng = np.random.default_rng(2)
            addrs = probe_addresses(evolved, rng, n_extra=40)
            assert_equivalent(evolved, state.table, addrs)
            assert_equivalent(evolved, state.original_table(), addrs)

    @given(churn_cases())
    @settings(max_examples=120, deadline=None)
    def test_churn_state_matches_dict_oracle(self, case):
        table, updates, mode = case
        state = minimize_table(table, mode)
        oracle = DictChurnOracle(
            sorted(entries_of(table)), entries_of(state.table), table.width
        )
        translated = state.translate_schedule(schedule_of(updates))
        expected = []
        for i, update in enumerate(updates):
            ops = oracle.advance(update)
            assert state.apply_update(update) == ops
            expected += [ChurnEvent(10 * i, op) for op in ops]
            assert_state_holds(state, oracle.original_entries(),
                               oracle.minimized_entries())
        assert translated.events() == expected

    @given(churn_cases())
    @settings(max_examples=60, deadline=None)
    def test_translation_leaves_state_untouched(self, case):
        """Translating forks the state: a state that translated (before
        and after some churn of its own) applies every update exactly
        like a fresh state that never translated."""
        table, updates, mode = case
        used = minimize_table(table, mode)
        fresh = minimize_table(table, mode)
        half = len(updates) // 2
        translations = [used.translate_schedule(schedule_of(updates))]
        ops = []
        for i, update in enumerate(updates):
            if i == half:
                translations.append(
                    used.translate_schedule(schedule_of(updates[i:], i))
                )
            step = fresh.apply_update(update)
            assert used.apply_update(update) == step
            ops += [ChurnEvent(10 * i, op) for op in step]
        assert translations[0].events() == ops
        assert translations[1].events() == [
            e for e in ops if e.cycle >= 10 * half
        ]
        assert_state_holds(used, entries_of(fresh.original_table()),
                           sorted(entries_of(fresh.table)))
        for counter in ("churn_events", "churn_ops", "churn_entry_delta"):
            assert getattr(used.stats, counter) == getattr(fresh.stats, counter)

    def test_withdraw_absent_raises(self):
        state = minimize_table(RoutingTable(), "full")
        with pytest.raises(TableError):
            state.apply_update(RouteUpdate(Prefix.from_string("10.0.0.0/8"), None))

    def test_translate_schedule_validates_and_preserves_timing(self):
        table = random_small_table(400, seed=13, max_length=18)
        schedule = generate_churn(
            table, rate_per_s=100_000, horizon_cycles=1_000_000, seed=3
        )
        assert len(schedule) > 0
        state = minimize_table(table, "full")
        minimized_before = state.table.copy()
        translated = state.translate_schedule(schedule)
        # Translation advances a copy of the keys: the state is untouched.
        assert sorted(state.table.routes()) == sorted(
            minimized_before.routes()
        )
        # The translated diff is applicable in order to the minimised
        # table (ChurnSchedule.validate replays it).
        translated.validate(minimized_before)
        # Ops may amplify (merged entries split) but timestamps come from
        # the original events only.
        original_cycles = {e.cycle for e in schedule.events()}
        assert {e.cycle for e in translated.events()} <= original_cycles


class TestSimulationReplay:
    """Golden scenarios replayed with minimisation armed: every delivered
    hop must match the original table (enforced by verify=True against the
    minimised oracle plus the equivalence property), and the run must
    complete the same packet population as the unminimised baseline."""

    @pytest.mark.parametrize("engine", ["array", "scalar"])
    @pytest.mark.parametrize("name", ["ipv4-clean", "ipv4-churn", "ipv6-clean"])
    def test_golden_scenarios_with_minimize(self, name, engine):
        from repro.sim import SpalSimulator

        from .test_golden_results import _build

        table, config, streams, kwargs = _build(name)
        minimized_config = dataclasses.replace(
            config, minimize="full", replicas=1
        )
        baseline = SpalSimulator(
            table, dataclasses.replace(config, replicas=1)
        ).run(streams, engine=engine, **dict(kwargs))
        sim = SpalSimulator(table, minimized_config, verify=True)
        result = sim.run(streams, engine=engine, **dict(kwargs))
        # verify=True raises on any served-hop/oracle mismatch; the oracle
        # is the minimised table, equivalent to the original by the
        # properties above.  The population-level aggregates must agree.
        assert result.packets == baseline.packets
        assert result.total_drops == baseline.total_drops
        # The minimised table answers the full stream like the original.
        minimized = sim.table
        for stream in streams:
            for a in stream:
                assert minimized.lookup(int(a)) == table.lookup(int(a))

    def test_run_spal_identity(self):
        from repro.experiments.common import run_spal

        base = run_spal("D_81", 4, packets_per_lc=400)
        mini = run_spal("D_81", 4, packets_per_lc=400, minimize="full")
        assert mini.packets == base.packets
        assert mini.total_drops == base.total_drops

    @pytest.mark.parametrize("bad", ["absent-withdrawal", "wrong-width"])
    def test_minimised_run_rejects_bad_schedule(self, bad):
        """A minimised run skips the second ``ChurnSchedule.validate``
        because translation already rejects what it would: both bad
        schedules fail with TableError before any packet is simulated."""
        from repro.core import CacheConfig, SpalConfig
        from repro.routing.churn import ChurnSchedule
        from repro.sim import SpalSimulator

        table = random_small_table(120, seed=3, max_length=16)
        if bad == "absent-withdrawal":
            prefix = Prefix.from_string("10.1.2.0/24")
            assert prefix not in set(table.prefixes())
            schedule = ChurnSchedule().withdraw(100, prefix)
        else:
            schedule = ChurnSchedule().announce(
                100, Prefix(0x2001 << 112, 16, width=128), 1
            )
        sim = SpalSimulator(
            table,
            SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64),
                       minimize="full"),
        )
        rng = np.random.default_rng(4)
        streams = [
            rng.integers(0, 1 << 32, size=50).astype(np.uint64)
            for _ in range(2)
        ]
        with pytest.raises(TableError):
            sim.run(streams, updates=schedule)
        assert sim.queue.processed == 0
        assert not sim.completed and not sim.dropped_packets

    def test_minimize_metrics_registered(self):
        from repro.core import SpalConfig
        from repro.sim import SpalSimulator

        table = random_small_table(120, seed=3, max_length=16)
        sim = SpalSimulator(table, SpalConfig(n_lcs=2, minimize="full"))
        snap = sim.obs.snapshot()
        assert snap["sim.minimize.original_routes"] == len(table)
        assert snap["sim.minimize.ratio"] >= 1.0
        assert sim.minimize_stats is not None

    def test_plan_injection_rejected_with_minimize(self):
        from repro.core import SpalConfig, partition_table
        from repro.errors import SimulationError
        from repro.sim import SpalSimulator

        table = random_small_table(120, seed=4, max_length=16)
        plan = partition_table(table, 2)
        with pytest.raises(SimulationError):
            SpalSimulator(
                table, SpalConfig(n_lcs=2, minimize="full"), plan=plan
            )

    def test_bad_minimize_mode_rejected(self):
        from repro.core import SpalConfig
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            SpalConfig(minimize="fastest").validate()
