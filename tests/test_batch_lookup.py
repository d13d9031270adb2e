"""Batch lookup kernels: equivalence with scalar lookups, partition batch
helpers, and the simulator fast path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CacheConfig, SpalConfig
from repro.core.partition import (
    PartitionError,
    partition_table,
    pattern_of,
    pattern_of_batch,
    select_partition_bits,
)
from repro.errors import UnreachablePatternError
from repro.routing import ChurnSchedule, Prefix, RoutingTable, random_small_table
from repro.sim import SpalSimulator
from repro.sim.spal_sim import _Packet
from repro.traffic import FlowPopulation, TraceSpec, generate_router_streams
from repro.tries import (
    BinaryTrie,
    Dir24_8,
    DPTrie,
    HashReferenceMatcher,
    LCTrie,
    LuleaTrie,
    MultibitTrie,
)

from .partition_oracle import scalar_select_bits

#: Factories for every matcher; kernels exist for the first five, the last
#: two exercise the generic scalar fallback.
MATCHERS = [
    BinaryTrie,
    LCTrie,
    LuleaTrie,
    MultibitTrie,
    HashReferenceMatcher,
    DPTrie,
    lambda t: Dir24_8(t, first_stride=12),
]
MATCHER_IDS = ["binary", "lc", "lulea", "multibit", "ref", "dp", "dir24"]

IPV6_MATCHERS = [
    BinaryTrie,
    LCTrie,
    LuleaTrie,
    lambda t: MultibitTrie(t, strides=(16,) + (8,) * 14),
    HashReferenceMatcher,
]
IPV6_IDS = ["binary", "lc", "lulea", "multibit", "ref"]


@st.composite
def prefixes(draw, width=32):
    length = draw(st.integers(0, width))
    value = draw(st.integers(0, (1 << width) - 1))
    mask = ((1 << length) - 1) << (width - length) if length else 0
    return Prefix(value & mask, length, width)


@st.composite
def tables(draw, min_routes=1, max_routes=40, width=32):
    routes = draw(
        st.lists(
            st.tuples(prefixes(width), st.integers(0, 63)),
            min_size=min_routes,
            max_size=max_routes,
        )
    )
    table = RoutingTable(width)
    for prefix, hop in routes:
        table.update(prefix, hop)
    return table


def assert_batch_equals_scalar(factory, table, addrs):
    """Batch hops AND access counters must be bit-identical to a scalar
    loop over two fresh instances."""
    scalar = factory(table)
    batch = factory(table)
    want = np.array([scalar.lookup(int(a)) for a in addrs], dtype=np.int64)
    got = batch.lookup_batch(addrs)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert batch.counter.lookups == scalar.counter.lookups
    assert batch.counter.accesses == scalar.counter.accesses
    assert batch.counter.max_accesses == scalar.counter.max_accesses


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("factory", MATCHERS, ids=MATCHER_IDS)
    @given(table=tables(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_tables(self, factory, table, data):
        addrs = data.draw(
            st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=40)
        )
        assert_batch_equals_scalar(factory, table, addrs)

    @pytest.mark.parametrize("factory", MATCHERS, ids=MATCHER_IDS)
    def test_empty_table(self, factory):
        table = RoutingTable(32)
        assert_batch_equals_scalar(factory, table, list(range(10)))

    @pytest.mark.parametrize("factory", MATCHERS, ids=MATCHER_IDS)
    def test_default_route_only(self, factory):
        table = RoutingTable(32)
        table.update(Prefix(0, 0, 32), 9)
        assert_batch_equals_scalar(
            factory, table, [0, 1, (1 << 32) - 1, 0x80000000]
        )

    @pytest.mark.parametrize("factory", MATCHERS, ids=MATCHER_IDS)
    def test_empty_batch(self, factory):
        table = random_small_table(50, seed=11)
        out = factory(table).lookup_batch(np.empty(0, dtype=np.uint64))
        assert out.shape == (0,) and out.dtype == np.int64

    @pytest.mark.parametrize("factory", IPV6_MATCHERS, ids=IPV6_IDS)
    @given(table=tables(width=128), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_ipv6_scalar_fallback(self, factory, table, data):
        # Width 128 exceeds the uint64 kernels; lookup_batch must fall back
        # to the scalar loop transparently.
        addrs = data.draw(
            st.lists(st.integers(0, (1 << 128) - 1), min_size=1, max_size=15)
        )
        assert_batch_equals_scalar(factory, table, addrs)

    @pytest.mark.parametrize("factory", MATCHERS, ids=MATCHER_IDS)
    @pytest.mark.slow
    def test_env_escape_hatch(self, factory):
        # No switch turns a kernel off, so compare it with the per-address
        # loop directly: 500 random addresses over a 200-route table.
        table = random_small_table(200, seed=21)
        rng = np.random.default_rng(2)
        addrs = rng.integers(0, 1 << 32, size=500, dtype=np.uint64)
        assert_batch_equals_scalar(factory, table, addrs)

    def test_insert_invalidates_compiled_kernel(self):
        table = random_small_table(100, seed=31)
        trie = BinaryTrie(table)
        addr = 0xC0A80101
        before = int(trie.lookup_batch([addr])[0])
        trie.insert(Prefix(addr & ~0xFF, 24, 32), 61)
        assert int(trie.lookup_batch([addr])[0]) == 61 != before


class TestPartitionBatch:
    @pytest.fixture(scope="class")
    def table(self):
        return random_small_table(600, seed=41)

    def test_pattern_of_batch_matches(self, table):
        bits = select_partition_bits(table, 3)
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 32, size=2000, dtype=np.uint64)
        got = pattern_of_batch(addrs, bits, 32)
        want = [pattern_of(int(a), bits, 32) for a in addrs]
        np.testing.assert_array_equal(got, want)

    def test_bit_selection_matches_scalar(self, table):
        assert select_partition_bits(table, 4) == scalar_select_bits(table, 4)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_home_lc_batch_matches(self, table, replicas):
        plan = partition_table(table, 6, replicas=replicas)
        if replicas > 1:
            plan.fail_lc(2)
        rng = np.random.default_rng(4)
        addrs = rng.integers(0, 1 << 32, size=3000, dtype=np.uint64)
        got = plan.home_lc_batch(addrs)
        want = [plan.home_lc(int(a)) for a in addrs]
        np.testing.assert_array_equal(got, want)

    def test_home_lc_batch_scalar_fallback(self, table):
        # An object column of Python ints takes the same body as uint64.
        plan = partition_table(table, 4)
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 1 << 32, size=500, dtype=np.uint64)
        want = [plan.home_lc(int(a)) for a in addrs]
        for column in (addrs, addrs.astype(object), addrs.tolist()):
            np.testing.assert_array_equal(plan.home_lc_batch(column), want)

    def test_all_replicas_failed_raises(self, table):
        plan = partition_table(table, 4, replicas=2)
        for lc in range(4):
            plan.fail_lc(lc)
        with pytest.raises(PartitionError, match="replicas"):
            plan.home_lc_batch(np.arange(10, dtype=np.uint64))

    @pytest.mark.parametrize("width", [32, 128])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_home_lc_batch_equals_home_lc_at_any_width(
        self, ipv4_table, ipv6_table, width, data
    ):
        # One body for both widths and both column kinds: uint64 (values
        # below 2**64) or Python ints in an object column.
        n_lcs = data.draw(st.integers(2, 6), label="n_lcs")
        replicas = data.draw(st.integers(1, min(3, n_lcs)), label="replicas")
        plan = partition_table(
            ipv4_table if width == 32 else ipv6_table, n_lcs,
            replicas=replicas,
        )
        for lc in data.draw(st.sets(st.integers(0, n_lcs - 1)), label="failed"):
            plan.fail_lc(lc)
        as_object = data.draw(st.booleans(), label="object column")
        top = width if as_object else min(width, 64)
        addrs = data.draw(
            st.lists(st.integers(0, (1 << top) - 1), min_size=1, max_size=64),
            label="addrs",
        )
        column = np.array(addrs, dtype=object if as_object else np.uint64)
        try:
            want = [plan.home_lc(a) for a in addrs]
        except UnreachablePatternError:
            with pytest.raises(UnreachablePatternError):
                plan.home_lc_batch(column)
        else:
            got = plan.home_lc_batch(column)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        if replicas > 1:
            # Fail every holder of one address's pattern: both paths raise.
            for lc in plan.live_replicas(addrs[0]):
                plan.fail_lc(lc)
            with pytest.raises(UnreachablePatternError):
                plan.home_lc(addrs[0])
            with pytest.raises(UnreachablePatternError):
                plan.home_lc_batch(column)


def _result_fingerprint(r):
    return (
        r.latencies.tobytes(),
        r.horizon_cycles,
        tuple(tuple(sorted(d.items())) for d in r.cache_stats),
        tuple(r.fe_lookups),
        tuple(r.fe_utilization),
        r.fabric_messages,
        r.flushes,
        tuple(r.extra["max_fe_backlog"]),
    )


class TestSimulatorFastPath:
    @pytest.fixture(scope="class")
    def table(self):
        return random_small_table(300, seed=51)

    @pytest.fixture(scope="class")
    def streams(self, table):
        pop = FlowPopulation(TraceSpec("t", n_flows=400, seed=7), table)
        return generate_router_streams(pop, 2, 2500)

    def _run(self, table, streams, flush=False, engine="array", **kw):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=128)), **kw
        )
        if not flush:
            return sim.run(streams, engine=engine)
        # A mid-run next-hop change to the widest route, flushing every
        # cache (the paper's update policy).
        widest = min(table.prefixes(), key=lambda p: p.length)
        updates = ChurnSchedule().announce(4000, widest, 99)
        return sim.run(
            streams, updates=updates, update_policy="flush", engine=engine
        )

    def test_bit_identical_fast_path_on_off(self, table, streams):
        # Every FE resolves the hop it serves; without updates verify=True
        # also checks each precompute block through lookup_batch against
        # the oracle, and with a flush-policy announcement it checks the
        # FE lookups only.  The array engine's precompute blocks and the
        # scalar loop's one whole-stream pass must agree.
        for flush in (False, True):
            fast = self._run(table, streams, flush=flush, verify=True)
            slow = self._run(
                table, streams, flush=flush, engine="scalar", verify=True
            )
            assert fast.flushes == slow.flushes == int(flush)
            assert _result_fingerprint(fast) == _result_fingerprint(slow)

    @pytest.mark.parametrize("engine", ["array", "scalar"])
    @pytest.mark.parametrize("served", [False, True],
                             ids=["never_served", "served"])
    def test_verify_catches_planted_route(self, table, engine, served):
        """``verify=True`` checks a hop wherever one could be wrong.  A
        host route with a wrong hop is planted in one LC's matcher: in
        the primary holder's when its destination never reaches an FE
        (it arrives at a failed LC), caught by the block check; in the
        other replica's when that replica's FE serves it, caught by the
        FE check, since the block check reads primary holders only."""
        from repro.core import FaultSchedule
        from repro.errors import SimulationError

        sim = SpalSimulator(
            table,
            SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=128), replicas=2),
            verify=True,
        )
        plan = sim.plan
        rng = np.random.default_rng(8)
        for dest in rng.integers(0, 1 << 32, size=64).tolist():
            primary = plan.lc_of_pattern[
                pattern_of(dest, plan.bits, table.width)
            ]
            if plan.home_lc(dest) != primary:
                break
        else:
            raise AssertionError("no destination homed off its primary")
        planted = primary if not served else 1 - primary
        sim._matchers[planted].insert(Prefix(dest, 32, 32), 999)
        streams = [np.array([dest, dest], dtype=np.uint64),
                   np.array([1, 2], dtype=np.uint64)]
        faults = None if served else FaultSchedule().fail_lc(0, 0)
        with pytest.raises(SimulationError, match="partition invariant"):
            sim.run(streams, faults=faults, engine=engine)


class TestCachePortSaturation:
    def test_same_cycle_probes_serialize_without_double_booking(self):
        """N packets hitting one LC's cache in the same cycle must consume
        exactly N port slots: the deferred probes run in the slot reserved
        at arrival instead of acquiring a second one.  The packets are
        built by hand, so each carries the pattern the run would have
        precomputed for it."""
        table = random_small_table(100, seed=61)
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64))
        )
        rng = np.random.default_rng(6)
        dests = rng.choice(1 << 32, size=16, replace=False)
        for dest in dests:
            pattern = pattern_of(int(dest), sim.plan.bits, table.width)
            pkt = _Packet(int(dest), 0, 0, pattern)
            sim.queue.schedule(0, sim._arrive, pkt, 0)
        sim.queue.run()
        assert sim.cache_ports[0].busy_cycles == len(dests)
        assert len(sim.completed) == len(dests)
