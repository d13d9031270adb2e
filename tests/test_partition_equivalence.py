"""Equivalence contract of the columnar partitioner.

``partition_table`` chooses its control bits and splits the FIB from its
packed (value, length) columns.  ``_partition_reference`` below is the
per-route walk it replaced: every route becomes a :class:`Prefix`, is
expanded through ``patterns_of_prefix`` and inserted into each holder
LC's table one pattern at a time, and bits are chosen by the scalar
selection loop (``tests/partition_oracle.py``).  The properties assert
that both choose the same bits and produce the same plan down to each LC
table's route order, length and version.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.core import (
    CacheConfig,
    SpalConfig,
    assign_patterns_to_lcs,
    partition_table,
    patterns_of_prefix,
    select_partition_bits,
)
from repro.core.partition import PartitionPlan
from repro.errors import PartitionError
from repro.routing import (
    ArrayRoutingTable,
    Prefix,
    RoutingTable,
    generate_churn,
    make_full_v4,
)
from repro.routing.table import NextHop
from repro.sim import SpalSimulator
from repro.traffic import FlowPopulation, LinkSpec, generate_stream, trace_spec

from .partition_oracle import scalar_select_bits


def _partition_reference(
    table: RoutingTable,
    n_lcs: int,
    bits: Optional[Sequence[int]] = None,
    candidate_positions: Optional[Sequence[int]] = None,
    pattern_oversubscription: Optional[int] = None,
    replicas: int = 1,
) -> PartitionPlan:
    """The per-route partitioning walk: the oracle for ``partition_table``."""
    if n_lcs <= 0:
        raise PartitionError(f"need at least one LC, got {n_lcs}")
    if len(table) == 0:
        raise PartitionError("cannot partition an empty routing table")
    eta = max(n_lcs - 1, 0).bit_length()
    if n_lcs & (n_lcs - 1):
        oversub = (
            4 if pattern_oversubscription is None else pattern_oversubscription
        )
        while (1 << eta) < oversub * n_lcs:
            eta += 1
    if bits is None:
        bit_list = scalar_select_bits(table, eta, candidate_positions)
    else:
        bit_list = list(bits)
        eta = len(bit_list)

    per_pattern: List[List[Tuple[Prefix, NextHop]]] = [
        [] for _ in range(1 << eta)
    ]
    for prefix, hop in table.routes():
        for pattern in patterns_of_prefix(prefix, bit_list):
            per_pattern[pattern].append((prefix, hop))

    if not 1 <= replicas <= n_lcs:
        raise PartitionError("replicas out of range")
    lc_of_pattern = assign_patterns_to_lcs(
        [len(routes) for routes in per_pattern], n_lcs
    )
    replicas_of_pattern = None
    if replicas > 1:
        replicas_of_pattern = [
            [(primary + k) % n_lcs for k in range(replicas)]
            for primary in lc_of_pattern
        ]

    tables = [RoutingTable(table.width) for _ in range(n_lcs)]
    for pattern, routes in enumerate(per_pattern):
        holders = (
            replicas_of_pattern[pattern]
            if replicas_of_pattern is not None
            else [lc_of_pattern[pattern]]
        )
        for lc in holders:
            for prefix, hop in routes:
                tables[lc].update(prefix, hop)  # dedupe across merged patterns
    return PartitionPlan(
        bits=bit_list,
        n_lcs=n_lcs,
        lc_of_pattern=lc_of_pattern,
        tables=tables,
        replicas_of_pattern=replicas_of_pattern,
    )


@st.composite
def tables(draw, widths=(32, 128), min_size=1):
    """IPv4 or IPv6 tables, array- or dict-backed, rich in the short
    prefixes (default route, /1–/3) that replicate across patterns."""
    width = draw(st.sampled_from(widths))
    short = st.integers(0, 3)
    routes = draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << width) - 1),
                st.one_of(short, st.integers(0, width)),
                st.integers(0, 9),
            ),
            min_size=min_size,
            max_size=40,
        )
    )
    if draw(st.booleans()):
        routes.append((0, 0, 99))
    unique = {}
    for value, length, hop in routes:
        mask = ((1 << length) - 1) << (width - length) if length else 0
        unique[(value & mask, length)] = hop
    if draw(st.booleans()):
        return RoutingTable.from_arrays(
            [v for v, _ in unique],
            [l for _, l in unique],
            list(unique.values()),
            width,
        )
    table = RoutingTable(width)
    for (value, length), hop in unique.items():
        table.update(Prefix(value, length, width), hop)
    return table


@st.composite
def partition_args(draw):
    """A table plus ψ (1–17), replicas (1–ψ), explicit or selected bits,
    and a pattern oversubscription of 1 or the default."""
    table = draw(tables())
    n_lcs = draw(st.integers(1, 17))
    replicas = draw(st.integers(1, n_lcs))
    bits = None
    if draw(st.booleans()):
        n_bits = draw(
            st.integers(max(n_lcs - 1, 0).bit_length(), 6)
        )
        bits = draw(
            st.lists(
                st.integers(0, table.width - 1),
                min_size=n_bits,
                max_size=n_bits,
                unique=True,
            )
        )
    oversub = draw(st.sampled_from([1, None]))
    return table, dict(
        n_lcs=n_lcs,
        bits=bits,
        pattern_oversubscription=oversub,
        replicas=replicas,
    )


@st.composite
def selection_args(draw):
    """A table (possibly empty; widths 32 and 128, two that are not whole
    bytes, and the paper's 8, where few positions make score ties
    common), η from 0 to 6, and either the default candidates or a random
    subset of positions in random order."""
    table = draw(tables(widths=(32, 128, 21, 100, 8), min_size=0))
    n_bits = draw(st.integers(0, 6))
    candidates = None
    if draw(st.booleans()):
        candidates = draw(
            st.lists(
                st.integers(0, table.width - 1),
                min_size=max(n_bits, 1),
                max_size=table.width,
                unique=True,
            )
        )
    return table, n_bits, candidates


#: After b0, bits 1 and 2 tie on the largest and the total partition
#: size; only the spread separates them.
_SPREAD_TIE = RoutingTable.from_strings(
    [("0*", 1), ("000*", 2), ("110100*", 3), ("111*", 4)], width=8
)


class TestBitSelectionMatchesScalar:
    @given(selection_args())
    @example((_SPREAD_TIE, 3, None))
    @example((_SPREAD_TIE, 2, [2, 1, 0]))
    @settings(max_examples=200, deadline=None)
    def test_identical_bits(self, args):
        table, n_bits, candidates = args
        assert select_partition_bits(
            table, n_bits, candidate_positions=candidates
        ) == scalar_select_bits(table, n_bits, candidates)


class TestColumnarMatchesReference:
    @given(partition_args())
    @settings(max_examples=150, deadline=None)
    def test_identical_plans(self, args):
        table, kwargs = args
        got = partition_table(table, **kwargs)
        want = _partition_reference(table, **kwargs)
        assert got.bits == want.bits
        assert got.lc_of_pattern == want.lc_of_pattern
        assert got.replicas_of_pattern == want.replicas_of_pattern
        for mine, ref in zip(got.tables, want.tables):
            assert type(mine) is ArrayRoutingTable
            assert list(mine.routes()) == list(ref.routes())
            assert len(mine) == len(ref)
            assert mine.version == ref.version


@contextmanager
def _no_prefix_objects():
    """Fail any :class:`Prefix` construction inside the block."""
    init = Prefix.__init__

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Prefix object was created")

    Prefix.__init__ = refuse
    try:
        yield
    finally:
        Prefix.__init__ = init


def _assert_columnar(tables: Sequence[RoutingTable]) -> None:
    for t in tables:
        assert type(t) is ArrayRoutingTable


class TestLcTablesStayColumnar:
    """Per-LC tables are column slices of the source from partition to the
    end of a churned run: no Prefix objects and no dicts."""

    @given(tables(), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_partition_creates_no_prefix_objects(self, table, n_lcs):
        with _no_prefix_objects():
            plan = partition_table(table, n_lcs, replicas=min(2, n_lcs))
        _assert_columnar(plan.tables)

    def test_lc_tables_stay_columnar_under_churn(self):
        """The ``fib_churn`` benchmark shape at its gate scale: a minimised
        full-feed table at ψ=16 under 500k updates/s."""
        table = make_full_v4(seed=7, size=20_000)
        packets = 1_000
        spec = trace_spec("D_75").scaled(16 * packets)
        population = FlowPopulation(spec, table)
        horizon = int(packets * LinkSpec(40).mean_interarrival_cycles)
        churn = generate_churn(
            table, rate_per_s=500_000, horizon_cycles=horizon, seed=3
        )
        sim = SpalSimulator(
            table,
            SpalConfig(
                n_lcs=16, cache=CacheConfig(n_blocks=4096), minimize="full"
            ),
        )
        built = sim.plan.tables
        _assert_columnar(built)
        sim.run(
            [generate_stream(population, packets, lc) for lc in range(16)],
            speed_gbps=40,
            warmup_packets=packets // 10,
            updates=churn,
            update_policy="selective",
        )
        assert sim.update_events_applied > 0
        # Churn patches the simulator's own tables in place.
        assert sim.plan.tables is built
        _assert_columnar(built)
