"""Columnar tables answer exactly like dict-backed ones, mutation included.

:class:`ArrayRoutingTable` keeps its columns through ``update`` (in-place
hop rewrite), ``remove`` (tombstone) and re-adds (ordered overlay).  The
property below drives a columnar table and a dict-backed
:class:`RoutingTable` through the same random operation sequence and
compares every query after every step, including iteration order and
``version``; forks taken with ``copy()`` must stay isolated both ways.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TableError
from repro.routing import ArrayRoutingTable, Prefix, RoutingTable, arraytable


def _prefix(value: int, length: int, width: int) -> Prefix:
    mask = ((1 << length) - 1) << (width - length) if length else 0
    return Prefix(value & mask, length, width)


class TestWidthMismatch:
    """A query of another width is never present, even where its value
    and length match a stored route (regression: the packed-key index
    ignored the width)."""

    @pytest.mark.parametrize("columnar", [True, False])
    def test_other_width_default_route_is_absent(self, columnar):
        routes = [(0, 0, 5), (0x0A000000, 8, 6)]
        if columnar:
            table = RoutingTable.from_arrays(
                [v for v, _, _ in routes],
                [l for _, l, _ in routes],
                [h for _, _, h in routes],
                32,
            )
        else:
            table = RoutingTable(32)
            for v, l, h in routes:
                table.update(Prefix(v, l, 32), h)
        assert Prefix(0, 0, 32) in table
        assert Prefix(0, 0, 128) not in table
        assert table.get(Prefix(0, 0, 128)) is None
        assert table.get(Prefix(0, 0, 32)) == 5

    def test_other_width_mutation_raises(self):
        table = RoutingTable.from_arrays([0], [0], [5], 32)
        with pytest.raises(TableError):
            table.update(Prefix(0, 0, 128), 1)
        with pytest.raises(TableError):
            table.remove(Prefix(0, 0, 128))
        assert len(table) == 1 and table.version == 1


@st.composite
def scenarios(draw):
    """A width (32 or 128), a small prefix pool (so updates, removals and
    re-adds collide), an initial table over part of the pool, probe
    addresses and an operation sequence."""
    width = draw(st.sampled_from([32, 128]))
    short = st.integers(0, 3)
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << width) - 1),
                st.one_of(short, st.integers(0, width)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    pool = list(dict.fromkeys(_prefix(v, l, width) for v, l in raw))
    hop = st.integers(0, 5)
    initial = [
        (p, draw(hop)) for p in pool if draw(st.booleans())
    ]
    addresses = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=4)
    ) + [p.value for p in pool]
    index = st.integers(0, len(pool) - 1)
    op = st.one_of(
        st.tuples(st.just("update"), index, hop),
        st.tuples(st.just("remove"), index, st.just(0)),
        st.tuples(st.just("fork"), st.booleans(), st.just(0)),
    )
    ops = draw(st.lists(op, max_size=25))
    return width, pool, initial, addresses, ops


def _assert_same(col: ArrayRoutingTable, ref: RoutingTable, pool, addresses):
    width = ref.width
    for p in pool:
        assert (p in col) == (p in ref)
        assert col.get(p) == ref.get(p)
    other = Prefix(0, 0, 128 if width == 32 else 32)
    assert other not in col and col.get(other) is None
    assert len(col) == len(ref)
    assert list(col.routes()) == list(ref.routes())
    assert list(col) == list(ref)
    values, lengths, hops = col.as_arrays()
    assert [Prefix(int(v), l, width) for v, l in zip(values, lengths.tolist())] \
        == list(ref)
    assert hops.tolist() == [h for _, h in ref.routes()]
    for a in addresses:
        assert col.lookup(a) == ref.lookup(a)
    assert col.next_hops() == ref.next_hops()
    assert col.length_histogram() == ref.length_histogram()
    assert col.has_default_route() == ref.has_default_route()


class TestColumnarMatchesDict:
    # Exact match scans the packed-key column for the first
    # _SCANS_BEFORE_INDEX queries, then builds a dict: cover both and the
    # switch between them.
    @pytest.mark.parametrize("scans", [0, 3, arraytable._SCANS_BEFORE_INDEX])
    @given(scenario=scenarios())
    @settings(max_examples=100, deadline=None)
    def test_same_answers_through_mutation(self, scans, scenario):
        with mock.patch.object(arraytable, "_SCANS_BEFORE_INDEX", scans):
            self._check_scenario(*scenario)

    def _check_scenario(self, width, pool, initial, addresses, ops):
        col = RoutingTable.from_arrays(
            [p.value for p, _ in initial],
            [p.length for p, _ in initial],
            [h for _, h in initial],
            width,
        )
        ref = RoutingTable(width)
        for p, h in initial:
            ref.update(p, h)
        assert isinstance(col, ArrayRoutingTable)
        frozen = []  # (table, routes it must keep) for every set-aside fork
        for kind, arg, hop in ops:
            before = (col.version, ref.version)
            if kind == "update":
                col.update(pool[arg], hop)
                ref.update(pool[arg], hop)
            elif kind == "remove":
                prefix = pool[arg]
                if prefix in ref:
                    assert col.remove(prefix) == ref.remove(prefix)
                else:
                    with pytest.raises(TableError):
                        col.remove(prefix)
                    with pytest.raises(TableError):
                        ref.remove(prefix)
            else:
                # Continue on the copy (or the original) and set the
                # other aside: no later mutation may reach it.
                col_copy, ref_copy = col.copy(), ref.copy()
                assert isinstance(col_copy, ArrayRoutingTable)
                if arg:
                    col, ref, kept = col_copy, ref_copy, col
                else:
                    kept = col_copy
                frozen.append((kept, list(kept.routes())))
                before = (col.version, ref.version)
            assert col.version - before[0] == ref.version - before[1]
            _assert_same(col, ref, pool, addresses)
        for kept, routes in frozen:
            assert list(kept.routes()) == routes

    def test_add_goes_through_the_columns(self):
        table = RoutingTable.from_arrays([0x0A000000], [8], [1], 32)
        table.add(Prefix.from_string("11.0.0.0/8"), 2)
        with pytest.raises(TableError):
            table.add(Prefix.from_string("10.0.0.0/8"), 3)
        assert [h for _, h in table.routes()] == [1, 2]

    def test_copy_shares_columns_until_a_write(self):
        table = RoutingTable.from_arrays(
            np.array([0x0A000000, 0x0B000000], dtype=np.uint64), [8, 8],
            [1, 2], 32,
        )
        clone = table.copy()
        assert clone.as_arrays()[2] is table.as_arrays()[2]
        clone.update(Prefix.from_string("10.0.0.0/8"), 9)
        assert table.get(Prefix.from_string("10.0.0.0/8")) == 1
        assert clone.get(Prefix.from_string("10.0.0.0/8")) == 9

