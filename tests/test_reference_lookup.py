"""``HashReferenceMatcher.lookup``: probing, then its compiled interval
map, always equal to a per-length probe sequence.

A matcher probes its per-length buckets until the probes it has spent
since its last change reach its estimated map build cost, then compiles
the map and bisects it.  Both phases must answer every lookup with the
hop and the access count of the longest-first probe sequence, and a
route change must send it back to probing.  The map is built in one
sorted sweep; it must equal the per-length build on every table profile
the suites use.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import partition_table
from repro.routing import (
    NO_ROUTE,
    Prefix,
    RoutingTable,
    make_full_v4,
    make_rt1,
    make_rt2,
    minimize_table,
    random_small_table,
)
from repro.tries import HashReferenceMatcher
from repro.tries.reference import PROBES_PER_ROUTE


class ProbeModel:
    """Routes as a ``{(value, length): hop}`` dict, looked up by probing
    each present length longest first and counting one access a probe."""

    def __init__(self, width: int):
        self.width = width
        self.routes: dict = {}
        self.lookups = self.accesses = self.max_accesses = 0

    def lookup(self, address: int) -> int:
        probes = 0
        hop = NO_ROUTE
        for length in sorted({ln for _, ln in self.routes}, reverse=True):
            probes += 1
            span = self.width - length
            found = self.routes.get(((address >> span) << span, length))
            if found is not None:
                hop = found
                break
        self.lookups += 1
        self.accesses += probes
        self.max_accesses = max(self.max_accesses, probes)
        return hop


@st.composite
def scripts(draw):
    """A width, a starting table and a list of lookups interleaved with
    announcements, withdrawals and next-hop changes."""
    width = draw(st.sampled_from([32, 64]))
    max_length = draw(st.sampled_from([8, 20, width]))
    n_routes = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    address = st.integers(0, (1 << width) - 1)
    op = st.one_of(
        st.tuples(st.just("lookup"), address),
        st.tuples(st.just("lookup"), address),
        st.tuples(st.just("lookup"), address),
        st.tuples(st.just("announce"), address,
                  st.integers(0, max_length), st.integers(0, 9)),
        st.tuples(st.just("withdraw"), st.integers(0, 10**6)),
        st.tuples(st.just("modify"), st.integers(0, 10**6),
                  st.integers(0, 9)),
    )
    ops = draw(st.lists(op, max_size=80))
    return width, max_length, n_routes, seed, ops


def _check(matcher: HashReferenceMatcher, model: ProbeModel, address: int):
    assert matcher.lookup(address) == model.lookup(address)
    c = matcher.counter
    assert (c.lookups, c.accesses, c.max_accesses) == (
        model.lookups, model.accesses, model.max_accesses
    )


@given(scripts())
@settings(max_examples=60, deadline=None)
def test_lookup_equals_probe_sequence_across_compiles(script):
    width, max_length, n_routes, seed, ops = script
    table = (
        random_small_table(n_routes, seed=seed, width=width,
                           max_length=max_length)
        if n_routes else RoutingTable(width)
    )
    matcher = HashReferenceMatcher(table)
    model = ProbeModel(width)
    model.routes = {(p.value, p.length): hop for p, hop in table.routes()}
    rng = np.random.default_rng(seed)
    phases = set()

    def burst():
        # Lookups at route starts and anywhere, until past the compile:
        # the credit is at most PROBES_PER_ROUTE per route, and every
        # lookup spends one probe at least when any route exists.
        for _ in range(PROBES_PER_ROUTE * len(model.routes) + 2):
            phases.add(matcher._map is not None)
            edge = list(model.routes)[
                int(rng.integers(len(model.routes)))
            ][0] if model.routes else 0
            _check(matcher, model, edge)
            _check(matcher, model, int(rng.integers(0, 1 << width,
                                                    dtype=np.uint64)))

    for op in ops:
        kind = op[0]
        if kind == "lookup":
            phases.add(matcher._map is not None)
            _check(matcher, model, op[1])
            continue
        keys = sorted(model.routes)
        if kind == "announce":
            _, address, length, hop = op
            span = width - length
            key = ((address >> span) << span, length)
        elif not keys:
            continue
        else:
            key = keys[op[1] % len(keys)]
            hop = None if kind == "withdraw" else op[2]
        prefix = Prefix(key[0], key[1], width)
        matcher.apply_update(prefix, hop)
        # A change always sends the matcher back to probing.
        assert matcher._map is None
        if hop is None:
            del model.routes[key]
        else:
            model.routes[key] = hop
    burst()
    if model.routes:
        # The burst crossed the compile threshold and read the map.
        assert matcher._map is not None
        assert True in phases


def per_length_map(matcher) -> tuple:
    """The elementary-interval map built one length at a time: every
    range endpoint is a point, and each point is resolved by looking up
    its probes longest-first with a ``searchsorted`` per length.

    A probe of length ``L`` keys an address at ``address >> (width - L)``
    for every ``L``, the /0 included, so the point one past the address
    space (a one-past-end below 64 bits) matches no route."""
    width = matcher.width
    levels = []
    pieces = [np.zeros(1, dtype=np.uint64)]
    for length in sorted(matcher._by_length, reverse=True):
        bucket = matcher._by_length[length]
        keys = np.fromiter(bucket.keys(), dtype=np.uint64, count=len(bucket))
        order = np.argsort(keys)
        keys = keys[order]
        hops = np.fromiter(bucket.values(), dtype=np.int64,
                           count=len(bucket))[order]
        levels.append((length, keys, hops))
        shift = np.uint64(width - length)
        # The final prefix's end may wrap to 0 in uint64; unique() merges it.
        pieces.append(keys << shift)
        pieces.append((keys + np.uint64(1)) << shift)
    points = np.unique(np.concatenate(pieces))
    hop_of = np.full(points.size, NO_ROUTE, dtype=np.int64)
    acc_of = np.full(points.size, len(levels), dtype=np.int64)
    lanes = np.arange(points.size)
    live = points
    for probed, (length, keys, hops) in enumerate(levels, start=1):
        if lanes.size == 0:
            break
        probes = live >> np.uint64(width - length)
        slots = np.minimum(np.searchsorted(keys, probes), keys.size - 1)
        found = keys[slots] == probes
        hop_of[lanes[found]] = hops[slots[found]]
        acc_of[lanes[found]] = probed
        lanes = lanes[~found]
        live = live[~found]
    return points, hop_of, acc_of


def _profiles():
    rt2 = make_rt2(size=2000)
    full = make_full_v4(size=3000)
    cases = {
        "empty32": RoutingTable(32),
        "default_only64": RoutingTable(64),
        "small32": random_small_table(300, seed=33),
        "small64_short": random_small_table(40, seed=3, max_length=20,
                                            width=64),
        "small64_full": random_small_table(200, seed=5, max_length=64,
                                           width=64),
        "small16": random_small_table(100, seed=8, max_length=16, width=16),
        "rt1": make_rt1(size=2000),
        "rt2": rt2,
        "full_v4": full,
        "full_v4_minimised": minimize_table(full, "full").table,
    }
    cases["default_only64"].update(Prefix(0, 0, 64), 4)
    for i, sub in enumerate(partition_table(rt2, 4).tables):
        cases[f"rt2_lc{i}"] = sub
    return cases


_PROFILES = _profiles()


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_sweep_map_equals_per_length_build(name):
    matcher = HashReferenceMatcher(_PROFILES[name])
    matcher._compile_batch_kernel()
    got = [np.asarray(col) for col in matcher._map]
    want = per_length_map(matcher)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
