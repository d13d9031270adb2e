"""Hash-based reference matcher: exact-match tables per prefix length.

Lookup probes lengths from longest to shortest with one dict probe each —
O(width) worst case but simple enough to serve as the large-scale correctness
oracle (the linear scan in :meth:`RoutingTable.lookup` is quadratic over big
tables).  Not a paper structure; a test/measurement substrate.

Up to 64 bits a matcher that answers many lookups between changes
compiles its elementary-interval map (see :meth:`_compile_batch_kernel`)
and answers from it by ``bisect``, with the same hop and access count as
the probe sequence.  It does so on a ski-rental rule: once the probes
spent since the last change reach the map's estimated build cost.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..routing.prefix import Prefix
from ..routing.table import NO_ROUTE, NextHop, RoutingTable
from .base import (
    MAX_KERNEL_WIDTH,
    BatchKernel,
    LongestPrefixMatcher,
    UpdateResult,
)

#: Host cost of compiling one route into the interval map, in length
#: probes of :meth:`HashReferenceMatcher.lookup`: a 25k-route map compiles
#: in ~8 ms and one probe costs ~0.1 µs on a 2-vCPU x86 host (CPython
#: 3.11).  A matcher compiles once its probes since the last change reach
#: this many per route, which bounds its lookup time at about twice what
#: the better of "never compile" and "compile at once" would have spent.
PROBES_PER_ROUTE = 3

#: Every bit of a uint64.
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class HashReferenceMatcher(LongestPrefixMatcher):
    """Per-length hash tables probed longest-first."""

    name = "REF"

    def __init__(self, table: Optional[RoutingTable] = None, width: int = 32):
        super().__init__()
        self.width = table.width if table is not None else width
        self._by_length: Dict[int, Dict[int, NextHop]] = {}
        self._lengths: list[int] = []
        #: ``(shift, bucket)`` per length, longest first: a probe of an
        #: address reads ``bucket.get(address >> shift)`` (a /0's shift is
        #: the width, so every in-range address keys it at 0).
        self._probes: List[Tuple[int, Dict[int, NextHop]]] = []
        self._routes = 0
        #: ``(points, hop_of, acc_of)`` memoryviews of the compiled map, or
        #: None while :meth:`lookup` probes; ``_credit`` is how many probes
        #: it may still spend before it compiles the map.
        self._map: Optional[tuple] = None
        self._credit: float = 0
        if table is not None:
            if table.width <= 64 and len(table) > 0:
                self._bulk_build(table)
            else:
                for prefix, hop in table.routes():
                    self.insert(prefix, hop)
        self._invalidate_batch()

    def _bulk_build(self, table: RoutingTable) -> None:
        """Array-native build (width ≤ 64): group the route columns by
        length and zip each group straight into its bucket — no per-prefix
        objects at full-table scale."""
        from .base import sorted_route_arrays

        values, lengths, hops = sorted_route_arrays(table)
        width = self.width
        for length in np.unique(lengths).tolist():
            sel = lengths == length
            keys = values[sel] >> np.uint64(width - length)
            self._by_length[int(length)] = dict(
                zip(keys.tolist(), hops[sel].tolist())
            )
        self._routes = len(values)
        self._reorder()

    def _reorder(self) -> None:
        """Re-derive the longest-first probe order after the set of
        lengths changed."""
        self._lengths = sorted(self._by_length, reverse=True)
        self._probes = [
            (self.width - length, self._by_length[length])
            for length in self._lengths
        ]

    def _invalidate_batch(self) -> None:
        super()._invalidate_batch()
        self._map = None
        self._credit = (
            PROBES_PER_ROUTE * self._routes
            if self.width <= MAX_KERNEL_WIDTH else math.inf
        )

    def insert(self, prefix: Prefix, next_hop: NextHop) -> None:
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            bucket = self._by_length[prefix.length] = {}
            self._reorder()
        shift = self.width - prefix.length
        key = prefix.value >> shift
        if key not in bucket:
            self._routes += 1
        bucket[key] = next_hop
        self._invalidate_batch()

    def delete(self, prefix: Prefix) -> NextHop:
        bucket = self._by_length.get(prefix.length, {})
        hop = bucket.pop(prefix.value >> (self.width - prefix.length), None)
        if hop is None:
            raise KeyError(f"no route for {prefix}")
        self._routes -= 1
        if not bucket:
            del self._by_length[prefix.length]
            self._reorder()
        self._invalidate_batch()
        return hop

    def apply_update(self, prefix: Prefix, next_hop) -> UpdateResult:
        """One hash write (or removal) per update."""
        if next_hop is None:
            self.delete(prefix)
        else:
            self.insert(prefix, next_hop)
        return UpdateResult("patch", 1)

    def lookup(self, address: int) -> NextHop:
        compiled = self._map
        if compiled is not None:
            points, hop_of, acc_of = compiled
            i = bisect_right(points, address) - 1
            hop = hop_of[i]
            n = acc_of[i]
        else:
            hop = NO_ROUTE
            n = 0
            for shift, bucket in self._probes:
                n += 1
                found = bucket.get(address >> shift)
                if found is not None:
                    hop = found
                    break
            self._credit -= n
            if self._credit <= 0:
                self._batch_kernel = self._compile_batch_kernel()
                self._batch_compiled = True
        counter = self.counter
        counter.lookups += 1
        counter.accesses += n
        if n > counter.max_accesses:
            counter.max_accesses = n
        return hop

    def _compile_batch_kernel(self) -> BatchKernel:
        """Flatten the per-length tables into an elementary-interval map.

        Every prefix contributes its range endpoints; within one elementary
        interval the set of matching prefixes — hence both the LPM result
        and the number of length probes :meth:`lookup` performs — is
        constant.  One sorted sweep over the route columns resolves each
        interval start to its innermost covering route.  Sorted by
        (value, length), the routes are the preorder of their nesting
        tree, so:

        * the routes covering an address are those starting at or before
          it, less those that end before it; their count is its depth;
        * its innermost route is the last route starting at or before it
          at that depth (any later one is nested in it and ends before
          the address).

        A batch lookup is then one ``searchsorted`` plus two gathers, and
        a single one a ``bisect``, with access counts equal to the probe
        sequence's."""
        width = self.width
        values, lengths, hops = self._columns()
        n = values.size
        # A map may be compiled mid-run, so each temporary is dropped as
        # soon as it is spent.  A route of length L is found by the probe
        # of L's rank, a miss costs every probe, and a byte holds the
        # count (at most 65 probes).
        rank = np.zeros(width + 1, dtype=np.uint8)
        rank[self._lengths] = np.arange(1, len(self._lengths) + 1)
        found_at = rank[lengths]
        # Last address of each route, computed without the uint64
        # overflow a one-past-end would hit at the top of 64 bits (a
        # shift by 64 reads 0, a host route's empty mask).
        lengths += 64 - width
        last = _ONES >> lengths.astype(np.uint64)
        del lengths
        last |= values
        ends = np.sort(last)
        # Every route's (depth, index) key, in depth-major preorder.
        levels = np.arange(1, n + 1) - np.searchsorted(ends, values)
        levels *= n
        levels += np.arange(n)
        levels.sort()
        # One-past-end wraps to 0 at the top of 64 bits, merging with 0.
        last += np.uint64(1)
        points = np.concatenate((np.zeros(1, dtype=np.uint64), values, last))
        del last
        points.sort()
        points = points[np.concatenate(([True], points[1:] != points[:-1]))]
        inner = np.searchsorted(values, points, side="right") - 1
        depth = inner - np.searchsorted(ends, points)
        depth += 1
        del ends
        covered = np.flatnonzero(depth > 0)
        inner = inner[covered]
        # A point some route starts at is covered innermost by the last
        # (longest) of them; any other covered point looks its route up.
        nested = values[inner] != points[covered]
        inner[nested] = levels[
            np.searchsorted(levels, depth[covered[nested]] * n + inner[nested],
                            side="right") - 1
        ] % n
        hop_of = np.full(points.size, NO_ROUTE, dtype=np.int64)
        acc_of = np.full(points.size, len(self._lengths), dtype=np.uint8)
        hop_of[covered] = hops[inner]
        acc_of[covered] = found_at[inner]
        self._map = (memoryview(points), memoryview(hop_of), memoryview(acc_of))

        def kernel(addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            interval = np.searchsorted(points, addrs, side="right") - 1
            return hop_of[interval], acc_of[interval]

        return kernel

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, lengths, hops)`` of every route, sorted by (value,
        length)."""
        width = self.width
        parts = []
        for length in self._lengths:
            bucket = self._by_length[length]
            keys = np.fromiter(bucket.keys(), dtype=np.uint64, count=len(bucket))
            parts.append((
                keys << np.uint64(width - length),
                np.full(len(bucket), length, dtype=np.int64),
                np.fromiter(bucket.values(), dtype=np.int64, count=len(bucket)),
            ))
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty.astype(np.uint64), empty, empty
        values, lengths, hops = (np.concatenate(c) for c in zip(*parts))
        order = np.lexsort((lengths, values))
        return values[order], lengths[order], hops[order]

    def storage_bytes(self) -> int:
        # Hash entries: key (width/8) + hop (2 bytes); buckets at 1.5x load.
        entries = sum(len(b) for b in self._by_length.values())
        return int(entries * (self.width // 8 + 2) * 1.5)
