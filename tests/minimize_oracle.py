"""Scalar minimisation walks: the oracle for the columnar passes.

:mod:`repro.routing.minimize` runs every whole-table pass over packed
columns, one prefix length at a time.  These are the per-entry walks those
passes replaced, kept as the readable reference: the suite requires the
columnar passes to reproduce them entry for entry.  The ORTC oracle is the
module's own scalar :func:`~repro.routing.minimize._ortc_region` (the churn
path) run with its default anchors.

:class:`DictChurnOracle` is the churn state as plain key dicts and sorted
key lists; :class:`~repro.routing.minimize.MinimizeState`, which keeps
read-only sorted columns plus an overlay, must reproduce it op for op.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import TableError
from repro.routing.minimize import (
    KEY_SHIFT,
    _LEN_MASK,
    _ortc_region,
    _resolve_passes,
)
from repro.routing.prefix import Prefix
from repro.routing.table import NO_ROUTE, NextHop, RoutingTable
from repro.routing.updates import RouteUpdate

Entry = Tuple[int, int, int]  # (value, length, hop)


def entries_of(table: RoutingTable) -> List[Entry]:
    """The table as ``(value, length, hop)`` triples."""
    return [(p.value, p.length, h) for p, h in table.routes()]


def remove_covered_entries(entries: List[Entry], width: int) -> List[Entry]:
    """Drop entries whose hop equals their nearest *retained* covering
    entry's hop (``NO_ROUTE`` when nothing covers them).

    Pre-order sweep with an ancestor stack: ancestors are decided before
    descendants, so "retained" is well-defined.
    """
    out: List[Entry] = []
    stack: List[Entry] = []  # retained ancestors of the sweep position
    for v, l, h in sorted(entries):
        while stack:
            av, al, _ = stack[-1]
            if al <= l and (v >> (width - al) if al else 0) == (
                av >> (width - al) if al else 0
            ):
                break
            stack.pop()
        covering = stack[-1][2] if stack else NO_ROUTE
        if h != covering:
            out.append((v, l, h))
            stack.append((v, l, h))
    return out


def ordered_covering_entries(entries: List[Entry], width: int) -> List[Entry]:
    """Sibling merge sweeps, each followed by covered-entry removal, to a
    fixpoint."""
    routes: Dict[int, int] = {
        (v << KEY_SHIFT) | l: h for v, l, h in entries
    }
    changed = True
    while changed:
        changed = False
        by_len: Dict[int, List[int]] = {}
        for k in routes:
            by_len.setdefault(k & _LEN_MASK, []).append(k)
        for l in range(width, 0, -1):
            for k in sorted(by_len.get(l, ())):
                h = routes.get(k)
                if h is None:
                    continue  # consumed by an earlier merge this sweep
                sib = k ^ (1 << (width - l + KEY_SHIFT))
                if routes.get(sib) != h:
                    continue
                del routes[k]
                del routes[sib]
                v = min(k, sib) >> KEY_SHIFT
                parent = (v << KEY_SHIFT) | (l - 1)
                if parent not in routes:
                    by_len.setdefault(l - 1, []).append(parent)
                routes[parent] = h
                changed = True
        pruned = remove_covered_entries(
            [(k >> KEY_SHIFT, k & _LEN_MASK, h) for k, h in routes.items()],
            width,
        )
        if len(pruned) != len(routes):
            changed = True
        routes = {(v << KEY_SHIFT) | l: h for v, l, h in pruned}
    return sorted(
        (k >> KEY_SHIFT, k & _LEN_MASK, h) for k, h in routes.items()
    )


def scalar_pass(name: str, entries: List[Entry], width: int) -> List[Entry]:
    """One pipeline pass as a scalar walk; sorted output."""
    if name == "defaults":
        return remove_covered_entries(entries, width)
    if name == "ortc":
        return sorted(_ortc_region(entries, width))
    return ordered_covering_entries(entries, width)


def scalar_minimize(
    table: RoutingTable, passes: Union[str, Sequence[str]]
) -> Tuple[List[Entry], Dict[str, int]]:
    """The pipeline as scalar walks: ``(sorted entries, after_pass)``."""
    entries = sorted(entries_of(table))
    after: Dict[str, int] = {}
    for name in _resolve_passes(passes):
        entries = scalar_pass(name, entries, table.width)
        after[name] = len(entries)
    return entries, after


class DictChurnOracle:
    """Churn translation over key dicts: the original and the minimised
    table each as a packed key → hop dict plus its sorted key list.

    Start it from the same two tables a
    :class:`~repro.routing.minimize.MinimizeState` holds; :meth:`advance`
    then returns what ``MinimizeState.apply_update`` must return.
    """

    def __init__(
        self, original: List[Entry], minimized: List[Entry], width: int
    ):
        self.width = width
        self.orig = {(v << KEY_SHIFT) | l: h for v, l, h in original}
        self.okeys = sorted(self.orig)
        self.min = {(v << KEY_SHIFT) | l: h for v, l, h in minimized}
        self.mkeys = sorted(self.min)

    def original_entries(self) -> List[Entry]:
        return [(k >> KEY_SHIFT, k & _LEN_MASK, self.orig[k])
                for k in self.okeys]

    def minimized_entries(self) -> List[Entry]:
        return [(k >> KEY_SHIFT, k & _LEN_MASK, self.min[k])
                for k in self.mkeys]

    def _nearest_ancestor(
        self, routes: Dict[int, int], value: int, length: int
    ) -> NextHop:
        """Hop of the nearest strict ancestor in ``routes`` (``NO_ROUTE``
        if uncovered), one dict probe per shorter length."""
        for l in range(length - 1, -1, -1):
            sh = self.width - l
            h = routes.get((((value >> sh) << sh) << KEY_SHIFT) | l)
            if h is not None:
                return h
        return NO_ROUTE

    @staticmethod
    def _range_entries(
        routes: Dict[int, int], skeys: List[int], prefix: Prefix
    ) -> List[Entry]:
        """Every entry at or under ``prefix``, by bisecting the sorted
        key list."""
        lo = bisect_left(skeys, prefix.value << KEY_SHIFT)
        hi = (bisect_left(skeys, (prefix.last_address() + 1) << KEY_SHIFT)
              if prefix.length else len(skeys))
        return [(k >> KEY_SHIFT, k & _LEN_MASK, routes[k])
                for k in skeys[lo:hi] if (k & _LEN_MASK) >= prefix.length]

    def advance(self, update: RouteUpdate) -> List[RouteUpdate]:
        p, h = update.prefix, update.next_hop
        if p.width != self.width:
            raise TableError(
                f"prefix width {p.width} != minimised table width {self.width}"
            )
        k = (p.value << KEY_SHIFT) | p.length
        if h is None:
            if k not in self.orig:
                raise TableError(f"withdrawal of absent prefix {p}")
            del self.orig[k]
            del self.okeys[bisect_left(self.okeys, k)]
        else:
            if k not in self.orig:
                insort(self.okeys, k)
            self.orig[k] = h

        rebuilt = _ortc_region(
            self._range_entries(self.orig, self.okeys, p),
            self.width,
            root_value=p.value,
            root_length=p.length,
            base_hop=self._nearest_ancestor(self.orig, p.value, p.length),
            root_inherited=self._nearest_ancestor(
                self.min, p.value, p.length
            ),
        )
        old = {(v << KEY_SHIFT) | l: hop for v, l, hop
               in self._range_entries(self.min, self.mkeys, p)}
        new = {(v << KEY_SHIFT) | l: hop for v, l, hop in rebuilt}
        ops: List[RouteUpdate] = []
        for kk in sorted(old):
            if kk not in new:
                prefix = Prefix(kk >> KEY_SHIFT, kk & _LEN_MASK, self.width)
                ops.append(RouteUpdate(prefix, None))
                del self.min[kk]
                del self.mkeys[bisect_left(self.mkeys, kk)]
        for kk in sorted(new):
            hop = new[kk]
            if old.get(kk) == hop:
                continue
            prefix = Prefix(kk >> KEY_SHIFT, kk & _LEN_MASK, self.width)
            ops.append(RouteUpdate(prefix, hop))
            if kk not in self.min:
                insort(self.mkeys, kk)
            self.min[kk] = hop
        return ops
