"""Scalar minimisation walks: the oracle for the columnar passes.

:mod:`repro.routing.minimize` runs every whole-table pass over packed
columns, one prefix length at a time.  These are the per-entry walks those
passes replaced, kept as the readable reference: the suite requires the
columnar passes to reproduce them entry for entry.  The ORTC oracle is the
module's own scalar :func:`~repro.routing.minimize._ortc_region` (the churn
path) run with its default anchors.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.routing.minimize import (
    KEY_SHIFT,
    _LEN_MASK,
    _ortc_region,
    _resolve_passes,
)
from repro.routing.table import NO_ROUTE, RoutingTable

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
