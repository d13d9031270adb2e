"""FIB minimisation: a three-pass, churn-safe table-compression pipeline.

SPAL's storage story (paper Tables 2–4) assumes each line card's CRAM holds
its raw partition of the table.  The classical pre-partition mitigation is
FIB minimisation — shrink the table *before* partitioning, without changing
a single lookup answer — and this module implements the standard three-pass
pipeline:

1. ``defaults`` — :func:`remove_default_routes` (after the SpiNNaker
   minimiser of the same name): drop every entry whose next hop equals the
   next hop of its nearest retained covering entry.  Such an entry is
   *redundant*: removing it changes no longest-prefix-match answer because
   the covering entry already supplies the same hop.
2. ``ortc`` — :func:`ortc_table`: the Optimal Route Table Constructor
   (Draves et al., INFOCOM 1999), reimplemented over a Patricia closure of
   the prefix set (original prefixes plus the pairwise lowest common
   ancestors of the sorted sequence, at most ``2n - 1`` nodes) with
   candidate sets as hop bitmasks and O(1) collapse arithmetic for
   path-compressed edges.  Unlike the textbook recursive construction,
   no expanded binary trie is ever built.  Output is provably *minimal*:
   no smaller LPM-equivalent table exists.
3. ``oc`` — :func:`ordered_covering` (again after the SpiNNaker
   exemplar): bottom-up merge of sibling pairs that share a next hop into
   their parent (whose own entry, if present, is unreachable — the two
   siblings cover its whole range), iterated with covered-entry removal to
   a fixpoint.  After a full ORTC pass this is a provable no-op; it exists
   as the cheap standalone pass ("light" mode) and as the historical
   algorithm the pipeline generalises.

**Columnar passes.**  A whole-table pass never walks the table entry by
entry.  It reads the table's packed columns (:func:`table_columns`) as one
sorted column of packed keys ``(value << KEY_SHIFT) | length`` — uint64
where that fits in 64 bits, Python ints (object dtype) beyond, through the
same code — and works one prefix length at a time, so IPv4 takes at most
33 NumPy steps per sweep:

* the Patricia closure (:class:`_Closure`) comes from one vectorised LCA
  of adjacent sorted keys; in a pre-order-sorted set closed under LCA,
  node ``i``'s parent is ``lca(node[i-1], node[i])``, so one
  ``searchsorted`` finds every parent;
* ``defaults`` removes an entry iff its hop equals its nearest *original*
  strict ancestor's (``NO_ROUTE`` when none) — the same answer as the
  nearest-retained rule, because a removed ancestor carries its own
  retained ancestor's hop — read off one top-down pass over the closure;
* ``ortc`` runs the bottom-up merge from the deepest length up and the
  top-down select from the root down, with candidate sets as
  ``(nodes, ⌈A/64⌉)`` uint64 masks over the hop alphabet ``A`` (a full
  feed's 65 hops, 0–64, plus ``NO_ROUTE`` need two words);
* ``oc`` finds equal-hop sibling pairs with one ``searchsorted`` of
  ``value | sibling_bit`` per length, longest first, and prunes covered
  entries with the ``defaults`` kernel.

The churn path (:meth:`MinimizeState.apply_update`) re-minimises regions of
a few routes at a time, where per-call NumPy overhead outweighs the work,
so it keeps the scalar :func:`_ortc_region`; the test suite also uses it as
the whole-table ORTC oracle.

**Equivalence contract.**  Every pass preserves the longest-prefix-match
function exactly: for *every* address, ``minimized.lookup(a) ==
original.lookup(a)`` — including addresses matched by no route
(``NO_ROUTE``).  Like the reference implementation, the constructor may
emit *explicit null routes* (entries whose hop is :data:`NO_ROUTE`) where
it must undo a covering route it chose to widen; these behave as
reject/blackhole routes and answer ``NO_ROUTE`` exactly as the original's
unmatched space did.

**Churn.**  Minimised entries are *merged* originals, so a live update can
invalidate many of them at once.  :class:`MinimizeState` remembers the
original table and, per update, re-minimises only the subtree under the
updated prefix against two anchors — the nearest *original* covering hop
(the merge-pass base) and the nearest *minimised* covering hop (the
select-pass inherited value) — and emits the minimal announce/withdraw
diff.  :meth:`MinimizeState.translate_schedule` maps a whole
:class:`~repro.routing.churn.ChurnSchedule` up front (translation is
traffic-independent), so both simulation engines replay minimised churn
unmodified through the matchers' ``apply_update`` work/cost model.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..errors import TableError
from .arraytable import (
    _LEN_MASK,
    KEY_SHIFT,
    ArrayRoutingTable,
    _key_dtype,
    packed_keys,
    table_columns,
)
from .churn import ChurnEvent, ChurnSchedule
from .prefix import Prefix
from .table import NO_ROUTE, NextHop, RoutingTable
from .updates import RouteUpdate

#: Pass sets accepted by :func:`minimize_table` / ``SpalConfig.minimize``.
PASS_SETS: Dict[str, Tuple[str, ...]] = {
    "full": ("defaults", "ortc", "oc"),
    "ortc": ("ortc",),
    "light": ("defaults", "oc"),
}

_Entry = Tuple[int, int, int]  # (value, length, hop)
#: A table as ``(packed keys, hops)`` columns, sorted by key.
_Columns = Tuple[np.ndarray, np.ndarray]


def _resolve_passes(passes: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    if isinstance(passes, str):
        try:
            return PASS_SETS[passes]
        except KeyError:
            raise TableError(
                f"unknown minimisation mode {passes!r}; "
                f"expected one of {sorted(PASS_SETS)}"
            ) from None
    names = tuple(passes)
    for name in names:
        if name not in _PASSES:
            raise TableError(f"unknown minimisation pass {name!r}")
    return names


# ---------------------------------------------------------------------------
# Packed key columns
# ---------------------------------------------------------------------------

def _sorted_columns(table: RoutingTable) -> _Columns:
    """The table as ``(packed keys, hops)``, sorted by key."""
    values, lengths, hops = table_columns(table)
    keys = packed_keys(values, lengths, table.width)
    order = np.argsort(keys)
    return keys[order], np.asarray(hops, dtype=np.int64)[order]


def _unpack(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, lengths)`` of packed keys; values keep the key dtype."""
    return keys >> KEY_SHIFT, (keys & _LEN_MASK).astype(np.int64)


def _table_of(
    keys: np.ndarray, hops: np.ndarray, width: int
) -> ArrayRoutingTable:
    """A columnar table from sorted columns: no per-prefix objects, and
    it stays columnar when churn mutates it."""
    values, lengths = _unpack(keys)
    values = (
        values.astype(np.uint64, copy=False) if width <= 64
        else values.tolist()
    )
    return ArrayRoutingTable(values, lengths, hops, width, validate=False)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every element, as int64."""
    if x.dtype == object:
        return np.fromiter(map(int.bit_length, x), dtype=np.int64,
                           count=len(x))
    n = np.frexp(x.astype(np.float64))[1].astype(np.int64)
    # The float conversion rounds to nearest, which can carry a value just
    # below 2**k up to 2**k: undo that one step.
    over = (n > 0) & ((x >> np.maximum(n - 1, 0).astype(np.uint64)) == 0)
    return n - over


def _lca(va, la, vb, lb, width: int) -> np.ndarray:
    """Packed keys of the lowest common ancestors of two prefix columns."""
    common = np.minimum(np.minimum(la, lb), width - _bit_length(va ^ vb))
    shift = (width - common).astype(va.dtype)
    return (((va >> shift) << shift) << KEY_SHIFT) | common.astype(va.dtype)


def _by_length(lengths: np.ndarray) -> List[np.ndarray]:
    """Indexes grouped by length, shortest first, each group ascending."""
    # A uint8 stable sort is a radix sort.
    order = np.argsort(lengths.astype(np.uint8), kind="stable")
    return np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1)


class _Closure:
    """The Patricia closure of a sorted key column: the keys, the LCAs of
    adjacent keys and the root ``0/0``, sorted (pre-order).

    ``parent[i]`` is node ``i``'s nearest ancestor in the closure (-1 for
    the root, node 0); ``orig[k]`` is the node of key ``k``; ``levels``
    groups node indexes by length, shortest first, each group ascending
    (``levels[0]`` is the root alone).
    """

    def __init__(self, keys: np.ndarray, width: int):
        values, lengths = _unpack(keys)
        nodes = np.sort(np.concatenate((
            np.zeros(1, dtype=keys.dtype),
            keys,
            _lca(values[:-1], lengths[:-1], values[1:], lengths[1:], width),
        )))
        nodes = nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]
        self.values, self.lengths = _unpack(nodes)
        v, l = self.values, self.lengths
        self.parent = np.empty(len(nodes), dtype=np.int64)
        self.parent[0] = -1
        self.parent[1:] = np.searchsorted(
            nodes, _lca(v[:-1], l[:-1], v[1:], l[1:], width)
        )
        self.orig = np.searchsorted(nodes, keys)
        self.levels = _by_length(l)

    def inherit(self, own: np.ndarray, root) -> np.ndarray:
        """Per node: its key's ``own`` value, else its parent's (``root``
        at a root that is no key) — one top-down pass."""
        eff = np.full(len(self.parent), root, dtype=own.dtype)
        eff[self.orig] = own
        has_own = np.zeros(len(self.parent), dtype=bool)
        has_own[self.orig] = True
        for idx in self.levels[1:]:
            idx = idx[~has_own[idx]]
            eff[idx] = eff[self.parent[idx]]
        return eff


# ---------------------------------------------------------------------------
# Pass 1: covered-entry removal ("remove default routes")
# ---------------------------------------------------------------------------

def _remove_covered(
    keys: np.ndarray, hops: np.ndarray, width: int
) -> _Columns:
    """Drop entries whose hop equals their nearest covering entry's
    (``NO_ROUTE`` when nothing covers them).

    The nearest *original* cover decides: where it was itself removed, it
    carried its own retained cover's hop, so the answer is the same as
    against the nearest *retained* cover.
    """
    closure = _Closure(keys, width)
    eff = closure.inherit(hops, NO_ROUTE)
    parent = closure.parent[closure.orig]
    covering = np.where(parent >= 0, eff[parent], NO_ROUTE)
    keep = hops != covering
    return keys[keep], hops[keep]


def remove_default_routes(table: RoutingTable) -> RoutingTable:
    """Pipeline pass 1 as a standalone transform (LPM-equivalent)."""
    return _transform(table, _remove_covered)


# ---------------------------------------------------------------------------
# Pass 2: ORTC over a Patricia closure (path-compressed)
# ---------------------------------------------------------------------------

def _onehot(symbols: np.ndarray, words: int) -> np.ndarray:
    masks = np.zeros((len(symbols), words), dtype=np.uint64)
    masks[np.arange(len(symbols)), symbols >> 6] = (
        np.uint64(1) << (symbols & 63).astype(np.uint64)
    )
    return masks


def _has(masks: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    word = masks[np.arange(len(symbols)), symbols >> 6]
    return ((word >> (symbols & 63).astype(np.uint64)) & np.uint64(1)) != 0


def _lowest(masks: np.ndarray) -> np.ndarray:
    """The lowest set symbol of every (non-empty) mask."""
    w = (masks != 0).argmax(axis=1)
    word = masks[np.arange(len(w)), w]
    low = word & (~word + np.uint64(1))
    return w * 64 + np.log2(low).astype(np.int64)  # exact: a power of two


def _ortc(keys: np.ndarray, hops: np.ndarray, width: int) -> _Columns:
    """ORTC over the whole table: :func:`_ortc_region` with the default
    anchors, one prefix length at a time.

    Hops become symbols of the sorted alphabet (``NO_ROUTE``, the
    smallest, is symbol 0), so the lowest set bit of a candidate mask is
    ``min(candidates)``, the reference's deterministic tie-break.
    """
    closure = _Closure(keys, width)
    values, lengths, parent = closure.values, closure.lengths, closure.parent
    n = len(parent)
    alphabet = np.unique(np.append(hops, NO_ROUTE))
    words = (len(alphabet) + 63) // 64
    no_route = int(np.searchsorted(alphabet, NO_ROUTE))
    eff = closure.inherit(np.searchsorted(alphabet, hops), no_route)
    # A node's first child is the next node; any other child is its second.
    first = np.zeros(n, dtype=bool)
    first[:-1] = parent[1:] == np.arange(n - 1)
    second = np.full(n, -1, dtype=np.int64)
    later = np.flatnonzero(parent[1:] != np.arange(n - 1)) + 1
    second[parent[later]] = later
    lone = first & (second < 0)  # exactly one explicit child

    # -- merge (bottom-up).  A child's set reaches its parent across the
    #    path-compressed edge: d-1 implicit single-branch levels, each
    #    merging with a uniform {eff[parent]} sibling.  One merge step pins
    #    eff into the set; a second collapses it to {eff}.
    S = np.zeros((n, words), dtype=np.uint64)

    def lifted(kids, level, e, e_mask):
        t = S[kids]
        d = lengths[kids] - level
        pinned = d == 2
        hit = pinned & _has(t, e)
        t[pinned] |= e_mask[pinned]
        t[hit] = e_mask[hit]
        t[d >= 3] = e_mask[d >= 3]
        return t

    for idx in reversed(closure.levels):
        level = int(lengths[idx[0]])
        e = eff[idx]
        e_mask = _onehot(e, words)
        a = e_mask.copy()  # M(a, b) = a & b or a | b; a lone child pairs
        b = e_mask.copy()  # with {eff}, a leaf is M({eff}, {eff})
        k = np.flatnonzero(first[idx])
        a[k] = lifted(idx[k] + 1, level, e[k], e_mask[k])
        k = np.flatnonzero(second[idx] >= 0)
        b[k] = lifted(second[idx[k]], level, e[k], e_mask[k])
        both = a & b
        S[idx] = np.where(both.any(axis=1, keepdims=True), both, a | b)

    # -- select (top-down): a level's parents are chosen before it.
    chosen = np.empty(n, dtype=np.int64)
    out_values, out_lengths, out_symbols = [], [], []

    def emit(v, l, symbols):
        out_values.append(v)
        out_lengths.append(np.broadcast_to(l, len(v)))
        out_symbols.append(symbols)

    for idx in closure.levels:
        level = int(lengths[idx[0]])
        s = S[idx]
        v = values[idx]
        if level == 0:
            inherited = np.full(len(idx), no_route)
        else:
            p = parent[idx]
            i0 = chosen[p]
            e = eff[p]
            below = lengths[p] + 1
            shift = (width - below).astype(v.dtype)
            top = (v >> shift) << shift  # i's ancestor one level below p
            d = level - lengths[p]
            inherited = i0.copy()
            m = np.flatnonzero(d == 2)
            if len(m):
                # One implicit node n1 sits between p and i; its candidate
                # set is M(S_i, {e}) and its off-path side is uniform {e}.
                e_mask = _onehot(e[m], words)
                s1 = s[m] | e_mask
                hit = _has(s[m], e[m])
                s1[hit] = e_mask[hit]
                keep = _has(s1, i0[m])
                i1 = np.where(keep, i0[m], _lowest(s1))
                emit(top[m][~keep], below[m][~keep], i1[~keep])
                repair = i1 != e[m]
                emit(v[m][repair] ^ (1 << (width - level)), level,
                     e[m][repair])
                inherited[m] = i1
            # d >= 3: every implicit set on the chain is exactly {e}; at
            # most one entry (at the first implicit level) repairs a
            # mismatched inheritance, then {e} flows to i.
            chain = d >= 3
            repair = chain & (i0 != e)
            emit(top[repair], below[repair], e[repair])
            inherited[chain] = e[chain]
            # p's only explicit child is i; p's other expanded side is a
            # uniform {e} region needing its own repair entry.
            repair = lone[p] & (i0 != e)
            emit(top[repair] ^ (np.ones_like(top[repair]) << shift[repair]),
                 below[repair], e[repair])
        keep = _has(s, inherited)
        lowest = _lowest(s)
        chosen[idx] = np.where(keep, inherited, lowest)
        new = ~keep
        if level == 0:
            # A root-level NO_ROUTE under a NO_ROUTE inheritance is the one
            # vacuous emission (it would answer what absence answers).
            new &= lowest != no_route
        emit(v[new], level, lowest[new])

    out_keys = (
        (np.concatenate(out_values) << KEY_SHIFT)
        | np.concatenate(out_lengths).astype(keys.dtype)
    )
    order = np.argsort(out_keys)
    return out_keys[order], alphabet[np.concatenate(out_symbols)[order]]


def _ortc_region(
    entries: List[_Entry],
    width: int,
    root_value: int = 0,
    root_length: int = 0,
    base_hop: NextHop = NO_ROUTE,
    root_inherited: NextHop = NO_ROUTE,
) -> List[_Entry]:
    """One ORTC run over ``entries``, all of which must lie under the
    ``(root_value, root_length)`` prefix.

    ``base_hop`` is the effective hop of the space the region inherits from
    *original* routes above it (the merge-pass anchor: every uniform
    off-path region below a node carries its nearest route's hop, and the
    region root's own hop when it has no route of its own).
    ``root_inherited`` is the hop already guaranteed at the region root by
    emitted *minimised* entries above it (the select-pass anchor).  For a
    whole-table run both default to ``NO_ROUTE``; for a churn rebuild they
    genuinely differ — the minimised table above the region may represent
    the original covering route with a different (merged) entry set.

    Returns the emitted ``(value, length, hop)`` entries, minimal for the
    region given the two anchors.  Hops equal to ``NO_ROUTE`` are explicit
    null routes.

    This is the scalar walk :func:`_ortc` vectorises.  Churn regions hold
    a few routes each, too few to repay NumPy's per-call cost, so
    :meth:`MinimizeState._advance` calls this one.
    """
    # -- node set: originals + root + adjacent-pair LCAs (Patricia closure)
    hop_of: Dict[int, int] = {}
    for v, l, h in entries:
        hop_of[(v << KEY_SHIFT) | l] = h
    keys = sorted(hop_of)
    root_key = (root_value << KEY_SHIFT) | root_length
    nodes = set(keys)
    nodes.add(root_key)
    for i in range(len(keys) - 1):
        a, b = keys[i], keys[i + 1]
        va, la = a >> KEY_SHIFT, a & _LEN_MASK
        vb, lb = b >> KEY_SHIFT, b & _LEN_MASK
        x = va ^ vb
        cpl = min(la, lb) if x == 0 else min(la, lb, width - x.bit_length())
        sh = width - cpl
        nodes.add((((va >> sh) << sh) << KEY_SHIFT) | cpl)
    order = sorted(nodes)
    n = len(order)
    vals = [k >> KEY_SHIFT for k in order]
    lens = [k & _LEN_MASK for k in order]

    # -- hop alphabet as bit positions; NO_ROUTE (-1) sorts first, so the
    #    lowest set bit of a candidate mask IS min(candidates), matching
    #    the recursive reference's deterministic tie-break exactly.
    alpha = sorted(set(hop_of.values()) | {base_hop})
    bit_of = {h: 1 << i for i, h in enumerate(alpha)}

    # -- merge (bottom-up): explicit stack, finalize on pop.  Each node
    #    keeps at most two child contributions, each already collapsed to
    #    the level just below this node.
    S = [0] * n          # candidate-set mask per node
    eff = [0] * n        # effective (inherited-or-own) hop per node
    par = [-1] * n
    nkid = [0] * n
    c0 = [0] * n
    c1 = [0] * n

    def _finalize(j: int) -> None:
        e_bit = bit_of[eff[j]]
        k = nkid[j]
        if k == 0:
            s = e_bit
        elif k == 1:
            a, b = c0[j], e_bit
            s = (a & b) or (a | b)
        else:
            a, b = c0[j], c1[j]
            s = (a & b) or (a | b)
        S[j] = s
        p = par[j]
        if p < 0:
            return
        # Collapse the path-compressed edge parent->j: d-1 implicit
        # single-branch levels, each merging with a uniform {eff[parent]}
        # sibling.  One merge step pins eff into the set; a second
        # collapses it to {eff} — so the arithmetic is O(1) in d.
        d = lens[j] - lens[p]
        if d == 1:
            t = s
        else:
            ep = bit_of[eff[p]]
            t = (ep if (s & ep) else (s | ep)) if d == 2 else ep
        if nkid[p] == 0:
            c0[p] = t
        else:
            c1[p] = t
        nkid[p] += 1

    stack: List[int] = []
    for i in range(n):
        v, l = vals[i], lens[i]
        while stack:
            j = stack[-1]
            lj = lens[j]
            if lj <= l and (v >> (width - lj) if lj else 0) == (
                vals[j] >> (width - lj) if lj else 0
            ):
                break
            _finalize(stack.pop())
        if stack:
            par[i] = stack[-1]
            own = hop_of.get(order[i])
            eff[i] = eff[par[i]] if own is None else own
        else:
            own = hop_of.get(order[i])
            eff[i] = base_hop if own is None else own
        stack.append(i)
    while stack:
        _finalize(stack.pop())

    # -- select (top-down): parents precede children in sorted order, so a
    #    single ascending sweep sees chosen[parent] before any child.
    chosen = [0] * n
    out: List[_Entry] = []
    for i in range(n):
        if i == 0:
            inherited = root_inherited
        else:
            p = par[i]
            i0 = chosen[p]
            e = eff[p]
            d = lens[i] - lens[p]
            if d == 1:
                inherited = i0
            elif d == 2:
                # One implicit node n1 sits between p and i; its candidate
                # set is M(S_i, {e}) and its off-path side is uniform {e}.
                ep = bit_of[e]
                s1 = ep if (S[i] & ep) else (S[i] | ep)
                if bit_of.get(i0, 0) & s1:
                    i1 = i0
                else:
                    i1 = alpha[(s1 & -s1).bit_length() - 1]
                    sh = width - lens[p] - 1
                    out.append(((vals[i] >> sh) << sh, lens[p] + 1, i1))
                if i1 != e:
                    out.append(
                        (vals[i] ^ (1 << (width - lens[i])), lens[i], e)
                    )
                inherited = i1
            else:
                # d >= 3: every implicit set on the chain is exactly {e};
                # at most one entry (at the first implicit level) repairs
                # a mismatched inheritance, then {e} flows to i.
                if i0 != e:
                    sh = width - lens[p] - 1
                    out.append(((vals[i] >> sh) << sh, lens[p] + 1, e))
                inherited = e
            if nkid[p] == 1 and chosen[p] != e:
                # p's only explicit child is i; p's other expanded side is
                # a uniform {e} region needing its own repair entry.
                sh = width - lens[p] - 1
                out.append(
                    (((vals[i] >> sh) << sh) ^ (1 << sh), lens[p] + 1, e)
                )
        s = S[i]
        if bit_of.get(inherited, 0) & s:
            chosen[i] = inherited
        else:
            m = alpha[(s & -s).bit_length() - 1]
            chosen[i] = m
            if m != NO_ROUTE or root_inherited != NO_ROUTE or i > 0:
                out.append((vals[i], lens[i], m))
            # A root-level NO_ROUTE under a NO_ROUTE inheritance is the
            # one vacuous emission (it would answer what absence answers).
    return out


def ortc_table(table: RoutingTable) -> RoutingTable:
    """The minimal LPM-equivalent table (columnar ORTC).

    Output is identical to the textbook recursive construction over an
    expanded binary trie (the test suite's oracle) but builds no expanded
    trie: memory and time are ``O(n log n)`` in the number of routes,
    independent of the address width, so it runs on the 1M-prefix
    ``make_full_v4`` snapshot.
    """
    return _transform(table, _ortc)


def aggregation_ratio(table: RoutingTable) -> float:
    """Original size / aggregated size (≥ 1.0); 1.0 for an empty table."""
    if len(table) == 0:
        return 1.0
    return len(table) / max(len(ortc_table(table)), 1)


# ---------------------------------------------------------------------------
# Pass 3: ordered covering (sibling merge + covered removal, to fixpoint)
# ---------------------------------------------------------------------------

def _merge_siblings(
    keys: np.ndarray, hops: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """One bottom-up sweep, longest length first: every pair of siblings
    sharing a hop becomes one entry on their parent, which the next
    (shorter) length then sees.  Returns the new columns and whether
    anything merged."""
    values, lengths = _unpack(keys)
    level = {
        int(lengths[idx[0]]): (values[idx], hops[idx])
        for idx in _by_length(lengths) if len(idx)
    }
    merged = False
    for l in range(width, 0, -1):
        if l not in level:
            continue
        v, h = level[l]
        bit = 1 << (width - l)
        left = np.flatnonzero((v & bit) == 0)
        right = np.minimum(np.searchsorted(v, v[left] | bit), len(v) - 1)
        pair = (v[right] == (v[left] | bit)) & (h[right] == h[left])
        if not pair.any():
            continue
        # Both siblings share a hop: the parent's whole range is covered
        # by the pair, so any existing parent entry is unreachable —
        # replace two (or three) entries with one.
        merged = True
        left, right = left[pair], right[pair]
        gone = np.zeros(len(v), dtype=bool)
        gone[left] = gone[right] = True
        level[l] = (v[~gone], h[~gone])
        pv, ph = v[left], h[left]  # the left sibling's value is the parent's
        if l - 1 in level:
            uv, uh = level[l - 1]
            at = np.minimum(np.searchsorted(uv, pv), len(uv) - 1)
            there = uv[at] == pv
            uh = uh.copy()
            uh[at[there]] = ph[there]
            pv = np.concatenate((uv, pv[~there]))
            ph = np.concatenate((uh, ph[~there]))
            order = np.argsort(pv, kind="stable")
            pv, ph = pv[order], ph[order]
        level[l - 1] = (pv, ph)
    if not merged:
        return keys, hops, False
    out = np.concatenate([(v << KEY_SHIFT) | l for l, (v, _) in level.items()])
    order = np.argsort(out)
    hops = np.concatenate([h for _, h in level.values()])
    return out[order], hops[order], True


def _ordered_covering(
    keys: np.ndarray, hops: np.ndarray, width: int
) -> _Columns:
    """Sibling-merge sweeps, each followed by covered-entry removal, until
    neither changes anything."""
    while True:
        keys, hops, merged = _merge_siblings(keys, hops, width)
        kept_keys, kept_hops = _remove_covered(keys, hops, width)
        if not merged and len(kept_keys) == len(keys):
            return keys, hops
        keys, hops = kept_keys, kept_hops


def ordered_covering(table: RoutingTable) -> RoutingTable:
    """Pipeline pass 3 as a standalone transform (LPM-equivalent).

    After :func:`ortc_table` this is a provable no-op (a surviving merge
    or removal would contradict ORTC's minimality); on raw tables it is
    the cheap sibling-merge minimiser of the SpiNNaker exemplars.
    """
    return _transform(table, _ordered_covering)


_PASSES = {
    "defaults": _remove_covered,
    "ortc": _ortc,
    "oc": _ordered_covering,
}


def _transform(table: RoutingTable, kernel) -> RoutingTable:
    keys, hops = kernel(*_sorted_columns(table), table.width)
    return _table_of(keys, hops, table.width)


# ---------------------------------------------------------------------------
# The pipeline, with churn-safe state
# ---------------------------------------------------------------------------

@dataclass
class MinimizeStats:
    """Counters from one :func:`minimize_table` run (plus live churn)."""

    passes: Tuple[str, ...]
    width: int
    original_routes: int
    minimized_routes: int
    after_pass: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds per pass, keyed like ``after_pass``.
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    null_routes: int = 0
    build_seconds: float = 0.0
    #: Live-churn re-expansion accounting (advanced by ``apply_update``).
    churn_events: int = 0
    churn_ops: int = 0
    churn_entry_delta: int = 0

    @property
    def ratio(self) -> float:
        """Original routes / minimised routes (>= 1.0 for a fresh build)."""
        if self.original_routes == 0:
            return 1.0
        return self.original_routes / max(self.minimized_routes, 1)


def _key_index(
    keys: np.ndarray, hops: np.ndarray
) -> Tuple[List[int], Dict[int, int]]:
    """The sorted key list and the key → hop dict of a column pair,
    sharing one int object per key."""
    key_list = keys.tolist()
    return key_list, dict(zip(key_list, hops.tolist()))


class MinimizeState:
    """A minimised table plus everything needed to keep it live under churn.

    ``state.table`` is the minimised :class:`RoutingTable` — hand it to
    :func:`~repro.core.partition.partition_table`, tries, or the
    simulator.  ``state.apply_update`` maps one original-table update to
    the minimal announce/withdraw diff on the minimised table (splitting
    merged entries as needed), and ``state.translate_schedule`` maps a
    whole churn schedule up front.
    """

    def __init__(
        self,
        width: int,
        original: Tuple[np.ndarray, np.ndarray],
        minimized: Tuple[np.ndarray, np.ndarray],
        passes: Tuple[str, ...],
        stats: MinimizeStats,
    ):
        """``original`` and ``minimized`` are ``(packed keys, hops)``
        columns sorted by key."""
        self.width = width
        self.passes = passes
        self.stats = stats
        self._okeys, self._orig = _key_index(*original)
        self._mkeys, self._min = _key_index(*minimized)
        #: The minimised routing table (mutated in place by apply_update).
        self.table = _table_of(*minimized, width)

    # -- views ---------------------------------------------------------------

    @property
    def original_routes(self) -> int:
        return len(self._orig)

    @property
    def minimized_routes(self) -> int:
        return len(self._min)

    @property
    def ratio(self) -> float:
        """Current original/minimised size ratio (drifts under churn)."""
        if not self._orig:
            return 1.0
        return len(self._orig) / max(len(self._min), 1)

    def original_table(self) -> RoutingTable:
        """Materialise the (churn-evolved) original table — the oracle the
        equivalence contract is stated against."""
        keys, n = self._okeys, len(self._okeys)
        return _table_of(
            np.fromiter(keys, dtype=_key_dtype(self.width), count=n),
            np.fromiter(map(self._orig.__getitem__, keys), dtype=np.int64,
                        count=n),
            self.width,
        )

    def _fork_keys(self) -> "MinimizeState":
        """An independent copy of the packed-key state only, with no
        table: :meth:`translate_schedule` advances it through a schedule
        via :meth:`_advance` without touching this state (copying the
        table would materialise a ``Prefix`` per route for nothing)."""
        from dataclasses import replace

        fork = MinimizeState.__new__(MinimizeState)
        fork.width = self.width
        fork.passes = self.passes
        fork.stats = replace(
            self.stats,
            after_pass=dict(self.stats.after_pass),
            pass_seconds=dict(self.stats.pass_seconds),
        )
        fork._orig = dict(self._orig)
        fork._okeys = list(self._okeys)
        fork._min = dict(self._min)
        fork._mkeys = list(self._mkeys)
        fork.table = None
        return fork

    # -- internals -----------------------------------------------------------

    def _nearest_ancestor(
        self, routes: Dict[int, int], value: int, length: int
    ) -> NextHop:
        """Hop of the nearest strict ancestor of (value, length) present in
        ``routes`` (NO_ROUTE if uncovered) — O(width) dict probes."""
        for l in range(length - 1, -1, -1):
            sh = self.width - l
            k = (((value >> sh) << sh) << KEY_SHIFT) | l
            h = routes.get(k)
            if h is not None:
                return h
        return NO_ROUTE

    def _range_entries(
        self, routes: Dict[int, int], skeys: List[int], prefix: Prefix
    ) -> List[_Entry]:
        """All entries at-or-under ``prefix`` via bisect on the sorted
        packed-key list."""
        lo = bisect_left(skeys, prefix.value << KEY_SHIFT)
        if prefix.length:
            hi = bisect_left(
                skeys, (prefix.last_address() + 1) << KEY_SHIFT
            )
        else:
            hi = len(skeys)
        out = []
        for k in skeys[lo:hi]:
            if (k & _LEN_MASK) >= prefix.length:
                out.append((k >> KEY_SHIFT, k & _LEN_MASK, routes[k]))
        return out

    # -- churn ---------------------------------------------------------------

    def apply_update(self, update: RouteUpdate) -> List[RouteUpdate]:
        """Apply one original-table update; return the minimised-table diff.

        The subtree under ``update.prefix`` is re-minimised (region ORTC)
        against the nearest *original* covering hop (merge anchor) and the
        nearest *minimised* covering hop (select anchor); everything
        outside the subtree is untouched, so the result stays
        lookup-equivalent though possibly no longer globally minimal —
        that drift is the re-expansion cost E23 measures.  Returned ops
        are withdrawals first, then announces, each applicable in order
        against the minimised table (and already applied to
        ``self.table``).
        """
        ops = self._advance(update)
        for op in ops:
            if op.next_hop is None:
                self.table.remove(op.prefix)
            else:
                self.table.update(op.prefix, op.next_hop)
        return ops

    def _advance(self, update: RouteUpdate) -> List[RouteUpdate]:
        """:meth:`apply_update` on the packed-key dicts alone (the caller
        applies the returned ops to a table, if it keeps one)."""
        p = update.prefix
        h = update.next_hop
        if p.width != self.width:
            raise TableError(
                f"prefix width {p.width} != minimised table width {self.width}"
            )
        k = (p.value << KEY_SHIFT) | p.length
        if h is None:
            if k not in self._orig:
                raise TableError(f"withdrawal of absent prefix {p}")
            del self._orig[k]
            del self._okeys[bisect_left(self._okeys, k)]
        else:
            if k not in self._orig:
                insort(self._okeys, k)
            self._orig[k] = h

        region = self._range_entries(self._orig, self._okeys, p)
        base = self._nearest_ancestor(self._orig, p.value, p.length)
        inherited = self._nearest_ancestor(self._min, p.value, p.length)
        rebuilt = _ortc_region(
            region,
            self.width,
            root_value=p.value,
            root_length=p.length,
            base_hop=base,
            root_inherited=inherited,
        )

        old = {
            (v << KEY_SHIFT) | l: hop
            for v, l, hop in self._range_entries(self._min, self._mkeys, p)
        }
        new = {(v << KEY_SHIFT) | l: hop for v, l, hop in rebuilt}
        ops: List[RouteUpdate] = []
        for kk in sorted(old):
            if kk not in new:
                prefix = Prefix(kk >> KEY_SHIFT, kk & _LEN_MASK, self.width)
                ops.append(RouteUpdate(prefix, None))
                del self._min[kk]
                del self._mkeys[bisect_left(self._mkeys, kk)]
        for kk in sorted(new):
            hop = new[kk]
            if old.get(kk) == hop:
                continue
            prefix = Prefix(kk >> KEY_SHIFT, kk & _LEN_MASK, self.width)
            ops.append(RouteUpdate(prefix, hop))
            if kk not in self._min:
                insort(self._mkeys, kk)
            self._min[kk] = hop
        self.stats.churn_events += 1
        self.stats.churn_ops += len(ops)
        self.stats.churn_entry_delta = (
            len(self._min) - self.stats.minimized_routes
        )
        return ops

    def translate_schedule(self, schedule: ChurnSchedule) -> ChurnSchedule:
        """Map an original-table churn schedule onto the minimised table.

        Each original event becomes zero or more minimised-table events at
        the *same cycle* (withdrawals before announces, applied atomically
        before that cycle's packet arrivals), computed by advancing a
        copy of this state's packed keys through the schedule —
        translation depends only on the table, never on traffic, which is
        what lets both simulation engines replay the result unmodified.
        It also validates the schedule: a withdrawal of an absent prefix
        or a width mismatch raises :class:`~repro.errors.TableError`, and
        every translated op applies cleanly, in order, to :attr:`table`.
        """
        fork = self._fork_keys()
        events: List[ChurnEvent] = []
        for ev in schedule.events():
            for op in fork._advance(ev.update):
                events.append(ChurnEvent(ev.cycle, op))
        return ChurnSchedule(events, seed=schedule.seed)


def minimize_table(
    table: RoutingTable, passes: Union[str, Sequence[str]] = "full"
) -> MinimizeState:
    """Run the minimisation pipeline; return live, churn-safe state.

    ``passes`` is ``"full"`` (defaults → ortc → oc), ``"ortc"``,
    ``"light"`` (defaults → oc, no ORTC), or an explicit pass tuple.
    The returned state's ``.table`` answers every lookup identically to
    ``table``.
    """
    t0 = time.perf_counter()
    names = _resolve_passes(passes)
    width = table.width
    original = _sorted_columns(table)
    keys, hops = original
    after: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    for name in names:
        t = time.perf_counter()
        keys, hops = _PASSES[name](keys, hops, width)
        seconds[name] = time.perf_counter() - t
        after[name] = len(keys)
    stats = MinimizeStats(
        passes=names,
        width=width,
        original_routes=len(original[0]),
        minimized_routes=len(keys),
        after_pass=after,
        pass_seconds=seconds,
        null_routes=int(np.count_nonzero(hops == NO_ROUTE)),
        build_seconds=time.perf_counter() - t0,
    )
    return MinimizeState(width, original, (keys, hops), names, stats)


def minimization_ratio(
    table: RoutingTable, passes: Union[str, Sequence[str]] = "full"
) -> float:
    """Original size / minimised size (1.0 for an empty table)."""
    if len(table) == 0:
        return 1.0
    return minimize_table(table, passes).stats.ratio


__all__ = [
    "PASS_SETS",
    "aggregation_ratio",
    "MinimizeState",
    "MinimizeStats",
    "minimize_table",
    "minimization_ratio",
    "ortc_table",
    "ordered_covering",
    "remove_default_routes",
]
