"""FIB minimisation: two named, churn-safe table-compression pipelines.

SPAL's storage story (paper Tables 2–4) assumes each line card's CRAM holds
its raw partition of the table.  The classical pre-partition mitigation is
FIB minimisation — shrink the table *before* partitioning, without changing
a single lookup answer.  This module has three passes and names one
pipeline per distinct output (:data:`PASS_SETS`):

* ``"full"`` is ORTC alone — :func:`ortc_table`: the Optimal Route Table
  Constructor (Draves et al., INFOCOM 1999), reimplemented over a Patricia
  closure of the prefix set (original prefixes plus the pairwise lowest
  common ancestors of the sorted sequence, at most ``2n - 1`` nodes) with
  candidate sets as hop bitmasks and O(1) collapse arithmetic for
  path-compressed edges.  Unlike the textbook recursive construction, no
  expanded binary trie is ever built.  Output is provably *minimal*: no
  smaller LPM-equivalent table exists.  It depends only on the forwarding
  function, so an LPM-equivalent pre-pass cannot change it, and a sweep
  after it finds nothing to merge.
* ``"light"`` is ``defaults`` then ``oc``, the cheap SpiNNaker pipeline:
  :func:`remove_default_routes` drops every entry whose next hop equals
  the next hop of its nearest retained covering entry (removing it changes
  no longest-prefix-match answer), and :func:`ordered_covering` merges
  sibling pairs that share a next hop into their parent (whose own entry,
  if present, is unreachable — the two siblings cover its whole range),
  iterated with covered-entry removal to a fixpoint.

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

The churn state is both tables as the sorted columns the passes built,
read-only, each with an overlay of the keys churn has touched.  Reads go
through ``searchsorted`` on the base and apply the overlay on top; base
positions never move, so a schedule's prefixes are located in one
vectorised batch, and a fork copies only the overlays.  Churn costs
scale with the schedule, not with the table.
"""

from __future__ import annotations

import copy
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TableError
from .arraytable import (
    _LEN_MASK,
    KEY_SHIFT,
    ArrayRoutingTable,
    packed_keys,
    table_columns,
)
from .churn import ChurnEvent, ChurnSchedule
from .prefix import Prefix
from .table import NO_ROUTE, NextHop, RoutingTable
from .updates import RouteUpdate

#: Pass sets accepted by :func:`minimize_table` (``SpalConfig.minimize``
#: takes ``"full"`` only): one name per distinct output.
PASS_SETS: Dict[str, Tuple[str, ...]] = {
    "full": ("ortc",),
    "light": ("defaults", "oc"),
}

_Entry = Tuple[int, int, int]  # (value, length, hop)
#: A table as ``(packed keys, hops)`` columns, sorted by key.
_Columns = Tuple[np.ndarray, np.ndarray]


def _resolve_passes(passes: str) -> Tuple[str, ...]:
    try:
        return PASS_SETS[passes]
    except (KeyError, TypeError):
        raise TableError(
            f"unknown minimisation mode {passes!r}; "
            f"expected one of {sorted(PASS_SETS)}"
        ) from None


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
# Covered-entry removal ("remove default routes")
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
    """``light``'s first pass as a standalone transform (LPM-equivalent)."""
    return _transform(table, _remove_covered)


# ---------------------------------------------------------------------------
# ORTC over a Patricia closure (path-compressed)
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


# ---------------------------------------------------------------------------
# Ordered covering (sibling merge + covered removal, to fixpoint)
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
    """``light``'s second pass as a standalone transform (LPM-equivalent).

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


#: Where a prefix sits in a table's base columns: ``{length: base row}``
#: of the prefix and its ancestors the base holds, and the base rows
#: ``[lo, end)`` of the prefix's subtree.
_Located = Tuple[Dict[int, int], int, int]

#: Updates located per vectorised batch (bounds the batch's temporaries).
_LOCATE_BLOCK = 4096


def _probe_table(
    width: int, lengths: List[int], dtype
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per prefix length ``L``, the rungs that probe a length-``L`` prefix
    for a table holding ``lengths``: rung ``i`` is
    ``(vkey & masks[L, i]) + adds[L, i]`` for ``vkey = value << KEY_SHIFT``.

    Rung 0 is the key just past the prefix's range (it may wrap where
    that passes every key, and is then not read), rung 1 the prefix's own
    key, and rung ``2 + j`` its ancestor at ``lengths[j]``.
    ``rung_lengths[L, i]`` is the length of the key rung ``i`` probes,
    and -1 where no key is probed: rung 0, and the rungs of
    ``lengths[j] >= L``, which repeat rung 1.
    """
    full = (1 << width) - 1
    masks, adds, rung_lengths = [], [], []
    for length in range(width + 1):
        m = [full << KEY_SHIFT, full << KEY_SHIFT]
        a = [1 << (width - length + KEY_SHIFT) if length else 0, length]
        r = [-1, length]
        for l in lengths:
            if l < length:
                m.append(((full >> (width - l)) << (width - l)) << KEY_SHIFT)
                a.append(l)
                r.append(l)
            else:
                m.append(full << KEY_SHIFT)
                a.append(length)
                r.append(-1)
        masks.append(m)
        adds.append(a)
        rung_lengths.append(r)
    return (np.array(masks, dtype=dtype), np.array(adds, dtype=dtype),
            np.array(rung_lengths, dtype=np.int64))


#: An overlay lookup's "not in the overlay".
_BASE = object()


class _ChurnedColumns:
    """One table under churn: the sorted ``(packed key, hop)`` columns it
    was built with, read-only, plus an overlay of what churn changed.

    ``overlay`` maps a packed key to its current hop, or to ``None`` where
    churn withdrew it; ``overlay_keys`` holds the same keys sorted, for
    range reads.  Every read goes through the base columns first and
    applies the overlay on top, so a fork copies only the overlay.
    """

    __slots__ = ("width", "keys", "hops", "size", "overlay", "overlay_keys",
                 "overlay_lengths", "levels", "_probe")

    def __init__(self, keys: np.ndarray, hops: np.ndarray, width: int):
        keys.flags.writeable = False
        hops.flags.writeable = False
        self.width = width
        self.keys, self.hops = keys, hops
        #: Routes present now (base plus overlay).
        self.size = len(keys)
        self.overlay: Dict[int, Optional[NextHop]] = {}
        self.overlay_keys: List[int] = []
        self.overlay_lengths: set = set()
        # The prefix lengths the base holds (26 in a full IPv4 feed, 13 in
        # IPv6): a prefix's ancestors are looked for at these lengths only.
        lengths = np.flatnonzero(np.bincount(
            (keys & _LEN_MASK).astype(np.int64), minlength=width + 1
        )).tolist()
        #: Sorted lengths the base or the overlay has ever held.
        self.levels: List[int] = lengths
        self._probe = _probe_table(width, lengths, keys.dtype)

    def fork(self) -> "_ChurnedColumns":
        fork = copy.copy(self)
        fork.overlay = dict(self.overlay)
        fork.overlay_keys = list(self.overlay_keys)
        fork.overlay_lengths = set(self.overlay_lengths)
        fork.levels = list(self.levels)
        return fork

    def locate(self, prefixes: Sequence[Prefix]) -> List[Optional[_Located]]:
        """Where each prefix sits in the base columns (``None`` for a
        prefix of another width): one ``searchsorted`` probes every
        prefix, its ancestor candidates and its range end.  The base never
        changes, so a whole schedule can be located before any of it is
        applied."""
        keys, width = self.keys, self.width
        n = len(keys)
        out: List[Optional[_Located]] = [None] * len(prefixes)
        idx = [i for i, p in enumerate(prefixes) if p.width == width]
        if not n:
            for i in idx:
                out[i] = ({}, 0, 0)
            return out
        if not idx:
            return out
        masks, adds, rung_lengths = self._probe
        at_length = np.array([prefixes[i].length for i in idx])
        vkeys = np.array([prefixes[i].value << KEY_SHIFT for i in idx],
                         dtype=keys.dtype)
        ladder = (masks[at_length] & vkeys[:, None]) + adds[at_length]
        at = keys.searchsorted(ladder)
        probed = rung_lengths[at_length]
        r, c = ((keys.take(at, mode="clip") == ladder)
                & (probed >= 0)).nonzero()
        present: List[Dict[int, int]] = [{} for _ in idx]
        for row, length, base_row in zip(r.tolist(), probed[r, c].tolist(),
                                         at[r, c].tolist()):
            present[row][length] = base_row
        for j, (end, lo) in enumerate(at[:, :2].tolist()):
            i = idx[j]
            if (prefixes[i].last_address() + 1) >> width:
                end = n
            out[i] = (present[j], lo, end)
        return out

    def nearest(self, prefix: Prefix, present: Dict[int, int]) -> NextHop:
        """Hop of ``prefix``'s nearest strict ancestor (``NO_ROUTE`` if
        none), from its :meth:`locate` ``present``."""
        value, width = prefix.value, self.width
        olengths = self.overlay_lengths
        levels = self.levels
        for l in reversed(levels[:bisect_left(levels, prefix.length)]):
            if l in olengths:
                sh = width - l
                hop = self.overlay.get(
                    (((value >> sh) << sh) << KEY_SHIFT) | l, _BASE
                )
                if hop is not _BASE:
                    if hop is not None:
                        return hop
                    continue
            row = present.get(l)
            if row is not None:
                return self.hops.item(row)
        return NO_ROUTE

    def region(
        self, lo: int, end: int, key: int, hi: Optional[int]
    ) -> Dict[int, NextHop]:
        """Packed key → hop of every route at or under the prefix whose
        key is ``key`` (``hi``: the key just past its range, ``None`` past
        every key), from its :meth:`locate` base rows ``[lo, end)``."""
        out = dict(zip(self.keys[lo:end].tolist(),
                       self.hops[lo:end].tolist()))
        okeys = self.overlay_keys
        if okeys:
            a = bisect_left(okeys, key)
            b = len(okeys) if hi is None else bisect_left(okeys, hi)
            for k in okeys[a:b]:
                hop = self.overlay[k]
                if hop is None:
                    out.pop(k, None)
                else:
                    out[k] = hop
        return out

    def set(self, key: int, hop: Optional[NextHop]) -> None:
        """Record ``key``'s new hop (``None``: withdrawn) in the overlay;
        the caller keeps :attr:`size`."""
        if key not in self.overlay:
            insort(self.overlay_keys, key)
            length = key & _LEN_MASK
            if length not in self.overlay_lengths:
                self.overlay_lengths.add(length)
                if length not in self.levels:
                    insort(self.levels, length)
        self.overlay[key] = hop

    def columns(self) -> _Columns:
        """The current table as sorted ``(packed keys, hops)`` columns."""
        keys, hops = self.keys, self.hops
        if not self.overlay:
            return keys, hops
        okeys = np.array(self.overlay_keys, dtype=keys.dtype)
        ohops = [self.overlay[k] for k in self.overlay_keys]
        live = np.array([h is not None for h in ohops], dtype=bool)
        keep = np.ones(len(keys), dtype=bool)
        if len(keys):
            at = keys.searchsorted(okeys)
            keep[at[keys.take(at, mode="clip") == okeys]] = False
        keys = np.concatenate((keys[keep], okeys[live]))
        hops = np.concatenate((
            hops[keep],
            np.array([h for h in ohops if h is not None], dtype=np.int64),
        ))
        order = np.argsort(keys)
        return keys[order], hops[order]


class MinimizeState:
    """A minimised table plus everything needed to keep it live under churn.

    ``state.table`` is the minimised :class:`RoutingTable` — hand it to
    :func:`~repro.core.partition.partition_table`, tries, or the
    simulator.  ``state.apply_update`` maps one original-table update to
    the minimal announce/withdraw diff on the minimised table (splitting
    merged entries as needed), and ``state.translate_schedule`` maps a
    whole churn schedule up front.

    The churn state is the original and the minimised table as the sorted
    ``(packed key, hop)`` columns :func:`minimize_table` built, read-only,
    each with a small overlay of the keys churn touched
    (``_ChurnedColumns``).  Updates are located in the base columns with
    one ``searchsorted`` per block of updates, then each costs its region
    and a few overlay probes; a fork copies only the overlays.  Churn
    costs scale with the schedule, not with the table.
    """

    def __init__(
        self,
        width: int,
        original: Tuple[np.ndarray, np.ndarray],
        minimized: Tuple[np.ndarray, np.ndarray],
        stats: MinimizeStats,
    ):
        """``original`` and ``minimized`` are ``(packed keys, hops)``
        columns sorted by key; the state marks them read-only and keeps
        them as its churn base."""
        self.width = width
        self.stats = stats
        self._orig = _ChurnedColumns(*original, width)
        self._min = _ChurnedColumns(*minimized, width)
        #: The minimised routing table (mutated in place by apply_update).
        self.table = _table_of(*minimized, width)

    # -- views ---------------------------------------------------------------

    @property
    def original_routes(self) -> int:
        return self._orig.size

    @property
    def minimized_routes(self) -> int:
        return self._min.size

    @property
    def ratio(self) -> float:
        """Current original/minimised size ratio (drifts under churn)."""
        if not self._orig.size:
            return 1.0
        return self._orig.size / max(self._min.size, 1)

    def original_table(self) -> RoutingTable:
        """Materialise the (churn-evolved) original table — the oracle the
        equivalence contract is stated against."""
        return _table_of(*self._orig.columns(), self.width)

    def _fork(self) -> "MinimizeState":
        """An independent copy of the churn state, with no table:
        :meth:`translate_schedule` advances it through a schedule via
        :meth:`_advance` without touching this state.  The base columns
        are shared (read-only); only the overlays are copied."""
        fork = MinimizeState.__new__(MinimizeState)
        fork.width = self.width
        fork.stats = replace(
            self.stats,
            after_pass=dict(self.stats.after_pass),
            pass_seconds=dict(self.stats.pass_seconds),
        )
        fork._orig = self._orig.fork()
        fork._min = self._min.fork()
        fork.table = None
        return fork

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
        ops = self._advance(update, *self._locate([update.prefix])[0])
        for op in ops:
            if op.next_hop is None:
                self.table.remove(op.prefix)
            else:
                self.table.update(op.prefix, op.next_hop)
        return ops

    def _locate(
        self, prefixes: Sequence[Prefix]
    ) -> List[Tuple[Optional[_Located], Optional[_Located]]]:
        """Where each prefix sits in the original's and the minimised
        table's base columns."""
        return list(zip(self._orig.locate(prefixes),
                        self._min.locate(prefixes)))

    def _advance(
        self,
        update: RouteUpdate,
        orig_at: Optional[_Located],
        min_at: Optional[_Located],
    ) -> List[RouteUpdate]:
        """:meth:`apply_update` on the churn state alone, given where the
        prefix sits in both base tables (:meth:`_locate`); the caller
        applies the returned ops to a table, if it keeps one."""
        p = update.prefix
        h = update.next_hop
        width = self.width
        if p.width != width:
            raise TableError(
                f"prefix width {p.width} != minimised table width {width}"
            )
        length = p.length
        k = (p.value << KEY_SHIFT) | length
        end = p.last_address() + 1
        hi = None if end >> width else end << KEY_SHIFT
        orig, mini = self._orig, self._min
        o_present, o_lo, o_end = orig_at
        m_present, m_lo, m_end = min_at

        known = orig.overlay.get(k, _BASE)
        present = (length in o_present) if known is _BASE else (
            known is not None
        )
        if h is None:
            if not present:
                raise TableError(f"withdrawal of absent prefix {p}")
            orig.size -= 1
        elif not present:
            orig.size += 1
        orig.set(k, h)

        rebuilt = _ortc_region(
            [(kk >> KEY_SHIFT, kk & _LEN_MASK, hop)
             for kk, hop in orig.region(o_lo, o_end, k, hi).items()],
            width,
            root_value=p.value,
            root_length=length,
            base_hop=orig.nearest(p, o_present),
            root_inherited=mini.nearest(p, m_present),
        )

        old = mini.region(m_lo, m_end, k, hi)
        new = {(v << KEY_SHIFT) | l: hop for v, l, hop in rebuilt}
        ops: List[RouteUpdate] = []
        for kk in sorted(old):
            if kk not in new:
                prefix = Prefix(kk >> KEY_SHIFT, kk & _LEN_MASK, width)
                ops.append(RouteUpdate(prefix, None))
                mini.set(kk, None)
                mini.size -= 1
        for kk in sorted(new):
            hop = new[kk]
            was = old.get(kk)
            if was == hop:
                continue
            prefix = Prefix(kk >> KEY_SHIFT, kk & _LEN_MASK, width)
            ops.append(RouteUpdate(prefix, hop))
            if was is None:
                mini.size += 1
            mini.set(kk, hop)
        self.stats.churn_events += 1
        self.stats.churn_ops += len(ops)
        self.stats.churn_entry_delta = (
            mini.size - self.stats.minimized_routes
        )
        return ops

    def translate_schedule(self, schedule: ChurnSchedule) -> ChurnSchedule:
        """Map an original-table churn schedule onto the minimised table.

        Each original event becomes zero or more minimised-table events at
        the *same cycle* (withdrawals before announces, applied atomically
        before that cycle's packet arrivals), computed by advancing a
        fork of this state's churn columns through the schedule —
        translation depends only on the table, never on traffic, which is
        what lets both simulation engines replay the result unmodified.
        The fork shares the read-only base columns and copies only the
        overlays, so translation costs what the schedule touches.
        It also validates the schedule: a withdrawal of an absent prefix
        or a width mismatch raises :class:`~repro.errors.TableError`, and
        every translated op applies cleanly, in order, to :attr:`table`.
        """
        fork = self._fork()
        source = schedule.events()
        events: List[ChurnEvent] = []
        for start in range(0, len(source), _LOCATE_BLOCK):
            block = source[start:start + _LOCATE_BLOCK]
            located = self._locate([ev.update.prefix for ev in block])
            for ev, (orig_at, min_at) in zip(block, located):
                for op in fork._advance(ev.update, orig_at, min_at):
                    events.append(ChurnEvent(ev.cycle, op))
        return ChurnSchedule(events, seed=schedule.seed)


def minimize_table(table: RoutingTable, passes: str = "full") -> MinimizeState:
    """Run the minimisation pipeline; return live, churn-safe state.

    ``passes`` names a pass set: ``"full"`` (ORTC; minimal output) or
    ``"light"`` (defaults → oc, no ORTC).  The returned state's ``.table``
    answers every lookup identically to ``table``.
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
    return MinimizeState(width, original, (keys, hops), stats)


def minimization_ratio(table: RoutingTable, passes: str = "full") -> float:
    """Original size / minimised size (1.0 for an empty table)."""
    return minimize_table(table, passes).stats.ratio


__all__ = [
    "PASS_SETS",
    "MinimizeState",
    "MinimizeStats",
    "minimize_table",
    "minimization_ratio",
    "ortc_table",
    "ordered_covering",
    "remove_default_routes",
]
