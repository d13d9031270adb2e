"""Array-native routing tables: columnar storage for full-BGP-scale snapshots.

A million-prefix table materialised as :class:`~repro.routing.prefix.Prefix`
objects costs ~200 bytes per route before any trie is built (a ``Prefix``,
its cached hash, and a dict slot).  :class:`ArrayRoutingTable` stores the
same routes as three parallel columns — value, length, next hop — in
insertion order, and keeps them columnar through mutation:

* bulk readers (`as_arrays`, the packed trie builders via
  :func:`repro.tries.base.sorted_route_arrays`) get the columns directly,
  with no per-prefix objects at any point;
* exact-match ``get``/``in``/``update``/``remove`` share one packed-key
  index (``{(value << KEY_SHIFT) | length: row}``), built on demand once
  a few dozen queries have been answered by scanning the packed-key
  column;
* updating a present route rewrites its hop in place (a column shared
  with another table or handed out to a reader is copied before its
  first write, so ``copy()`` stays zero-copy and isolated); ``remove``
  tombstones the row; a new or re-added route goes into a small ordered
  overlay;
* every other reader (``as_arrays``, iteration, ``lookup``,
  ``next_hops``, ``length_histogram``, ``copy``) goes through one cached
  compacted view: the live rows in row order, then the overlay.

This is exactly dict order: an update keeps a route's position, a
re-added route goes last, and ``version`` rises by one per mutation.

Widths above 64 bits (IPv6) store values as a Python ``list`` of ints since
128-bit values exceed numpy integer dtypes; lengths and hops stay numpy.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import TableError
from .prefix import Prefix
from .table import NO_ROUTE, NextHop, RoutingTable

#: Values column: numpy for widths <= 64, plain ints beyond.
ValueColumn = Union[np.ndarray, List[int]]
Columns = Tuple[ValueColumn, np.ndarray, np.ndarray]

#: Packed route key: ``(value << KEY_SHIFT) | length``.  Sorting packed
#: keys orders prefixes by ``(value, length)``, which is exactly a
#: pre-order walk of the binary trie; 8 bits comfortably hold IPv6 lengths.
KEY_SHIFT = 8
_LEN_MASK = (1 << KEY_SHIFT) - 1

#: Exact-match queries a table answers by scanning its packed-key column
#: before it builds the ``{packed key: row}`` dict.  A scan of a 5k-row
#: LC table costs ~5 µs and the dict ~120 ns per row, so a churned run
#: that touches each LC table a few dozen times never pays for a dict.
_SCANS_BEFORE_INDEX = 64


def _key_dtype(width: int):
    """uint64 where a packed key fits in 64 bits, Python ints beyond."""
    return np.uint64 if width + KEY_SHIFT <= 64 else object


def packed_keys(
    values: ValueColumn, lengths: np.ndarray, width: int
) -> np.ndarray:
    """The packed key of every route, in the :func:`_key_dtype` dtype."""
    dtype = _key_dtype(width)
    if dtype is object:
        values = np.fromiter(map(int, values), dtype=object, count=len(values))
    else:
        values = np.asarray(values, dtype=np.uint64)
    return (values << KEY_SHIFT) | np.asarray(lengths).astype(dtype)


def _take(values: ValueColumn, index: np.ndarray) -> ValueColumn:
    """Rows of a values column by integer index or boolean mask."""
    if isinstance(values, np.ndarray):
        return values[index]
    if index.dtype == bool:
        return list(compress(values, index.tolist()))
    return [values[i] for i in index.tolist()]


class ArrayRoutingTable(RoutingTable):
    """A :class:`RoutingTable` backed by parallel (value, length, hop) columns.

    Construct via :meth:`RoutingTable.from_arrays` (which validates) or
    directly with pre-validated columns (``validate=False``) from the
    synthetic generators and the partitioner.  Semantically identical to
    a dict-backed table, mutation included.
    """

    def __init__(
        self,
        values: ValueColumn,
        lengths: np.ndarray,
        hops: np.ndarray,
        width: int,
        *,
        validate: bool = True,
    ) -> None:
        # NOTE: deliberately does not call RoutingTable.__init__ — that
        # would eagerly create the dict this class exists to avoid.
        self.width = width
        if width <= 64:
            values = np.asarray(values, dtype=np.uint64)
        lengths = np.asarray(lengths, dtype=np.int64)
        hops = np.asarray(hops, dtype=np.int64)
        n = len(values)
        if len(lengths) != n or len(hops) != n:
            raise TableError(
                f"column lengths differ: {n} values, {len(lengths)} lengths, "
                f"{len(hops)} hops"
            )
        if validate:
            self._validate(values, lengths, width)
        # Base rows: positions never move; hops are rewritten in place
        # (after a private copy, ``_own_hops``) and removals tombstone.
        self._a_values: ValueColumn = values
        self._a_lengths: np.ndarray = lengths
        self._a_hops: np.ndarray = hops
        self._own_hops = False
        self._alive: Optional[np.ndarray] = None  # None: every row alive
        self._n_dead = 0
        #: New and re-added routes, packed key → hop, in insertion order.
        self._overlay: Dict[int, NextHop] = {}
        # Exact match: a packed-key column scanned per query, replaced by
        # a {packed key: row} dict after _SCANS_BEFORE_INDEX queries.
        self._keys: Optional[np.ndarray] = None
        self._scans = 0
        self._index: Optional[Dict[int, int]] = None
        self._view_cols: Optional[Columns] = None
        self.version = n

    @staticmethod
    def _validate(
        values: ValueColumn, lengths: np.ndarray, width: int
    ) -> None:
        n = len(values)
        if n == 0:
            return
        if lengths.size and (
            int(lengths.min()) < 0 or int(lengths.max()) > width
        ):
            bad = int(lengths[(lengths < 0) | (lengths > width)][0])
            raise TableError(f"length {bad} out of range [0, {width}]")
        if width <= 64:
            vals = np.asarray(values, dtype=np.uint64)
            shifts = (width - lengths).astype(np.uint64)
            # Host-bit check: zeroing the host bits must be a no-op.  A
            # length-0 row shifts by the full width — well-defined here
            # only because numpy masks shift counts; special-case it.
            masked = np.where(
                lengths == 0,
                np.uint64(0),
                (vals >> shifts) << shifts,
            )
            if not np.array_equal(masked, vals):
                i = int(np.nonzero(masked != vals)[0][0])
                raise TableError(
                    f"host bits of {int(vals[i]):#x}/{int(lengths[i])} "
                    f"are not zero (width {width})"
                )
            if np.unique(packed_keys(vals, lengths, width)).size != n:
                raise TableError("duplicate route in from_arrays columns")
        else:
            seen = set()
            for v, l in zip(values, lengths.tolist()):
                v = int(v)
                if v & ((1 << (width - l)) - 1):
                    raise TableError(
                        f"host bits of {v:#x}/{l} are not zero (width {width})"
                    )
                key = (v, l)
                if key in seen:
                    raise TableError("duplicate route in from_arrays columns")
                seen.add(key)

    # -- columns -----------------------------------------------------------

    def _view(self) -> Columns:
        """The live routes as (values, lengths, hops) in iteration order:
        live base rows, then the overlay.  Cached until the next mutation."""
        view = self._view_cols
        if view is None:
            values, lengths, hops = self._a_values, self._a_lengths, self._a_hops
            alive = self._alive
            if alive is not None:
                values = _take(values, alive)
                lengths, hops = lengths[alive], hops[alive]
            elif not self._overlay:
                # The view aliases the hop column: a later hop rewrite
                # must not show through to whoever holds it.
                self._own_hops = False
            if self._overlay:
                keys = list(self._overlay)
                o_values = [k >> KEY_SHIFT for k in keys]
                o_lengths = np.fromiter(
                    (k & _LEN_MASK for k in keys), dtype=np.int64,
                    count=len(keys),
                )
                o_hops = np.fromiter(
                    self._overlay.values(), dtype=np.int64, count=len(keys)
                )
                if isinstance(values, np.ndarray):
                    values = np.concatenate(
                        (values, np.array(o_values, dtype=np.uint64))
                    )
                else:
                    values = list(values) + o_values
                lengths = np.concatenate((lengths, o_lengths))
                hops = np.concatenate((hops, o_hops))
            view = self._view_cols = (values, lengths, hops)
        return view

    def as_arrays(self) -> Columns:
        """The (values, lengths, hops) columns in iteration order.

        Zero-copy while nothing was removed or added; a compacted copy
        (cached until the next mutation) afterwards.  Treat the result as
        read-only.
        """
        return self._view()

    def _base_row(self, key: int) -> Optional[int]:
        """The base row of route ``key``, live or tombstoned, or None."""
        index = self._index
        if index is not None:
            return index.get(key)
        keys = self._keys
        if keys is None:
            keys = self._keys = packed_keys(
                self._a_values, self._a_lengths, self.width
            )
        if self._scans < _SCANS_BEFORE_INDEX:
            self._scans += 1
            hit = np.flatnonzero(keys == key)
            return int(hit[0]) if hit.size else None
        index = self._index = dict(zip(keys.tolist(), range(len(keys))))
        self._keys = None
        return index.get(key)

    def _live_row(self, key: int) -> Optional[int]:
        """The base row holding live route ``key``, or None."""
        row = self._base_row(key)
        if row is None or (self._alive is not None and not self._alive[row]):
            return None
        return row

    # -- mutation ----------------------------------------------------------

    def update(self, prefix: Prefix, next_hop: NextHop) -> None:
        self._check_width(prefix)
        key = (prefix.value << KEY_SHIFT) | prefix.length
        row = None if key in self._overlay else self._live_row(key)
        if row is None:
            self._overlay[key] = next_hop
        else:
            if not self._own_hops:
                self._a_hops = self._a_hops.copy()
                self._own_hops = True
            self._a_hops[row] = next_hop
        self._view_cols = None
        self.version += 1

    def remove(self, prefix: Prefix) -> NextHop:
        self._check_width(prefix)
        key = (prefix.value << KEY_SHIFT) | prefix.length
        next_hop = self._overlay.pop(key, None)
        if next_hop is None:
            row = self._live_row(key)
            if row is None:
                raise TableError(f"no route for {prefix}")
            if self._alive is None:
                self._alive = np.ones(len(self._a_hops), dtype=bool)
            self._alive[row] = False
            self._n_dead += 1
            next_hop = int(self._a_hops[row])
        self._view_cols = None
        self.version += 1
        return next_hop

    # -- queries -----------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[NextHop]:
        if prefix.width != self.width:
            return None
        key = (prefix.value << KEY_SHIFT) | prefix.length
        hop = self._overlay.get(key)
        if hop is None:
            row = self._live_row(key)
            if row is not None:
                hop = int(self._a_hops[row])
        return hop

    def lookup(self, address: int) -> NextHop:
        if self.width > 64:
            return super().lookup(address)
        values, lengths, hops = self._view()
        if len(values) == 0:
            return NO_ROUTE
        # Clip the shift to 63 (a 64-bit shift is undefined for numpy
        # ints); length-0 rows match everything and are patched after.
        shifts = np.minimum(
            (self.width - lengths).astype(np.uint64), np.uint64(63)
        )
        addr = np.uint64(address)
        match = (values >> shifts) == (addr >> shifts)
        match |= lengths == 0
        if not bool(match.any()):
            return NO_ROUTE
        cand = np.nonzero(match)[0]
        best = cand[int(np.argmax(lengths[cand]))]
        return int(hops[best])

    def routes(self) -> Iterator[Tuple[Prefix, NextHop]]:
        values, lengths, hops = self._view()
        vlist = (
            values.tolist() if isinstance(values, np.ndarray)
            else map(int, values)
        )
        prefixes = map(Prefix, vlist, lengths.tolist(), repeat(self.width))
        return zip(prefixes, hops.tolist())

    def prefixes(self) -> List[Prefix]:
        return [p for p, _ in self.routes()]

    def next_hops(self) -> List[NextHop]:
        hops = self._view()[2]
        _, first = np.unique(hops, return_index=True)
        return [int(hops[i]) for i in np.sort(first)]

    def has_default_route(self) -> bool:
        return bool((self._view()[1] == 0).any())

    def length_histogram(self) -> Dict[int, int]:
        lengths = self._view()[1]
        uniq, first, counts = np.unique(
            lengths, return_index=True, return_counts=True
        )
        # Preserve the dict-backed contract: keys in first-seen order.
        order = np.argsort(first, kind="stable")
        return {int(uniq[i]): int(counts[i]) for i in order}

    def copy(self) -> "RoutingTable":
        return ArrayRoutingTable(*self._view(), self.width, validate=False)

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._a_hops) - self._n_dead + len(self._overlay)

    def __contains__(self, prefix: Prefix) -> bool:
        if prefix.width != self.width:
            return False
        key = (prefix.value << KEY_SHIFT) | prefix.length
        return key in self._overlay or self._live_row(key) is not None

    def __iter__(self) -> Iterator[Prefix]:
        return (p for p, _ in self.routes())

    def __repr__(self) -> str:
        return f"ArrayRoutingTable({len(self)} routes, width={self.width})"


def table_columns(table: RoutingTable) -> Columns:
    """(values, lengths, hops) columns for any table, array-backed or not."""
    if isinstance(table, ArrayRoutingTable):
        return table.as_arrays()
    routes = table._routes
    n = len(routes)
    lengths = np.fromiter((p.length for p in routes), dtype=np.int64, count=n)
    hops = np.fromiter(routes.values(), dtype=np.int64, count=n)
    if table.width <= 64:
        values = np.fromiter(
            (p.value for p in routes), dtype=np.uint64, count=n
        )
        return values, lengths, hops
    return [p.value for p in routes], lengths, hops
