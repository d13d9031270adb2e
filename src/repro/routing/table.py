"""Routing tables: ordered prefix → next-hop maps with a reference LPM oracle.

The :class:`RoutingTable` is the substrate every trie and the partitioner are
built from.  Its :meth:`RoutingTable.lookup` is a deliberately simple,
obviously-correct longest-prefix-match used as the correctness oracle in
tests; the trie subpackage provides the fast structures.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import TableError
from .prefix import IPV4_WIDTH, Prefix

#: Next-hop type: an opaque small integer (the paper stores ``Next_hop_LC#``).
NextHop = int

#: Conventional next hop for "no route" when a table has no default route.
NO_ROUTE: NextHop = -1


class RoutingTable:
    """A set of ``(prefix, next_hop)`` routes over one address width.

    Supports incremental insert / delete (the paper's routing updates occur
    ~20—100 times per second) and exact-match retrieval.  Iteration order is
    insertion order, which keeps downstream builds deterministic.
    """

    def __init__(self, width: int = IPV4_WIDTH):
        self.width = width
        self._routes: Dict[Prefix, NextHop] = {}
        #: Monotonic counter bumped on every mutation; consumers (tries,
        #: partitions) can use it to detect staleness.
        self.version = 0

    # -- mutation ---------------------------------------------------------

    def add(self, prefix: Prefix, next_hop: NextHop) -> None:
        """Insert a route; replacing an existing prefix is an error
        (use :meth:`update` for that)."""
        self._check_width(prefix)
        if prefix in self:
            raise TableError(f"duplicate route for {prefix}")
        self.update(prefix, next_hop)

    def update(self, prefix: Prefix, next_hop: NextHop) -> None:
        """Insert or overwrite a route."""
        self._check_width(prefix)
        self._routes[prefix] = next_hop
        self.version += 1

    def remove(self, prefix: Prefix) -> NextHop:
        """Delete a route and return its next hop."""
        self._check_width(prefix)
        try:
            next_hop = self._routes.pop(prefix)
        except KeyError as exc:
            raise TableError(f"no route for {prefix}") from exc
        self.version += 1
        return next_hop

    def _check_width(self, prefix: Prefix) -> None:
        if prefix.width != self.width:
            raise TableError(
                f"prefix width {prefix.width} != table width {self.width}"
            )

    # -- queries ----------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[NextHop]:
        """Exact-match retrieval (None if the prefix is not present)."""
        return self._routes.get(prefix)

    def lookup(self, address: int) -> NextHop:
        """Reference longest-prefix match (linear scan; the oracle)."""
        best_len = -1
        best_hop = NO_ROUTE
        for prefix, hop in self.routes():
            if prefix.length > best_len and prefix.matches(address):
                best_len = prefix.length
                best_hop = hop
        return best_hop

    def lookup_prefix(self, address: int) -> Optional[Prefix]:
        """The longest matching prefix itself (None if no route matches)."""
        best: Optional[Prefix] = None
        for prefix in self:
            if prefix.matches(address) and (
                best is None or prefix.length > best.length
            ):
                best = prefix
        return best

    def routes(self) -> Iterator[Tuple[Prefix, NextHop]]:
        return iter(self._routes.items())

    def prefixes(self) -> List[Prefix]:
        return list(self._routes)

    def next_hops(self) -> List[NextHop]:
        """Distinct next hops, in first-seen order."""
        seen: Dict[NextHop, None] = {}
        for hop in self._routes.values():
            seen.setdefault(hop)
        return list(seen)

    def has_default_route(self) -> bool:
        return Prefix.default(self.width) in self._routes

    def length_histogram(self) -> Dict[int, int]:
        """Prefix count per length (the paper cites this distribution)."""
        hist: Dict[int, int] = {}
        for prefix in self._routes:
            hist[prefix.length] = hist.get(prefix.length, 0) + 1
        return hist

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_routes(
        cls,
        routes: Iterable[Tuple[Prefix, NextHop]],
        width: int = IPV4_WIDTH,
    ) -> "RoutingTable":
        table = cls(width)
        for prefix, hop in routes:
            table.update(prefix, hop)
        return table

    @classmethod
    def from_arrays(
        cls,
        values,
        lengths,
        hops,
        width: int = IPV4_WIDTH,
    ) -> "RoutingTable":
        """Build a table from parallel (value, length, next-hop) columns.

        Returns an :class:`~repro.routing.arraytable.ArrayRoutingTable`:
        columnar storage with no per-prefix objects until a consumer
        needs them — the construction path for full-BGP-scale synthetic
        snapshots.  Columns are validated (range, host bits, duplicates)
        and define the table's iteration order.  For widths above 64
        bits pass ``values`` as a list of Python ints.
        """
        from .arraytable import ArrayRoutingTable

        return ArrayRoutingTable(values, lengths, hops, width)

    @classmethod
    def from_strings(
        cls,
        routes: Iterable[Tuple[str, NextHop]],
        width: int = IPV4_WIDTH,
    ) -> "RoutingTable":
        """Build from ``("1.2.3.0/24", hop)`` or binary ``("101*", hop)``."""
        table = cls(width)
        for text, hop in routes:
            table.update(Prefix.from_string(text, width), hop)
        return table

    def copy(self) -> "RoutingTable":
        clone = RoutingTable(self.width)
        clone._routes = dict(self._routes)
        return clone

    # -- dunder -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def __iter__(self) -> Iterator[Prefix]:
        return iter(self._routes)

    def __repr__(self) -> str:
        return f"RoutingTable({len(self._routes)} routes, width={self.width})"
