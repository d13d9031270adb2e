"""Recursive ORTC over an expanded binary trie: the minimise oracle.

The Optimal Route Table Constructor (Draves et al., INFOCOM 1999) in its
textbook three-pass form:

1. **expand** — build a binary trie where every node has zero or two
   children and every leaf knows its inherited next hop;
2. **merge (bottom-up)** — each internal node carries the candidate-hop set
   ``A ∩ B`` of its children if non-empty, else ``A ∪ B``;
3. **select (top-down)** — emit a route at a node only when the hop
   inherited from above is not in the node's candidate set.

``NO_ROUTE`` participates as an ordinary pseudo-hop, so where the
construction must undo a covering route it emits an explicit null route.

The expanded trie costs memory proportional to the total prefix bits, so
this only serves small tables: :func:`repro.routing.minimize.ortc_table`
must reproduce its output bit for bit.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.routing import NO_ROUTE, NextHop, Prefix, RoutingTable


class _Node:
    __slots__ = ("children", "hop", "candidates")

    def __init__(self) -> None:
        self.children: list[Optional[_Node]] = [None, None]
        self.hop: Optional[NextHop] = None       # route ending here
        self.candidates: FrozenSet[NextHop] = frozenset()


def _aggregate_table_recursive(table: RoutingTable) -> RoutingTable:
    """Reference ORTC via the expanded trie."""
    width = table.width
    root = _Node()
    for prefix, hop in table.routes():
        node = root
        for bit in prefix.bits():
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        node.hop = hop

    _merge(root, NO_ROUTE)
    out = RoutingTable(width)
    _select(root, NO_ROUTE, 0, 0, width, out)
    return out


def _merge(node: _Node, inherited: NextHop) -> None:
    """Pass 1+2 fused: normalize to 0-or-2 children and compute candidate
    sets bottom-up (recursion depth is bounded by the address width)."""
    if node.hop is not None:
        inherited = node.hop
    left, right = node.children
    if left is None and right is None:
        node.candidates = frozenset((inherited,))
        return
    if left is None:
        left = node.children[0] = _Node()
    if right is None:
        right = node.children[1] = _Node()
    _merge(left, inherited)
    _merge(right, inherited)
    intersection = left.candidates & right.candidates
    node.candidates = intersection or (left.candidates | right.candidates)


def _select(
    node: _Node,
    inherited: NextHop,
    value: int,
    depth: int,
    width: int,
    out: RoutingTable,
) -> None:
    """Pass 3: emit routes top-down wherever inheritance breaks."""
    if inherited not in node.candidates:
        chosen = min(node.candidates)  # deterministic representative
        if chosen != NO_ROUTE or depth > 0:
            # chosen == NO_ROUTE emits an explicit null route, overriding a
            # covering route emitted above; a depth-0 null route is a no-op
            # and is skipped.
            out.update(Prefix(value, depth, width), chosen)
        inherited = chosen
    left, right = node.children
    if left is not None:
        _select(left, inherited, value, depth + 1, width, out)
    if right is not None:
        _select(
            right,
            inherited,
            value | (1 << (width - 1 - depth)),
            depth + 1,
            width,
            out,
        )
