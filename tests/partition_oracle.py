"""Scalar control-bit selection: the oracle for the columnar scorer.

:func:`repro.core.partition.select_partition_bits` scores every (subset,
candidate) pair of a round at once from per-subset histograms.  This is
the per-prefix loop it replaced, kept as the readable reference: for each
round, every remaining candidate is scored on every current subset of
:class:`Prefix` objects, and the subsets are split on the winner.  The
suite requires both to choose the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.routing.prefix import Prefix
from repro.routing.table import RoutingTable


@dataclass(frozen=True)
class BitScore:
    """Score of one candidate bit position over one prefix subset."""

    position: int
    wildcard: int   # Φ*  — prefixes with '*' at this position
    zeros: int      # Φ0
    ones: int       # Φ1

    @property
    def imbalance(self) -> int:
        return abs(self.zeros - self.ones)

    @property
    def key(self) -> Tuple[int, int]:
        """Lexicographic objective: Criterion (1) then Criterion (2)."""
        return (self.wildcard, self.imbalance)


def score_bit(prefixes: Sequence[Prefix], position: int) -> BitScore:
    """Count Φ*, Φ0 and Φ1 for one bit position over a prefix set."""
    wildcard = zeros = ones = 0
    for prefix in prefixes:
        if position >= prefix.length:
            wildcard += 1
        elif (prefix.value >> (prefix.width - 1 - position)) & 1:
            ones += 1
        else:
            zeros += 1
    return BitScore(position, wildcard, zeros, ones)


def scalar_select_bits(
    table: RoutingTable,
    n_bits: int,
    candidate_positions: Optional[Sequence[int]] = None,
) -> List[int]:
    """Choose ``n_bits`` control bits with the paper's recursive criteria,
    one prefix at a time.  ``candidate_positions`` (default: every bit) is
    taken as given: distinct, in range, and at least ``n_bits`` long."""
    if candidate_positions is None:
        candidates = list(range(table.width))
    else:
        candidates = list(candidate_positions)
    chosen: List[int] = []
    # Each subset is the multiset of prefixes compatible with one bit
    # pattern over the chosen bits (wildcards replicated into both).
    subsets: List[List[Prefix]] = [table.prefixes()]
    for _ in range(n_bits):
        best_position = -1
        best_key: Optional[Tuple[int, int, int]] = None
        for position in candidates:
            if position in chosen:
                continue
            # Split every subset hypothetically and combine the sizes as
            # (max partition size, total size, spread).
            sizes: List[int] = []
            for subset in subsets:
                score = score_bit(subset, position)
                sizes.append(score.zeros + score.wildcard)
                sizes.append(score.ones + score.wildcard)
            key = (max(sizes), sum(sizes), max(sizes) - min(sizes))
            if best_key is None or key < best_key:
                best_key = key
                best_position = position
        chosen.append(best_position)
        next_subsets: List[List[Prefix]] = []
        for subset in subsets:
            zeros: List[Prefix] = []
            ones: List[Prefix] = []
            for prefix in subset:
                if best_position >= prefix.length:
                    zeros.append(prefix)
                    ones.append(prefix)
                elif (prefix.value >> (prefix.width - 1 - best_position)) & 1:
                    ones.append(prefix)
                else:
                    zeros.append(prefix)
            next_subsets.extend((zeros, ones))
        subsets = next_subsets
    return chosen
