"""Replacement policies for the LR-cache and victim cache.

The paper applies a conventional strategy (LRU, FIFO or random) *after* the
mix (M-bit) filter has narrowed the candidate blocks; these classes provide
that final choice.  All state is per-cache and driven by explicit
``touch``/``insert`` notifications so the same policy object works for both
set-associative sets and the fully-associative victim cache.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

from ..errors import CacheConfigError


class ReplacementPolicy(ABC):
    """Chooses which of several candidate entries to evict."""

    name: str = "?"

    @abstractmethod
    def choose(self, candidates: Sequence[object]) -> object:
        """Pick the entry to evict.  Entries expose ``last_used`` (monotone
        touch stamp) and ``inserted`` (monotone insertion stamp)."""


class LRUPolicy(ReplacementPolicy):
    """Evict the least-recently-used candidate (the paper's default)."""

    name = "lru"

    def choose(self, candidates: Sequence[object]) -> object:
        return min(candidates, key=lambda e: e.last_used)


class FIFOPolicy(ReplacementPolicy):
    """Evict the oldest-inserted candidate."""

    name = "fifo"

    def choose(self, candidates: Sequence[object]) -> object:
        return min(candidates, key=lambda e: e.inserted)


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random candidate (seeded for reproducibility)."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose(self, candidates: Sequence[object]) -> object:
        return candidates[self._rng.randrange(len(candidates))]


#: Every replacement policy by name: the domain of ``CacheConfig.policy``.
POLICIES = {cls.name: cls for cls in (LRUPolicy, FIFOPolicy, RandomPolicy)}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Factory: a policy of :data:`POLICIES` (``seed`` drives ``"random"``)."""
    cls = POLICIES.get(name)
    if cls is None:
        raise CacheConfigError(f"unknown replacement policy {name!r}")
    return cls(seed) if cls is RandomPolicy else cls()
