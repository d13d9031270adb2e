"""Packet arrival processes (paper Sec. 5.1).

The paper drives each LC at 10 or 40 Gbps with mean packet length 256 bytes
(minimum 40 bytes) and a 5 ns cycle, which yields one packet every 6–74
cycles (10 Gbps) or every 2–18 cycles (40 Gbps).  Interarrival gaps are drawn
uniformly from those integer windows so the average offered load matches the
line rate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import SimulationError

#: Cycle time (5 ns) and packet-size model from the paper.
CYCLE_NS = 5.0
MEAN_PACKET_BYTES = 256
MIN_PACKET_BYTES = 40

#: LC speed (Gbps) → inclusive interarrival window in cycles.
INTERARRIVAL_WINDOWS: Dict[int, Tuple[int, int]] = {
    40: (2, 18),
    10: (6, 74),
}


@dataclass(frozen=True)
class LinkSpec:
    """One LC's external-link aggregate."""

    speed_gbps: int = 40

    @property
    def window(self) -> Tuple[int, int]:
        """The interarrival window; a speed MUST be an integer key of
        :data:`INTERARRIVAL_WINDOWS` (``40.0`` is not one)."""
        try:
            return INTERARRIVAL_WINDOWS[operator.index(self.speed_gbps)]
        except (KeyError, TypeError):
            raise SimulationError(
                f"unsupported LC speed {self.speed_gbps} Gbps; "
                f"supported: {sorted(INTERARRIVAL_WINDOWS)}"
            ) from None

    @property
    def mean_interarrival_cycles(self) -> float:
        low, high = self.window
        return (low + high) / 2.0

    @property
    def offered_mpps(self) -> float:
        """Offered load in million packets per second."""
        return 1000.0 / (self.mean_interarrival_cycles * CYCLE_NS)


def arrival_times(
    n_packets: int,
    speed_gbps: int = 40,
    seed: int = 0,
    start_cycle: int = 0,
) -> np.ndarray:
    """Cycle numbers of ``n_packets`` arrivals at one LC (int64 array):
    :class:`ArrivalClock`'s process drawn in one chunk."""
    if n_packets < 0:
        raise SimulationError("n_packets must be non-negative")
    return ArrivalClock(speed_gbps, seed, start_cycle).next(n_packets)


class ArrivalClock:
    """One LC's arrival process, resumable: interarrival gaps drawn
    uniformly from the link's window.

    ``next(n)`` returns the next ``n`` arrival cycles; concatenating the
    chunks of any split reproduces ``arrival_times(total, ...)``
    bit-for-bit, because NumPy's bounded-integer generation consumes the
    bit stream per value (chunk boundaries don't shift it) and the cumsum
    carry continues from the last emitted cycle.  The streaming simulation
    leans on this: per-LC arrival processes advance window by window
    without ever materializing the whole trace.
    """

    __slots__ = ("_rng", "_low", "_high", "_last", "emitted")

    def __init__(self, speed_gbps: int = 40, seed: int = 0,
                 start_cycle: int = 0):
        self._low, self._high = LinkSpec(speed_gbps).window
        self._rng = np.random.default_rng(seed)
        self._last = start_cycle
        #: Arrivals emitted so far.
        self.emitted = 0

    def next(self, n: int) -> np.ndarray:
        """The next ``n`` arrival cycles (int64, strictly increasing)."""
        if n < 0:
            raise SimulationError("n must be non-negative")
        gaps = self._rng.integers(
            self._low, self._high + 1, size=n, dtype=np.int64
        )
        times = self._last + np.cumsum(gaps)
        if n:
            self._last = int(times[-1])
        self.emitted += n
        return times


def packet_sizes(n_packets: int, seed: int = 0) -> np.ndarray:
    """Packet lengths with the paper's mean (256 B) and floor (40 B):
    shifted exponential, clipped at a 1500 B MTU."""
    rng = np.random.default_rng(seed)
    sizes = MIN_PACKET_BYTES + rng.exponential(
        MEAN_PACKET_BYTES - MIN_PACKET_BYTES, size=n_packets
    )
    return np.clip(sizes, MIN_PACKET_BYTES, 1500).astype(np.int64)
