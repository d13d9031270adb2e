"""Timestamped route-churn schedules for the cycle simulator.

:func:`generate_updates` produces an *ordered* update stream; this module
assigns it *timestamps* so the simulator can interleave table changes with
packet events at cycle granularity.  Real BGP churn is not uniform: most
updates arrive in short bursts (AS-path flaps re-announcing the same small
set of unstable prefixes), separated by quiet gaps.  The generator models
that directly — burst sizes are geometric with a configurable mean, events
inside a burst are a few µs apart, and burst start times spread over the
horizon so the *mean* rate matches the requested updates/second.

Locality comes from two places: :func:`generate_updates` concentrates the
update content on a small unstable prefix set (``churn_fraction``), and the
bursty timestamps concentrate them in time.  A
:class:`ChurnSchedule` is deterministic for a given seed and validates that
its events are time-ordered and applicable in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import ChurnScheduleError
from .prefix import Prefix
from .table import NextHop, RoutingTable
from .updates import RouteUpdate, UpdateMix, generate_updates

#: 5 ns cycles (the paper's clock): 2×10^8 cycles per simulated second.
CYCLES_PER_SECOND = 200_000_000


@dataclass(frozen=True)
class ChurnEvent:
    """One timestamped table change."""

    cycle: int
    update: RouteUpdate

    @property
    def prefix(self) -> Prefix:
        return self.update.prefix

    @property
    def next_hop(self) -> Optional[NextHop]:
        return self.update.next_hop


class ChurnSchedule:
    """A time-ordered sequence of :class:`ChurnEvent`.

    Build one with :func:`generate_churn`, or script one by hand with the
    chainable builders (mirroring :class:`repro.core.faults.FaultSchedule`)::

        churn = (ChurnSchedule()
                 .announce(10_000, Prefix.from_string("10.0.0.0/8"), 7)
                 .withdraw(40_000, Prefix.from_string("10.1.0.0/16")))

    Events at equal cycles apply in insertion order; the simulator applies
    an event at cycle T before T's packet arrivals.  An empty schedule is
    equivalent to not passing one at all.
    """

    def __init__(
        self, events: Optional[Sequence[ChurnEvent]] = None, seed: int = 0
    ):
        self.seed = seed
        self._events: List[ChurnEvent] = list(events or [])
        for e in self._events:
            if e.cycle < 0:
                raise ValueError(f"event cycle must be non-negative: {e}")

    # -- builders ----------------------------------------------------------

    def announce(
        self, cycle: int, prefix: Prefix, next_hop: NextHop
    ) -> "ChurnSchedule":
        """Announce (insert or next-hop change) at ``cycle``."""
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        self._events.append(ChurnEvent(cycle, RouteUpdate(prefix, next_hop)))
        return self

    def withdraw(self, cycle: int, prefix: Prefix) -> "ChurnSchedule":
        """Withdraw a route at ``cycle``."""
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        self._events.append(ChurnEvent(cycle, RouteUpdate(prefix, None)))
        return self

    # -- views --------------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self.events())

    def events(self) -> List[ChurnEvent]:
        """Events sorted by cycle (stable: equal cycles keep insertion
        order, so generated streams stay applicable in order)."""
        return sorted(self._events, key=lambda e: e.cycle)

    def updates(self) -> List[RouteUpdate]:
        """The update contents in schedule order."""
        return [e.update for e in self.events()]

    def mean_rate_per_second(self, horizon_cycles: int) -> float:
        """Mean update rate this schedule realizes over ``horizon_cycles``."""
        if horizon_cycles <= 0:
            return 0.0
        return len(self._events) * CYCLES_PER_SECOND / horizon_cycles

    def validate(self, table: RoutingTable) -> None:
        """Check the schedule applies cleanly, in order, to ``table`` (no
        withdrawal of an absent prefix, widths match) without changing it;
        raise :class:`~repro.errors.ChurnScheduleError` if not.

        Only the schedule's own prefixes are looked at: each is checked
        against the events before it, then against ``table``'s exact-match
        index.
        """
        # Per prefix the schedule has touched: present after its last event.
        touched: Dict[Prefix, bool] = {}
        for e in self.events():
            if e.prefix.width != table.width:
                raise ChurnScheduleError(
                    f"prefix width {e.prefix.width} != table width "
                    f"{table.width} at cycle {e.cycle}: {e.prefix}"
                )
            if e.next_hop is None:
                present = touched.get(e.prefix)
                if not (e.prefix in table if present is None else present):
                    raise ChurnScheduleError(
                        f"withdrawal of absent prefix at cycle {e.cycle}: "
                        f"{e.prefix}"
                    )
            touched[e.prefix] = e.next_hop is not None

    def __repr__(self) -> str:
        return (
            f"ChurnSchedule({len(self._events)} events, seed={self.seed})"
        )


def generate_churn(
    table: RoutingTable,
    rate_per_s: float,
    horizon_cycles: int,
    seed: int = 0,
    mix: Optional[UpdateMix] = None,
    churn_fraction: float = 0.05,
    burst_mean: float = 6.0,
    intra_burst_gap_cycles: int = 400,
    next_hop_count: int = 16,
) -> ChurnSchedule:
    """A seeded, bursty churn schedule averaging ``rate_per_s`` updates/s
    over ``horizon_cycles``.

    Update *contents* come from :func:`generate_updates` (always applicable
    in order; churn-skewed per ``churn_fraction``).  *Timestamps* are bursty:
    burst sizes are geometric with mean ``burst_mean``, events inside a
    burst are ``intra_burst_gap_cycles`` apart (2 µs at the default — a BGP
    speaker re-announcing a flapping path), and burst starts are uniform
    over the horizon.  ``rate_per_s=0`` yields an empty schedule.
    """
    if rate_per_s < 0:
        raise ValueError(f"rate_per_s must be non-negative, got {rate_per_s}")
    if horizon_cycles <= 0:
        raise ValueError(
            f"horizon_cycles must be positive, got {horizon_cycles}"
        )
    if burst_mean < 1.0:
        raise ValueError(f"burst_mean must be >= 1, got {burst_mean}")
    if intra_burst_gap_cycles < 1:
        raise ValueError("intra_burst_gap_cycles must be positive")
    n_events = int(round(rate_per_s * horizon_cycles / CYCLES_PER_SECOND))
    if n_events == 0:
        return ChurnSchedule(seed=seed)
    rng = np.random.default_rng(seed)
    sizes: List[int] = []
    remaining = n_events
    while remaining > 0:
        size = int(rng.geometric(1.0 / burst_mean))
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    starts = np.sort(rng.integers(0, horizon_cycles, size=len(sizes)))
    cycles: List[int] = []
    for start, size in zip(starts, sizes):
        for i in range(size):
            cycles.append(int(start) + i * intra_burst_gap_cycles)
    # Assign contents to time-sorted slots so the always-applicable update
    # order is preserved on the simulator's clock.
    cycles.sort()
    updates = generate_updates(
        table,
        n_events,
        seed=seed,
        mix=mix,
        churn_fraction=churn_fraction,
        next_hop_count=next_hop_count,
    )
    events = [
        ChurnEvent(cycle, update) for cycle, update in zip(cycles, updates)
    ]
    return ChurnSchedule(events, seed=seed)
