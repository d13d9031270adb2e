"""A minimal discrete-event engine.

The paper simulates 5 ns cycles; simulating every cycle is O(duration), so
this engine is event-driven instead — cycle semantics (integer timestamps,
per-resource serialization) are preserved by the handlers, and cost is
O(events log events).  This follows the guides' first rule: fix the
algorithm before micro-optimizing.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..obs.timeseries import NO_SAMPLE


class EventQueue:
    """A stable min-heap of (time, sequence) ordered events."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.now = 0
        self.processed = 0

    def schedule(self, time: int, handler: Callable[..., None], *args: Any) -> None:
        """Schedule ``handler(*args)`` at cycle ``time`` (must not be in the
        past)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; current time is {self.now}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, args))

    def drain(self) -> List[Tuple[int, int, Callable[..., None], tuple]]:
        """Remove and return every pending ``(time, seq, handler, args)``
        event (heap order, not sorted).

        Used by the array engine to take over a queue that run() pre-seeded
        with fault/churn events: the entries keep their original sequence
        numbers, so a translated replay preserves the exact pop order the
        scalar loop would have produced.
        """
        events, self._heap = self._heap, []
        return events

    def adopt_flat_run(self, seq: int, now: int, processed: int) -> None:
        """Absorb the outcome of an externally-executed (array-engine) run.

        The engine allocated sequence numbers and processed events on this
        queue's behalf; afterwards the queue must look exactly as if it had
        run them itself — same ``now``, same ``processed`` count, and a
        ``_seq`` high-water mark that keeps any later ``schedule`` unique.
        """
        if self._heap:
            raise SimulationError(
                "cannot adopt a flat run with events still pending"
            )
        self._seq = seq
        self.now = now
        self.processed += processed

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        sampler=None,
    ) -> int:
        """Drain the queue (optionally bounded); returns the final time.

        ``sampler`` (a :class:`~repro.obs.timeseries.TimeSeriesSampler`)
        closes a telemetry window before the first event at-or-past its
        boundary, so a window's snapshot reflects exactly the events
        strictly before that boundary.  Without a sampler the boundary is
        a sentinel no event reaches: one dead integer compare per event.
        The sampler only *reads* simulator state, so the event outcome is
        bit-identical either way.
        """
        heap = self._heap
        boundary = sampler.next_boundary if sampler is not None else NO_SAMPLE
        while heap:
            time, _, handler, args = heap[0]
            if until is not None and time > until:
                break
            if time >= boundary:
                boundary = sampler.advance(time)
            heapq.heappop(heap)
            self.now = time
            handler(*args)
            self.processed += 1
            if max_events is not None and self.processed >= max_events:
                break
        return self.now

    def __len__(self) -> int:
        return len(self._heap)


class Resource:
    """A serially-reusable resource (FE, cache port, ...) with integer-cycle
    occupancy; tracks busy time for utilization reporting."""

    __slots__ = ("free_at", "busy_cycles")

    def __init__(self) -> None:
        self.free_at = 0
        self.busy_cycles = 0

    def acquire(self, now: int, duration: int) -> Tuple[int, int]:
        """Reserve the resource for ``duration`` cycles starting no earlier
        than ``now``; returns (start, end)."""
        start = max(now, self.free_at)
        end = start + duration
        self.free_at = end
        self.busy_cycles += duration
        return start, end

    def utilization(self, horizon: int) -> float:
        return self.busy_cycles / horizon if horizon > 0 else 0.0
