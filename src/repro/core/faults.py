"""Deterministic fault injection for the SPAL simulator.

The paper's fault-tolerance argument (Sec. 3: a pattern homed on a failed
line card is unreachable unless replicated) is about *transients*: what the
router does between the instant an LC dies and the instant the survivors
absorb its load.  A :class:`FaultSchedule` scripts those transients as
cycle-stamped events that :meth:`repro.sim.spal_sim.SpalSimulator.run`
interleaves with packet arrivals:

* :meth:`FaultSchedule.fail_lc` — an LC fail-stops at a cycle: it accepts
  no new packets (ingress drops), ignores new remote lookup requests
  (requesters time out and fail over to the next live replica), and any
  lookup completing at the dead LC is lost;
* :meth:`FaultSchedule.recover_lc` — the LC rejoins with a cold LR-cache;
* :meth:`FaultSchedule.degrade_fabric` — a window during which every
  fabric message pays extra latency and/or is dropped with a probability
  drawn from the schedule's seeded RNG.

**Gray failures** extend the fail-stop model with partial degradation —
the card is up, just *wrong-slow* or *wrong-lossy*:

* :meth:`FaultSchedule.slow_lc` — a window during which one LC's FE
  service time is multiplied (a thermally-throttled or firmware-degraded
  engine; lookups queue behind the slowdown);
* :meth:`FaultSchedule.flap_link` — periodic fabric loss bursts: inside
  the window, messages entering the fabric during the first
  ``down_cycles`` of every ``period`` are lost (deterministically — a
  flapping optic, not random noise); affected lookups recover through
  the remote-timeout machinery;
* :meth:`FaultSchedule.degrade_lc_cache` — a window during which a
  fraction of one LC's cache hits are forced to miss (bit-flip scrubbing,
  a failing SRAM bank); the entry is discarded and the lookup takes the
  full miss path.

Everything is deterministic: the same schedule, seeds and streams produce
bit-identical :class:`~repro.sim.results.SimulationResult` objects across
repeats and across the batch fast path being on or off, and an *empty*
schedule leaves the simulator's outputs exactly as they were without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..errors import FaultScheduleError


@dataclass(frozen=True)
class LCFailure:
    """Fail-stop of one line card at ``cycle``."""

    cycle: int
    lc: int


@dataclass(frozen=True)
class LCRecovery:
    """Re-admission of a failed line card (cold cache) at ``cycle``."""

    cycle: int
    lc: int


@dataclass(frozen=True)
class FabricDegradation:
    """A fabric brown-out over ``[start, end)``: messages entering the
    fabric in the window pay ``extra_latency`` cycles and are lost with
    probability ``drop_prob`` (seeded RNG, drawn in event order)."""

    start: int
    end: int
    extra_latency: int = 0
    drop_prob: float = 0.0


@dataclass(frozen=True)
class LCSlowdown:
    """A gray failure: LC ``lc``'s FE service time is multiplied by
    ``multiplier`` for lookups starting in ``[start, end)``."""

    start: int
    end: int
    lc: int
    multiplier: float


@dataclass(frozen=True)
class LinkFlap:
    """A gray failure: inside ``[start, end)``, messages entering the
    fabric during the first ``down_cycles`` of every ``period`` are lost.
    ``src``/``dst`` of ``None`` match any source/destination LC."""

    start: int
    end: int
    period: int
    down_cycles: int
    src: Optional[int] = None
    dst: Optional[int] = None


@dataclass(frozen=True)
class LCCacheDegradation:
    """A gray failure: over ``[start, end)``, a ``miss_fraction`` of LC
    ``lc``'s would-be cache hits are forced to miss (the entry is
    discarded and the lookup takes the full miss path); draws come from
    the schedule's seeded RNG in event order."""

    start: int
    end: int
    lc: int
    miss_fraction: float


class FaultSchedule:
    """A scripted, deterministic sequence of fault events.

    Parameters
    ----------
    seed:
        Seed for the RNG behind probabilistic fabric drops.  Runs that
        share a schedule object but need independent drop draws should use
        distinct schedules (the simulator never mutates the schedule; it
        builds its own generator from ``seed`` each run).

    The builder methods return ``self`` so schedules chain::

        faults = (FaultSchedule()
                  .fail_lc(cycle=50_000, lc=2)
                  .recover_lc(cycle=150_000, lc=2))
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.failures: List[LCFailure] = []
        self.recoveries: List[LCRecovery] = []
        self.degradations: List[FabricDegradation] = []
        self.slowdowns: List[LCSlowdown] = []
        self.link_flaps: List[LinkFlap] = []
        self.cache_degradations: List[LCCacheDegradation] = []

    # -- builders ------------------------------------------------------------

    def fail_lc(self, cycle: int, lc: int) -> "FaultSchedule":
        """Fail-stop LC ``lc`` at ``cycle``."""
        if cycle < 0:
            raise FaultScheduleError(f"fault cycle must be >= 0, got {cycle}")
        if lc < 0:
            raise FaultScheduleError(f"LC index must be >= 0, got {lc}")
        self.failures.append(LCFailure(int(cycle), int(lc)))
        return self

    def recover_lc(self, cycle: int, lc: int) -> "FaultSchedule":
        """Re-admit LC ``lc`` at ``cycle`` with a cold LR-cache."""
        if cycle < 0:
            raise FaultScheduleError(f"fault cycle must be >= 0, got {cycle}")
        if lc < 0:
            raise FaultScheduleError(f"LC index must be >= 0, got {lc}")
        self.recoveries.append(LCRecovery(int(cycle), int(lc)))
        return self

    def degrade_fabric(
        self,
        start: int,
        end: int,
        extra_latency: int = 0,
        drop_prob: float = 0.0,
    ) -> "FaultSchedule":
        """Degrade the fabric over ``[start, end)``."""
        if start < 0 or end <= start:
            raise FaultScheduleError(
                f"degradation window [{start}, {end}) is empty or negative"
            )
        if extra_latency < 0:
            raise FaultScheduleError("extra_latency must be non-negative")
        if not 0.0 <= drop_prob < 1.0:
            raise FaultScheduleError(
                f"drop_prob must be in [0, 1), got {drop_prob}"
            )
        self.degradations.append(
            FabricDegradation(int(start), int(end), int(extra_latency), float(drop_prob))
        )
        return self

    def slow_lc(
        self, start: int, end: int, lc: int, multiplier: float
    ) -> "FaultSchedule":
        """Multiply LC ``lc``'s FE service time by ``multiplier`` for
        lookups starting in ``[start, end)``."""
        if start < 0 or end <= start:
            raise FaultScheduleError(
                f"slowdown window [{start}, {end}) is empty or negative"
            )
        if lc < 0:
            raise FaultScheduleError(f"LC index must be >= 0, got {lc}")
        if multiplier < 1.0:
            raise FaultScheduleError(
                f"slowdown multiplier must be >= 1.0, got {multiplier}"
            )
        self.slowdowns.append(
            LCSlowdown(int(start), int(end), int(lc), float(multiplier))
        )
        return self

    def flap_link(
        self,
        start: int,
        end: int,
        period: int,
        down_cycles: int,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> "FaultSchedule":
        """Periodic fabric loss: inside ``[start, end)``, messages entering
        the fabric during the first ``down_cycles`` of every ``period`` are
        lost; ``src``/``dst`` of ``None`` match any LC."""
        if start < 0 or end <= start:
            raise FaultScheduleError(
                f"flap window [{start}, {end}) is empty or negative"
            )
        if period <= 0:
            raise FaultScheduleError(f"flap period must be positive, got {period}")
        if not 0 < down_cycles <= period:
            raise FaultScheduleError(
                f"down_cycles must be in (0, period], got {down_cycles} "
                f"with period {period}"
            )
        if src is not None and src < 0:
            raise FaultScheduleError(f"LC index must be >= 0, got {src}")
        if dst is not None and dst < 0:
            raise FaultScheduleError(f"LC index must be >= 0, got {dst}")
        self.link_flaps.append(
            LinkFlap(
                int(start),
                int(end),
                int(period),
                int(down_cycles),
                None if src is None else int(src),
                None if dst is None else int(dst),
            )
        )
        return self

    def degrade_lc_cache(
        self, start: int, end: int, lc: int, miss_fraction: float
    ) -> "FaultSchedule":
        """Force a ``miss_fraction`` of LC ``lc``'s cache hits to miss over
        ``[start, end)`` (seeded RNG, drawn in event order)."""
        if start < 0 or end <= start:
            raise FaultScheduleError(
                f"cache-degradation window [{start}, {end}) is empty or negative"
            )
        if lc < 0:
            raise FaultScheduleError(f"LC index must be >= 0, got {lc}")
        if not 0.0 < miss_fraction < 1.0:
            raise FaultScheduleError(
                f"miss_fraction must be in (0, 1), got {miss_fraction}"
            )
        self.cache_degradations.append(
            LCCacheDegradation(int(start), int(end), int(lc), float(miss_fraction))
        )
        return self

    # -- queries -------------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when the schedule carries no events at all — the simulator
        then behaves bit-identically to a run with no schedule."""
        return not (
            self.failures
            or self.recoveries
            or self.degradations
            or self.slowdowns
            or self.link_flaps
            or self.cache_degradations
        )

    @property
    def has_lc_events(self) -> bool:
        return bool(self.failures or self.recoveries)

    @property
    def has_drops(self) -> bool:
        return bool(self.link_flaps) or any(
            d.drop_prob > 0.0 for d in self.degradations
        )

    def lc_events(self) -> List[Tuple[int, str, int]]:
        """All LC events as ``(cycle, kind, lc)``, time-ordered; a failure
        and recovery of the same LC at the same cycle applies the failure
        first (the recovery then re-admits it that cycle)."""
        events = [(f.cycle, "fail", f.lc) for f in self.failures] + [
            (r.cycle, "recover", r.lc) for r in self.recoveries
        ]
        # "fail" < "recover" lexicographically — the documented tiebreak.
        return sorted(events)

    def drop_prob_at(self, cycle: int) -> float:
        """Loss probability for a message entering the fabric at ``cycle``
        (overlapping windows compose as independent loss events)."""
        survive = 1.0
        for d in self.degradations:
            if d.start <= cycle < d.end and d.drop_prob > 0.0:
                survive *= 1.0 - d.drop_prob
        return 1.0 - survive

    def fe_service_cycles(self, cycle: int, lc: int, base: int) -> int:
        """LC ``lc``'s FE service time for a lookup starting at ``cycle``:
        ``base`` scaled by every active slowdown window (multipliers
        compose), rounded, never below one cycle."""
        scale = 1.0
        for s in self.slowdowns:
            if s.lc == lc and s.start <= cycle < s.end:
                scale *= s.multiplier
        if scale == 1.0:
            return base
        return max(1, int(round(base * scale)))

    def flap_drops(self, cycle: int, src: int, dst: int) -> bool:
        """True when a message from ``src`` to ``dst`` entering the fabric
        at ``cycle`` is lost to an active link flap (deterministic — no
        RNG draw)."""
        for f in self.link_flaps:
            if (
                f.start <= cycle < f.end
                and (f.src is None or f.src == src)
                and (f.dst is None or f.dst == dst)
                and (cycle - f.start) % f.period < f.down_cycles
            ):
                return True
        return False

    def miss_fraction_at(self, cycle: int, lc: int) -> float:
        """Forced-miss probability for a cache hit at LC ``lc`` at
        ``cycle`` (overlapping windows compose as independent events)."""
        survive = 1.0
        for d in self.cache_degradations:
            if d.lc == lc and d.start <= cycle < d.end:
                survive *= 1.0 - d.miss_fraction
        return 1.0 - survive

    def next_change(
        self, kind: str, cycle: int, lc: Optional[int] = None
    ) -> Union[int, float]:
        """The first cycle after ``cycle`` at which a query of ``kind`` can
        return a different value: every such query is constant on
        ``[cycle, next_change(kind, cycle, lc))``, and the result is always
        greater than ``cycle`` (``math.inf`` when no window edge lies
        ahead).  A caller that steps a query with a non-decreasing cycle
        can keep its value until this cycle and skip the window scan.

        ``kind`` names the query:

        * ``"cache"`` — :meth:`miss_fraction_at` for LC ``lc``;
        * ``"slow"`` — :meth:`fe_service_cycles` for LC ``lc``;
        * ``"drop"`` — :meth:`drop_prob_at` (windows with a drop
          probability);
        * ``"flap"`` — :meth:`flap_drops` for every source and
          destination: the edges of each flap's down phases.
        """
        if kind == "flap":
            return self._next_flap_edge(cycle)
        if kind == "drop":
            windows = [d for d in self.degradations if d.drop_prob > 0.0]
        elif kind in ("cache", "slow"):
            if lc is None:
                raise FaultScheduleError(f"next_change({kind!r}) needs an LC")
            pool = self.cache_degradations if kind == "cache" else self.slowdowns
            windows = [w for w in pool if w.lc == lc]
        else:
            raise FaultScheduleError(f"unknown fault query kind {kind!r}")
        nxt: Union[int, float] = math.inf
        for w in windows:
            if cycle < w.start:
                nxt = min(nxt, w.start)
            elif cycle < w.end:
                nxt = min(nxt, w.end)
        return nxt

    def _next_flap_edge(self, cycle: int) -> Union[int, float]:
        nxt: Union[int, float] = math.inf
        for f in self.link_flaps:
            if cycle < f.start:
                edge = f.start
            elif cycle >= f.end:
                continue
            elif f.down_cycles == f.period:
                # Down for the whole window.
                edge = f.end
            else:
                phase = (cycle - f.start) % f.period
                edge = min(
                    f.end,
                    cycle - phase
                    + (f.down_cycles if phase < f.down_cycles else f.period),
                )
            nxt = min(nxt, edge)
        return nxt

    def validate(self, n_lcs: Optional[int] = None) -> None:
        """Check the schedule against a router shape.

        Raises :class:`~repro.errors.FaultScheduleError` if any event names
        an LC outside ``[0, n_lcs)``.  Event-level range/shape checks run
        eagerly in the builders; this catches shape mismatches that only
        exist relative to a concrete router.
        """
        if n_lcs is None:
            return
        for ev in [*self.failures, *self.recoveries, *self.slowdowns, *self.cache_degradations]:
            if ev.lc >= n_lcs:
                raise FaultScheduleError(
                    f"fault event names LC {ev.lc}, but the router has "
                    f"{n_lcs} LCs"
                )
        for f in self.link_flaps:
            for lc in (f.src, f.dst):
                if lc is not None and lc >= n_lcs:
                    raise FaultScheduleError(
                        f"fault event names LC {lc}, but the router has "
                        f"{n_lcs} LCs"
                    )

    def __repr__(self) -> str:
        gray = len(self.slowdowns) + len(self.link_flaps) + len(self.cache_degradations)
        return (
            f"FaultSchedule({len(self.failures)} failures, "
            f"{len(self.recoveries)} recoveries, "
            f"{len(self.degradations)} fabric windows, "
            f"{gray} gray windows, seed={self.seed})"
        )
