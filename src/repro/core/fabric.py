"""Switching-fabric models (paper Sec. 1 and 3).

The paper places "no emphasis on the fabric details, but the fabric latency
(in terms of system cycles) is assumed to depend on the fabric size": a
shared bus for small ψ, a single crossbar for moderate ψ, or a
multistage structure of small crossbars beyond that, with per-hop latencies
of a few ns (Pericom-class crossbars).  These models supply (a) a latency in
5 ns cycles as a function of ψ and (b) optional per-port serialization so
fabric contention is simulated rather than assumed away.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from ..errors import SimulationError
from .domain import check, integer


class Fabric(ABC):
    """A latency/contention model for the LC interconnect."""

    name: str = "?"

    def __init__(self, n_lcs: int):
        check(n_lcs, integer(1), "n_lcs", SimulationError)
        self.n_lcs = n_lcs
        # Per-LC port availability for serialization (one message per cycle
        # per direction, matching the FIL queues of Fig. 2).
        self._out_free = [0] * n_lcs
        self._in_free = [0] * n_lcs
        self.messages = 0
        #: Degradation windows as ``(start, end, extra_latency)`` — see
        #: :meth:`degrade`.  Empty for a healthy fabric.
        self._degradations: list = []

    @abstractmethod
    def latency_cycles(self) -> int:
        """Transit latency in cycles for one message."""

    def degrade(self, start: int, end: int, extra_latency: int) -> None:
        """Add a brown-out window: messages *departing* in ``[start, end)``
        pay ``extra_latency`` additional transit cycles (overlapping
        windows stack).  Message loss is modeled by the simulator, which
        owns the fault RNG; the fabric itself stays deterministic."""
        if end <= start:
            raise SimulationError(
                f"degradation window [{start}, {end}) is empty"
            )
        if extra_latency < 0:
            raise SimulationError("extra_latency must be non-negative")
        if extra_latency:
            self._degradations.append((start, end, extra_latency))

    def extra_latency_at(self, when: int) -> int:
        """Total degradation latency for a departure at cycle ``when``."""
        if not self._degradations:
            return 0
        return sum(
            extra
            for start, end, extra in self._degradations
            if start <= when < end
        )

    def transfer(self, src: int, dst: int, when: int) -> int:
        """Schedule a message from LC ``src`` to LC ``dst`` entering the
        fabric no earlier than cycle ``when``; returns the delivery cycle.

        Serializes on the source's outgoing port and the destination's
        incoming port (1 message/cycle each).
        """
        depart = max(when, self._out_free[src])
        self._out_free[src] = depart + 1
        arrive = depart + self.latency_cycles() + self.extra_latency_at(depart)
        arrive = max(arrive, self._in_free[dst])
        self._in_free[dst] = arrive + 1
        self.messages += 1
        return arrive

    def queue_backlog(self, src: int, when: int) -> int:
        """Messages already queued on ``src``'s outgoing port at ``when`` —
        a message offered now departs after this many predecessors.  Bounded
        fabrics compare it against ``fabric_queue_capacity`` before
        admitting a message."""
        return max(0, self._out_free[src] - when)

    def reset(self) -> None:
        self._out_free = [0] * self.n_lcs
        self._in_free = [0] * self.n_lcs
        self.messages = 0
        self._degradations = []

    def observe_into(self, registry, **labels: object) -> None:
        """Publish fabric aggregates to a :class:`repro.obs.MetricsRegistry`
        at snapshot time.  The transfer hot path stays untouched — it keeps
        counting into the plain :attr:`messages` int, and this method copies
        the total into ``fabric.msgs{kind=sent}`` when a snapshot is taken
        (dropped messages are counted by the simulator, which owns the
        fault RNG).
        """
        registry.counter(
            "fabric.msgs", kind="sent", **labels
        ).value = self.messages
        registry.gauge("fabric.latency_cycles", **labels).set(
            self.latency_cycles()
        )
        registry.gauge("fabric.degradation_windows", **labels).set(
            len(self._degradations)
        )


class IdealFabric(Fabric):
    """Zero-latency, contention-free interconnect (upper-bound ablation)."""

    name = "ideal"

    def latency_cycles(self) -> int:
        return 0

    def transfer(self, src: int, dst: int, when: int) -> int:
        self.messages += 1
        return when + self.extra_latency_at(when)


class SharedBusFabric(Fabric):
    """A single shared bus: 1-cycle transit but global serialization.

    Appropriate only for small ψ (the paper's "shared-bus (for a small ψ)").
    """

    name = "bus"

    def __init__(self, n_lcs: int):
        super().__init__(n_lcs)
        self._bus_free = 0

    def latency_cycles(self) -> int:
        return 1

    def transfer(self, src: int, dst: int, when: int) -> int:
        depart = max(when, self._bus_free)
        self._bus_free = depart + 1
        self.messages += 1
        return depart + self.latency_cycles() + self.extra_latency_at(depart)

    def queue_backlog(self, src: int, when: int) -> int:
        return max(0, self._bus_free - when)

    def reset(self) -> None:
        super().reset()
        self._bus_free = 0


class CrossbarFabric(Fabric):
    """A single crossbar: fixed small latency, per-port serialization.

    Default 2 cycles (10 ns) matches the paper's "packet latency over the
    fabric being 10 ns or less".
    """

    name = "crossbar"

    def __init__(self, n_lcs: int, transit_cycles: int = 2):
        super().__init__(n_lcs)
        check(transit_cycles, integer(0), "transit_cycles", SimulationError)
        self.transit_cycles = transit_cycles

    def latency_cycles(self) -> int:
        return self.transit_cycles


class MultistageFabric(Fabric):
    """A multistage network of k×k crossbars: ⌈log_k ψ⌉ hops.

    Models the paper's "multistage-based switching fabric for interconnecting
    a moderate number of LCs" built from small fast crossbars.
    """

    name = "multistage"

    def __init__(self, n_lcs: int, radix: int = 4, hop_cycles: int = 1):
        super().__init__(n_lcs)
        check(radix, integer(2), "radix", SimulationError)
        check(hop_cycles, integer(1), "hop_cycles", SimulationError)
        self.radix = radix
        self.hop_cycles = hop_cycles
        self.stages = max(1, math.ceil(math.log(max(n_lcs, 2), radix)))

    def latency_cycles(self) -> int:
        return self.stages * self.hop_cycles


def default_fabric(n_lcs: int) -> Fabric:
    """The fabric the paper's sizing suggests for ψ LCs: a bus up to 4,
    one crossbar up to 16, multistage beyond."""
    if n_lcs <= 4:
        return SharedBusFabric(n_lcs)
    if n_lcs <= 16:
        return CrossbarFabric(n_lcs)
    return MultistageFabric(n_lcs)
