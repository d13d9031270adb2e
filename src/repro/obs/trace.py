"""Packet-lifecycle tracing for the SPAL simulator.

A :class:`Tracer` collects cycle-stamped span events along each packet's
lookup path — ingress → local cache probe → hit/miss → fabric send/recv →
FE service → retry/backoff → completion or drop — as plain dicts in event
order.  The simulator holds the tracer behind a single truthiness check
(``if tr is not None: ...``), so a disabled (or absent) tracer costs one
pointer comparison per instrumented site and nothing else; the benchmark
suite asserts the disabled overhead stays under 3%.

Tracing never feeds back into the simulation: the tracer only appends to a
Python list, draws no random numbers and touches no simulator state, so a
traced run produces a bit-identical
:class:`~repro.sim.results.SimulationResult` to an untraced one (a
property test pins this down).

Event vocabulary (``name`` field):

==================  =====================================================
``ingress``         packet reaches its arrival LC (args: ``dest``)
``cache.hit``       arrival/home LR-cache served a complete entry
``cache.wait``      packet parked on a waiting (W=1) entry
``cache.miss``      LR-cache miss; an FE/remote lookup follows
``fabric.send``     message entered the fabric (args: ``src``, ``dst``,
                    ``recv`` delivery cycle, ``kind``, ``dropped``)
``remote.recv``     remote request delivered at the home LC
``fe``              FE service span (args: ``start``, ``done``)
``timeout.retry``   remote timeout fired; failover retry issued
                    (args: ``attempt``, ``next_home``)
``reply``           lookup result arrived back at the arrival LC
``complete``        lookup finished (cycle = completion time; args:
                    ``hop`` — the next hop served to the packet)
``drop``            packet dropped (args: ``reason`` — one of
                    :data:`DROP_REASONS`; the bounded-queue kinds
                    ``queue_full`` and ``shed`` additionally surface as
                    ``drop.<reason>`` instants on the Chrome timeline)
==================  =====================================================

Every event carries ``cycle``, ``lc`` and the packet id ``pid`` (sequential
per run, ``-1`` for events not tied to one packet).  Exports live in
:mod:`repro.obs.timeline`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

#: Names a well-formed simulator trace may contain (export validation).
EVENT_NAMES = frozenset(
    {
        "ingress",
        "cache.hit",
        "cache.wait",
        "cache.miss",
        "fabric.send",
        "remote.recv",
        "fe",
        "timeout.retry",
        "reply",
        "complete",
        "drop",
        "flush",
        "fault",
        "update",
    }
)

#: The ``reason`` vocabulary of ``drop`` events (the simulator's drop
#: taxonomy): ``ingress`` (arrival-LC overload), ``crash`` (LC fail-stop),
#: ``unreachable`` (retries exhausted / no live replica), plus the PR 8
#: bounded-queue kinds ``queue_full`` (hard capacity) and ``shed``
#: (early-drop policy).
DROP_REASONS = frozenset(
    {"ingress", "crash", "unreachable", "queue_full", "shed"}
)


class Tracer:
    """An append-only collector of packet-lifecycle span events.

    Parameters
    ----------
    enabled:
        When False the simulator normalizes the tracer away at
        construction (its internal reference becomes ``None``), so the
        whole run pays only the per-site truthiness checks.  A disabled
        tracer therefore never accumulates events.
    """

    __slots__ = ("enabled", "events")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: List[Dict[str, object]] = []

    def record(
        self, name: str, cycle: int, lc: int = -1, pid: int = -1, **args: object
    ) -> None:
        """Append one event.  Hot only when tracing is on; the simulator
        never calls this through a disabled tracer."""
        event: Dict[str, object] = {
            "name": name,
            "cycle": cycle,
            "lc": lc,
            "pid": pid,
        }
        if args:
            event.update(args)
        self.events.append(event)

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.events)

    def packets(self) -> Dict[int, List[Dict[str, object]]]:
        """Events grouped by packet id (``pid >= 0`` only), in event order."""
        out: Dict[int, List[Dict[str, object]]] = {}
        for event in self.events:
            pid = event["pid"]
            if pid >= 0:  # type: ignore[operator]
                out.setdefault(pid, []).append(event)
        return out

    def span_of(self, pid: int) -> Optional[Dict[str, object]]:
        """The ingress→completion envelope of one packet, or None if the
        packet never appears.  ``end`` is the completion (or drop) cycle;
        ``outcome`` is ``"completed"``, ``"dropped"`` or ``"open"``."""
        start = end = None
        outcome = "open"
        lc = -1
        for event in self.events:
            if event["pid"] != pid:
                continue
            if event["name"] == "ingress":
                start = event["cycle"]
                lc = event["lc"]
            elif event["name"] == "complete":
                end = event["cycle"]
                outcome = "completed"
            elif event["name"] == "drop":
                end = event["cycle"]
                outcome = "dropped"
        if start is None and end is None:
            return None
        return {"pid": pid, "lc": lc, "start": start, "end": end, "outcome": outcome}

    def clear(self) -> None:
        self.events.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.events)} events)"
