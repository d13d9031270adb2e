"""Trace-driven cycle-accurate simulation of a SPAL router (Sec. 5.1).

The simulator reproduces the lookup flow of Fig. 2 with the paper's timing
model:

* 5 ns cycle; at most one packet probes an LR-cache per cycle per LC
  (the cache port is a serialized resource);
* an LR-cache hit delivers the result the following cycle;
* a miss reserves a waiting (W=1) entry, then either queues on the local FE
  (``fe_lookup_cycles`` per lookup, serialized) or crosses the switching
  fabric to the home LC, where the flow repeats;
* replies traverse the fabric back, fill the reserved entry (M=REM) and
  release any packets parked on its waiting list;
* routing-table updates (``run(updates=...)``) flush every LR-cache
  under the paper's ``"flush"`` policy, or invalidate selectively.

**Live route churn.**  :meth:`SpalSimulator.run` accepts a
:class:`~repro.routing.churn.ChurnSchedule` whose timestamped updates
interleave with packet events (an update at cycle T applies before T's
arrivals).  Each update is routed to the pattern-holder LC(s) via the
partition plan, applied to the per-LC matcher incrementally, and charged
as FE busy time (lookups queue behind update service).  Cache coherence
follows the armed ``update_policy`` — ``"flush"`` (the paper's policy),
``"selective"`` (drop only entries the prefix covers, everywhere) or
``"rem"`` (full prefix invalidation at holder LCs, REM-only elsewhere).
Invalidation applies *atomically at the update cycle* — the conservative
invalidate-before-use model, so no lookup can ever return a stale next
hop — while the update→invalidate messages are still charged through the
fabric model for latency/port accounting.  Churn runs are deterministic
(bit-identical across repeats and across engines), and an empty
schedule reproduces the churn-free simulator exactly.

Implementation is event-driven over :class:`repro.sim.engine.EventQueue`;
all integer-cycle semantics (port/FE serialization, fabric latency and port
contention) are enforced by :class:`Resource` and the fabric model, so the
event heap only visits cycles where something happens.

**Fault injection.**  :meth:`SpalSimulator.run` accepts a
:class:`~repro.core.faults.FaultSchedule` whose events interleave with
packet events (a fault at cycle T applies before T's arrivals).  A failed
LC fail-stops at the packet boundary: new arrivals at it are counted
``ingress`` drops, new remote requests to it are silently ignored (the
requester times out after :meth:`SpalConfig.default_rem_timeout` cycles
and retries against the next live replica, up to ``REM_MAX_RETRIES``
times, after which the packet is a counted ``unreachable`` drop — never
an exception), and any lookup that completes *at* a failed LC is a ``crash``
drop.  FE work already accepted before the failure drains silently.
Recovery re-admits the LC with a cold (flushed) LR-cache, and the other
LCs drop the REM entries they had fetched from a dying LC the moment it
fails.  Fault runs are deterministic — same schedule, seeds and streams
give bit-identical results on either engine — and an
empty schedule reproduces the fault-free simulator exactly.  Note that
trailing timeout-check events can extend the reported horizon slightly
past the last packet's completion on fault runs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.config import FIL_OVERHEAD_CYCLES, REM_MAX_RETRIES, SpalConfig
from ..core.faults import FaultSchedule
from ..core.lr_cache import LOC, REM, LRCache
from ..core.partition import PartitionPlan, apply_route_update, partition_table
from ..errors import SimulationError, UnreachablePatternError
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer
from ..routing.churn import ChurnSchedule
from ..routing.table import RoutingTable
from ..traffic.packets import arrival_times
from ..tries.base import MAX_KERNEL_WIDTH
from ..tries.reference import HashReferenceMatcher
from .engine import EventQueue, Resource
from .results import SimulationResult
from .shedding import shed_decision


class _Packet:
    """One in-flight lookup request."""

    __slots__ = (
        "dest",
        "arrival_lc",
        "arrival_time",
        "complete_time",
        "entry",
        "measured",
        "home",
        "hop",
        "attempt",
        "dropped",
        "sent_at",
        "pid",
        "served",
    )

    def __init__(self, dest: int, arrival_lc: int, arrival_time: int):
        self.dest = dest
        self.arrival_lc = arrival_lc
        self.arrival_time = arrival_time
        self.complete_time = -1
        self.entry = None        # reserved LR-cache entry at the arrival LC
        self.measured = True     # False during the warmup window
        self.home = -1           # precomputed home LC (-1 = compute on demand)
        self.hop = None          # precomputed FE result (None = look up at FE)
        self.attempt = 0         # remote-request attempt (bumped per retry)
        self.dropped = None      # drop reason, or None while in flight
        self.sent_at = -1        # cycle the current remote request departed
        self.pid = -1            # trace packet id (-1 when tracing is off)
        self.served = None       # next hop actually delivered (None = dropped)


class _RemoteWaiter:
    """A remote request parked on a waiting entry at the home LC."""

    __slots__ = ("packet",)

    def __init__(self, packet: _Packet):
        self.packet = packet


class SpalSimulator:
    """Cycle-level simulator for one SPAL router configuration.

    Parameters
    ----------
    table:
        The full routing table (partitioned internally per ``config``).
    config:
        Router shape; ``config.cache=None`` simulates partitioning without
        LR-caches.
    partitioned:
        When False, every packet is homed at its arrival LC over the whole
        table — the cache-only baseline of ref. [6] in the paper.
    verify:
        When True, every FE result is checked against a whole-table oracle
        (a dynamic assertion of the partition-preserving-LPM invariant);
        costs one extra hash lookup per FE request.
    plan, matchers:
        Pre-built partition plan and per-LC matchers to reuse instead of
        partitioning ``table`` afresh (the expensive part of construction).
        Both must have been built from this exact ``table``/``config``;
        matchers only read their tables during a run, so one (plan,
        matchers) pair can serve many single-use simulators.
    registry:
        A :class:`repro.obs.MetricsRegistry` to bind this run's instruments
        into (one is created per simulator when omitted).  Instruments are
        pre-bound here so the event handlers touch plain attributes;
        :attr:`SimulationResult.metrics_snapshot` carries the registry's
        end-of-run snapshot either way.
    trace:
        A :class:`repro.obs.Tracer` collecting packet-lifecycle span
        events.  ``None`` or a tracer with ``enabled=False`` costs one
        truthiness check per instrumented site and records nothing; a
        traced run's :class:`SimulationResult` is bit-identical to an
        untraced one.
    """

    def __init__(
        self,
        table: RoutingTable,
        config: Optional[SpalConfig] = None,
        partitioned: bool = True,
        verify: bool = False,
        plan: Optional[PartitionPlan] = None,
        matchers: Optional[Sequence[HashReferenceMatcher]] = None,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[Tracer] = None,
    ):
        self.config = config or SpalConfig()
        self.config.validate()
        #: Wall-clock seconds per construction step that ran (minimize /
        #: partition / matchers).  Kept apart from :attr:`phase_seconds`,
        #: which splits ``run()`` alone; ``scripts/profile_sim.py`` prints
        #: both.
        self.construct_seconds: Dict[str, float] = {}
        # -- FIB minimisation (None = off = bit-identical) -----------------
        # When armed, the table is minimised *before* partitioning so the
        # plan, the matchers and the pool-bytes accounting all see the
        # compressed table; churn schedules are translated in run().
        self._minimize_state = None
        self.minimize_stats = None
        if self.config.minimize is not None:
            if plan is not None or matchers is not None:
                raise SimulationError(
                    "plan/matchers injection is incompatible with "
                    "config.minimize (the plan must be built from the "
                    "minimised table)"
                )
            from ..routing.minimize import minimize_table

            t0 = time.perf_counter()
            self._minimize_state = minimize_table(table, self.config.minimize)
            self.construct_seconds["minimize"] = time.perf_counter() - t0
            table = self._minimize_state.table
            self.minimize_stats = self._minimize_state.stats
        self.table = table
        self.partitioned = partitioned
        #: Injected matchers may be shared (memoized across runs), so live
        #: churn rebuilds them over private table copies; the simulator's
        #: own matchers are patched in place.
        self._matchers_injected = matchers is not None
        if not partitioned and (plan is not None or matchers is not None):
            raise SimulationError(
                "plan/matchers injection requires partitioned=True"
            )
        if partitioned:
            if plan is not None:
                if plan.n_lcs != self.config.n_lcs:
                    raise SimulationError(
                        f"injected plan has {plan.n_lcs} LCs, "
                        f"config wants {self.config.n_lcs}"
                    )
                if plan.source_version != table.version:
                    raise SimulationError(
                        "injected plan was built from a different table "
                        f"version ({plan.source_version} != {table.version})"
                    )
                self.plan: Optional[PartitionPlan] = plan
            else:
                t0 = time.perf_counter()
                self.plan = partition_table(
                    table,
                    self.config.n_lcs,
                    bits=self.config.partition_bits,
                    pattern_oversubscription=self.config.pattern_oversubscription,
                    replicas=self.config.replicas,
                )
                self.construct_seconds["partition"] = time.perf_counter() - t0
            if matchers is not None:
                if len(matchers) != self.config.n_lcs:
                    raise SimulationError(
                        f"need {self.config.n_lcs} matchers, got {len(matchers)}"
                    )
                self._matchers = list(matchers)
            else:
                t0 = time.perf_counter()
                self._matchers = [
                    HashReferenceMatcher(t) for t in self.plan.tables
                ]
                self.construct_seconds["matchers"] = time.perf_counter() - t0
        else:
            self.plan = None
            t0 = time.perf_counter()
            shared = HashReferenceMatcher(table)
            self.construct_seconds["matchers"] = time.perf_counter() - t0
            self._matchers = [shared] * self.config.n_lcs
        n = self.config.n_lcs
        # -- observability: pre-bound instruments + normalized tracer -----
        # A disabled tracer is normalized to None here, so every
        # instrumented site pays exactly one truthiness check when off.
        self.obs = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self._trace: Optional[Tracer] = (
            trace if trace is not None and trace.enabled else None
        )
        self._m_rem_rt = self.obs.histogram("sim.rem.round_trip_cycles")
        self._m_retries = self.obs.counter("sim.retries")
        self._m_drops = {
            reason: self.obs.counter("sim.drops", reason=reason)
            for reason in (
                "ingress", "crash", "unreachable", "queue_full", "shed"
            )
        }
        self._m_fabric_dropped = self.obs.counter("fabric.msgs", kind="dropped")
        self._m_flushes = self.obs.counter("sim.flushes")
        if self._minimize_state is not None:
            ms = self._minimize_state.stats
            self.obs.gauge("sim.minimize.original_routes").set(
                ms.original_routes
            )
            self.obs.gauge("sim.minimize.minimized_routes").set(
                ms.minimized_routes
            )
            self.obs.gauge("sim.minimize.ratio").set(ms.ratio)
            self.obs.gauge("sim.minimize.null_routes").set(ms.null_routes)
        #: Wall-clock seconds per run phase (precompute / schedule / run /
        #: collect) — kept off the SimulationResult so deterministic fields
        #: stay bit-identical across repeats; ``scripts/profile_sim.py``
        #: reads it for the per-phase breakdown.
        self.phase_seconds: Dict[str, float] = {}
        self.caches: List[Optional[LRCache]] = self.config.make_caches(self.obs)
        self.fabric = self.config.make_fabric()
        self.queue = EventQueue()
        self.cache_ports = [Resource() for _ in range(n)]
        self.fes = [Resource() for _ in range(n)]
        self.fe_lookups = [0] * n
        #: Deepest FE request-queue backlog observed per LC, in requests
        #: (Fig. 2's Request Queue occupancy — a router-sizing output).
        self.max_fe_backlog = [0] * n
        self.completed: List[_Packet] = []
        self.dropped_packets: List[_Packet] = []
        self.flushes = 0
        self._oracle = HashReferenceMatcher(table) if verify else None
        # Pre-computed control-bit home mapping for speed.
        if partitioned and self.plan is not None:
            self._home = self.plan.home_lc
        else:
            self._home = None
        # -- fault-injection state (inert without a FaultSchedule) --------
        self._faults: Optional[FaultSchedule] = None
        #: Remote-lookup timeout budget: the automatic default once a
        #: schedule with failures/drops is attached in run(), else off.
        self._timeout: Optional[int] = None
        self._fault_rng: Optional[np.random.Generator] = None
        self._failed = [False] * n
        self._fail_at = [0] * n
        self._down_cycles = [0] * n
        self.drops = {
            "ingress": 0,
            "crash": 0,
            "unreachable": 0,
            "queue_full": 0,
            "shed": 0,
        }
        self.retries = 0
        # -- bounded-queue state (inert with capacities of None) ----------
        self._bounded = (
            self.config.fe_queue_capacity is not None
            or self.config.fabric_queue_capacity is not None
        )
        #: RED early-drop RNG (fixed seed 0); exists only on bounded runs
        #: so unbounded runs stay bit-identical to the pre-overload
        #: simulator.
        self._shed_rng: Optional[np.random.Generator] = (
            np.random.default_rng(0) if self._bounded else None
        )
        #: Deepest bounded fabric source-port backlog observed (messages).
        self.max_fabric_backlog = 0
        self.fabric_dropped_messages = 0
        self.fault_event_count = 0
        #: Plan epoch captured when per-stream homes were precomputed; any
        #: later plan mutation (a fault event, or the caller poking
        #: ``plan.fail_lc`` from an update hook) invalidates the
        #: precomputed homes and _home_of recomputes them scalar.
        self._plan_epoch = self.plan.epoch if self.plan is not None else 0
        # -- live-churn state (inert without run(updates=...)) ------------
        self._updates_armed = False
        self._update_policy = "selective"
        #: Per-LC set of addresses whose cache entry a churn invalidation
        #: dropped; membership at miss time attributes the miss to churn.
        self._churn_invalidated: Optional[List[set]] = None
        self.update_events_applied = 0
        self.update_patches = 0
        self.update_rebuilds = 0
        self.update_service_cycles = 0
        self.invalidation_messages = 0
        self.invalidation_entries_dropped = 0
        self.churn_misses = 0

    # -- event handlers ------------------------------------------------------

    def _transfer(self, src: int, dst: int, when: int) -> int:
        """A fabric transfer including FIL processing on both sides
        (Outgoing Queue at the source, Incoming Queue at the destination,
        per Fig. 2)."""
        fil = FIL_OVERHEAD_CYCLES
        return self.fabric.transfer(src, dst, when + fil) + fil

    def _send(self, src: int, dst: int, when: int, handler, *args) -> None:
        """Send one fabric message and schedule its delivery handler.

        With a ``fabric_queue_capacity`` bound, the source port's backlog
        is checked first: a message the shed policy rejects never enters
        the fabric (no port slots consumed, no message counted) and its
        packet becomes a ``queue_full``/``shed`` drop — requests are the
        low-priority class under ``priority`` shedding, replies shed only
        at hard-full.  Under a link flap the message is lost
        deterministically; under a fabric-degradation window with
        ``drop_prob > 0`` it may be lost (seeded RNG, drawn in event
        order).  Lost messages still consume port slots — they entered the
        fabric — but no delivery fires, and the affected lookup recovers
        via the remote timeout.
        """
        cap = self.config.fabric_queue_capacity
        if cap is not None:
            backlog = self.fabric.queue_backlog(src, when + FIL_OVERHEAD_CYCLES)
            reason = shed_decision(
                self.config.shed_policy,
                backlog,
                cap,
                # Bound-method comparison needs ==, not `is`.
                handler == self._remote_request,
                self._shed_rng.random,
            )
            if reason is not None:
                self._drop(args[0], reason)
                return
            if backlog > self.max_fabric_backlog:
                self.max_fabric_backlog = backlog
        arrive = self._transfer(src, dst, when)
        dropped = False
        faults = self._faults
        if faults is not None:
            if faults.link_flaps and faults.flap_drops(when, src, dst):
                self.fabric_dropped_messages += 1
                self._m_fabric_dropped.value += 1
                dropped = True
            else:
                p = faults.drop_prob_at(when)
                if p > 0.0 and self._fault_rng.random() < p:
                    self.fabric_dropped_messages += 1
                    self._m_fabric_dropped.value += 1
                    dropped = True
        tr = self._trace
        if tr is not None:
            tr.record(
                "fabric.send",
                when,
                lc=src,
                pid=args[0].pid,
                src=src,
                dst=dst,
                recv=arrive,
                # Bound-method comparison needs ==, not `is` (each attribute
                # access builds a fresh bound method object).
                kind="request" if handler == self._remote_request else "reply",
                dropped=dropped,
            )
        if not dropped:
            self.queue.schedule(arrive, handler, *args)

    def _home_of(self, pkt: _Packet, arrival_lc: int) -> int:
        if pkt.home >= 0 and (
            self.plan is None or self.plan.epoch == self._plan_epoch
        ):
            return pkt.home
        if self._home is None:
            return arrival_lc
        return self._home(pkt.dest)

    def _arrive(self, pkt: _Packet, lc: int) -> None:
        """Packet header reaches the LR-cache stage of LC ``lc``."""
        tr = self._trace
        if tr is not None:
            tr.record("ingress", self.queue.now, lc=lc, pid=pkt.pid,
                      dest=pkt.dest)
        if self._failed[lc]:
            # The LC's external ports are down: traffic offered to a dead
            # card is lost at ingress, never queued.
            self._drop(pkt, "ingress")
            return
        now = self.queue.now
        cache = self.caches[lc]
        if cache is None:
            self._dispatch(pkt, lc, now)
            return
        start, _ = self.cache_ports[lc].acquire(now, 1)
        if start > now:
            # The port slot [start, start+1) is already booked by the
            # acquire() above; the deferred probe consumes that exact
            # reservation instead of acquiring a second slot.
            self.queue.schedule(start, self._probe_reserved, pkt, lc, start)
        else:
            self._probe_at(pkt, lc, now)

    def _probe_reserved(self, pkt: _Packet, lc: int, start: int) -> None:
        """Run a cache probe in its pre-reserved port slot ``[start, start+1)``."""
        if self.queue.now != start:
            raise SimulationError(
                f"deferred probe at LC {lc} fired at cycle {self.queue.now}, "
                f"but its port slot was reserved for cycle {start}"
            )
        self._probe_at(pkt, lc, start)

    def _forced_miss(self, cache: LRCache, dest: int, lc: int, now: int) -> None:
        """Gray-failure hook: under an active ``degrade_lc_cache`` window,
        discard the main-set entry for ``dest`` (complete entries only —
        waiting reservations carry waiter lists and in-flight fills) so the
        following :meth:`~repro.core.lr_cache.LRCache.probe` is a genuine
        miss.  The RNG draw happens only when a discardable entry exists,
        keeping the fault stream aligned across engines."""
        faults = self._faults
        if faults is None or not faults.cache_degradations:
            return
        mf = faults.miss_fraction_at(now, lc)
        if mf <= 0.0:
            return
        entry = cache.peek_main(dest)
        if (
            entry is not None
            and not entry.waiting
            and self._fault_rng.random() < mf
        ):
            cache.discard_entry(entry)

    def _probe_at(self, pkt: _Packet, lc: int, now: int) -> None:
        if self._failed[lc]:
            # The LC died while this packet sat in its port queue.
            self._drop(pkt, "crash")
            return
        cache = self.caches[lc]
        assert cache is not None
        self._forced_miss(cache, pkt.dest, lc, now)
        entry = cache.probe(pkt.dest)
        if entry is not None:
            tr = self._trace
            if entry.waiting:
                if tr is not None:
                    tr.record("cache.wait", now, lc=lc, pid=pkt.pid)
                entry.waiters.append(pkt)
            else:
                if tr is not None:
                    tr.record("cache.hit", now, lc=lc, pid=pkt.pid)
                pkt.served = entry.next_hop
                self._complete(pkt, now + 1)
            return
        self._miss(pkt, lc, now)

    def _miss(self, pkt: _Packet, lc: int, now: int) -> None:
        tr = self._trace
        if tr is not None:
            tr.record("cache.miss", now, lc=lc, pid=pkt.pid)
        self._note_churn_miss(pkt.dest, lc)
        cache = self.caches[lc]
        home = self._home_of(pkt, lc)
        local = home == lc
        if cache is not None:
            record = local or (
                self.config.early_recording and self.config.cache_remote_results
            )
            if record:
                pkt.entry = cache.allocate(pkt.dest, LOC if local else REM)
        self._dispatch(pkt, lc, now, home)

    def _dispatch(
        self, pkt: _Packet, lc: int, now: int, home: Optional[int] = None
    ) -> None:
        if home is None:
            home = self._home_of(pkt, lc)
        if home == lc:
            self._fe_request(pkt, lc, now, origin=None)
        else:
            pkt.sent_at = now + 1
            self._send(lc, home, now + 1, self._remote_request, pkt, home)
            if self._timeout is not None:
                self.queue.schedule(
                    now + 1 + self._timeout_for(pkt.attempt),
                    self._check_timeout,
                    pkt,
                    lc,
                    pkt.attempt,
                )

    def _timeout_for(self, attempt: int) -> int:
        """Remote-lookup timeout window for one attempt, with exponential
        backoff (capped at 8x): a timeout against a *live* but congested
        home means the budget was too tight — retrying on the same clock
        only amplifies the congestion that caused it."""
        assert self._timeout is not None
        return self._timeout << min(attempt, 3)

    def _fe_request(
        self,
        pkt: _Packet,
        lc: int,
        now: int,
        origin: Optional[int],
        home_entry=None,
    ) -> None:
        """Queue a longest-prefix-matching lookup on LC ``lc``'s FE.

        ``origin`` is None for a packet physically at ``lc``; otherwise the
        arrival LC awaiting a reply (used only when the home cache bypassed
        allocation and no entry tracks the waiters).  ``home_entry`` is the
        reservation this FE run will fill at the home LC (remote flow) —
        passed explicitly so a failover retry issuing a second FE run for
        the same packet can never hijack another run's fill target.

        With an ``fe_queue_capacity`` bound, the request-queue occupancy is
        checked first (in base lookup units): a request the shed policy
        rejects never reaches the FE (no lookup counted, no FE time
        booked) and drops end-to-end — remote-origin lookups are the
        low-priority class under ``priority`` shedding.  An active
        :meth:`~repro.core.faults.FaultSchedule.slow_lc` window multiplies
        the service time of accepted lookups.
        """
        base = self.config.fe_lookup_cycles
        cap = self.config.fe_queue_capacity
        if cap is not None:
            nw = now + 1
            ff = self.fes[lc].free_at
            backlog = (ff - nw) // base if ff > nw else 0
            reason = shed_decision(
                self.config.shed_policy,
                backlog,
                cap,
                pkt.arrival_lc != lc,
                self._shed_rng.random,
            )
            if reason is not None:
                self._shed_fe(pkt, lc, reason, home_entry)
                return
        cycles = base
        faults = self._faults
        if faults is not None and faults.slowdowns:
            cycles = faults.fe_service_cycles(now, lc, base)
        start, done = self.fes[lc].acquire(now + 1, cycles)
        self.fe_lookups[lc] += 1
        tr = self._trace
        if tr is not None:
            tr.record("fe", now, lc=lc, pid=pkt.pid, start=start, done=done)
        backlog = (start - (now + 1)) // base
        if backlog > self.max_fe_backlog[lc]:
            self.max_fe_backlog[lc] = backlog
        self.queue.schedule(done, self._fe_done, pkt, lc, origin, home_entry)

    def _shed_fe(self, pkt: _Packet, lc: int, reason: str, home_entry) -> None:
        """Dispose of a lookup the FE admission check rejected.

        The home-side reservation (if this FE run was to fill one) is
        discarded so later packets stop parking on it, and everything
        already parked shares the drop — same destination, same rejected
        lookup.  ``pkt`` itself is usually among those waiters; ``_drop``
        is idempotent either way.
        """
        if home_entry is not None and home_entry.waiting:
            self._abandon(home_entry, self.caches[lc], reason)
        self._drop(pkt, reason)

    def _fe_done(
        self, pkt: _Packet, lc: int, origin: Optional[int], home_entry=None
    ) -> None:
        now = self.queue.now
        if self._failed[lc]:
            # Fail-stop: a result computed by a dying card never leaves it.
            # A packet physically at the card is lost with it; remote
            # requesters recover via their timeout.
            if origin is None and pkt.arrival_lc == lc:
                self._drop(pkt, "crash")
            return
        hop = pkt.hop
        if hop is None:
            hop = self._matchers[lc].lookup(pkt.dest)
            if self._oracle is not None:
                expected = self._oracle.lookup(pkt.dest)
                if hop != expected:
                    raise SimulationError(
                        f"partition invariant violated at LC {lc}: "
                        f"lookup({pkt.dest:#x}) = {hop}, "
                        f"whole table says {expected}"
                    )
        # Under failover, home_entry may be a stale reservation swept from
        # this card's failure window (empty waiting list) — filling it is
        # then a harmless no-op — so the home-side and arrival-side fills
        # are handled independently.
        if home_entry is not None:
            waiters = self.caches[lc].fill(home_entry, hop)  # type: ignore[union-attr]
            self._release(waiters, lc, hop, now)
        if origin is not None:
            # Bypassed allocation at the home LC: reply directly.
            self._send(lc, origin, now + 1, self._reply, pkt, hop)
        elif pkt.arrival_lc == lc:
            # The packet that triggered this FE lookup is local to lc:
            # fill its own reservation (distinct from home_entry on a
            # failover retry that fell back to the local FE) and finish.
            entry = pkt.entry
            if entry is not None and entry is not home_entry and entry.waiting:
                waiters = self.caches[lc].fill(entry, hop)  # type: ignore[union-attr]
                self._release(waiters, lc, hop, now)
            pkt.served = hop
            self._complete(pkt, now + 1)

    def _release(self, waiters: list, lc: int, hop: int, now: int) -> None:
        """Serve everything parked on a just-filled entry at LC ``lc``."""
        for waiter in waiters:
            if isinstance(waiter, _RemoteWaiter):
                wpkt = waiter.packet
                self._send(lc, wpkt.arrival_lc, now + 1, self._reply, wpkt, hop)
            else:
                waiter.served = hop
                self._complete(waiter, now + 1)

    def _remote_request(self, pkt: _Packet, home: int) -> None:
        """A request arrives at its home LC over the fabric."""
        tr = self._trace
        if tr is not None:
            tr.record("remote.recv", self.queue.now, lc=home, pid=pkt.pid)
        if self._failed[home]:
            # Dead forwarding engine: the request is never answered; the
            # origin's timeout fires and fails over to a live replica.
            return
        now = self.queue.now
        cache = self.caches[home]
        if cache is None:
            self._fe_request(pkt, home, now, origin=pkt.arrival_lc)
            return
        start, _ = self.cache_ports[home].acquire(now, 1)
        if start > now:
            # Same pre-reserved port slot contract as _arrive/_probe_reserved.
            self.queue.schedule(
                start, self._remote_probe_reserved, pkt, home, start
            )
        else:
            self._remote_probe_at(pkt, home, now)

    def _remote_probe_reserved(self, pkt: _Packet, home: int, start: int) -> None:
        if self.queue.now != start:
            raise SimulationError(
                f"deferred remote probe at LC {home} fired at cycle "
                f"{self.queue.now}, but its port slot was reserved for "
                f"cycle {start}"
            )
        self._remote_probe_at(pkt, home, start)

    def _remote_probe_at(self, pkt: _Packet, home: int, now: int) -> None:
        if self._failed[home]:
            # The home died between message delivery and its port slot;
            # the request dies with it and the origin times out.
            return
        cache = self.caches[home]
        assert cache is not None
        self._forced_miss(cache, pkt.dest, home, now)
        entry = cache.probe(pkt.dest)
        if entry is not None:
            if entry.waiting:
                entry.waiters.append(_RemoteWaiter(pkt))
            else:
                self._send(
                    home, pkt.arrival_lc, now + 1, self._reply, pkt,
                    entry.next_hop,
                )
            return
        self._note_churn_miss(pkt.dest, home)
        # Miss at the home LC: reserve a LOC entry, park the remote waiter
        # on it, and run the FE.
        home_entry = cache.allocate(pkt.dest, LOC)
        if home_entry is None:
            self._fe_request(pkt, home, now, origin=pkt.arrival_lc)
            return
        home_entry.waiters.append(_RemoteWaiter(pkt))
        self._fe_request(pkt, home, now, origin=None, home_entry=home_entry)

    def _reply(self, pkt: _Packet, hop: int) -> None:
        """A lookup result returns to the arrival LC."""
        now = self.queue.now
        lc = pkt.arrival_lc
        if pkt.sent_at >= 0:
            # Round trip of the most recent remote request: dispatch (or
            # retry resend) cycle to reply delivery.  Event-timeline
            # deterministic, so it is safe to observe unconditionally.
            self._m_rem_rt.observe(now - pkt.sent_at)
            pkt.sent_at = -1
        tr = self._trace
        if tr is not None:
            tr.record("reply", now, lc=lc, pid=pkt.pid)
        if self._failed[lc]:
            # The packet's own card died while its reply was in flight.
            self._drop(pkt, "crash")
            return
        cache = self.caches[lc]
        entry = pkt.entry
        if cache is not None and self.config.cache_remote_results:
            if entry is not None and entry.waiting:
                waiters = cache.fill(entry, hop)
                self._release(waiters, lc, hop, now)
            elif entry is None and not self.config.early_recording:
                cache.insert_complete(pkt.dest, hop, REM)
        if pkt.complete_time < 0:
            pkt.served = hop
            self._complete(pkt, now + 1)

    def _complete(self, pkt: _Packet, when: int) -> None:
        if pkt.complete_time >= 0 or pkt.dropped is not None:
            return
        if self._failed[pkt.arrival_lc]:
            # The card this packet physically sits in died while its lookup
            # was in flight: the packet is lost with it.
            self._drop(pkt, "crash")
            return
        pkt.complete_time = when
        self.completed.append(pkt)
        tr = self._trace
        if tr is not None:
            tr.record("complete", when, lc=pkt.arrival_lc, pid=pkt.pid,
                      hop=pkt.served)

    # -- faults, timeouts and failover --------------------------------------

    def _drop(self, pkt: _Packet, reason: str) -> None:
        """Account one packet as dropped (``ingress``/``crash``/
        ``unreachable``/``queue_full``/``shed``) — graceful degradation,
        never an exception.

        An abandoned arrival-side waiting entry is discarded so later
        packets stop parking on a result that will never arrive; anything
        already parked on it shares the same fate (same destination, same
        dead home).
        """
        if pkt.complete_time >= 0 or pkt.dropped is not None:
            return
        pkt.dropped = reason
        self.drops[reason] += 1
        self._m_drops[reason].value += 1
        self.dropped_packets.append(pkt)
        tr = self._trace
        if tr is not None:
            tr.record("drop", self.queue.now, lc=pkt.arrival_lc,
                      pid=pkt.pid, reason=reason)
        entry = pkt.entry
        if entry is not None and entry.waiting:
            self._abandon(entry, self.caches[pkt.arrival_lc], reason)

    def _abandon(self, entry, cache: Optional[LRCache], reason: str) -> None:
        """Discard the waiting reservation ``entry`` from ``cache`` and drop
        everything parked on it (same destination, same lost lookup)."""
        if cache is not None:
            cache.discard_entry(entry)
        waiters, entry.waiters = entry.waiters, []
        for waiter in waiters:
            if isinstance(waiter, _RemoteWaiter):
                self._drop(waiter.packet, reason)
            else:
                self._drop(waiter, reason)

    def _check_timeout(self, pkt: _Packet, lc: int, attempt: int) -> None:
        """The remote-lookup timeout for attempt ``attempt`` expired.

        No-op if the packet already completed, dropped, or moved on to a
        later attempt; otherwise fail over to the next live replica, or
        drop the packet once the retry budget is spent.
        """
        if (
            pkt.complete_time >= 0
            or pkt.dropped is not None
            or pkt.attempt != attempt
        ):
            return
        if self._failed[lc]:
            # The requesting card itself died while waiting: the packet is
            # lost with it — a dead card issues no retries.
            self._drop(pkt, "crash")
            return
        pkt.attempt += 1
        if pkt.attempt > REM_MAX_RETRIES:
            self._drop(pkt, "unreachable")
            return
        self.retries += 1
        self._m_retries.value += 1
        now = self.queue.now
        live = (
            self.plan.live_replicas(pkt.dest)
            if self.plan is not None
            else [lc]
        )
        if not live:
            self._drop(pkt, "unreachable")
            return
        # Walk the live-replica list across attempts: the base choice is
        # live[dest % len], so offsetting by the attempt count retries a
        # *different* replica whenever one exists (a timeout against a
        # still-live home means congestion or message loss — spreading the
        # retry is both the realistic and the fast recovery).
        home = live[(pkt.dest + pkt.attempt) % len(live)]
        tr = self._trace
        if tr is not None:
            tr.record("timeout.retry", now, lc=lc, pid=pkt.pid,
                      attempt=pkt.attempt, next_home=home)
        if home == lc:
            self._fe_request(pkt, lc, now, origin=None)
            return
        pkt.sent_at = now + 1
        self._send(lc, home, now + 1, self._remote_request, pkt, home)
        self.queue.schedule(
            now + 1 + self._timeout_for(pkt.attempt),
            self._check_timeout,
            pkt,
            lc,
            pkt.attempt,
        )

    def _homed_at(self, address: int, lc: int) -> bool:
        """Whether ``address`` is currently homed at LC ``lc`` (stale-REM
        test; a fully-dead pattern counts as stale)."""
        assert self.plan is not None
        try:
            return self.plan.home_lc(address) == lc
        except UnreachablePatternError:
            return True

    def _apply_lc_fault(self, kind: str, lc: int) -> None:
        """Scripted LC failure/recovery from the FaultSchedule."""
        now = self.queue.now
        self.fault_event_count += 1
        tr = self._trace
        if tr is not None:
            tr.record("fault", now, lc=lc, kind=kind)
        if kind == "fail":
            if self._failed[lc]:
                return
            if self.partitioned and self.plan is not None:
                # Stale-entry correctness: REM results other LCs fetched
                # from the dying card are untrustworthy from here on (it
                # may miss updates while down).  Evaluated with the
                # pre-failure replica choice, before the plan mutates.
                for i, cache in enumerate(self.caches):
                    if i != lc and cache is not None and not self._failed[i]:
                        cache.invalidate_remote(
                            lambda addr: self._homed_at(addr, lc)
                        )
                self.plan.fail_lc(lc)
            self._failed[lc] = True
            self._fail_at[lc] = now
            cache = self.caches[lc]
            if cache is not None:
                # Sweep the dying card's in-flight reservations: it will
                # never fill them.  Local packets parked on them are lost
                # with the card; remote requesters recover via timeout.
                for entry in cache.take_waiting_entries():
                    waiters, entry.waiters = entry.waiters, []
                    for waiter in waiters:
                        if isinstance(waiter, _RemoteWaiter):
                            continue
                        self._drop(waiter, "crash")
        else:
            if not self._failed[lc]:
                return
            if self.partitioned and self.plan is not None:
                self.plan.restore_lc(lc)
            cache = self.caches[lc]
            if cache is not None:
                # Cold restart: whatever the card cached before dying is
                # stale by definition.
                cache.flush()
            self._failed[lc] = False
            self._down_cycles[lc] += now - self._fail_at[lc]

    # -- live route churn ----------------------------------------------------

    def _note_churn_miss(self, dest: int, lc: int) -> None:
        """Attribute a cache miss to churn if this LC's entry for ``dest``
        was dropped by an update invalidation (one miss per dropped entry)."""
        ci = self._churn_invalidated
        if ci is not None:
            s = ci[lc]
            if dest in s:
                s.discard(dest)
                self.churn_misses += 1
                self._m_churn_miss.value += 1

    def _apply_churn_update(self, update) -> None:
        """Apply one timestamped routing update from a ChurnSchedule.

        The update is routed to its pattern-holder LC(s) via the partition
        plan, applied to each holder's matcher incrementally (patch or
        rebuild, per the structure), and its service time charged as FE
        busy time — lookups arriving during the update queue behind it.
        Cache invalidation then follows the armed policy, applied
        *atomically at this cycle* (the conservative invalidate-before-use
        model: no lookup can ever observe a stale next hop), while the
        update→invalidate messages to the other LCs are still pushed
        through the fabric for latency/port accounting.
        """
        now = self.queue.now
        prefix = update.prefix
        hop = update.next_hop
        self.update_events_applied += 1
        self._m_updates.value += 1
        touched = apply_route_update(self.plan, prefix, hop)
        for lc in touched:
            res = self._matchers[lc].apply_update(prefix, hop)
            cycles = res.service_cycles
            self.update_service_cycles += cycles
            self._m_update_cycles.value += cycles
            if res.kind == "patch":
                self.update_patches += 1
                self._m_update_patches.value += 1
            else:
                self.update_rebuilds += 1
                self._m_update_rebuilds.value += 1
            # Update service occupies the holder's FE like a lookup would.
            self.fes[lc].acquire(now, cycles)
        if self._oracle is not None:
            self._oracle.apply_update(prefix, hop)
        tr = self._trace
        if tr is not None:
            tr.record(
                "update", now, lc=touched[0] if touched else -1,
                kind="withdraw" if hop is None else "announce",
                prefix=str(prefix), touched=len(touched),
            )
        if not touched:
            return
        policy = self._update_policy
        ci = self._churn_invalidated
        dropped = 0
        if policy == "flush":
            for i, cache in enumerate(self.caches):
                if cache is None:
                    continue
                resident = cache.resident_addresses()
                ci[i].update(resident)
                dropped += len(resident)
                cache.flush()
        else:
            touched_set = set(touched)
            for i, cache in enumerate(self.caches):
                if cache is None:
                    continue
                sink: list = []
                if policy == "selective" or i in touched_set:
                    cache.invalidate_matching(prefix, sink=sink)
                else:
                    # A LOC entry under the prefix only exists at an LC
                    # holding the pattern; elsewhere REM copies suffice.
                    cache.invalidate_remote(prefix.matches, sink=sink)
                ci[i].update(sink)
                dropped += len(sink)
        self.flushes += 1
        self._m_flushes.value += 1
        if tr is not None:
            tr.record("flush", now, kind=policy)
        self.invalidation_entries_dropped += dropped
        self._m_inval_dropped.value += dropped
        # One update→invalidate message from the primary holder to every
        # other LC; the invalidation itself applied atomically above.
        origin = touched[0]
        msgs = 0
        for dst in range(self.config.n_lcs):
            if dst == origin:
                continue
            self._transfer(origin, dst, now)
            msgs += 1
        self.invalidation_messages += msgs
        self._m_inval_msgs.value += msgs

    def _counter_snapshots(self) -> List[tuple]:
        snapshots = []
        for m in {id(m): m for m in [*self._matchers, self._oracle]}.values():
            c = getattr(m, "counter", None)
            if c is not None:
                snapshots.append((c, c.lookups, c.accesses, c.max_accesses))
        return snapshots

    @staticmethod
    def _restore_counters(snapshots: List[tuple]) -> None:
        for c, lookups, accesses, max_accesses in snapshots:
            c.lookups = lookups
            c.accesses = accesses
            c.max_accesses = max_accesses

    def _homes_hops_for(self, lc: int, dests: np.ndarray) -> tuple:
        """(homes, hops) int64 arrays for one LC's destinations (``hops``
        is None under live churn and above the kernels' 64 bits).  Pure
        per element, so any chunking of a stream yields identical
        values."""
        if self.plan is not None:
            homes = self.plan.home_lc_batch(dests)
        else:
            homes = np.full(len(dests), lc, dtype=np.int64)
        if self._updates_armed or self.table.width > MAX_KERNEL_WIDTH:
            return (homes, None)
        hops = np.empty(len(dests), dtype=np.int64)
        # Homes are LC indices, so a bincount names the ones present in
        # ascending order at a fraction of np.unique's sort.
        for h in np.flatnonzero(
            np.bincount(homes, minlength=self.config.n_lcs)
        ):
            mask = homes == h
            hops[mask] = self._matchers[int(h)].lookup_batch(dests[mask])
        if self._oracle is not None:
            expected = self._oracle.lookup_batch(dests)
            bad = np.flatnonzero(hops != expected)
            if bad.size:
                i = int(bad[0])
                raise SimulationError(
                    f"partition invariant violated at LC "
                    f"{int(homes[i])}: lookup({int(dests[i]):#x}) = "
                    f"{int(hops[i])}, whole table says "
                    f"{int(expected[i])}"
                )
        return (homes, hops)

    def _precompute_chunk(self, lc: int, dests: np.ndarray) -> tuple:
        """Resolve one chunk of LC ``lc``'s packets' home LC (and,
        churn-free, FE result) ahead of the event loop.

        Without ``updates=...`` the forwarding tables are immutable during
        :meth:`run` (flushes and selective invalidations only touch
        caches), so the per-packet ``(home, hop)`` pair is known before the
        packet's first event fires.  One vectorized
        :meth:`PartitionPlan.home_lc_batch` plus per-home-LC
        :meth:`lookup_batch` calls replace scalar lookups in the event
        handlers; with ``verify=True`` the chunk is checked against the
        oracle here in one batched pass.  Under live churn the tables *do*
        mutate mid-run, so only the homes (a function of the immutable
        control bits) are precomputed and every FE result resolves scalar
        at lookup time.  Above 64 bits only the homes are precomputed too:
        ``lookup_batch`` has no kernel there, so a precomputed hop would
        cost one scalar lookup per arrival instead of one per FE lookup.
        Matcher access counters are restored afterwards so precomputation
        stays side-effect free.
        """
        snapshots = self._counter_snapshots()
        out = self._homes_hops_for(lc, dests)
        self._restore_counters(snapshots)
        return out

    def _resolve_engine(self, engine: str) -> bool:
        """True for the array engine, False for the scalar loop."""
        if engine == "array":
            return True
        if engine == "scalar":
            return False
        raise SimulationError(
            f"engine must be 'array' or 'scalar', got {engine!r}"
        )

    # -- driving ----------------------------------------------------------------

    def run(
        self,
        streams: Sequence[np.ndarray],
        speed_gbps: Union[int, Sequence[int]] = 40,
        warmup_packets: int = 0,
        name: str = "spal",
        faults: Optional[FaultSchedule] = None,
        updates: Optional[ChurnSchedule] = None,
        update_policy: str = "selective",
        engine: str = "array",
        monitor=None,
    ) -> SimulationResult:
        """Run the router over per-LC destination streams.

        ``streams[i]`` feeds LC ``i``; arrival times follow the paper's
        interarrival windows for ``speed_gbps`` — a single rate for every
        LC, or one rate per LC (line cards aggregate different external
        links; Sec. 5 notes Cisco-style aggregation up to 10 Gbps per LC).

        ``warmup_packets`` excludes each LC's first packets from the
        latency statistics (they are still simulated): the simulator starts
        from stone-cold caches, which real traces never exhibit — their
        opening packets already carry the trace's temporal locality.

        ``faults`` scripts LC failures/recoveries and fabric degradation
        windows (see :class:`~repro.core.faults.FaultSchedule` and the
        module docstring for the fail-stop semantics).  A fault event at
        cycle T is applied before T's packet arrivals.  An empty (or
        absent) schedule leaves the run bit-identical to the fault-free
        simulator.

        ``updates`` scripts live route churn (see
        :class:`~repro.routing.churn.ChurnSchedule` and the module
        docstring): each timestamped announce/withdraw is applied to the
        holder LCs' forwarding state *during* the run, charged as FE
        service time, and followed by cache invalidation per
        ``update_policy`` — ``"flush"`` (the paper's full flush),
        ``"selective"`` (prefix-matching entries everywhere) or ``"rem"``
        (prefix-matching at holders, REM-only elsewhere).  An update at
        cycle T applies before T's arrivals (and after T's fault events).
        Requires ``partitioned=True``; an empty (or absent) schedule leaves
        the run bit-identical to the churn-free simulator.

        ``engine`` selects the event-loop implementation: ``"array"`` (the
        default: the one packed-state loop of
        :mod:`repro.sim.array_engine`, which takes materialized arrays and
        chunked :class:`~repro.sim.streaming.PacketStream`\\ s alike) or
        ``"scalar"`` (per-packet Python objects over :class:`EventQueue` —
        the readable reference loop; streams are materialized first).  Both
        precompute every arrival's home (and, churn-free up to 64 bits, its
        FE result) in batches.  The two engines are bit-identical;
        the differential suite in ``tests/test_engine_identity.py``
        enforces it.  The array engine recycles per-packet state, so after
        it ``self.completed`` / ``self.dropped_packets`` hold counts only;
        per-packet introspection needs the scalar loop or a tracer (whose
        ``complete`` records carry the served next hop).

        ``monitor`` attaches a :class:`~repro.obs.monitor.HealthMonitor`
        to the in-run telemetry sampler (requires
        ``config.sample_interval_cycles``): each closed sampling window is
        fed to the monitor's detectors online, and emitted
        :class:`~repro.obs.monitor.HealthEvent`\\ s accumulate on
        ``monitor.events``.  Sampler and monitor only *read* simulator
        state, so attaching them never changes any core result field.
        """
        if getattr(self, "_ran", False):
            raise SimulationError(
                "SpalSimulator instances are single-use (caches, fabric and "
                "queues carry state); build a fresh simulator per run"
            )
        if update_policy not in ("flush", "selective", "rem"):
            raise SimulationError(
                "update_policy must be 'flush', 'selective' or 'rem', "
                f"got {update_policy!r}"
            )
        use_array = self._resolve_engine(engine)
        if len(streams) != self.config.n_lcs:
            raise SimulationError(
                f"need {self.config.n_lcs} streams, got {len(streams)}"
            )
        if isinstance(speed_gbps, int):
            speeds = [speed_gbps] * self.config.n_lcs
        else:
            speeds = list(speed_gbps)
            if len(speeds) != self.config.n_lcs:
                raise SimulationError(
                    f"need {self.config.n_lcs} per-LC speeds, got {len(speeds)}"
                )
        if all(len(s) <= warmup_packets for s in streams):
            raise SimulationError("warmup_packets left no measured packets")
        if updates is not None and len(updates) > 0 and not self.partitioned:
            raise SimulationError(
                "updates=... requires partitioned=True (churn routes "
                "each update to its home LCs via the partition plan)"
            )
        if monitor is not None and self.config.sample_interval_cycles is None:
            raise SimulationError(
                "monitor=... requires config.sample_interval_cycles (the "
                "health detectors consume sampled telemetry windows)"
            )
        if faults is not None and not faults.empty:
            faults.validate(self.config.n_lcs)
        if updates is not None and self._minimize_state is not None:
            # Translate the caller's schedule (expressed against the
            # original table) into the equivalent announce/withdraw diff
            # against the minimised table.  Translation advances a private
            # copy of the minimiser's keys and is traffic-independent, so
            # the existing replay machinery below applies the translated
            # ops unmodified; a translation that nets out to zero ops
            # simply never arms churn.  It also validates the schedule:
            # a withdrawal of an absent prefix or a width mismatch raises
            # TableError, and every translated op applies in order.
            updates = self._minimize_state.translate_schedule(updates)
        elif updates is not None and len(updates) > 0:
            updates.validate(self.table)
        # Only past the argument and schedule checks: a rejected call
        # leaves the simulator untouched and runnable.
        self._ran = True
        if faults is not None and not faults.empty:
            self._faults = faults
            if faults.has_lc_events and self.partitioned and self.plan is not None:
                # The plan mutates during the run (fail_lc/restore_lc), so
                # work on a private copy: injected/memoized plans are shared
                # across simulators and must come back untouched.
                self.plan = self.plan.copy_for_faults()
                self._home = self.plan.home_lc
            if faults.has_lc_events or faults.has_drops:
                self._timeout = self.config.default_rem_timeout()
            self._fault_rng = np.random.default_rng(faults.seed)
            for d in faults.degradations:
                self.fabric.degrade(d.start, d.end, d.extra_latency)
            # Scheduled before any packet: at equal cycles the stable heap
            # order makes the fault apply ahead of that cycle's arrivals.
            for cycle, kind, lc in faults.lc_events():
                self.queue.schedule(cycle, self._apply_lc_fault, kind, lc)
        if updates is not None and len(updates) > 0:
            self._updates_armed = True
            self._update_policy = update_policy
            # The run mutates forwarding state: work on private copies so
            # injected/memoized plans and matchers come back untouched.
            # Tables are deep-copied; matchers the caller injected are
            # rebuilt over the copies, while the simulator's own matchers
            # and oracle are private already and patch in place.
            self.plan = self.plan.copy_for_updates()
            self._home = self.plan.home_lc
            if self._matchers_injected:
                self._matchers = [
                    HashReferenceMatcher(t) for t in self.plan.tables
                ]
            self._churn_invalidated = [set() for _ in range(self.config.n_lcs)]
            self._m_updates = self.obs.counter("sim.updates.applied")
            self._m_update_cycles = self.obs.counter(
                "sim.updates.service_cycles"
            )
            self._m_update_patches = self.obs.counter("sim.updates.patches")
            self._m_update_rebuilds = self.obs.counter("sim.updates.rebuilds")
            self._m_inval_msgs = self.obs.counter(
                "sim.updates.invalidation_msgs"
            )
            self._m_inval_dropped = self.obs.counter(
                "sim.updates.entries_dropped"
            )
            self._m_churn_miss = self.obs.counter("sim.updates.churn_misses")
            # After faults, before packets: at equal cycles an update
            # applies after that cycle's fault events and ahead of its
            # packet arrivals (stable heap order).
            for ev in updates.events():
                self.queue.schedule(ev.cycle, self._apply_churn_update, ev.update)
        self._plan_epoch = self.plan.epoch if self.plan is not None else 0
        # -- in-run telemetry (None = off = bit-identical) -----------------
        sampler = None
        if self.config.sample_interval_cycles is not None:
            from ..obs.timeseries import TimeSeriesSampler

            sampler = TimeSeriesSampler(
                self.config.sample_interval_cycles,
                self.config.n_lcs,
                monitor=monitor,
            )
        total = sum(len(s) for s in streams)
        failover_lat: Optional[List[int]] = None
        if use_array:
            from .array_engine import ArrayEngine

            # The one array loop takes materialized arrays and chunked
            # PacketStreams alike (an array is a single-chunk stream).
            out = ArrayEngine(self).run_streamed(
                streams, speeds, warmup_packets, sampler=sampler,
            )
            horizon = out["horizon"]
            latencies = out["latencies"]
            failover_lat = out["failover"]
            t0 = time.perf_counter()
        else:
            from .streaming import PacketStream

            # The scalar loop is the readable reference implementation,
            # not the scale path (it allocates a _Packet per arrival
            # regardless): materialize streams up front so chunked input
            # still runs — and runs bit-identically.
            streams = [
                s.materialize() if isinstance(s, PacketStream) else s
                for s in streams
            ]
            t0 = time.perf_counter()
            precomputed = [
                self._precompute_chunk(lc, np.asarray(stream))
                for lc, stream in enumerate(streams)
            ]
            self.phase_seconds["precompute"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            tracing = self._trace is not None
            next_pid = 0
            for lc, stream in enumerate(streams):
                times = arrival_times(
                    len(stream), speed_gbps=speeds[lc], seed=1000 + lc
                )
                # Plain lists: list[i] yields a Python int with no
                # per-element conversion.
                homes = precomputed[lc][0].tolist()
                hops = precomputed[lc][1]
                if hops is not None:
                    hops = hops.tolist()
                for i, (t, dest) in enumerate(zip(times, stream)):
                    pkt = _Packet(int(dest), lc, int(t))
                    pkt.measured = i >= warmup_packets
                    if tracing:
                        # Sequential per run, touched only by the tracer —
                        # pid assignment cannot perturb the timeline.
                        pkt.pid = next_pid
                        next_pid += 1
                    pkt.home = homes[i]
                    if hops is not None:
                        pkt.hop = hops[i]
                    self.queue.schedule(int(t), self._arrive, pkt, lc)
            self.phase_seconds["schedule"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            if sampler is not None:
                sampler.bind(self._timeseries_reader())
            horizon = self.queue.run(sampler=sampler)
            self.phase_seconds["run"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            latencies = np.array(
                [
                    p.complete_time - p.arrival_time
                    for p in self.completed
                    if p.measured
                ],
                dtype=np.int64,
            )
        # Conservation audit: every offered packet either completed its
        # lookup or is accounted as exactly one taxonomized drop, and
        # bounded queues never admitted past their capacity — anything
        # else is a simulator bug.
        if len(self.completed) + len(self.dropped_packets) != total:
            raise SimulationError(
                f"{total - len(self.completed) - len(self.dropped_packets)} "
                f"packets neither completed nor dropped"
            )
        if sum(self.drops.values()) != len(self.dropped_packets):
            raise SimulationError(
                f"drop taxonomy ({sum(self.drops.values())} across "
                f"{self.drops}) does not account for the "
                f"{len(self.dropped_packets)} dropped packets"
            )
        fe_cap = self.config.fe_queue_capacity
        if fe_cap is not None:
            for lc, depth in enumerate(self.max_fe_backlog):
                if depth >= fe_cap:
                    raise SimulationError(
                        f"bounded FE queue at LC {lc} reached depth "
                        f"{depth} with capacity {fe_cap}"
                    )
        fab_cap = self.config.fabric_queue_capacity
        if fab_cap is not None and self.max_fabric_backlog >= fab_cap:
            raise SimulationError(
                f"bounded fabric port reached backlog "
                f"{self.max_fabric_backlog} with capacity {fab_cap}"
            )
        cache_stats = []
        for cache in self.caches:
            if cache is None:
                cache_stats.append({})
            else:
                s = cache.stats
                cache_stats.append(
                    {
                        "lookups": s.lookups,
                        "hits": s.hits,
                        "waiting_hits": s.waiting_hits,
                        "victim_hits": s.victim_hits,
                        "misses": s.misses,
                        "evictions": s.evictions,
                        "bypasses": s.bypasses,
                        "hit_rate": s.hit_rate,
                    }
                )
        result = SimulationResult(
            name=name,
            n_lcs=self.config.n_lcs,
            latencies=latencies,
            horizon_cycles=horizon,
            cache_stats=cache_stats,
            fe_lookups=list(self.fe_lookups),
            fe_utilization=[
                fe.utilization(horizon) for fe in self.fes
            ],
            fabric_messages=self.fabric.messages,
            flushes=self.flushes,
            extra=(
                {
                    "max_fe_backlog": list(self.max_fe_backlog),
                    "max_fabric_backlog": self.max_fabric_backlog,
                }
                if self.config.fabric_queue_capacity is not None
                else {"max_fe_backlog": list(self.max_fe_backlog)}
            ),
        )
        if self._faults is not None or self._bounded:
            # Degraded-mode metrics, populated only when the fault
            # machinery was armed: fault-free runs keep the dataclass
            # defaults and stay bit-identical to the pre-fault simulator.
            result.drops = dict(self.drops)
            result.retries = self.retries
            result.fabric_dropped_messages = self.fabric_dropped_messages
            result.fault_events = self.fault_event_count
            down = list(self._down_cycles)
            for lc in range(self.config.n_lcs):
                if self._failed[lc]:
                    down[lc] += horizon - self._fail_at[lc]
            result.lc_availability = [
                1.0 - (d / horizon if horizon > 0 else 0.0) for d in down
            ]
            failover = (
                failover_lat
                if failover_lat is not None
                else [
                    p.complete_time - p.arrival_time
                    for p in self.completed
                    if p.measured and p.attempt > 0
                ]
            )
            result.failover_packets = len(failover)
            if failover:
                result.failover_mean_cycles = float(
                    sum(failover) / len(failover)
                )
        if self._updates_armed:
            # Churn metrics, populated only when run(updates=...) armed the
            # pipeline: churn-free runs keep the dataclass defaults and
            # stay bit-identical to the pre-churn simulator.
            result.update_events_applied = self.update_events_applied
            result.update_patches = self.update_patches
            result.update_rebuilds = self.update_rebuilds
            result.update_service_cycles = self.update_service_cycles
            result.invalidation_messages = self.invalidation_messages
            result.invalidation_entries_dropped = (
                self.invalidation_entries_dropped
            )
            result.churn_misses = self.churn_misses
        if sampler is not None:
            # Array engines already packed the series pre-writeback; for
            # them this returns the cached TimeSeries.
            result.timeseries = sampler.finish(horizon)
        self._fill_registry(horizon, latencies)
        result.metrics_snapshot = self.obs.snapshot()
        self.phase_seconds["collect"] = time.perf_counter() - t0
        return result

    def _timeseries_reader(self):
        """The scalar loop's sampler reader: pure reads over counters the
        simulator maintains anyway (see
        :meth:`repro.obs.timeseries.TimeSeriesSampler.bind`)."""
        fe_cycles = self.config.fe_lookup_cycles
        comp_seen = 0

        def read(at_cycle: int) -> Dict[str, object]:
            nonlocal comp_seen
            hits = lookups = 0
            for cache in self.caches:
                if cache is not None:
                    s = cache.stats
                    hits += s.hits + s.waiting_hits + s.victim_hits
                    lookups += s.lookups
            new_lat = [
                p.complete_time - p.arrival_time
                for p in self.completed[comp_seen:]
                if p.measured
            ]
            comp_seen = len(self.completed)
            return {
                "completed": len(self.completed),
                "dropped": len(self.dropped_packets),
                "shed": self.drops["shed"],
                "hits": hits,
                "lookups": lookups,
                "fe_busy": [fe.busy_cycles for fe in self.fes],
                "fe_lookups": list(self.fe_lookups),
                "fe_backlog": [
                    max(0, fe.free_at - at_cycle) // fe_cycles
                    for fe in self.fes
                ],
                "fe_backlog_hw": max(self.max_fe_backlog),
                "fabric_backlog_hw": self.max_fabric_backlog,
                "new_latencies": new_lat,
            }

        return read

    def _fill_registry(self, horizon: int, latencies: np.ndarray) -> None:
        """Publish end-of-run aggregates into the registry.

        Everything here is copied *at snapshot time* from counters the
        simulator maintained anyway (cache/FE stats, fabric totals), so the
        event handlers never paid for it; only rare-path instruments
        (drops, retries, flushes, fabric drops, the remote round-trip
        histogram, eviction-kind split) are incremented live.  All values
        derive from the event timeline, keeping the snapshot bit-identical
        across traced/untraced runs and across engines.
        """
        obs = self.obs
        for cache in self.caches:
            if cache is not None:
                cache.observe_into()
        self.fabric.observe_into(obs)
        if self.plan is not None:
            self.plan.observe_into(obs)
        for i in range(self.config.n_lcs):
            obs.counter("fe.lookups", lc=i).value = self.fe_lookups[i]
            obs.gauge("fe.utilization", lc=i).set(
                self.fes[i].utilization(horizon)
            )
            obs.gauge("fe.max_backlog", lc=i).set(self.max_fe_backlog[i])
            # The overload-visibility alias of fe.max_backlog: queue depth
            # under the sim.* namespace, per the drop/SLO taxonomy.
            obs.gauge("sim.fe.backlog_max", lc=i).set(self.max_fe_backlog[i])
        if self.config.fabric_queue_capacity is not None:
            obs.gauge("sim.fabric.backlog_max").set(self.max_fabric_backlog)
        obs.counter("sim.packets", outcome="completed").value = len(
            self.completed
        )
        obs.counter("sim.packets", outcome="dropped").value = len(
            self.dropped_packets
        )
        # Tail-latency SLO gauges (cycles): the completion-latency
        # distribution's p50/p99/p999, bit-identical across engines (both
        # produce the same measured-latency multiset).
        if len(latencies):
            p50, p99, p999 = np.percentile(latencies, [50.0, 99.0, 99.9])
        else:
            p50 = p99 = p999 = 0.0
        obs.gauge("sim.latency.p50").set(float(p50))
        obs.gauge("sim.latency.p99").set(float(p99))
        obs.gauge("sim.latency.p999").set(float(p999))
        obs.gauge("sim.horizon_cycles").set(horizon)
