"""Array-time engine: the simulator's hot loop over packed packet state.

``SpalSimulator``'s scalar loop advances one event at a time through
Python-object handlers — correct, but per-packet allocation (``_Packet``,
``CacheEntry``) and attribute chasing dominate wall clock.  This module
replays the *exact same* event timeline over flat parallel lists: an
arrival lives in its window's columns, a packet that leaves the cache-hit
path in packed slot arrays, cache entries in an entry pool indexed by
entry id, and one event loop merges sorted arrival windows against a
small heap of dynamic events.

There is exactly one array loop, :meth:`ArrayEngine.run_streamed`.  A
materialized per-LC array enters it as a single chunk, so a whole trace
is simply the one-window case of the streaming contract.  Inside it, an
arriving packet and a remote request share one LR-cache probe (``probe``, the
scalar ``LRCache.probe``) and one cache-port booking (``port_probe``).
A traced run takes every arrival through ``arrive``; the untraced walk
completes a plain hit inline, from the window columns, and sends every
other arrival through ``arrive`` too.

Determinism contract
--------------------
The array engine is bit-identical to the scalar loop — including under
fault injection, tracing/metrics and live churn — because it preserves:

* **event order**: every event carries the scalar engine's ``(cycle,
  sequence)`` key packed into one Python integer ``(cycle << 40) | seq``
  (arbitrary-precision, so long horizons cannot overflow); arrival
  windows are prefixes of the stable global ``(cycle, pid)`` sort and are
  merged against the heap, reproducing the scalar heap's pop order;
* **state semantics**: cache sets are ``dict`` address → entry-id in the
  same insertion order; entry and packet slots are reference-counted and
  an id is reused only once nothing refers to it, so identity tests like
  ``entry is not home_entry`` stay integer comparisons between live
  entries; replacement ties resolve through the same ``min``/list order,
  and replacement-policy RNGs are the caches' own objects;
* **the miss chain**: replacement, fabric transit, shedding and the
  fault queries compute what the scalar objects compute, in fewer
  steps.  Replacement finds its lru/fifo victim in one pass over the
  set, the first minimum winning as ``min``'s does; the port-pair and
  shared-bus fabrics are inlined over the fabric's own state; the shed
  kernel is called wherever the backlog could shed (at or above
  :func:`~repro.sim.shedding.admit_floor`), so it sees the scalar
  calls that can drop or draw, in order.  Each fault query is a cursor:
  its value comes from the schedule's own method at a window edge and
  is kept until :meth:`~repro.core.faults.FaultSchedule.next_change`,
  so every value and every fault-RNG draw is the scalar loop's;
* **rare paths**: LC faults, timeouts, drops and the churn handler are
  line-by-line transliterations of the scalar handlers, touching the
  same shared objects (partition plan, matchers, oracle, fault RNG,
  tracer, metric instruments) in the same order.  Churn invalidation is
  the same set-level operation as the scalar per-set scan, reached
  through the entry pool instead: one vector range query over the pool's
  key column (:func:`_ids_under`) picks the entries under the prefix,
  and each live one is deleted from the set or victim dict holding it.

At the end of a run the engine writes the flat state back into the
simulator's objects (caches, resources, fabric-adjacent counters, event
queue), so post-run introspection — ``sim.caches[i].stats``,
``result.metrics_snapshot`` — matches a scalar run.  Per-packet state is
recycled as packets retire, so ``sim.completed`` and
``sim.dropped_packets`` keep counts only; the trace stream (``complete``
records carry the served next hop) is the per-packet view.
``tests/test_engine_identity.py`` drives both engines over random
configurations and asserts field-by-field and trace-stream equality.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_left
from collections.abc import Sequence as _SequenceABC
from heapq import heapify, heappop, heappush
from itertools import compress, count
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import FIL_OVERHEAD_CYCLES, REM_MAX_RETRIES
from ..core.fabric import Fabric, SharedBusFabric
from ..core.lr_cache import LOC, REM
from ..core.partition import apply_route_update
from ..errors import SimulationError
from ..obs.timeseries import NO_SAMPLE as _NO_SAMPLE
from ..traffic.packets import ArrivalClock
from .shedding import admit_floor, shed_decision
from .streaming import PacketStream, dest_column

#: Bits reserved for the event sequence number in the packed key
#: ``(cycle << _SEQ_BITS) | seq``.  Keys are Python ints, so the cycle
#: half can grow without bound; 2^40 events per run is the backstop.
_SEQ_BITS = 40

# Event kinds (heap tuples are ``(key, kind, a, b, c, d)``; keys are
# unique, so comparison never reaches the payload slots).
_K_PROBE = 0    # deferred local probe        (pkt, lc, start)
_K_FEDONE = 1   # FE lookup finished          (pkt, lc, origin, home_eid)
_K_REPLY = 2    # reply delivery              (pkt, hop)
_K_REMREQ = 3   # remote request delivery     (pkt, home)
_K_RPROBE = 4   # deferred remote probe       (pkt, home, start)
_K_TIMEOUT = 5  # remote-lookup timeout check (pkt, lc, attempt)
_K_FAULT = 6    # scripted LC fault           (kind, lc)
_K_UPDATE = 7   # live churn update           (update,)

# How ``send`` moves a message through the fabric: the port-pair and
# shared-bus models inlined over their own state, anything else (a
# degraded fabric, a custom transfer) through ``fabric.transfer``.
_FAB_PORTS = 0
_FAB_BUS = 1
_FAB_METHOD = 2

#: Most arrivals one merged window holds, over all feeds together, and
#: most arrivals one pattern precompute block covers for one feed.
#: Window columns and precomputed prefixes, not the chunk size or the LC
#: count, then bound the per-arrival state a run holds at once.
_WINDOW_CAP = 8192

#: A feed's precomputed patterns right after a pull: none yet.
_NO_PATTERNS = np.empty(0, dtype=np.int64)

#: ``lat_cur`` length at which building a window moves it into
#: ``lat_parts`` as one packed array.
_LAT_FLUSH = 65536


def _ids_under(e_key, e_addr, value: int, span: int, kshift: int) -> List[int]:
    """Ids of the entry-pool slots whose address lies under a prefix, in
    ascending order: every ``e`` with ``e_addr[e] ^ value < span``, where
    ``span = 2**(width - length)`` for the prefix ``value/length``.

    ``e_key`` is the pool's ``array("Q")`` key column, ``e_addr[e] >>
    kshift`` with ``kshift = max(0, width - 64)``: the whole address up to
    64 bits, the high word beyond.  One vector compare over the keys picks
    the candidates — exactly the matches for a prefix of at most 64 bits,
    a superset (equal high words) for a longer one — and the exact
    integer test runs on those survivors only.  A key span of 2**64 or
    more (a /0 on 64 bits or wider) makes every id a candidate.  The view
    over ``e_key`` dies inside the expression, so the caller may append
    to the column afterwards.
    """
    kspan = span >> kshift
    if kspan >> 64:
        cand = range(len(e_addr))
    else:
        cand = np.flatnonzero(
            (np.frombuffer(e_key, np.uint64) ^ np.uint64(value >> kshift))
            < np.uint64(max(1, kspan))
        ).tolist()
    return [e for e in cand if (e_addr[e] ^ value) < span]


class _Feed:
    """One LC's chunk iterator + resumable arrival clock, with at most one
    buffered (not-yet-windowed) segment: destinations, arrival cycles and
    the global pid of its first arrival, plus the control-bit patterns
    (``pat``) of a precomputed prefix of it.  A stream's chunks pass
    :func:`dest_column` as they are read; ``run()`` checked an array."""

    __slots__ = ("lc", "it", "clock", "expect", "got", "done",
                 "t", "g0", "dest", "pat")

    def __init__(self, lc: int, stream, speed: int, width: int):
        self.lc = lc
        if isinstance(stream, PacketStream):
            self.it = (dest_column(c, width, lc) for c in stream.chunks())
        else:
            self.it = iter((stream,))
        self.clock = ArrivalClock(speed, seed=1000 + lc)
        self.expect = len(stream)
        self.got = 0
        self.done = False
        self.t: Optional[np.ndarray] = None
        self.g0 = 0
        self.dest: Optional[np.ndarray] = None
        self.pat: Optional[np.ndarray] = None


class _CountSeq(_SequenceABC):
    """Count-only stand-in for ``sim.completed`` / ``sim.dropped_packets``
    after an array-engine run.

    The array engine recycles per-packet state as packets retire, so only
    the totals survive the run.  ``len()`` (and truthiness) work — that is
    all the conservation check, warmup check and result assembly need —
    while element access fails loudly and points a consumer that wants
    per-packet introspection at the scalar loop.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        raise TypeError(
            "array-engine runs retain packet counts only; per-packet state "
            "is recycled as packets retire (run with engine='scalar' for "
            "packet introspection, or attach a Tracer)"
        )


class ArrayEngine:
    """One-shot flat-state replay of a :class:`SpalSimulator` run.

    Constructed by ``SpalSimulator.run`` after arming (fault schedule,
    churn pipeline, tracer and instruments are already attached to the
    simulator); :meth:`run_streamed` — the one array event loop, for
    materialized and chunked input alike — executes the schedule+run
    phases and writes every observable side effect back into the
    simulator.
    """

    def __init__(self, sim) -> None:
        self.sim = sim

    def run_streamed(
        self,
        streams: Sequence[object],
        speeds: Sequence[int],
        warmup_packets: int,
        sampler=None,
    ) -> Dict[str, object]:
        """Run the array event loop over per-LC streams with O(window)
        packet state.

        ``streams`` holds one :class:`~repro.sim.streaming.PacketStream`
        or checked destination array (:func:`dest_column`) per LC; an
        array is a single chunk.  Arrivals are pulled chunk-by-chunk and
        merged into windows of at most ``_WINDOW_CAP`` arrivals in total.
        Untraced, a plain cache hit completes from the window's columns;
        only an arrival that leaves the hit path is admitted to a packet
        slot.  Packet and entry slots are reference-counted and recycled
        as packets retire — peak memory follows the window cap and the
        in-flight population, never the chunk size, the LC count or the
        total packet count.

        Bit-identity with the scalar loop over the materialized streams,
        at every chunk size, rests on two mechanisms:

        * **window boundary** — the minimum over the ``m`` buffered feeds
          of each buffer's ``(_WINDOW_CAP // m)``-th arrival ``(cycle,
          global pid)``, or its last one if the buffer is shorter; every
          extracted window is a prefix of the one-shot stable sort, so
          the merged arrival order (and every event key) is chunk-size
          independent;
        * **pre-assigned sequence block** — arrival sequence numbers are
          reserved up front from the *declared* stream lengths, so
          dynamic events scheduled mid-stream draw the same sequence
          numbers as in the scalar loop's up-front scheduling.

        Each feed keeps the patterns of a precomputed prefix of its buffer
        and extends it by one block of at most ``_WINDOW_CAP`` of its
        arrivals when a window cut reaches past it.  A pattern does not
        depend on the failure state, so a block computed after a fault
        event equals a whole-trace pass at run start; the home LC is read
        from the pattern through the live plan when a packet misses, and
        an FE looks up the hop of each lookup it serves.

        ``sim.completed`` / ``sim.dropped_packets`` become count-only
        views (:class:`_CountSeq`) because per-packet state no longer
        exists once the run finishes.
        """
        sim = self.sim
        config = sim.config
        n_lcs = config.n_lcs
        tr = sim._trace
        tracing = tr is not None
        plan = sim.plan
        lc_of_pattern = (
            plan.lc_of_pattern
            if plan is not None and plan.replicas_of_pattern is None
            else None
        )
        matchers = sim._matchers
        oracle = sim._oracle
        fabric = sim.fabric
        fabric_transfer = fabric.transfer
        if fabric._degradations:
            fab_mode = _FAB_METHOD
        elif type(fabric).transfer is Fabric.transfer:
            fab_mode = _FAB_PORTS
        elif type(fabric).transfer is SharedBusFabric.transfer:
            fab_mode = _FAB_BUS
        else:
            fab_mode = _FAB_METHOD
        fab_out = fabric._out_free
        fab_in = fabric._in_free
        fab_lat = fabric.latency_cycles()
        fab_msgs = 0
        fil = FIL_OVERHEAD_CYCLES
        fe_cycles = config.fe_lookup_cycles
        early_recording = config.early_recording
        cache_remote = config.cache_remote_results
        timeout = sim._timeout
        faults = sim._faults
        frand = sim._fault_rng.random if sim._fault_rng is not None else None
        ci = sim._churn_invalidated
        update_policy = sim._update_policy
        drops_dict = sim.drops
        m_drops = sim._m_drops
        rem_rt_observe = sim._m_rem_rt.observe
        track_failover = faults is not None
        # Bounded-queue / gray-failure knobs (None / False = legacy paths,
        # keeping unbounded runs bit-identical to older engines).
        fe_cap = config.fe_queue_capacity
        fab_cap = config.fabric_queue_capacity
        shed_policy = config.shed_policy
        srand = sim._shed_rng.random if sim._shed_rng is not None else None
        fe_floor = admit_floor(fe_cap) if fe_cap is not None else 0
        fab_floor = admit_floor(fab_cap) if fab_cap is not None else 0
        has_slow = faults is not None and bool(faults.slowdowns)
        has_gray = faults is not None and bool(faults.cache_degradations)
        max_fab_backlog = 0

        # -- fault-window cursors -----------------------------------------
        # Each query keeps its value until the cycle its window edges next
        # allow a change (``FaultSchedule.next_change``) and is refreshed
        # through the schedule's own query then, so every value is the
        # scalar loop's.  A cursor is stepped by one argument only, which
        # never decreases: probes by ``now`` (per LC), FE starts by ``now``
        # (per LC), sends by ``now + 1``.  ``gray_at[lc]`` is the first
        # cycle the gray check must run at: 0 while the LC's miss fraction
        # is positive, else its next window edge.
        never = math.inf
        gray_at = [0] * n_lcs
        mf_val = [0.0] * n_lcs
        mf_until = [0] * n_lcs
        slow_cyc = [fe_cycles] * n_lcs
        slow_until = [0 if has_slow else never] * n_lcs
        snd_until = 0
        flap_on = False
        drop_p = 0.0
        # ``flap_drops`` at one (src, dst) per flap answers "is any flap in
        # its down phase": a flap that is down matches its own pair, and
        # any True names some flap that is down.
        flap_pairs = (
            {(f.src or 0, f.dst or 0) for f in faults.link_flaps}
            if faults is not None else ()
        )

        # -- flat fault state (written back at the end) -------------------
        failed = list(sim._failed)
        fail_at = list(sim._fail_at)
        down_cycles = list(sim._down_cycles)

        # -- flat resources ----------------------------------------------
        port_free = [0] * n_lcs
        port_busy = [0] * n_lcs
        # Plain hits completed inline by the untraced walk, per LC: each
        # is also a busy port cycle, a cache hit and a completion, added
        # in where those are read (the sampler and the writeback).
        plain = [0] * n_lcs
        fe_free = [0] * n_lcs
        fe_busy = [0] * n_lcs
        fe_lookups = [0] * n_lcs
        max_backlog = [0] * n_lcs

        # -- flat cache state --------------------------------------------
        # One entry pool across all caches, with a reference count per
        # entry so ids can be recycled: an entry is referenced by each
        # set/victim-dict slot holding it, by a packet's reservation
        # (``p_eid``) and by an in-flight FEDONE event's ``home_eid``.
        # Identity comparisons between *live* entries stay sound — an id
        # is only reused after every reference is gone.
        has_cache = config.cache is not None
        e_addr: List[int] = []
        # Each address's top 64 bits, for the vector range query behind
        # churn invalidation (see ``_ids_under``).
        kshift = max(0, sim.table.width - 64)
        e_key = array("Q")
        e_idx: List[int] = []
        e_hop: List[Optional[int]] = []
        e_mix: List[int] = []
        e_wait: List[bool] = []
        # Waiter lists are made by the first waiter (``park``): None
        # until then, so a miss allocates no container.
        e_waiters: List[Optional[list]] = []
        e_last: List[int] = []
        e_ins: List[int] = []
        e_ref: List[int] = []
        free_eids: List[int] = []
        if has_cache:
            c0 = sim.caches[0]
            n_sets = c0.n_sets
            assoc = c0.associativity
            rem_target = c0.rem_target
            loc_target = c0.loc_target
            xor_index = c0.index == "xor"
            policy_name = c0._policy.name
            # The stamp lru and fifo replacement order by; None for random.
            vstamp = {"lru": e_last, "fifo": e_ins}.get(policy_name)
            has_victim = c0.victim is not None
            vc_cap = c0.victim.capacity if has_victim else 0
            rng_main = [
                c._policy._rng.randrange if policy_name == "random" else None
                for c in sim.caches
            ]
            rng_vict = [
                c.victim._policy._rng.randrange
                if has_victim and policy_name == "random"
                else None
                for c in sim.caches
            ]
            fsets: List[Dict[int, int]] = [
                {} for _ in range(n_lcs * n_sets)
            ]
            vc: List[Optional[Dict[int, int]]] = [
                {} if has_victim else None for _ in range(n_lcs)
            ]
            stamp = [0] * n_lcs
            vc_stamp = [0] * n_lcs
            vc_ins = [0] * n_lcs
            vc_hits = [0] * n_lcs
            st_hits = [0] * n_lcs
            st_whits = [0] * n_lcs
            st_vhits = [0] * n_lcs
            st_misses = [0] * n_lcs
            st_ins = [0] * n_lcs
            st_evict = [0] * n_lcs
            st_bypass = [0] * n_lcs
            st_flush = [0] * n_lcs
            ev_cnt = [[0, 0] for _ in range(n_lcs)]
        else:
            n_sets = assoc = rem_target = loc_target = 0
            xor_index = has_victim = False
            vstamp = None

        # -- pre-scheduled events (faults, churn) -------------------------
        heap: List[tuple] = []
        fault_h = sim._apply_lc_fault
        churn_h = sim._apply_churn_update
        for (t, s, handler, args) in sim.queue.drain():
            if handler == fault_h:
                heap.append(((t << _SEQ_BITS) | s, _K_FAULT, args[0], args[1], 0, 0))
            elif handler == churn_h:
                heap.append(((t << _SEQ_BITS) | s, _K_UPDATE, args[0], 0, 0, 0))
            else:
                raise SimulationError(
                    f"array engine cannot replay pre-scheduled event {handler!r}; "
                    "use engine='scalar' for hand-scheduled queues"
                )
        seq = sim.queue._seq

        # -- streamed arrival feeds ---------------------------------------
        t0 = time.perf_counter()
        lengths = [len(s) for s in streams]
        total = sum(lengths)
        pid_base: List[int] = []
        acc = 0
        for n in lengths:
            pid_base.append(acc)
            acc += n
        pid_base_arr = np.asarray(pid_base + [0], dtype=np.int64)

        # Reserve the whole arrival sequence block up front (packet p gets
        # ``base + p``, lc-major) so dynamic events scheduled mid-stream
        # draw the same sequence numbers as the scalar loop's up-front
        # scheduling.
        base = seq + 1
        seq += total
        key_fast = base + total < (1 << _SEQ_BITS)
        heapify(heap)

        feeds = [_Feed(lc, s, speeds[lc], sim.table.width)
                 for lc, s in enumerate(streams)]
        cap = _WINDOW_CAP
        precompute_s = 0.0

        def pull(f: _Feed) -> None:
            # Load the feed's next non-empty chunk and its arrival cycles
            # into its empty buffer; marks the feed done (validating the
            # declared length) at the end.
            while True:
                try:
                    dests = next(f.it)
                except StopIteration:
                    if f.got != f.expect:
                        raise SimulationError(
                            f"stream for LC {f.lc} declared {f.expect} "
                            f"packets but produced {f.got}"
                        ) from None
                    f.done = True
                    return
                n = len(dests)
                if n:
                    break
            if f.got + n > f.expect:
                raise SimulationError(
                    f"stream for LC {f.lc} declared {f.expect} packets "
                    f"but produced at least {f.got + n}"
                )
            f.t = f.clock.next(n)
            f.g0 = pid_base[f.lc] + f.got
            f.got += n
            f.dest = dests
            f.pat = _NO_PATTERNS

        def precompute(lc: int, dests: np.ndarray) -> np.ndarray:
            # Patterns for one block of a feed's buffer.
            nonlocal precompute_s
            tp = time.perf_counter()
            out = sim._precompute_chunk(lc, dests)
            precompute_s += time.perf_counter() - tp
            return out

        # -- recycled per-packet slots ------------------------------------
        # Only an arrival that leaves the hit path holds a slot (see
        # ``admit``); a plain hit completes from the window columns.
        # Event payloads and waiter lists carry *slot* indices; ``p_gpid``
        # keeps the true (lc-major) pid for the tracer (set only when
        # tracing — nothing else reads it).  ``p_ref`` counts outstanding
        # references (in-flight events + waiter-list entries); a finished
        # packet's slot is recycled once it hits zero.
        p_gpid: List[int] = []
        p_dest: List[int] = []
        p_idx: List[int] = []
        p_set: List[int] = []
        p_lc: List[int] = []
        p_at: List[int] = []
        p_meas: List[bool] = []
        p_pat: List[int] = []
        p_ct: List[int] = []
        p_eid: List[int] = []
        p_att: List[int] = []
        p_drop: List[Optional[str]] = []
        p_sent: List[int] = []
        p_served: List[Optional[int]] = []
        p_ref: List[int] = []
        slot_cols = (p_gpid, p_dest, p_idx, p_set, p_lc, p_at, p_meas, p_pat,
                     p_ct, p_eid, p_att, p_drop, p_sent, p_served, p_ref)
        free_slots: List[int] = []

        completed_n = 0
        dropped_n = 0
        lat_parts: List[np.ndarray] = []
        lat_cur: List[int] = []
        failover_list: List[int] = []

        def build_window():
            # One merged arrival window: top up empty feeds, cut every
            # buffer at the window bound, merge stably.  Returns the
            # window columns (see ``admit``) or None when drained.
            if len(lat_cur) >= _LAT_FLUSH:
                lat_parts.append(np.asarray(lat_cur, dtype=np.int64))
                del lat_cur[:]
            for f in feeds:
                if not f.done and f.t is None:
                    pull(f)
            # The bound is the least, over the ``m`` buffered feeds, of each
            # buffer's (cap // m)-th (cycle, pid), or its last one when
            # shorter: no feed gives more than cap // m arrivals, so the
            # window holds at most ``cap`` (``m`` if there are more feeds
            # than that), and every arrival up to the bound is buffered.
            # A feed is done only once a pull into its empty buffer finds
            # no chunk, so a done feed never bounds.
            live = [f for f in feeds if f.t is not None]
            if not live:
                return None
            share = max(1, cap // len(live))
            bound = None
            for f in live:
                k = min(len(f.t), share)
                b = (int(f.t[k - 1]), f.g0 + k - 1)
                if bound is None or b < bound:
                    bound = b
            bt, bp = bound
            parts_t = []
            parts_p = []
            parts_d = []
            parts_lc = []
            parts_pat = []
            for f in live:
                n = len(f.t)
                cut = int(np.searchsorted(f.t, bt, side="right"))
                lo = int(np.searchsorted(f.t, bt, side="left"))
                if lo < cut:
                    # At most one arrival per feed sits exactly at the
                    # boundary cycle (gaps are >= 1); keep it only if its
                    # pid does not exceed the boundary pid.
                    cut = min(cut, max(lo, bp - f.g0 + 1))
                if cut <= 0:
                    continue
                pre = len(f.pat)
                if cut > pre:
                    # The cut reaches past the precomputed prefix: extend
                    # it by one block of the feed's next ``cap`` arrivals
                    # (a cut never exceeds ``cap``).
                    pats = precompute(f.lc, f.dest[pre:pre + cap])
                    f.pat = np.concatenate((f.pat, pats)) if pre else pats
                parts_t.append(f.t[:cut])
                parts_p.append(np.arange(f.g0, f.g0 + cut, dtype=np.int64))
                parts_d.append(f.dest[:cut])
                parts_lc.append(np.full(cut, f.lc, dtype=np.int64))
                parts_pat.append(f.pat[:cut])
                if cut == n:
                    f.t = f.dest = f.pat = None
                else:
                    f.t = f.t[cut:]
                    f.g0 += cut
                    f.dest = f.dest[cut:]
                    f.pat = f.pat[cut:]
            # Parts come in feed (LC) order, each with ascending pids, so
            # the concatenation is pid-ordered and a stable sort by cycle
            # is the global (cycle, pid) order.
            wt = np.concatenate(parts_t)
            order = np.argsort(wt, kind="stable")
            wt = wt[order]
            wp = np.concatenate(parts_p)[order]
            wlc = np.concatenate(parts_lc)[order]
            tl = wt.tolist()
            if key_fast and tl[-1] < (1 << 23):
                wk = ((wt << _SEQ_BITS) | (wp + base)).tolist()
            else:
                wk = [
                    (t << _SEQ_BITS) | (base + g)
                    for t, g in zip(tl, wp.tolist())
                ]
            wd = np.concatenate(parts_d)[order]
            if has_cache:
                wi = (
                    ((wd ^ (wd >> 16)) if xor_index else wd) % n_sets
                ).astype(np.int64)
            else:
                wi = np.zeros(len(tl), dtype=np.int64)
            return (
                tl,
                wk,
                wlc.tolist(),
                wd.tolist(),
                (wi + wlc * n_sets).tolist(),
                (
                    ((wp - pid_base_arr[wlc]) >= warmup_packets).tolist()
                    if warmup_packets > 0 else [True] * len(tl)
                ),
                wi,
                np.concatenate(parts_pat)[order],
                wp,
            )

        # The current arrival window: lists for what the hit path reads
        # (cycle, key, LC, destination, flat set index, measured flag),
        # then arrays for what only an admitted packet needs (set index,
        # pattern and global pid).
        win = None

        def admit(i: int) -> int:
            # Give arrival ``i`` of the current window a packet slot.  Only
            # an arrival that leaves the hit path -- a port wait, a waiting
            # hit, a miss, a no-cache dispatch or an ingress drop -- takes
            # one; a plain hit completes from the window columns alone.
            (w_t, _, w_lc, w_dest, w_set, w_meas, w_idx, w_pat, w_gpid) = win
            if free_slots:
                p = free_slots.pop()
            else:
                p = len(p_ref)
                for col in slot_cols:
                    col.append(None)
            p_dest[p] = w_dest[i]
            p_idx[p] = w_idx.item(i)
            p_set[p] = w_set[i]
            p_lc[p] = w_lc[i]
            p_at[p] = w_t[i]
            p_meas[p] = w_meas[i]
            p_pat[p] = w_pat.item(i)
            p_ct[p] = -1
            p_eid[p] = -1
            p_att[p] = 0
            p_drop[p] = None
            p_sent[p] = -1
            p_served[p] = None
            p_ref[p] = 0
            if tracing:
                p_gpid[p] = w_gpid.item(i)
            return p

        # -- reference counting -------------------------------------------

        def ederef(e: int) -> None:
            r = e_ref[e] - 1
            e_ref[e] = r
            if r == 0:
                e_waiters[e] = None
                free_eids.append(e)

        def pderef(p: int) -> None:
            r = p_ref[p] - 1
            p_ref[p] = r
            if r == 0 and (p_ct[p] >= 0 or p_drop[p] is not None):
                eid = p_eid[p]
                if eid >= 0:
                    p_eid[p] = -1
                    ederef(eid)
                free_slots.append(p)

        def maybe_retire(p: int) -> None:
            if p_ref[p] == 0 and (p_ct[p] >= 0 or p_drop[p] is not None):
                eid = p_eid[p]
                if eid >= 0:
                    p_eid[p] = -1
                    ederef(eid)
                free_slots.append(p)

        # -- cache primitives (LRCache/VictimCache transliterations, with
        # entry refcounts woven in) ---------------------------------------

        def new_entry(addr, idx, hop, mix, wait, st) -> int:
            if free_eids:
                eid = free_eids.pop()
                e_addr[eid] = addr
                e_key[eid] = addr >> kshift
                e_idx[eid] = idx
                e_hop[eid] = hop
                e_mix[eid] = mix
                e_wait[eid] = wait
                e_waiters[eid] = None
                e_last[eid] = st
                e_ins[eid] = st
                e_ref[eid] = 0
                return eid
            e_addr.append(addr)
            e_key.append(addr >> kshift)
            e_idx.append(idx)
            e_hop.append(hop)
            e_mix.append(mix)
            e_wait.append(wait)
            e_waiters.append(None)
            e_last.append(st)
            e_ins.append(st)
            e_ref.append(0)
            return len(e_addr) - 1

        def choose_victim(lc: int, s: Dict[int, int], incoming_mix: int):
            # One pass: count the REM entries and keep the oldest
            # evictable REM and LOC entry by the policy's stamp.  Strict
            # ``<`` keeps the first minimum in set order, as ``min`` does.
            if vstamp is None:
                return choose_random_victim(lc, s, incoming_mix)
            n_rem = 0
            rem = loc = -1
            rem_st = loc_st = never
            for e in s.values():
                if e_mix[e] == REM:
                    n_rem += 1
                    if not e_wait[e] and vstamp[e] < rem_st:
                        rem = e
                        rem_st = vstamp[e]
                elif not e_wait[e] and vstamp[e] < loc_st:
                    loc = e
                    loc_st = vstamp[e]
            if n_rem > rem_target and rem >= 0:
                return rem
            if len(s) - n_rem > loc_target and loc >= 0:
                return loc
            victim = rem if incoming_mix == REM else loc
            return victim if victim >= 0 else None

        def choose_random_victim(lc: int, s: Dict[int, int],
                                 incoming_mix: int):
            # ``random`` indexes its candidate list with the cache's RNG,
            # so it keeps the lists.
            evictable = [e for e in s.values() if not e_wait[e]]
            rem = [e for e in evictable if e_mix[e] == REM]
            loc = [e for e in evictable if e_mix[e] == LOC]
            n_rem = sum(1 for e in s.values() if e_mix[e] == REM)
            candidates: List[int] = []
            if n_rem > rem_target and rem:
                candidates = rem
            elif len(s) - n_rem > loc_target and loc:
                candidates = loc
            if not candidates:
                candidates = rem if incoming_mix == REM else loc
            if not candidates:
                return None
            return candidates[rng_main[lc](len(candidates))]

        def vc_insert(lc: int, eid: int) -> None:
            vc_stamp[lc] = st = vc_stamp[lc] + 1
            e_last[eid] = st
            e_ins[eid] = st
            d = vc[lc]
            addr = e_addr[eid]
            if addr in d:
                old = d[addr]
                if old != eid:
                    d[addr] = eid
                    e_ref[eid] += 1
                    ederef(old)
                return
            if len(d) >= vc_cap:
                if vstamp is not None:
                    victim = min(d.values(), key=vstamp.__getitem__)
                else:
                    vals = list(d.values())
                    victim = vals[rng_vict[lc](len(vals))]
                del d[e_addr[victim]]
                ederef(victim)
            d[addr] = eid
            e_ref[eid] += 1
            vc_ins[lc] += 1

        def place(lc: int, eid: int) -> bool:
            addr = e_addr[eid]
            s = fsets[e_idx[eid]]
            existing = s.get(addr)
            if existing is not None:
                if e_wait[existing]:
                    return False
                if existing != eid:
                    s[addr] = eid
                    e_ref[eid] += 1
                    ederef(existing)
                return True
            if len(s) < assoc:
                s[addr] = eid
                e_ref[eid] += 1
                return True
            victim = choose_victim(lc, s, e_mix[eid])
            if victim is None:
                return False
            del s[e_addr[victim]]
            st_evict[lc] += 1
            ev_cnt[lc][e_mix[victim]] += 1
            if has_victim and not e_wait[victim]:
                vc_insert(lc, victim)
            ederef(victim)
            s[addr] = eid
            e_ref[eid] += 1
            return True

        def allocate(lc: int, addr: int, mix: int, idx: int) -> int:
            existing = fsets[idx].get(addr)
            if existing is not None and e_wait[existing]:
                return existing
            stamp[lc] = st = stamp[lc] + 1
            eid = new_entry(addr, idx, None, mix, True, st)
            if place(lc, eid):
                st_ins[lc] += 1
                return eid
            st_bypass[lc] += 1
            # Bypassed before gaining any reference: recycle immediately.
            free_eids.append(eid)
            return -1

        def fill(eid: int, hop: int) -> Optional[list]:
            e_hop[eid] = hop
            e_wait[eid] = False
            w = e_waiters[eid]
            e_waiters[eid] = None
            return w

        def park(eid: int, x: int) -> None:
            # Queue waiter ``x`` (a slot, or ``~slot`` for a remote
            # requester) on reservation ``eid``.
            w = e_waiters[eid]
            if w is None:
                e_waiters[eid] = [x]
            else:
                w.append(x)

        def insert_complete(lc: int, addr: int, hop: int, mix: int,
                            idx: int) -> None:
            stamp[lc] = st = stamp[lc] + 1
            eid = new_entry(addr, idx, hop, mix, False, st)
            if place(lc, eid):
                st_ins[lc] += 1
            else:
                st_bypass[lc] += 1
                free_eids.append(eid)

        def flush_cache(lc: int) -> None:
            for s in fsets[lc * n_sets:(lc + 1) * n_sets]:
                for e in s.values():
                    ederef(e)
                s.clear()
            if has_victim:
                d = vc[lc]
                for e in d.values():
                    ederef(e)
                d.clear()
            st_flush[lc] += 1

        def take_waiting(lc: int) -> List[int]:
            # The popped set references transfer to the returned list; the
            # caller dereferences each entry after consuming its waiters.
            out: List[int] = []
            for s in fsets[lc * n_sets:(lc + 1) * n_sets]:
                waiting = [a for a, e in s.items() if e_wait[e]]
                for a in waiting:
                    out.append(s.pop(a))
            return out

        def inval_remote(lc: int, predicate) -> None:
            # Failover: drop LC ``lc``'s complete REM entries whose address
            # satisfies ``predicate`` (homed at the LC that just failed).
            for s in fsets[lc * n_sets:(lc + 1) * n_sets]:
                stale = [
                    a for a, e in s.items()
                    if e_mix[e] == REM and not e_wait[e] and predicate(a)
                ]
                for a in stale:
                    ederef(s.pop(a))
            if has_victim:
                d = vc[lc]
                stale = [
                    a for a, e in d.items()
                    if e_mix[e] == REM and predicate(a)
                ]
                for a in stale:
                    ederef(d.pop(a))

        def inval_under(prefix, full_lcs, sinks) -> int:
            # Every LC's selective invalidation as one range query over
            # the entry pool rather than a scan of every set.  A candidate
            # counts only while its own set (or its LC's victim cache)
            # still holds it, which skips recycled ids and packet-held
            # reservations.  LCs outside ``full_lcs`` (None = all) drop
            # REM entries only.
            dropped = 0
            for e in _ids_under(
                e_key, e_addr, prefix.value,
                1 << (prefix.width - prefix.length), kshift,
            ):
                if not e_ref[e]:
                    continue
                idx = e_idx[e]
                lc = idx // n_sets
                if (full_lcs is not None and lc not in full_lcs
                        and e_mix[e] != REM):
                    continue
                a = e_addr[e]
                s = fsets[idx]
                if s.get(a) == e and not e_wait[e]:
                    del s[a]
                    dropped += 1
                    sinks[lc].add(a)
                    ederef(e)
                if has_victim:
                    d = vc[lc]
                    if d.get(a) == e:
                        del d[a]
                        dropped += 1
                        sinks[lc].add(a)
                        ederef(e)
            return dropped

        def resident_addrs(lc: int) -> List[int]:
            out = [
                a
                for s in fsets[lc * n_sets:(lc + 1) * n_sets]
                for a, e in s.items()
                if not e_wait[e]
            ]
            if has_victim:
                out.extend(vc[lc])
            return out

        # -- packet-flow handlers (scalar transliterations, with refcounts
        # woven in) --------------------------------------------------------

        def home_of(p: int, lc: int) -> int:
            # Scalar _home_of; an unreplicated plan has one holder per
            # pattern, whatever has failed.
            if lc_of_pattern is not None:
                return lc_of_pattern[p_pat[p]]
            if plan is None:
                return lc
            return plan.home_of_pattern(p_pat[p], p_dest[p])

        def note_churn(dest: int, lc: int) -> None:
            if ci is not None:
                s = ci[lc]
                if dest in s:
                    s.discard(dest)
                    sim.churn_misses += 1
                    sim._m_churn_miss.value += 1

        def complete(p: int, when: int, now: int) -> None:
            nonlocal completed_n
            if p_ct[p] >= 0 or p_drop[p] is not None:
                return
            alc = p_lc[p]
            if failed[alc]:
                drop(p, "crash", now)
                return
            p_ct[p] = when
            completed_n += 1
            if p_meas[p]:
                lat = when - p_at[p]
                lat_cur.append(lat)
                if track_failover and p_att[p] > 0:
                    failover_list.append(lat)
            if tr is not None:
                tr.record("complete", when, lc=alc, pid=p_gpid[p],
                          hop=p_served[p])

        def drop(p: int, reason: str, now: int) -> None:
            nonlocal dropped_n
            if p_ct[p] >= 0 or p_drop[p] is not None:
                return
            p_drop[p] = reason
            drops_dict[reason] += 1
            m_drops[reason].value += 1
            dropped_n += 1
            if tr is not None:
                tr.record("drop", now, lc=p_lc[p], pid=p_gpid[p],
                          reason=reason)
            eid = p_eid[p]
            if eid >= 0 and e_wait[eid]:
                abandon(eid, reason, now)

        def abandon(eid: int, reason: str, now: int) -> None:
            # Scalar _abandon: discard waiting reservation ``eid`` from its
            # set and drop everything parked on it.  The waiters are taken
            # first, as discarding may release the last reference.
            w = e_waiters[eid]
            e_waiters[eid] = None
            addr = e_addr[eid]
            s = fsets[e_idx[eid]]
            if s.get(addr) == eid:
                del s[addr]
                ederef(eid)
            for waiter in w or ():
                wp = waiter if waiter >= 0 else ~waiter
                drop(wp, reason, now)
                pderef(wp)

        def send(src: int, dst: int, when: int, kind: int, a: int, b) -> None:
            nonlocal seq, fab_msgs, max_fab_backlog
            nonlocal snd_until, flap_on, drop_p
            depart = when + fil
            if fab_cap is not None:
                if fab_mode == _FAB_PORTS:
                    backlog = fab_out[src] - depart
                elif fab_mode == _FAB_BUS:
                    backlog = fabric._bus_free - depart
                else:
                    backlog = fabric.queue_backlog(src, depart)
                if backlog < 0:
                    backlog = 0
                if backlog >= fab_floor:
                    reason = shed_decision(
                        shed_policy, backlog, fab_cap, kind == _K_REMREQ,
                        srand,
                    )
                    if reason is not None:
                        # Scalar _send drops at queue.now; when is always
                        # now+1.  No event is pushed, so no reference is
                        # taken.
                        drop(a, reason, when - 1)
                        return
                if backlog > max_fab_backlog:
                    max_fab_backlog = backlog
            if fab_mode == _FAB_PORTS:
                of = fab_out[src]
                if of > depart:
                    depart = of
                fab_out[src] = depart + 1
                arrive = depart + fab_lat
                inf = fab_in[dst]
                if inf > arrive:
                    arrive = inf
                fab_in[dst] = arrive + 1
                fab_msgs += 1
                arrive += fil
            elif fab_mode == _FAB_BUS:
                bf = fabric._bus_free
                if bf > depart:
                    depart = bf
                fabric._bus_free = depart + 1
                fab_msgs += 1
                arrive = depart + fab_lat + fil
            else:
                arrive = fabric_transfer(src, dst, depart) + fil
            dropped = False
            if faults is not None:
                if when >= snd_until:
                    snd_until = min(faults.next_change("flap", when),
                                    faults.next_change("drop", when))
                    flap_on = any(
                        faults.flap_drops(when, s, d) for s, d in flap_pairs
                    )
                    drop_p = faults.drop_prob_at(when)
                if (flap_on and faults.flap_drops(when, src, dst)) or (
                    drop_p > 0.0 and frand() < drop_p
                ):
                    sim.fabric_dropped_messages += 1
                    sim._m_fabric_dropped.value += 1
                    dropped = True
            if tr is not None:
                tr.record(
                    "fabric.send", when, lc=src, pid=p_gpid[a], src=src,
                    dst=dst, recv=arrive,
                    kind="request" if kind == _K_REMREQ else "reply",
                    dropped=dropped,
                )
            if not dropped:
                seq += 1
                p_ref[a] += 1
                heappush(heap, ((arrive << _SEQ_BITS) | seq, kind, a, b, 0, 0))

        def shed_fe(p: int, lc: int, reason: str, home_eid: int,
                    now: int) -> None:
            # Scalar _shed_fe: abandon the home-side reservation this FE
            # run would have filled, then drop the packet itself
            # (idempotent).
            if home_eid >= 0 and e_wait[home_eid]:
                abandon(home_eid, reason, now)
            drop(p, reason, now)

        def fe_request(p: int, lc: int, now: int, origin: int,
                       home_eid: int) -> None:
            nonlocal seq
            nw = now + 1
            ff = fe_free[lc]
            if fe_cap is not None:
                backlog = (ff - nw) // fe_cycles if ff > nw else 0
                if backlog >= fe_floor:
                    reason = shed_decision(
                        shed_policy, backlog, fe_cap, p_lc[p] != lc, srand
                    )
                    if reason is not None:
                        shed_fe(p, lc, reason, home_eid, now)
                        return
            if now >= slow_until[lc]:
                slow_cyc[lc] = faults.fe_service_cycles(now, lc, fe_cycles)
                slow_until[lc] = faults.next_change("slow", now, lc)
            cycles = slow_cyc[lc]
            start = ff if ff > nw else nw
            done = start + cycles
            fe_free[lc] = done
            fe_busy[lc] += cycles
            fe_lookups[lc] += 1
            if tr is not None:
                tr.record("fe", now, lc=lc, pid=p_gpid[p], start=start,
                          done=done)
            backlog = (start - nw) // fe_cycles
            if backlog > max_backlog[lc]:
                max_backlog[lc] = backlog
            seq += 1
            p_ref[p] += 1
            if home_eid >= 0:
                e_ref[home_eid] += 1
            heappush(
                heap,
                ((done << _SEQ_BITS) | seq, _K_FEDONE, p, lc, origin, home_eid),
            )

        def dispatch(p: int, lc: int, now: int, home: int) -> None:
            nonlocal seq
            if home == lc:
                fe_request(p, lc, now, -1, -1)
            else:
                nw = now + 1
                p_sent[p] = nw
                send(lc, home, nw, _K_REMREQ, p, home)
                if timeout is not None:
                    seq += 1
                    p_ref[p] += 1
                    heappush(
                        heap,
                        (
                            ((nw + (timeout << min(p_att[p], 3))) << _SEQ_BITS)
                            | seq,
                            _K_TIMEOUT, p, lc, p_att[p], 0,
                        ),
                    )

        def miss(p: int, lc: int, now: int) -> None:
            if tr is not None:
                tr.record("cache.miss", now, lc=lc, pid=p_gpid[p])
            note_churn(p_dest[p], lc)
            home = home_of(p, lc)
            if has_cache:
                local = home == lc
                if local or (early_recording and cache_remote):
                    eid = allocate(
                        lc, p_dest[p], LOC if local else REM, p_set[p]
                    )
                    p_eid[p] = eid
                    if eid >= 0:
                        e_ref[eid] += 1
            dispatch(p, lc, now, home)

        def gray(lc: int, now: int, fs: Dict[int, int], addr: int) -> None:
            # Scalar _forced_miss, run while ``now >= gray_at[lc]``: step
            # the LC's miss-fraction cursor at a window edge, then, while
            # the fraction is positive, discard a complete entry for
            # ``addr`` with that probability (a draw only when one exists).
            if now >= mf_until[lc]:
                mf_val[lc] = mf = faults.miss_fraction_at(now, lc)
                mf_until[lc] = until = faults.next_change("cache", now, lc)
                gray_at[lc] = 0 if mf > 0.0 else until
            else:
                mf = mf_val[lc]
            if mf > 0.0:
                geid = fs.get(addr)
                if geid is not None and not e_wait[geid] and frand() < mf:
                    del fs[addr]
                    ederef(geid)

        def probe(lc: int, fs: Dict[int, int], addr: int, now: int) -> int:
            # LRCache.probe behind the gray check: the main set, then the
            # victim cache.  Returns the entry id (complete or waiting), or
            # -1 on a miss.
            if has_gray and now >= gray_at[lc]:
                gray(lc, now, fs, addr)
            eid = fs.get(addr)
            if eid is not None:
                stamp[lc] = tick = stamp[lc] + 1
                e_last[eid] = tick
                if e_wait[eid]:
                    st_whits[lc] += 1
                else:
                    st_hits[lc] += 1
                return eid
            if has_victim:
                eid = vc[lc].pop(addr, None)
                if eid is not None:
                    vc_hits[lc] += 1
                    st_vhits[lc] += 1
                    stamp[lc] = tick = stamp[lc] + 1
                    e_last[eid] = tick
                    place(lc, eid)
                    # The popped victim-cache reference.  A bypassed swap
                    # frees the id, but only a new entry reuses it, and a
                    # victim block is complete: the caller reads its hop.
                    ederef(eid)
                    return eid
            st_misses[lc] += 1
            return -1

        def probe_at(p: int, lc: int, now: int) -> None:
            if failed[lc]:
                drop(p, "crash", now)
                return
            eid = probe(lc, fsets[p_set[p]], p_dest[p], now)
            if eid < 0:
                miss(p, lc, now)
            elif e_wait[eid]:
                if tr is not None:
                    tr.record("cache.wait", now, lc=lc, pid=p_gpid[p])
                park(eid, p)
                p_ref[p] += 1
            else:
                if tr is not None:
                    tr.record("cache.hit", now, lc=lc, pid=p_gpid[p])
                p_served[p] = e_hop[eid]
                complete(p, now + 1, now)

        def port_probe(p: int, lc: int, now: int, kind: int) -> None:
            # Resource.acquire(now, 1) on LC ``lc``'s cache port: probe in
            # the slot now, or push the deferred probe ``kind`` (_K_PROBE
            # or _K_RPROBE) for the slot it booked.
            nonlocal seq
            pf = port_free[lc]
            port_busy[lc] += 1
            if pf > now:
                port_free[lc] = pf + 1
                seq += 1
                p_ref[p] += 1
                heappush(heap, ((pf << _SEQ_BITS) | seq, kind, p, lc, pf, 0))
            else:
                port_free[lc] = now + 1
                if kind == _K_PROBE:
                    probe_at(p, lc, now)
                else:
                    remote_probe_at(p, lc, now)

        def arrive(p: int, lc: int, now: int) -> None:
            # Scalar _arrive after its ingress record.
            if failed[lc]:
                drop(p, "ingress", now)
            elif not has_cache:
                dispatch(p, lc, now, home_of(p, lc))
            else:
                port_probe(p, lc, now, _K_PROBE)

        def release(waiters: Optional[list], lc: int, hop: int,
                    now: int) -> None:
            if waiters is None:
                return
            for waiter in waiters:
                if waiter < 0:
                    wp = ~waiter
                    send(lc, p_lc[wp], now + 1, _K_REPLY, wp, hop)
                    pderef(wp)
                else:
                    p_served[waiter] = hop
                    complete(waiter, now + 1, now)
                    pderef(waiter)

        def fe_done(p: int, lc: int, origin: int, home_eid: int,
                    now: int) -> None:
            if failed[lc]:
                if origin < 0 and p_lc[p] == lc:
                    drop(p, "crash", now)
                return
            hop = matchers[lc].lookup(p_dest[p])
            if oracle is not None:
                expected = oracle.lookup(p_dest[p])
                if hop != expected:
                    raise SimulationError(
                        f"partition invariant violated at LC {lc}: "
                        f"lookup({p_dest[p]:#x}) = {hop}, "
                        f"whole table says {expected}"
                    )
            if home_eid >= 0:
                release(fill(home_eid, hop), lc, hop, now)
            if origin >= 0:
                send(lc, origin, now + 1, _K_REPLY, p, hop)
            elif p_lc[p] == lc:
                eid = p_eid[p]
                if eid >= 0 and eid != home_eid and e_wait[eid]:
                    release(fill(eid, hop), lc, hop, now)
                p_served[p] = hop
                complete(p, now + 1, now)

        def remote_request(p: int, home: int, now: int) -> None:
            if tr is not None:
                tr.record("remote.recv", now, lc=home, pid=p_gpid[p])
            if failed[home]:
                return
            if not has_cache:
                fe_request(p, home, now, p_lc[p], -1)
                return
            port_probe(p, home, now, _K_RPROBE)

        def remote_probe_at(p: int, home: int, now: int) -> None:
            if failed[home]:
                return
            addr = p_dest[p]
            fidx = home * n_sets + p_idx[p]
            eid = probe(home, fsets[fidx], addr, now)
            if eid >= 0:
                if e_wait[eid]:
                    park(eid, ~p)
                    p_ref[p] += 1
                else:
                    send(home, p_lc[p], now + 1, _K_REPLY, p, e_hop[eid])
                return
            note_churn(addr, home)
            home_eid = allocate(home, addr, LOC, fidx)
            if home_eid < 0:
                fe_request(p, home, now, p_lc[p], -1)
                return
            park(home_eid, ~p)
            p_ref[p] += 1
            fe_request(p, home, now, -1, home_eid)

        def reply(p: int, hop: int, now: int) -> None:
            lc = p_lc[p]
            if p_sent[p] >= 0:
                rem_rt_observe(now - p_sent[p])
                p_sent[p] = -1
            if tr is not None:
                tr.record("reply", now, lc=lc, pid=p_gpid[p])
            if failed[lc]:
                drop(p, "crash", now)
                return
            if has_cache and cache_remote:
                eid = p_eid[p]
                if eid >= 0 and e_wait[eid]:
                    release(fill(eid, hop), lc, hop, now)
                elif eid < 0 and not early_recording:
                    insert_complete(lc, p_dest[p], hop, REM, p_set[p])
            if p_ct[p] < 0:
                p_served[p] = hop
                complete(p, now + 1, now)

        def check_timeout(p: int, lc: int, attempt: int, now: int) -> None:
            nonlocal seq
            if (
                p_ct[p] >= 0
                or p_drop[p] is not None
                or p_att[p] != attempt
            ):
                return
            if failed[lc]:
                drop(p, "crash", now)
                return
            p_att[p] += 1
            if p_att[p] > REM_MAX_RETRIES:
                drop(p, "unreachable", now)
                return
            sim.retries += 1
            sim._m_retries.value += 1
            live = (
                plan.live_replicas(p_dest[p]) if plan is not None else [lc]
            )
            if not live:
                drop(p, "unreachable", now)
                return
            home = live[(p_dest[p] + p_att[p]) % len(live)]
            if tr is not None:
                tr.record("timeout.retry", now, lc=lc, pid=p_gpid[p],
                          attempt=p_att[p], next_home=home)
            if home == lc:
                fe_request(p, lc, now, -1, -1)
                return
            nw = now + 1
            p_sent[p] = nw
            send(lc, home, nw, _K_REMREQ, p, home)
            seq += 1
            p_ref[p] += 1
            heappush(
                heap,
                (
                    ((nw + (timeout << min(p_att[p], 3))) << _SEQ_BITS) | seq,
                    _K_TIMEOUT, p, lc, p_att[p], 0,
                ),
            )

        # -- faults and churn (scalar transliterations, with refcounts
        # woven in) --------------------------------------------------------

        def apply_fault(kind: str, lc: int, now: int) -> None:
            sim.fault_event_count += 1
            if tr is not None:
                tr.record("fault", now, lc=lc, kind=kind)
            if kind == "fail":
                if failed[lc]:
                    return
                if plan is not None:
                    for i in range(n_lcs):
                        if i != lc and has_cache and not failed[i]:
                            inval_remote(
                                i, lambda addr: sim._homed_at(addr, lc)
                            )
                    plan.fail_lc(lc)
                failed[lc] = True
                fail_at[lc] = now
                if has_cache:
                    for eid in take_waiting(lc):
                        w = e_waiters[eid]
                        e_waiters[eid] = None
                        for waiter in w or ():
                            if waiter < 0:
                                # Remote waiters survive on their timeout.
                                pderef(~waiter)
                                continue
                            drop(waiter, "crash", now)
                            pderef(waiter)
                        ederef(eid)
            else:
                if not failed[lc]:
                    return
                if plan is not None:
                    plan.restore_lc(lc)
                if has_cache:
                    flush_cache(lc)
                failed[lc] = False
                down_cycles[lc] += now - fail_at[lc]

        def apply_update(update, now: int) -> None:
            prefix = update.prefix
            hop = update.next_hop
            sim.update_events_applied += 1
            sim._m_updates.value += 1
            touched = apply_route_update(plan, prefix, hop)
            for lc in touched:
                res = matchers[lc].apply_update(prefix, hop)
                cycles = res.service_cycles
                sim.update_service_cycles += cycles
                sim._m_update_cycles.value += cycles
                if res.kind == "patch":
                    sim.update_patches += 1
                    sim._m_update_patches.value += 1
                else:
                    sim.update_rebuilds += 1
                    sim._m_update_rebuilds.value += 1
                ff = fe_free[lc]
                start = ff if ff > now else now
                fe_free[lc] = start + cycles
                fe_busy[lc] += cycles
            if oracle is not None:
                oracle.apply_update(prefix, hop)
            if tr is not None:
                tr.record(
                    "update", now, lc=touched[0] if touched else -1,
                    kind="withdraw" if hop is None else "announce",
                    prefix=str(prefix), touched=len(touched),
                )
            if not touched:
                return
            dropped = 0
            if update_policy == "flush":
                if has_cache:
                    for i in range(n_lcs):
                        resident = resident_addrs(i)
                        ci[i].update(resident)
                        dropped += len(resident)
                        flush_cache(i)
            elif has_cache:
                dropped = inval_under(
                    prefix,
                    None if update_policy == "selective" else set(touched),
                    ci,
                )
            sim.flushes += 1
            sim._m_flushes.value += 1
            if tr is not None:
                tr.record("flush", now, kind=update_policy)
            sim.invalidation_entries_dropped += dropped
            sim._m_inval_dropped.value += dropped
            origin = touched[0]
            msgs = 0
            for dst in range(n_lcs):
                if dst == origin:
                    continue
                fabric_transfer(origin, dst, now + fil)
                msgs += 1
            sim.invalidation_messages += msgs
            sim._m_inval_msgs.value += msgs

        sim.phase_seconds["schedule"] = time.perf_counter() - t0

        # -- telemetry sampler (None = off: one dead integer compare per
        # event, or per hit walk, against the _NO_SAMPLE sentinel).  The
        # latency cursor walks the flushed ``lat_parts`` prefix plus the
        # live ``lat_cur`` tail, so sampler memory stays O(windows)
        # regardless of chunking. ----------------------------------------
        smp_next = _NO_SAMPLE
        if sampler is not None:
            lat_seen = 0

            def smp_read(at_cycle: int) -> Dict[str, object]:
                nonlocal lat_seen
                n_plain = sum(plain)
                if has_cache:
                    smp_hits = (n_plain + sum(st_hits) + sum(st_whits)
                                + sum(st_vhits))
                    smp_lookups = smp_hits + sum(st_misses)
                else:
                    smp_hits = smp_lookups = 0
                new_lat: List[int] = []
                skip = lat_seen
                for part in lat_parts:
                    n = len(part)
                    if skip >= n:
                        skip -= n
                        continue
                    new_lat.extend(part[skip:].tolist())
                    skip = 0
                if skip < len(lat_cur):
                    new_lat.extend(lat_cur[skip:])
                lat_seen += len(new_lat)
                return {
                    "completed": completed_n + n_plain,
                    "dropped": dropped_n,
                    "shed": drops_dict["shed"],
                    "hits": smp_hits,
                    "lookups": smp_lookups,
                    "fe_busy": fe_busy,
                    "fe_lookups": fe_lookups,
                    "fe_backlog": [
                        max(0, fe_free[i] - at_cycle) // fe_cycles
                        for i in range(n_lcs)
                    ],
                    "fe_backlog_hw": max(max_backlog),
                    "fabric_backlog_hw": max_fab_backlog,
                    "new_latencies": new_lat,
                }

            sampler.bind(smp_read)
            smp_next = sampler.next_boundary

        # -- the merged event loop (windowed) -----------------------------
        t0 = time.perf_counter()
        processed = 0
        now = 0
        ai = 0
        n_arr = 0
        feeding = True
        try:
            while True:
                if ai >= n_arr and feeding:
                    # Release the spent window first, so that two
                    # windows are never live at once.
                    win = arr_t = arr_key = arr_lc = arr_dest = None
                    arr_set = arr_meas = None
                    win = build_window()
                    if win is None:
                        feeding = False
                    else:
                        (arr_t, arr_key, arr_lc, arr_dest, arr_set,
                         arr_meas, _, _, _) = win
                        ai = 0
                        n_arr = len(arr_t)
                    continue
                if ai < n_arr:
                    ak = arr_key[ai]
                    if heap and heap[0][0] < ak:
                        ev = heappop(heap)
                    elif tracing:
                        now = ak >> _SEQ_BITS
                        if now >= smp_next:
                            smp_next = sampler.advance(now)
                        processed += 1
                        p = admit(ai)
                        ai += 1
                        lc = p_lc[p]
                        tr.record("ingress", now, lc=lc, pid=p_gpid[p],
                                  dest=p_dest[p])
                        arrive(p, lc, now)
                        maybe_retire(p)
                        continue
                    else:
                        # One index walk over the arrivals that precede
                        # the next heap key and the next sampler boundary,
                        # whichever comes first: hits complete inline, with
                        # no slot; a port wait, a miss or a no-cache
                        # dispatch may push an event, so the walk
                        # re-bisects its end when the heap top falls below
                        # it.  Like any event, the first arrival at or past
                        # a boundary closes the window before it runs.
                        t = ak >> _SEQ_BITS
                        if t >= smp_next:
                            smp_next = sampler.advance(t)
                        hk = smp_next << _SEQ_BITS
                        if heap and heap[0][0] < hk:
                            hk = heap[0][0]
                        j = bisect_left(arr_key, hk, ai, n_arr)
                        a0 = ai
                        while True:
                            if ai == j:
                                if j < n_arr or not feeding:
                                    break
                                # The window ran out before either bound:
                                # walk on into the next one.
                                processed += ai - a0
                                win = arr_t = arr_key = arr_lc = None
                                arr_dest = arr_set = arr_meas = None
                                win = build_window()
                                if win is None:
                                    feeding = False
                                    a0 = ai
                                    break
                                (arr_t, arr_key, arr_lc, arr_dest, arr_set,
                                 arr_meas, _, _, _) = win
                                ai = a0 = 0
                                n_arr = len(arr_t)
                                j = bisect_left(arr_key, hk, 0, n_arr)
                                continue
                            for i in range(ai, j):
                                t = arr_t[i]
                                lc = arr_lc[i]
                                if failed[lc]:
                                    p = admit(i)
                                    drop(p, "ingress", t)
                                    maybe_retire(p)
                                    continue
                                if has_cache and port_free[lc] <= t:
                                    addr = arr_dest[i]
                                    fs = fsets[arr_set[i]]
                                    # Repeated by the probe in ``arrive``
                                    # as a no-op: the cursor has moved,
                                    # and ``addr`` is now absent or a
                                    # reservation, which draws nothing.
                                    if has_gray and t >= gray_at[lc]:
                                        gray(lc, t, fs, addr)
                                    eid = fs.get(addr)
                                    if eid is not None:
                                        if e_wait[eid]:
                                            arrive(admit(i), lc, t)
                                            continue
                                        # A plain hit needs no slot: only a
                                        # trace would read the completion
                                        # cycle or hop.  One count stands
                                        # for its port cycle, its hit and
                                        # its completion.
                                        port_free[lc] = t + 1
                                        stamp[lc] = tick = stamp[lc] + 1
                                        e_last[eid] = tick
                                        plain[lc] += 1
                                        if arr_meas[i]:
                                            lat_cur.append(1)
                                        continue
                                # A no-cache dispatch, a port wait or a
                                # miss: each may push an event.
                                ai = i + 1
                                p = admit(i)
                                arrive(p, lc, t)
                                maybe_retire(p)
                                break
                            else:
                                # A bound or the window's end.
                                ai = j
                                continue
                            if heap and heap[0][0] < hk:
                                hk = heap[0][0]
                                j = bisect_left(arr_key, hk, ai, j)
                        now = t
                        processed += ai - a0
                        continue
                elif heap:
                    ev = heappop(heap)
                else:
                    break
                key = ev[0]
                kind = ev[1]
                now = key >> _SEQ_BITS
                if now >= smp_next:
                    smp_next = sampler.advance(now)
                processed += 1
                if kind == _K_PROBE:
                    p = ev[2]
                    lc = ev[3]
                    start = ev[4]
                    if now != start:
                        raise SimulationError(
                            f"deferred probe at LC {lc} fired at cycle "
                            f"{now}, but its port slot was reserved for "
                            f"cycle {start}"
                        )
                    probe_at(p, lc, now)
                    pderef(p)
                elif kind == _K_FEDONE:
                    p = ev[2]
                    he = ev[5]
                    fe_done(p, ev[3], ev[4], he, now)
                    if he >= 0:
                        ederef(he)
                    pderef(p)
                elif kind == _K_REPLY:
                    p = ev[2]
                    reply(p, ev[3], now)
                    pderef(p)
                elif kind == _K_REMREQ:
                    p = ev[2]
                    remote_request(p, ev[3], now)
                    pderef(p)
                elif kind == _K_RPROBE:
                    p = ev[2]
                    home = ev[3]
                    start = ev[4]
                    if now != start:
                        raise SimulationError(
                            f"deferred remote probe at LC {home} fired at "
                            f"cycle {now}, but its port slot was reserved "
                            f"for cycle {start}"
                        )
                    remote_probe_at(p, home, now)
                    pderef(p)
                elif kind == _K_TIMEOUT:
                    p = ev[2]
                    check_timeout(p, ev[3], ev[4], now)
                    pderef(p)
                elif kind == _K_FAULT:
                    apply_fault(ev[2], ev[3], now)
                else:
                    apply_update(ev[2], now)
        finally:
            # ``drop`` and ``abandon`` call each other, so their closure
            # cells refer back to them; unbinding these leaves the run's state (entry pool, sets,
            # packet columns, windows) to plain reference counting rather
            # than to a full garbage collection.
            drop = abandon = pderef = ederef = None
        horizon = now
        if sampler is not None:
            # Pack the series before the final ``lat_cur`` flush below
            # re-homes those latencies into ``lat_parts`` (the cursor
            # would otherwise see them twice); the caller's finish() is
            # a cached no-op.
            sampler.finish(horizon)

        # -- writeback ----------------------------------------------------
        if has_cache:
            for i, cache in enumerate(sim.caches):
                s = cache.stats
                s.hits = plain[i] + st_hits[i]
                s.lookups = s.hits + st_whits[i] + st_vhits[i] + st_misses[i]
                s.waiting_hits = st_whits[i]
                s.victim_hits = st_vhits[i]
                s.misses = st_misses[i]
                s.insertions = st_ins[i]
                s.evictions = st_evict[i]
                s.bypasses = st_bypass[i]
                s.flushes = st_flush[i]
                obs_ev = cache._obs_evictions
                if obs_ev is not None:
                    obs_ev[LOC].value += ev_cnt[i][LOC]
                    obs_ev[REM].value += ev_cnt[i][REM]
                # Only resident sets cost anything: the cache creates
                # its empty ones itself.
                lc_sets = fsets[i * n_sets:(i + 1) * n_sets]
                cache.adopt_flat_state(
                    {
                        k: [
                            (a, e_hop[e], e_mix[e], e_wait[e],
                             e_last[e], e_ins[e])
                            for a, e in lc_sets[k].items()
                        ]
                        for k in compress(count(), lc_sets)
                    },
                    stamp[i],
                    victim_entries=(
                        [
                            (a, e_hop[e], e_mix[e], e_wait[e],
                             e_last[e], e_ins[e])
                            for a, e in vc[i].items()
                        ]
                        if has_victim
                        else None
                    ),
                    victim_stamp=vc_stamp[i],
                    victim_insertions=vc_ins[i],
                    victim_hits=vc_hits[i],
                )
        for i in range(n_lcs):
            sim.cache_ports[i].free_at = port_free[i]
            sim.cache_ports[i].busy_cycles = port_busy[i] + plain[i]
            sim.fes[i].free_at = fe_free[i]
            sim.fes[i].busy_cycles = fe_busy[i]
        fabric.messages += fab_msgs
        sim.fe_lookups = fe_lookups
        sim.max_fe_backlog = max_backlog
        sim.max_fabric_backlog = max_fab_backlog
        sim._failed = failed
        sim._fail_at = fail_at
        sim._down_cycles = down_cycles
        sim.queue.adopt_flat_run(seq, horizon, processed)
        sim.completed = _CountSeq(completed_n + sum(plain))
        sim.dropped_packets = _CountSeq(dropped_n)

        if lat_cur:
            lat_parts.append(np.asarray(lat_cur, dtype=np.int64))
        latencies = (
            np.concatenate(lat_parts)
            if lat_parts
            else np.empty(0, dtype=np.int64)
        )
        # Chunk precompute runs inside the loop as windows pull chunks;
        # report it as its own phase rather than as loop time.
        sim.phase_seconds["precompute"] = precompute_s
        sim.phase_seconds["run"] = time.perf_counter() - t0 - precompute_s
        return {
            "horizon": horizon,
            "latencies": latencies,
            # Bounded-only runs enter the degraded-mode block too; without
            # the retry machinery no packet can have attempt > 0, so the
            # empty list is exact (and per-packet state is recycled, so
            # the caller's fallback scan is unavailable anyway).
            "failover": failover_list if track_failover else [],
            "n_events": processed,
        }
