"""The LR-cache: SPAL's per-line-card lookup-result cache (paper Sec. 3.2).

A set-associative on-chip cache whose blocks each hold one lookup result
``<IP address, Next_hop_LC#>``.  Block size is one result because IP streams
show weak spatial locality; associativity defaults to 4, which the paper
finds near-optimal.

Per-entry status:

* **availability** — invalid / shared (flush-on-update sets all invalid);
* **M bit** — LOC (result computed by the local FE) vs REM (result obtained
  from a remote home LC), used by the *mix* replacement filter;
* **W bit** — set while the entry awaits its result; packets hitting a
  waiting entry join its waiting list instead of re-issuing the lookup
  (the "early cache block recording" of Sec. 3.2).

Replacement on a full set: if the number of REM entries exceeds the mix
target γ·assoc, evict among REM entries; else if LOC entries exceed
(1-γ)·assoc, evict among LOC; otherwise evict within the inserting class.
Waiting (W=1) entries are never evicted; if no candidate remains the insert
*bypasses* the cache.  The final choice among candidates uses a conventional
policy (LRU by default).

An optional victim cache (8 fully-associative blocks by default) catches
conflict evictions and is probed in parallel with the main cache; a victim
hit swaps the block back into its set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import CacheConfigError
from .config import CacheConfig
from .replacement import ReplacementPolicy, make_policy
from .victim_cache import VictimCache

#: M-bit values.
LOC = 0
REM = 1


class CacheEntry:
    """One LR-cache block."""

    __slots__ = (
        "address",
        "next_hop",
        "mix",
        "waiting",
        "waiters",
        "last_used",
        "inserted",
    )

    def __init__(self, address: int, mix: int, stamp: int):
        self.address = address
        self.next_hop: Optional[int] = None
        self.mix = mix              # LOC or REM
        self.waiting = True         # W bit; cleared when the result arrives
        self.waiters: List[object] = []  # packets parked on this entry
        self.last_used = stamp
        self.inserted = stamp


@dataclass
class CacheStats:
    """Hit/miss accounting for one LR-cache."""

    lookups: int = 0
    hits: int = 0            # complete-entry hits (immediate result)
    waiting_hits: int = 0    # hits on W=1 entries (packet parks)
    victim_hits: int = 0     # satisfied from the victim cache
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bypasses: int = 0        # inserts dropped because no candidate existed
    flushes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without a new FE request (complete
        hits, waiting-list merges and victim hits)."""
        if not self.lookups:
            return 0.0
        return (self.hits + self.waiting_hits + self.victim_hits) / self.lookups


class LRCache:
    """Set-associative lookup-result cache with mix-aware replacement.

    The shape parameters are :class:`~repro.core.config.CacheConfig`'s
    fields, with its domains and defaults; ``policy_seed`` seeds the
    ``"random"`` policy.
    """

    def __init__(
        self,
        n_blocks: int = 4096,
        associativity: int = 4,
        mix: float = 0.5,
        policy: str = "lru",
        victim_blocks: int = 8,
        policy_seed: int = 0,
        index: str = "mod",
    ):
        # The one statement of the shape rules: raises CacheConfigError.
        CacheConfig(n_blocks, associativity, mix, policy, victim_blocks, index)
        self.n_blocks = n_blocks
        self.associativity = associativity
        self.n_sets = n_blocks // associativity
        self.mix = mix
        #: Per-set REM capacity target (γ·assoc, rounded to nearest block).
        self.rem_target = round(mix * associativity)
        self.loc_target = associativity - self.rem_target
        self.index = index
        self._policy: ReplacementPolicy = make_policy(policy, policy_seed)
        self._sets: List[Dict[int, CacheEntry]] = [
            {} for _ in range(self.n_sets)
        ]
        self.victim: Optional[VictimCache] = (
            VictimCache(victim_blocks, policy, policy_seed + 1)
            if victim_blocks
            else None
        )
        self.stats = CacheStats()
        self._stamp = 0
        # -- observability (inert until bind_obs) ------------------------
        #: (LOC counter, REM counter) pair pre-bound by :meth:`bind_obs`;
        #: the eviction hot path does a plain ``.value += 1`` behind one
        #: truthiness check.
        self._obs_evictions = None
        self._obs_registry = None
        self._obs_labels: Dict[str, object] = {}

    # -- indexing -----------------------------------------------------------

    def _set_of(self, address: int) -> Dict[int, CacheEntry]:
        if self.index == "xor":
            address ^= address >> 16
        return self._sets[address % self.n_sets]

    def _tick(self) -> int:
        self._stamp += 1
        return self._stamp

    # -- operations ------------------------------------------------------------

    def probe(self, address: int) -> Optional[CacheEntry]:
        """Look up an address; the victim cache is probed in parallel.

        Returns the entry (complete or waiting) or None on a miss.  Stats
        are updated; a victim hit swaps the block back into the main set.
        """
        self.stats.lookups += 1
        entry = self._set_of(address).get(address)
        if entry is not None:
            entry.last_used = self._tick()
            if entry.waiting:
                self.stats.waiting_hits += 1
            else:
                self.stats.hits += 1
            return entry
        if self.victim is not None:
            entry = self.victim.take(address)
            if entry is not None:
                self.stats.victim_hits += 1
                entry.last_used = self._tick()
                self._place(entry)
                return entry
        self.stats.misses += 1
        return None

    def peek(self, address: int) -> Optional[CacheEntry]:
        """Non-destructive probe (no stats, no LRU touch, no victim swap)."""
        entry = self._set_of(address).get(address)
        if entry is None and self.victim is not None:
            entry = self.victim.peek(address)
        return entry

    def peek_main(self, address: int) -> Optional[CacheEntry]:
        """Non-destructive main-set-only lookup (no stats, no LRU touch,
        no victim).  The gray-failure forced-miss hook uses this: a victim
        block cannot hold the discarded address, so a follow-up
        :meth:`probe` is a genuine miss."""
        return self._set_of(address).get(address)

    def allocate(self, address: int, mix: int) -> Optional[CacheEntry]:
        """Reserve a waiting (W=1) entry for an in-flight lookup.

        Returns the new entry, or None if the insert had to bypass the cache
        (every block in the set is waiting or protected by the mix filter).
        If a waiting entry for the address already exists, it is returned
        instead of a fresh one — concurrent flows share one reservation.
        """
        existing = self._set_of(address).get(address)
        if existing is not None and existing.waiting:
            return existing
        entry = CacheEntry(address, mix, self._tick())
        if self._place(entry):
            self.stats.insertions += 1
            return entry
        self.stats.bypasses += 1
        return None

    def fill(self, entry: CacheEntry, next_hop: int) -> List[object]:
        """Complete a waiting entry with its result; returns (and clears)
        the packets parked on its waiting list."""
        entry.next_hop = next_hop
        entry.waiting = False
        waiters, entry.waiters = entry.waiters, []
        return waiters

    def insert_complete(self, address: int, next_hop: int, mix: int) -> bool:
        """Insert an already-complete result (e.g. a reply that found its
        reserved entry evicted).  Returns False on bypass."""
        entry = CacheEntry(address, mix, self._tick())
        entry.next_hop = next_hop
        entry.waiting = False
        if self._place(entry):
            self.stats.insertions += 1
            return True
        self.stats.bypasses += 1
        return False

    def flush(self) -> None:
        """Invalidate every entry (the paper's policy after a table update).

        Waiting entries are dropped too; in-flight replies then re-insert
        via :meth:`insert_complete`.
        """
        for s in self._sets:
            s.clear()
        if self.victim is not None:
            self.victim.flush()
        self.stats.flushes += 1

    def discard_entry(self, entry: CacheEntry) -> bool:
        """Remove one specific entry (identity match) from its set.

        Used when an in-flight lookup is abandoned — e.g. a remote request
        whose every retry timed out: its waiting reservation must not keep
        parking later packets on a result that will never arrive.  Returns
        True if the entry was present.
        """
        target_set = self._set_of(entry.address)
        if target_set.get(entry.address) is entry:
            del target_set[entry.address]
            return True
        return False

    def take_waiting_entries(self) -> List[CacheEntry]:
        """Remove and return every waiting (W=1) entry.

        The fail-stop sweep: a dying LC's in-flight reservations will never
        be filled by it, so the simulator pulls them out and disposes of
        their waiting lists (local packets crash, remote requesters recover
        via their timeout).  The victim cache never holds waiting entries.
        """
        out: List[CacheEntry] = []
        for s in self._sets:
            waiting = [addr for addr, e in s.items() if e.waiting]
            for addr in waiting:
                out.append(s.pop(addr))
        return out

    def invalidate_remote(self, predicate, sink: Optional[list] = None) -> int:
        """Drop complete REM entries whose address satisfies ``predicate``.

        The failover invalidation hook: when a home LC dies, results this
        cache fetched from it are no longer trustworthy (the failed LC's
        table may miss updates applied while it is down), so the simulator
        drops every complete REM entry homed there.  Waiting entries stay —
        their in-flight flow resolves via timeout/failover instead.
        ``sink``, when a list, collects the dropped addresses (churn-miss
        attribution).  Returns the number of entries dropped.
        """
        dropped = 0
        for s in self._sets:
            stale = [
                addr
                for addr, entry in s.items()
                if entry.mix == REM
                and not entry.waiting
                and predicate(addr)
            ]
            for addr in stale:
                del s[addr]
            if sink is not None:
                sink.extend(stale)
            dropped += len(stale)
        if self.victim is not None:
            victim = self.victim
            dropped += victim.discard_matching(
                lambda addr: victim.peek(addr).mix == REM and predicate(addr),
                sink=sink,
            )
        return dropped

    def invalidate_matching(self, prefix, sink: Optional[list] = None) -> int:
        """Selective invalidation: drop only the complete entries whose
        address falls under ``prefix`` (a :class:`repro.routing.Prefix`).

        This is the alternative to full flushing the paper's Sec. 3.2
        caveat calls for ("simple flushing will not work effectively if the
        routing table is updated incrementally and very frequently"): a
        route change can only affect cached results its prefix covers.
        Waiting entries are left in place — their in-flight lookup will
        complete against the updated forwarding table anyway.  ``sink``,
        when a list, collects the dropped addresses (churn-miss
        attribution).  Returns the number of entries dropped.
        """
        dropped = 0
        for s in self._sets:
            stale = [
                addr
                for addr, entry in s.items()
                if not entry.waiting and prefix.matches(addr)
            ]
            for addr in stale:
                del s[addr]
            if sink is not None:
                sink.extend(stale)
            dropped += len(stale)
        if self.victim is not None:
            dropped += self.victim.discard_matching(prefix.matches, sink=sink)
        return dropped

    def resident_addresses(self) -> List[int]:
        """Addresses of every complete (W=0) entry, victim cache included —
        the snapshot the flush policy uses to attribute later misses to
        churn."""
        out = [
            addr
            for s in self._sets
            for addr, entry in s.items()
            if not entry.waiting
        ]
        if self.victim is not None:
            out.extend(self.victim.addresses())
        return out

    # -- replacement ---------------------------------------------------------

    def _place(self, entry: CacheEntry) -> bool:
        """Insert ``entry`` into its set, evicting per the mix rule if full."""
        target_set = self._set_of(entry.address)
        existing = target_set.get(entry.address)
        if existing is not None:
            if existing.waiting:
                # An in-flight reservation owns the slot; clobbering it
                # would orphan its waiting list.  Treat as a bypass — the
                # owning flow will deliver its own result.
                return False
            # Refresh of a complete entry (e.g. a reply racing a re-insert).
            target_set[entry.address] = entry
            return True
        if len(target_set) < self.associativity:
            target_set[entry.address] = entry
            return True
        victim_entry = self._choose_victim(target_set, entry.mix)
        if victim_entry is None:
            return False
        del target_set[victim_entry.address]
        self.stats.evictions += 1
        obs = self._obs_evictions
        if obs is not None:
            obs[victim_entry.mix].value += 1
        if self.victim is not None and not victim_entry.waiting:
            self.victim.insert(victim_entry)
        target_set[entry.address] = entry
        return True

    def _choose_victim(
        self, target_set: Dict[int, CacheEntry], incoming_mix: int
    ) -> Optional[CacheEntry]:
        evictable = [e for e in target_set.values() if not e.waiting]
        if not evictable:
            return None
        rem = [e for e in evictable if e.mix == REM]
        loc = [e for e in evictable if e.mix == LOC]
        # Mix filter (paper: "chooses an entry with its M bit being REM (or
        # LOC) if the total number ... exceeds the predefined value").
        n_rem = sum(1 for e in target_set.values() if e.mix == REM)
        n_loc = len(target_set) - n_rem
        candidates: List[CacheEntry] = []
        if n_rem > self.rem_target and rem:
            candidates = rem
        elif n_loc > self.loc_target and loc:
            candidates = loc
        if not candidates:
            # Neither class over target (both exactly at their shares):
            # evict within the inserting class.  If that class has no
            # evictable entries its share is zero (or all waiting) — the
            # insert bypasses the cache.
            candidates = rem if incoming_mix == REM else loc
        if not candidates:
            return None
        return self._policy.choose(candidates)

    # -- array-engine writeback ---------------------------------------------

    def adopt_flat_state(
        self,
        sets: Dict[int, List[tuple]],
        stamp: int,
        victim_entries: Optional[List[tuple]] = None,
        victim_stamp: int = 0,
        victim_insertions: int = 0,
        victim_hits: int = 0,
    ) -> None:
        """Rebuild resident entries from the array engine's flat state.

        ``sets`` maps the index of each non-empty set to its entries as
        ``(address, next_hop, mix, waiting, last_used, inserted)`` tuples
        *in dict insertion order* — order is part of the contract, since
        replacement candidate lists (and therefore future evictions)
        follow it.  Sets it does not name come back empty.
        ``self.stats`` is the engine's responsibility; this only restores
        the structural state so post-run introspection (occupancy,
        mix_histogram, peek) matches a scalar run.
        """
        rebuilt: List[Dict[int, CacheEntry]] = [{} for _ in range(self.n_sets)]
        for index, flat in sets.items():
            if not 0 <= index < self.n_sets:
                raise CacheConfigError(
                    f"flat state names set {index}, cache has {self.n_sets}"
                )
            d = rebuilt[index]
            for address, next_hop, mix, waiting, last_used, inserted in flat:
                entry = CacheEntry(address, mix, last_used)
                entry.next_hop = next_hop
                entry.waiting = waiting
                entry.inserted = inserted
                d[address] = entry
        self._sets = rebuilt
        self._stamp = stamp
        if self.victim is not None:
            vd: Dict[int, CacheEntry] = {}
            for address, next_hop, mix, waiting, last_used, inserted in (
                victim_entries or []
            ):
                entry = CacheEntry(address, mix, last_used)
                entry.next_hop = next_hop
                entry.waiting = waiting
                entry.inserted = inserted
                vd[address] = entry
            self.victim._entries = vd
            self.victim._stamp = victim_stamp
            self.victim.insertions = victim_insertions
            self.victim.hits = victim_hits

    # -- observability -----------------------------------------------------------

    def bind_obs(self, registry, **labels: object) -> None:
        """Pre-bind this cache's instruments in a
        :class:`repro.obs.MetricsRegistry` (idiomatically with an ``lc``
        label).  Binding is done once, here; afterwards the only hot-path
        cost is a plain attribute increment on the eviction path, and
        :meth:`observe_into` publishes the cheap aggregate stats at
        snapshot time.
        """
        self._obs_registry = registry
        self._obs_labels = dict(labels)
        self._obs_evictions = (
            registry.counter("cache.lr.evictions", kind="LOC", **labels),
            registry.counter("cache.lr.evictions", kind="REM", **labels),
        )

    def observe_into(self) -> None:
        """Publish end-of-run aggregates to the bound registry (no-op when
        :meth:`bind_obs` was never called).  Hit/miss counts are read from
        :attr:`stats` rather than double-counted on the probe hot path."""
        registry = self._obs_registry
        if registry is None:
            return
        labels = self._obs_labels
        s = self.stats
        for metric, value in (
            ("cache.lr.lookups", s.lookups),
            ("cache.lr.hits", s.hits),
            ("cache.lr.waiting_hits", s.waiting_hits),
            ("cache.lr.victim_hits", s.victim_hits),
            ("cache.lr.misses", s.misses),
            ("cache.lr.insertions", s.insertions),
            ("cache.lr.bypasses", s.bypasses),
            ("cache.lr.flushes", s.flushes),
        ):
            counter = registry.counter(metric, **labels)
            counter.value = value
        registry.gauge("cache.lr.hit_rate", **labels).set(s.hit_rate)
        registry.gauge("cache.lr.occupancy", **labels).set(self.occupancy())

    # -- introspection -----------------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def mix_histogram(self) -> Dict[str, int]:
        loc = rem = 0
        for s in self._sets:
            for e in s.values():
                if e.mix == REM:
                    rem += 1
                else:
                    loc += 1
        return {"LOC": loc, "REM": rem}

    def storage_bytes(self) -> int:
        """On-chip SRAM: the paper sizes a 4K-block IPv4 LR-cache at
        4K × 6 bytes (4-byte address tag + next-hop + status bits)."""
        block = 6
        total = self.n_blocks * block
        if self.victim is not None:
            total += self.victim.capacity * block
        return total

    def __repr__(self) -> str:
        return (
            f"LRCache({self.n_blocks} blocks, {self.associativity}-way, "
            f"mix={self.mix:.0%}, policy={self._policy.name})"
        )
