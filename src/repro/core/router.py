"""The SPAL router: an untimed driver over the simulator's components.

:class:`SpalRouter` is the library's front door.  It partitions a routing
table across ψ line cards, builds one LPM structure per LC, wires up
LR-caches, and answers lookups through the full SPAL flow (Sec. 3.3):

1. a packet arrives at an LC and probes that LC's LR-cache;
2. on a miss, the LR1 detector routes the request to the home LC
   (``plan.home_lc(address)``), locally or across the fabric;
3. a remote home LC probes its own LR-cache; a miss at the home LC falls
   back to its FE, and the result is cached there as LOC;
4. a remote reply is cached at the arrival LC as REM.

It holds the parts :class:`repro.sim.spal_sim.SpalSimulator` runs on — the
:class:`~repro.core.partition.PartitionPlan` (whose ``failed_lcs`` is the
failure state), one :class:`~repro.core.lr_cache.LRCache` per LC from
:meth:`SpalConfig.make_caches`, one matcher per LC and a per-LC FE lookup
count — and drives them directly, one lookup at a time.  Timing (queueing,
waiting lists, cycle budgets) is the simulator's alone.  Over lookups
spaced so that no port or W-bit wait occurs, the two agree on every
served hop, cache statistic, cache entry, FE lookup count and fabric
message count (``tests/test_router_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import SimulationError, UnreachablePatternError
from ..obs.registry import MetricsRegistry
from ..routing.prefix import Prefix
from ..routing.table import NextHop, RoutingTable
from ..tries.base import LongestPrefixMatcher, UpdateResult
from ..tries.lulea import LuleaTrie
from .config import UPDATE_POLICIES, SpalConfig
from .domain import check, one_of
from .lr_cache import LOC, REM, LRCache
from .partition import PartitionPlan, apply_route_update, partition_table


def default_matcher_factory(table: RoutingTable) -> LongestPrefixMatcher:
    """The paper's primary FE structure: the Lulea trie."""
    return LuleaTrie(table)


@dataclass
class RouterStats:
    """Aggregate counters across the router."""

    lookups: int = 0
    local_home: int = 0        # packets whose home LC is their arrival LC
    remote_requests: int = 0   # requests sent across the fabric
    remote_replies: int = 0    # replies returned across the fabric
    updates: int = 0           # routing-table updates applied
    update_patches: int = 0    # per-LC incremental patches
    update_rebuilds: int = 0   # per-LC full structure rebuilds
    update_service_cycles: int = 0  # FE cycles spent applying updates
    invalidation_entries: int = 0   # cache entries dropped selectively


class SpalRouter:
    """A ψ-line-card SPAL router over one routing table.

    Parameters
    ----------
    table:
        The full (BGP) routing table.
    config:
        Router shape; see :class:`repro.core.config.SpalConfig`.
    matcher_factory:
        Builds the per-LC LPM structure (default: Lulea trie).
    registry:
        A :class:`repro.obs.MetricsRegistry` to bind the router's
        instruments into (a private one is created when omitted).  The
        LR-caches pre-bind their eviction counters at construction;
        :meth:`metrics_snapshot` publishes the aggregate counters and
        returns the registry's snapshot.
    """

    def __init__(
        self,
        table: RoutingTable,
        config: Optional[SpalConfig] = None,
        matcher_factory: Callable[[RoutingTable], LongestPrefixMatcher] = default_matcher_factory,
        registry: Optional["MetricsRegistry"] = None,
    ):
        self.config = config or SpalConfig()
        if self.config.minimize is not None:
            raise SimulationError(
                "SpalRouter partitions the table it is given; minimise it "
                "first (repro.routing.minimize_table) instead of setting "
                "config.minimize"
            )
        self.table = table
        self.plan: PartitionPlan = partition_table(
            table,
            self.config.n_lcs,
            bits=self.config.partition_bits,
            pattern_oversubscription=self.config.pattern_oversubscription,
            replicas=self.config.replicas,
        )
        self._matcher_factory = matcher_factory
        #: LC ``i``'s FE structure, over ``plan.tables[i]``.
        self.matchers: List[LongestPrefixMatcher] = [
            matcher_factory(t) for t in self.plan.tables
        ]
        #: FE lookups run per LC.
        self.fe_lookups = [0] * self.config.n_lcs
        self.obs = registry if registry is not None else MetricsRegistry()
        #: LC ``i``'s LR-cache (``None`` when ``config.cache`` is None).
        self.caches: List[Optional[LRCache]] = self.config.make_caches(self.obs)
        self.fabric = self.config.make_fabric()
        self.stats = RouterStats()

    # -- lookups ------------------------------------------------------------

    def lookup(self, address: int, arrival_lc: int = 0) -> NextHop:
        """Resolve one destination address arriving at ``arrival_lc``
        through the full SPAL flow."""
        if not 0 <= arrival_lc < self.config.n_lcs:
            raise SimulationError(f"arrival LC {arrival_lc} out of range")
        failed = self.plan.failed_lcs
        if arrival_lc in failed:
            raise SimulationError(
                f"arrival LC {arrival_lc} is failed; its ports are down"
            )
        self.stats.lookups += 1
        cache = self.caches[arrival_lc]
        if cache is not None:
            entry = cache.probe(address)
            if entry is not None:
                return entry.next_hop  # type: ignore[return-value]
        # home_lc skips failed replicas; with no replication it still names
        # the (possibly dead) primary, which the aliveness check catches.
        home = self.plan.home_lc(address)
        if home in failed:
            raise UnreachablePatternError(
                f"home LC {home} is failed and the pattern of "
                f"{address:#x} has no live replica"
            )
        if home == arrival_lc:
            self.stats.local_home += 1
            return self._fe_lookup(home, address)
        # Remote flow: request over the fabric to the home LC, which
        # answers from its own LR-cache or its FE, and the reply back.
        self.stats.remote_requests += 1
        self.fabric.messages += 2
        home_cache = self.caches[home]
        entry = home_cache.probe(address) if home_cache is not None else None
        hop = (
            entry.next_hop if entry is not None
            else self._fe_lookup(home, address)
        )
        self.stats.remote_replies += 1
        if cache is not None and self.config.cache_remote_results:
            cache.insert_complete(address, hop, REM)
        return hop  # type: ignore[return-value]

    def _fe_lookup(self, lc: int, address: int) -> NextHop:
        """LC ``lc``'s FE resolves ``address`` after a miss in that LC's
        cache; the result is recorded there as LOC."""
        self.fe_lookups[lc] += 1
        hop = self.matchers[lc].lookup(address)
        cache = self.caches[lc]
        if cache is not None:
            cache.insert_complete(address, hop, LOC)
        return hop

    def lookup_direct(self, address: int) -> NextHop:
        """LPM over the partitioned tables without any caching (used by
        verification and by the partition-preserving-LPM invariant tests)."""
        return self.matchers[self.plan.home_lc(address)].lookup(address)

    # -- failover ------------------------------------------------------------

    def fail_line_card(self, lc_index: int) -> None:
        """Fail-stop one LC: its home load shifts to live replicas (if the
        plan is replicated) and every other live LC drops the REM cache
        entries it fetched from the dead card — those results can go stale
        while the card is down.  Failing a failed LC is a no-op.

        The stale set is computed with the *pre-failure* replica choice
        (an address's REM result came from its then-home LC), so the
        invalidation runs before the plan is mutated.
        """
        if not 0 <= lc_index < self.config.n_lcs:
            raise SimulationError(f"LC {lc_index} out of range")
        failed = self.plan.failed_lcs
        if lc_index in failed:
            return
        for i, cache in enumerate(self.caches):
            if i != lc_index and i not in failed and cache is not None:
                cache.invalidate_remote(
                    lambda addr: self._homed_at(addr, lc_index)
                )
        self.plan.fail_lc(lc_index)

    def recover_line_card(self, lc_index: int) -> None:
        """Re-admit a failed LC with a cold cache (its contents are stale —
        it may have missed routing updates while down).  Recovering a live
        LC is a no-op."""
        if not 0 <= lc_index < self.config.n_lcs:
            raise SimulationError(f"LC {lc_index} out of range")
        if lc_index not in self.plan.failed_lcs:
            return
        self.plan.restore_lc(lc_index)
        cache = self.caches[lc_index]
        if cache is not None:
            cache.flush()

    def _homed_at(self, address: int, lc_index: int) -> bool:
        try:
            return self.plan.home_lc(address) == lc_index
        except UnreachablePatternError:
            return True  # whole pattern already dead — certainly stale

    # -- updates ------------------------------------------------------------

    def apply_update(
        self,
        prefix: Prefix,
        next_hop: Optional[NextHop],
        invalidation: str = "flush",
    ) -> List[int]:
        """Apply one routing update (insert/change, or delete when
        ``next_hop`` is None): patch the master table and the affected
        partitions, update those FEs, and invalidate LR-cache state.

        ``invalidation`` selects the cache policy: ``"flush"`` drops every
        entry (the paper's conservative Sec. 3.2 policy); ``"selective"``
        drops only entries the updated prefix covers — the remedy for the
        paper's noted weakness with frequent incremental updates; ``"rem"``
        additionally narrows non-home LCs to their REM copies, since a LOC
        entry under the prefix can only exist at an LC that holds the
        pattern (and those are invalidated in full).

        Each touched FE applies the update incrementally when its structure
        supports it (:meth:`LongestPrefixMatcher.apply_update`) and is
        rebuilt over its updated table otherwise; the patch vs rebuild
        split and the modeled service cycles accumulate in :attr:`stats`.
        """
        check(invalidation, one_of(UPDATE_POLICIES), "invalidation",
              SimulationError)
        if next_hop is None:
            self.table.remove(prefix)
        else:
            self.table.update(prefix, next_hop)
        touched = apply_route_update(self.plan, prefix, next_hop)
        for lc in touched:
            try:
                result = self.matchers[lc].apply_update(prefix, next_hop)
            except NotImplementedError:
                lc_table = self.plan.tables[lc]
                self.matchers[lc] = self._matcher_factory(lc_table)
                result = UpdateResult("rebuild", len(lc_table))
            if result.kind == "patch":
                self.stats.update_patches += 1
            else:
                self.stats.update_rebuilds += 1
            self.stats.update_service_cycles += result.service_cycles
        # One update→invalidate message from a holder to every other LC.
        self.fabric.messages += self.config.n_lcs - 1
        touched_set = set(touched)
        for lc, cache in enumerate(self.caches):
            if cache is None:
                continue
            if invalidation == "flush":
                cache.flush()
            elif invalidation == "selective" or lc in touched_set:
                self.stats.invalidation_entries += cache.invalidate_matching(
                    prefix
                )
            else:
                self.stats.invalidation_entries += cache.invalidate_remote(
                    prefix.matches
                )
        self.stats.updates += 1
        return touched

    # -- reporting -----------------------------------------------------------

    def partition_sizes(self) -> List[int]:
        return self.plan.partition_sizes()

    def storage_report(self) -> Dict[str, object]:
        """Per-LC and total SRAM (trie + LR-cache, paper Sec. 1), in bytes."""
        tries = [m.storage_bytes() for m in self.matchers]
        per_lc = [
            trie + (cache.storage_bytes() if cache is not None else 0)
            for trie, cache in zip(tries, self.caches)
        ]
        return {
            "per_lc_bytes": per_lc,
            "trie_bytes": tries,
            "total_bytes": sum(per_lc),
            "max_lc_bytes": max(per_lc),
            "partition_bits": list(self.plan.bits),
            "partition_sizes": self.partition_sizes(),
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Publish current aggregates to the bound registry and return its
        snapshot — the functional-API counterpart of
        :attr:`repro.sim.results.SimulationResult.metrics_snapshot`."""
        obs = self.obs
        for lc, cache in enumerate(self.caches):
            obs.counter("fe.lookups", lc=lc).value = self.fe_lookups[lc]
            obs.gauge("lc.alive", lc=lc).set(
                0.0 if lc in self.plan.failed_lcs else 1.0
            )
            if cache is not None:
                cache.observe_into()
        self.fabric.observe_into(obs)
        self.plan.observe_into(obs)
        obs.counter("router.lookups").value = self.stats.lookups
        obs.counter("router.local_home").value = self.stats.local_home
        obs.counter("router.remote_requests").value = self.stats.remote_requests
        obs.counter("router.remote_replies").value = self.stats.remote_replies
        obs.counter("router.updates").value = self.stats.updates
        if self.stats.updates:
            obs.counter("router.update_patches").value = self.stats.update_patches
            obs.counter("router.update_rebuilds").value = (
                self.stats.update_rebuilds
            )
            obs.counter("router.update_service_cycles").value = (
                self.stats.update_service_cycles
            )
            obs.counter("router.invalidation_entries").value = (
                self.stats.invalidation_entries
            )
        return obs.snapshot()

    def cache_hit_rates(self) -> List[float]:
        return [
            cache.stats.hit_rate if cache is not None else 0.0
            for cache in self.caches
        ]

    def __repr__(self) -> str:
        return (
            f"SpalRouter(psi={self.config.n_lcs}, "
            f"bits={self.plan.bits}, routes={len(self.table)})"
        )
