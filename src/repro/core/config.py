"""Configuration objects shared by the router and the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import CacheConfigError, SimulationError
from ..routing import minimize as _minimize
from .lr_cache import LRCache

#: System cycle (paper Sec. 5.1): 5 ns.
CYCLE_NS = 5.0

#: FIL (fabric interface logic) processing cost per fabric hop, in cycles
#: — the Outgoing/Incoming queue traversal of Fig. 2, charged on each side
#: of every transfer.
FIL_OVERHEAD_CYCLES = 3

#: How many times a timed-out remote lookup is re-issued before the packet
#: becomes a counted ``unreachable`` drop.
REM_MAX_RETRIES = 2


@dataclass(frozen=True)
class CacheConfig:
    """LR-cache shape (β, associativity, γ, policy, victim size)."""

    n_blocks: int = 4096
    associativity: int = 4
    mix: float = 0.5
    policy: str = "lru"
    victim_blocks: int = 8
    index: str = "mod"

    def validate(self) -> None:
        if self.n_blocks <= 0:
            raise CacheConfigError("n_blocks must be positive")
        if self.associativity <= 0 or self.n_blocks % self.associativity:
            raise CacheConfigError("associativity must divide n_blocks")
        if not 0.0 <= self.mix <= 1.0:
            raise CacheConfigError("mix must be within [0, 1]")
        if self.victim_blocks < 0:
            raise CacheConfigError("victim_blocks must be non-negative")
        if self.index not in ("mod", "xor"):
            raise CacheConfigError("index must be 'mod' or 'xor'")


@dataclass(frozen=True)
class SpalConfig:
    """Full SPAL router configuration.

    Attributes
    ----------
    n_lcs:
        ψ — number of line cards (any positive integer).
    cache:
        LR-cache configuration (``None`` disables LR-caches entirely,
        giving the partitioned-but-uncached ablation).
    fe_lookup_cycles:
        FE longest-prefix-matching time in cycles (paper: 40 under the
        Lulea trie, 62 under the DP trie).
    fabric:
        Fabric kind: "default" | "ideal" | "bus" | "crossbar" | "multistage".
    fabric_latency:
        Override the crossbar transit latency in cycles (None = model default).
    partition_bits:
        Explicit control-bit positions (None = select by the paper's criteria).
    pattern_oversubscription:
        Pattern granularity for non-power-of-two ψ (None = library default
        of 4; 1 = the paper's exact η = ⌈log2 ψ⌉; see
        :func:`repro.core.partition.partition_table`).
    replicas:
        Pattern replication degree (1 = the paper's design; >1 trades
        per-LC table growth for home-load spreading and failover).
    early_recording:
        Reserve a waiting entry at the arrival LC before a remote request is
        sent (paper Sec. 3.2; ablation switch).
    cache_remote_results:
        Whether replies from remote LCs are cached locally as REM entries
        (disabling reproduces a share-nothing cache).
    fe_queue_capacity:
        Bound on each FE request queue, in queued lookups.  ``None`` (the
        default) keeps today's unbounded queues — bit-identical to the
        pre-overload simulator.  With a bound, a lookup that would find
        ``capacity`` or more requests already queued is dropped
        (``queue_full``), and the armed ``shed_policy`` may shed earlier.
    fabric_queue_capacity:
        Bound on each fabric source port's outgoing queue, in messages.
        ``None`` = unbounded (bit-identical); bounded ports drop messages
        that would exceed the backlog, the affected lookup becoming a
        counted ``queue_full``/``shed`` drop.
    shed_policy:
        How bounded queues shed load before they are hard-full:
        ``"tail_drop"`` (drop only at capacity), ``"red"`` (RED-style
        probabilistic early drop above half occupancy, from an RNG with
        the fixed seed 0), or ``"priority"`` (remote/REM traffic sheds
        above half occupancy while local traffic rides to capacity).
    sample_interval_cycles:
        Telemetry sampling window, in cycles.  ``None`` (the default)
        disables in-run time series entirely — bit-identical to the
        unsampled simulator, with zero added hot-path work.  When set,
        every K cycles the engine snapshots its counters into a
        :class:`~repro.obs.timeseries.TimeSeries` (per-window
        completed/dropped/shed, hit rate, backlog high-water, windowed
        latency percentiles) published on
        ``SimulationResult.timeseries``; core result fields remain
        bit-identical either way.
    minimize:
        FIB-minimisation pass set applied to the routing table *before*
        partitioning: ``None`` (the default — table used as-is,
        bit-identical to earlier revisions), ``"full"`` (ORTC; minimal
        output) or ``"light"`` (default-removal + ordered-covering;
        cheaper, non-minimal) — the names of
        :data:`repro.routing.minimize.PASS_SETS`.
        Minimised tables answer every lookup identically to the
        original; churn schedules are translated on the fly (see
        :class:`repro.routing.minimize.MinimizeState`).
    """

    n_lcs: int = 16
    cache: Optional[CacheConfig] = field(default_factory=CacheConfig)
    fe_lookup_cycles: int = 40
    fabric: str = "default"
    fabric_latency: Optional[int] = None
    partition_bits: Optional[Sequence[int]] = None
    pattern_oversubscription: Optional[int] = None
    replicas: int = 1
    early_recording: bool = True
    cache_remote_results: bool = True
    fe_queue_capacity: Optional[int] = None
    fabric_queue_capacity: Optional[int] = None
    shed_policy: str = "tail_drop"
    sample_interval_cycles: Optional[int] = None
    minimize: Optional[str] = None

    def validate(self) -> None:
        if self.n_lcs <= 0:
            raise SimulationError("n_lcs must be positive")
        if self.fe_lookup_cycles <= 0:
            raise SimulationError("fe_lookup_cycles must be positive")
        if self.fe_queue_capacity is not None and self.fe_queue_capacity <= 0:
            raise SimulationError("fe_queue_capacity must be positive")
        if (
            self.fabric_queue_capacity is not None
            and self.fabric_queue_capacity <= 0
        ):
            raise SimulationError("fabric_queue_capacity must be positive")
        if self.shed_policy not in ("tail_drop", "red", "priority"):
            raise SimulationError(
                "shed_policy must be 'tail_drop', 'red' or 'priority', "
                f"got {self.shed_policy!r}"
            )
        if (
            self.sample_interval_cycles is not None
            and self.sample_interval_cycles <= 0
        ):
            raise SimulationError("sample_interval_cycles must be positive")
        if self.minimize is not None and (
            not isinstance(self.minimize, str)
            or self.minimize not in _minimize.PASS_SETS
        ):
            names = ", ".join(repr(name) for name in _minimize.PASS_SETS)
            raise SimulationError(
                f"minimize must be None or one of {names}, "
                f"got {self.minimize!r}"
            )
        if self.cache is not None:
            self.cache.validate()

    def default_rem_timeout(self) -> int:
        """The automatic remote-lookup timeout used under fault injection.

        Runs whose fault schedule has LC failures or message loss arm it;
        a request unanswered this many cycles after it departed is retried
        against the next live replica, with exponential backoff (2x per
        retry, capped at 8x) so congestion-induced timeouts do not amplify
        the congestion that caused them.  Other runs have no timeout.

        Sized to clear a healthy remote round trip with a deep FE backlog:
        two fabric crossings (latency + FIL both sides), the FE matching
        time, and a 16-lookup queueing margin — so only genuinely lost
        requests (dead home LC, dropped message) trip it.
        """
        fabric = self.make_fabric()
        hop = fabric.latency_cycles() + 2 * FIL_OVERHEAD_CYCLES
        return 2 * hop + self.fe_lookup_cycles * 16

    def make_caches(self, registry) -> List[Optional[LRCache]]:
        """One LR-cache per LC in the shape of :attr:`cache` (all ``None``
        when it is ``None``), LC ``i``'s replacement policy seeded with
        ``i`` and its instruments bound into ``registry`` (a
        :class:`repro.obs.MetricsRegistry`) under the label ``lc=i``.
        The simulator and the router both build their caches here."""
        c = self.cache
        if c is None:
            return [None] * self.n_lcs
        caches: List[Optional[LRCache]] = []
        for i in range(self.n_lcs):
            cache = LRCache(
                n_blocks=c.n_blocks,
                associativity=c.associativity,
                mix=c.mix,
                policy=c.policy,
                victim_blocks=c.victim_blocks,
                policy_seed=i,
                index=c.index,
            )
            cache.bind_obs(registry, lc=i)
            caches.append(cache)
        return caches

    def make_fabric(self):
        from . import fabric as fabric_mod

        if self.fabric == "default":
            fab = fabric_mod.default_fabric(self.n_lcs)
        elif self.fabric == "ideal":
            fab = fabric_mod.IdealFabric(self.n_lcs)
        elif self.fabric == "bus":
            fab = fabric_mod.SharedBusFabric(self.n_lcs)
        elif self.fabric == "crossbar":
            fab = fabric_mod.CrossbarFabric(self.n_lcs)
        elif self.fabric == "multistage":
            fab = fabric_mod.MultistageFabric(self.n_lcs)
        else:
            raise SimulationError(f"unknown fabric kind {self.fabric!r}")
        if self.fabric_latency is not None and hasattr(fab, "transit_cycles"):
            fab.transit_cycles = self.fabric_latency
        return fab
