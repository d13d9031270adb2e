"""Configuration objects shared by the router and the simulator.

Each field is declared once: the ``#:`` comment above it states its
meaning and the precondition it MUST meet, which ``metadata["domain"]``
holds and ``__post_init__`` checks, so no out-of-domain config exists.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from typing import (
    TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence,
)

from ..errors import CacheConfigError, SimulationError
from .fabric import (
    CrossbarFabric,
    Fabric,
    IdealFabric,
    MultistageFabric,
    SharedBusFabric,
    default_fabric,
)
from .replacement import POLICIES

if TYPE_CHECKING:
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

#: Cache invalidation after a route update (``run`` and ``SpalRouter``).
UPDATE_POLICIES = ("flush", "selective", "rem")

#: Load shedding in bounded queues (:attr:`SpalConfig.shed_policy`).
SHED_POLICIES = ("tail_drop", "red", "priority")

#: Fabric kinds (:attr:`SpalConfig.fabric`) and the model each builds.
_FABRICS = {
    "default": default_fabric,
    "ideal": IdealFabric,
    "bus": SharedBusFabric,
    "crossbar": CrossbarFabric,
    "multistage": MultistageFabric,
}


class Domain(NamedTuple):
    """A set of legal values, and the phrase that names it in errors."""

    accepts: Callable[[object], bool]
    text: str


def is_int(v: object) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def integer(low: int) -> Domain:
    """The ints ``>= low`` (``bool`` excluded: ``True`` is not a count)."""
    return Domain(lambda v: is_int(v) and v >= low, f"an int >= {low}")


def real(low: float, high: float) -> Domain:
    """The reals in ``[low, high]`` (``bool`` and NaN excluded)."""
    return Domain(lambda v: isinstance(v, Real) and not isinstance(v, bool)
                  and low <= v <= high, f"a real in [{low}, {high}]")


def one_of(names) -> Domain:
    """Exactly one of the strings ``names``."""
    names = tuple(names)
    return Domain(lambda v: isinstance(v, str) and v in names,
                  " or ".join(map(repr, names)))


def optional(d: Domain) -> Domain:
    return Domain(lambda v: v is None or d.accepts(v), f"None or {d.text}")


BOOL = Domain(lambda v: isinstance(v, bool), "a bool")


def check(value: object, domain: Domain, name: str, error: type) -> None:
    """Raise ``error`` unless ``value`` lies in ``domain``."""
    if not domain.accepts(value):
        raise error(f"{name} must be {domain.text}, got {value!r}")


def knob(domain: Domain, **kwargs):
    """A dataclass field whose values MUST lie in ``domain``."""
    return field(metadata={"domain": domain}, **kwargs)


def _check_fields(config, error: type) -> None:
    for f in fields(config):
        check(getattr(config, f.name), f.metadata["domain"], f.name, error)


@dataclass(frozen=True)
class CacheConfig:
    """LR-cache shape (β, associativity, γ, policy, victim size).

    A field outside its domain, or an ``associativity`` that does not
    divide ``n_blocks``, raises :class:`~repro.errors.CacheConfigError`.
    """

    #: β, the capacity in blocks (paper: 1K–8K).  MUST be an int >= 1.
    n_blocks: int = knob(integer(1), default=4096)
    #: Blocks per set (paper: 4).  MUST be an int >= 1 dividing n_blocks.
    associativity: int = knob(integer(1), default=4)
    #: γ, each set's share reserved for REM results.  MUST be in [0, 1].
    mix: float = knob(real(0.0, 1.0), default=0.5)
    #: Replacement among the mix filter's candidates.  MUST be a name in
    #: :data:`repro.core.replacement.POLICIES`.
    policy: str = knob(one_of(POLICIES), default="lru")
    #: Victim-cache blocks (0 = none; paper: 8).  MUST be an int >= 0.
    victim_blocks: int = knob(integer(0), default=8)
    #: Set index: ``"mod"`` takes the low address bits, whose sparse host
    #: bits can collide popular flows; ``"xor"`` folds the high half onto
    #: them first.  MUST be one of those two.
    index: str = knob(one_of(("mod", "xor")), default="mod")

    def __post_init__(self) -> None:
        _check_fields(self, CacheConfigError)
        if self.n_blocks % self.associativity:
            raise CacheConfigError(
                f"associativity {self.associativity} must divide "
                f"n_blocks {self.n_blocks}"
            )


@dataclass(frozen=True)
class SpalConfig:
    """Full SPAL router configuration.

    A field outside its domain, or a ``fabric_latency`` without
    ``fabric="crossbar"``, raises :class:`~repro.errors.SimulationError`.
    """

    #: ψ, the number of line cards.  MUST be an int >= 1.
    n_lcs: int = knob(integer(1), default=16)
    #: LR-cache shape; ``None`` builds no LR-caches (the partitioned but
    #: uncached ablation).  MUST be None or a :class:`CacheConfig`.
    cache: Optional[CacheConfig] = knob(optional(Domain(
        lambda v: isinstance(v, CacheConfig), "a CacheConfig"
    )), default_factory=CacheConfig)
    #: FE longest-prefix-match time in cycles (paper: 40 with the Lulea
    #: trie, 62 with the DP trie).  MUST be an int >= 1.
    fe_lookup_cycles: int = knob(integer(1), default=40)
    #: Fabric model; ``"default"`` picks by ψ (bus up to 4, crossbar up to
    #: 16, multistage beyond).  MUST be ``"default"``, ``"ideal"``,
    #: ``"bus"``, ``"crossbar"`` or ``"multistage"``.
    fabric: str = knob(one_of(_FABRICS), default="default")
    #: Crossbar transit cycles (None = the model's 2).  MUST be None or an
    #: int >= 0, and is set only with ``fabric="crossbar"``.
    fabric_latency: Optional[int] = knob(optional(integer(0)), default=None)
    #: Control-bit positions (None = chosen by the paper's criteria).  MUST
    #: be None or a sequence of ints, which ``partition_table`` checks
    #: against the table's width.
    partition_bits: Optional[Sequence[int]] = knob(optional(Domain(
        lambda v: isinstance(v, Sequence) and all(map(is_int, v)),
        "a sequence of ints")), default=None)
    #: Pattern granularity for non-power-of-two ψ (None = 4; 1 = the
    #: paper's exact η = ⌈log2 ψ⌉).  MUST be None or an int >= 1.
    pattern_oversubscription: Optional[int] = knob(
        optional(integer(1)), default=None
    )
    #: Pattern replication degree (1 = the paper's design).  MUST be an int
    #: >= 1, and at most ψ (the partitioner checks that).
    replicas: int = knob(integer(1), default=1)
    #: Reserve the arrival LC's waiting entry before a remote request is
    #: sent (paper Sec. 3.2).  MUST be a bool.
    early_recording: bool = knob(BOOL, default=True)
    #: Cache remote LCs' replies locally as REM entries (False = a
    #: share-nothing cache).  MUST be a bool.
    cache_remote_results: bool = knob(BOOL, default=True)
    #: Bound on each FE request queue in lookups (None = unbounded and
    #: bit-identical to the unbounded simulator).  MUST be None or an
    #: int >= 1.
    fe_queue_capacity: Optional[int] = knob(optional(integer(1)), default=None)
    #: Bound on each fabric source port's queue in messages (None =
    #: unbounded).  MUST be None or an int >= 1.
    fabric_queue_capacity: Optional[int] = knob(
        optional(integer(1)), default=None
    )
    #: How bounded queues shed before they are full: ``"tail_drop"`` only
    #: at capacity, ``"red"`` early from half occupancy (an RNG seeded 0),
    #: ``"priority"`` remote/REM traffic from half.  MUST be one of
    #: :data:`SHED_POLICIES`.
    shed_policy: str = knob(one_of(SHED_POLICIES), default="tail_drop")
    #: Telemetry window in cycles for ``SimulationResult.timeseries``
    #: (None = no sampling and no hot-path work; core results are the same
    #: either way).  MUST be None or an int >= 1.
    sample_interval_cycles: Optional[int] = knob(
        optional(integer(1)), default=None
    )
    #: FIB minimisation before partitioning: None (the table as given) or
    #: ``"full"`` (ORTC; minimal, answers every lookup identically).  MUST
    #: be one of those two.
    minimize: Optional[str] = knob(optional(one_of(("full",))), default=None)

    def __post_init__(self) -> None:
        _check_fields(self, SimulationError)
        if self.fabric_latency is not None and self.fabric != "crossbar":
            raise SimulationError(
                "fabric_latency sets the crossbar's transit cycles and needs "
                f"fabric='crossbar', got {self.fabric!r}"
            )

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
        from .lr_cache import LRCache

        c = self.cache
        if c is None:
            return [None] * self.n_lcs
        caches: List[Optional[LRCache]] = []
        for i in range(self.n_lcs):
            cache = LRCache(**asdict(c), policy_seed=i)
            cache.bind_obs(registry, lc=i)
            caches.append(cache)
        return caches

    def make_fabric(self) -> Fabric:
        """The fabric model of :attr:`fabric`, with :attr:`fabric_latency`
        as the crossbar's transit cycles when set."""
        if self.fabric_latency is not None:
            return CrossbarFabric(self.n_lcs, self.fabric_latency)
        return _FABRICS[self.fabric](self.n_lcs)
