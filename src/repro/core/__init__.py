"""SPAL core: table partitioning, the LR-cache, fabrics, and the router."""

from .config import CYCLE_NS, CacheConfig, SpalConfig
from .fabric import (
    CrossbarFabric,
    Fabric,
    IdealFabric,
    MultistageFabric,
    SharedBusFabric,
    default_fabric,
)
from .faults import (
    FabricDegradation,
    FaultSchedule,
    LCCacheDegradation,
    LCFailure,
    LCRecovery,
    LCSlowdown,
    LinkFlap,
)
from .lr_cache import LOC, REM, CacheEntry, CacheStats, LRCache
from .partition import (
    PartitionPlan,
    apply_route_update,
    assign_patterns_to_lcs,
    partition_table,
    pattern_of,
    pattern_of_batch,
    patterns_of_prefix,
    select_partition_bits,
)
from .replacement import FIFOPolicy, LRUPolicy, RandomPolicy, make_policy
from .spatial import SpatialCache
from .router import RouterStats, SpalRouter, default_matcher_factory
from .victim_cache import VictimCache

__all__ = [
    "CYCLE_NS",
    "CacheConfig",
    "SpalConfig",
    "Fabric",
    "IdealFabric",
    "SharedBusFabric",
    "CrossbarFabric",
    "MultistageFabric",
    "default_fabric",
    "FaultSchedule",
    "LCFailure",
    "LCRecovery",
    "FabricDegradation",
    "LCSlowdown",
    "LinkFlap",
    "LCCacheDegradation",
    "LRCache",
    "CacheEntry",
    "CacheStats",
    "LOC",
    "REM",
    "VictimCache",
    "SpatialCache",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "make_policy",
    "PartitionPlan",
    "select_partition_bits",
    "pattern_of",
    "pattern_of_batch",
    "patterns_of_prefix",
    "assign_patterns_to_lcs",
    "partition_table",
    "apply_route_update",
    "SpalRouter",
    "RouterStats",
    "default_matcher_factory",
]
