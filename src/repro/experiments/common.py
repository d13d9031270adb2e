"""Shared experiment machinery: scale control, cached tables, runners.

Every experiment runs at one of two scales:

* **default scale** — reduced table sizes and packet counts so the full
  experiment suite completes in minutes while preserving every figure's
  *shape* (who wins, by what factor, where trends bend);
* **paper scale** — the paper's exact sizes (RT_1 = 41,709 and RT_2 =
  140,838 prefixes; 300,000 packets per LC), enabled with the environment
  variable ``REPRO_PAPER_SCALE=1``.

Tables and flow populations are memoized per process since several
experiments share them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from ..core.config import CacheConfig, SpalConfig
from ..core.faults import FaultSchedule
from ..routing.synthetic import make_rt1, make_rt2
from ..routing.table import RoutingTable
from ..sim.results import SimulationResult
from ..sim.spal_sim import SpalSimulator
from ..traffic.profiles import trace_spec
from ..traffic.synthetic import FlowPopulation, generate_stream

#: Default FE matching time (Lulea trie, paper Sec. 5.1).
LULEA_FE_CYCLES = 40
#: DP-trie FE matching time.
DP_FE_CYCLES = 62


def paper_scale() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0", "false")


def default_packets_per_lc() -> int:
    """Packets generated per LC (paper: 300,000; reduced: a 1/10 run that
    keeps flow/packet ratios — and thus hit rates and queueing regimes —
    faithful; see :meth:`repro.traffic.TraceSpec.scaled`).  Overridable
    with ``REPRO_PACKETS`` (the CLI's ``--packets``)."""
    override = os.environ.get("REPRO_PACKETS")
    if override:
        try:
            return max(100, int(override))
        except ValueError:
            pass
    return 300_000 if paper_scale() else 30_000


def rt1_size() -> Optional[int]:
    return None if paper_scale() else 8_000


def rt2_size() -> Optional[int]:
    return None if paper_scale() else 20_000


@lru_cache(maxsize=None)
def get_rt1() -> RoutingTable:
    return make_rt1(size=rt1_size())


@lru_cache(maxsize=None)
def get_rt2() -> RoutingTable:
    return make_rt2(size=rt2_size())


@lru_cache(maxsize=None)
def _population(trace: str, table_id: str, packets_per_lc: int) -> FlowPopulation:
    table = get_rt1() if table_id == "rt1" else get_rt2()
    # Flow counts are calibrated against the paper's 300k-packet-per-LC
    # runs; scale them with the per-LC duration (NOT the LC count — the
    # trace's working set does not depend on how many LCs a router has).
    spec = trace_spec(trace).scaled(16 * packets_per_lc)
    return FlowPopulation(spec, table)


def streams_for_trace(
    trace: str,
    n_lcs: int,
    packets_per_lc: int,
    table_id: str = "rt2",
) -> List[np.ndarray]:
    """Per-LC destination streams for a named paper trace."""
    pop = _population(trace, table_id, packets_per_lc)
    return [generate_stream(pop, packets_per_lc, lc) for lc in range(n_lcs)]


def run_spal(
    trace: str,
    n_lcs: int,
    cache_blocks: Optional[int] = 4096,
    mix: float = 0.5,
    fe_cycles: int = LULEA_FE_CYCLES,
    speed_gbps: int = 40,
    packets_per_lc: Optional[int] = None,
    table_id: str = "rt2",
    victim_blocks: int = 8,
    associativity: int = 4,
    policy: str = "lru",
    cache_index: str = "mod",
    early_recording: bool = True,
    cache_remote_results: bool = True,
    partitioned: bool = True,
    fabric: str = "default",
    fabric_latency: Optional[int] = None,
    scale_beta: bool = True,
    replicas: int = 1,
    faults: Optional[FaultSchedule] = None,
    minimize: Optional[str] = None,
) -> SimulationResult:
    """One SPAL simulation with the paper's defaults; the figure runners are
    thin sweeps over this function.  ``cache_blocks`` is the paper-nominal
    β; it is shrunk via :func:`scale_cache` at reduced scale unless
    ``scale_beta=False``.  ``faults`` forwards a
    :class:`~repro.core.faults.FaultSchedule` to the run.  ``minimize``
    arms the pre-partition FIB-minimisation stage (``"full"``; see
    :mod:`repro.routing.minimize`).  Each call builds its own simulator,
    which partitions the table and builds its matchers afresh."""
    table = get_rt1() if table_id == "rt1" else get_rt2()
    n = packets_per_lc if packets_per_lc is not None else default_packets_per_lc()
    if scale_beta:
        cache_blocks = scale_cache(cache_blocks)
    cache = (
        CacheConfig(
            n_blocks=cache_blocks,
            mix=mix,
            victim_blocks=victim_blocks,
            associativity=associativity,
            policy=policy,
            index=cache_index,
        )
        if cache_blocks
        else None
    )
    config = SpalConfig(
        n_lcs=n_lcs,
        cache=cache,
        fe_lookup_cycles=fe_cycles,
        early_recording=early_recording,
        cache_remote_results=cache_remote_results,
        fabric=fabric,
        fabric_latency=fabric_latency,
        replicas=replicas,
        minimize=minimize,
    )
    sim = SpalSimulator(table, config, partitioned=partitioned)
    streams = streams_for_trace(trace, n_lcs, n, table_id)
    # Exclude the stone-cold-start transient (10% of each LC's stream) from
    # latency statistics; see SpalSimulator.run.
    return sim.run(
        streams,
        speed_gbps=speed_gbps,
        warmup_packets=n // 10,
        name=f"{trace}/psi={n_lcs}",
        faults=faults,
    )


def scale_cache(cache_blocks: Optional[int]) -> Optional[int]:
    """Scale a nominal (paper) cache size to the run's scale.

    At reduced scale both the trace working set and the packet budget are
    1/10 of the paper's, so paper-sized caches would cover an unrealistic
    fraction of the address space; shrinking β by 4× restores cache
    pressure while keeping every configuration out of FE saturation (the
    paper's operating regime — its figures top out near 25 cycles).
    Figure rows keep the paper's *nominal* sizes as labels and record the
    effective size separately.
    """
    if cache_blocks is None or paper_scale():
        return cache_blocks
    return max(64, cache_blocks // 4)


def mix_for_cache(cache_blocks: int) -> float:
    """The paper's γ rule: 50 % for β ≥ 2K, 25 % for β = 1K."""
    return 0.25 if cache_blocks <= 1024 else 0.5


@dataclass
class ExperimentResult:
    """Uniform result wrapper: machine-readable rows plus rendered text."""

    exp_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    rendered: str = ""

    def print(self) -> None:
        print(f"== {self.exp_id}: {self.title} ==")
        print(self.rendered)

    def to_json(self) -> str:
        """Machine-readable dump (id, title, rows) for downstream tooling."""
        import json

        return json.dumps(
            {"exp_id": self.exp_id, "title": self.title, "rows": self.rows},
            indent=2,
            default=str,
        )
