"""Baseline routers the paper compares SPAL against.

* **Conventional router** — every LC holds the full table, no LR-caches.
  Every packet pays one FE lookup; the paper optimistically ignores FE
  queueing and quotes 200 ns (40 cycles) per lookup.  Both the analytic
  (queue-free) number and a simulated queueing run are provided — at
  40 Gbps the offered load exceeds one FE's service rate, so the queued
  variant saturates, which is exactly why the paper ignores it.
* **Cache-only router** (ref. [6], Chiueh & Pradhan) — LR-caches at every
  LC but no table partitioning: lookups are always local, results are
  never shared, and each cache must cover the whole address space.
  Realized as :class:`SpalSimulator` with ``partitioned=False``.
* **Length-partitioned router** (ref. [1], Akhbarizadeh & Nourani) — the
  table is split by prefix length and *all* subsets are kept at every FE
  for parallel search; forwarding tables do not shrink with ψ and no
  results are shared.  Timing-wise each lookup is one (parallel) FE search,
  so its simulated behaviour matches the conventional router; the class
  adds the storage accounting that distinguishes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import SpalConfig
from ..errors import SimulationError
from ..routing.table import RoutingTable
from ..traffic.packets import CYCLE_NS, arrival_times
from .engine import Resource
from .results import SimulationResult
from .spal_sim import SpalSimulator


def conventional_mean_cycles(fe_lookup_cycles: int = 40) -> float:
    """The paper's optimistic baseline: mean lookup time with queueing
    ignored (Sec. 5.2: "200 ns (i.e., 40 cycles) if the queuing time of the
    FE is ignored optimistically")."""
    return float(fe_lookup_cycles)


def conventional_mpps(n_lcs: int, fe_lookup_cycles: int = 40) -> float:
    """Router-aggregate forwarding rate of the conventional baseline."""
    per_lc = 1e9 / (fe_lookup_cycles * CYCLE_NS)
    return per_lc * n_lcs / 1e6


class ConventionalSimulator:
    """Timed conventional router: per-LC FE queue, full table, no caches."""

    def __init__(self, n_lcs: int, fe_lookup_cycles: int = 40):
        # SpalConfig's domains are the rules for both (SimulationError).
        SpalConfig(n_lcs=n_lcs, fe_lookup_cycles=fe_lookup_cycles)
        self.n_lcs = n_lcs
        self.fe_lookup_cycles = fe_lookup_cycles

    def run(
        self,
        streams: Sequence[np.ndarray],
        speed_gbps: int = 40,
        name: str = "conventional",
    ) -> SimulationResult:
        if len(streams) != self.n_lcs:
            raise SimulationError(
                f"need {self.n_lcs} streams, got {len(streams)}"
            )
        latencies: List[int] = []
        horizon = 0
        fes = [Resource() for _ in range(self.n_lcs)]
        for lc, stream in enumerate(streams):
            times = arrival_times(
                len(stream), speed_gbps=speed_gbps, seed=1000 + lc
            )
            fe = fes[lc]
            for t in times:
                t = int(t)
                _, done = fe.acquire(t, self.fe_lookup_cycles)
                latencies.append(done - t)
                if done > horizon:
                    horizon = done
        return SimulationResult(
            name=name,
            n_lcs=self.n_lcs,
            latencies=np.array(latencies, dtype=np.int64),
            horizon_cycles=horizon,
            fe_lookups=[len(s) for s in streams],
            fe_utilization=[fe.utilization(horizon) for fe in fes],
        )


def cache_only_simulator(
    table: RoutingTable, config: Optional[SpalConfig] = None
) -> SpalSimulator:
    """The ref.-[6] baseline: LR-caches without partitioning.

    Mean lookup time is then independent of ψ (paper Sec. 5.2) because every
    LC sees the whole table and shares nothing.
    """
    return SpalSimulator(table, config, partitioned=False)


@dataclass
class LengthPartitionedRouter:
    """Storage model of the ref.-[1] design: per-length subsets, all kept at
    every FE.  ``subset_sizes`` exposes the imbalance the paper criticizes
    (length 24 alone holds ~half of all prefixes)."""

    table: RoutingTable

    def subset_sizes(self) -> Dict[int, int]:
        return self.table.length_histogram()

    def per_lc_prefixes(self) -> int:
        """Prefixes stored at each LC: the whole table (no reduction)."""
        return len(self.table)

    def largest_subset_share(self) -> float:
        hist = self.subset_sizes()
        total = sum(hist.values())
        return max(hist.values()) / total if total else 0.0

    def simulator(self, n_lcs: int, fe_lookup_cycles: int = 40) -> ConventionalSimulator:
        """Timing model: one parallel FE search per packet, local only."""
        return ConventionalSimulator(n_lcs, fe_lookup_cycles)
