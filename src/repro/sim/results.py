"""Simulation result containers and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..traffic.packets import CYCLE_NS


@dataclass
class SimulationResult:
    """Outcome of one trace-driven run.

    ``latencies`` holds per-packet lookup times in cycles (completion −
    arrival); the paper's headline metric is their mean.
    """

    name: str
    n_lcs: int
    latencies: np.ndarray
    horizon_cycles: int
    cache_stats: List[Dict[str, float]] = field(default_factory=list)
    fe_lookups: List[int] = field(default_factory=list)
    fe_utilization: List[float] = field(default_factory=list)
    fabric_messages: int = 0
    flushes: int = 0
    extra: Dict[str, object] = field(default_factory=dict)
    #: Degraded-mode accounting, populated only on fault-injection runs
    #: (:meth:`SpalSimulator.run` with a non-empty FaultSchedule) and on
    #: bounded-queue runs; other runs keep the defaults.
    drops: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    fabric_dropped_messages: int = 0
    fault_events: int = 0
    #: Per-LC fraction of the horizon the LC was up (1.0 everywhere on
    #: fault-free runs; empty when no fault machinery was active).
    lc_availability: List[float] = field(default_factory=list)
    #: Measured packets that completed only after >= 1 failover retry,
    #: and their mean lookup latency (the failover transient cost).
    failover_packets: int = 0
    failover_mean_cycles: float = 0.0
    #: Live-churn accounting, populated only on ``run(updates=...)`` runs
    #: with a non-empty ChurnSchedule; churn-free runs keep the defaults.
    update_events_applied: int = 0
    update_patches: int = 0
    update_rebuilds: int = 0
    #: FE cycles spent servicing updates (lookups queued behind them).
    update_service_cycles: int = 0
    #: Update→invalidate fabric messages, and cache entries they dropped.
    invalidation_messages: int = 0
    invalidation_entries_dropped: int = 0
    #: Misses on addresses whose cache entry a churn invalidation dropped.
    churn_misses: int = 0
    #: The run's :meth:`repro.obs.MetricsRegistry.snapshot` — every
    #: registry instrument (counters, gauges, histogram summaries) keyed by
    #: rendered name, e.g. ``"cache.lr.evictions{kind=REM,lc=3}"``.
    #: Deterministic: only event-timeline-derived values are recorded, so
    #: traced and untraced runs carry bit-identical snapshots (wall-clock
    #: phase timings live on ``SpalSimulator.phase_seconds`` instead).
    metrics_snapshot: Dict[str, object] = field(default_factory=dict)
    #: In-run telemetry series, populated only when
    #: ``SpalConfig.sample_interval_cycles`` is set — a
    #: :class:`~repro.obs.timeseries.TimeSeries` of per-window columns
    #: (completed/dropped/shed, hit rate, backlogs, windowed latency
    #: percentiles).  ``None`` on unsampled runs; enabling sampling never
    #: changes any other field.
    timeseries: object = None

    @property
    def packets(self) -> int:
        return int(len(self.latencies))

    @property
    def mean_lookup_cycles(self) -> float:
        return float(self.latencies.mean()) if len(self.latencies) else 0.0

    @property
    def max_lookup_cycles(self) -> int:
        return int(self.latencies.max()) if len(self.latencies) else 0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) if len(self.latencies) else 0.0

    @property
    def mean_lookup_ns(self) -> float:
        return self.mean_lookup_cycles * CYCLE_NS

    @property
    def lookups_per_second_per_lc(self) -> float:
        """The paper's throughput derivation: 1 / mean lookup time."""
        mean_ns = self.mean_lookup_ns
        return 1e9 / mean_ns if mean_ns > 0 else 0.0

    @property
    def router_mpps(self) -> float:
        """Aggregate router forwarding rate in million packets/second —
        the paper's derivation (ψ / mean lookup time)."""
        return self.lookups_per_second_per_lc * self.n_lcs / 1e6

    @property
    def measured_mpps(self) -> float:
        """Throughput actually sustained over the simulated horizon
        (total packets / simulated seconds) — bounded by the offered load,
        unlike :attr:`router_mpps` which extrapolates from latency."""
        if self.horizon_cycles <= 0:
            return 0.0
        seconds = self.horizon_cycles * CYCLE_NS * 1e-9
        return self.packets / seconds / 1e6

    @property
    def overall_hit_rate(self) -> float:
        if not self.cache_stats:
            return 0.0
        lookups = sum(s.get("lookups", 0) for s in self.cache_stats)
        if not lookups:
            return 0.0
        served = sum(
            s.get("hits", 0) + s.get("waiting_hits", 0) + s.get("victim_hits", 0)
            for s in self.cache_stats
        )
        return served / lookups

    def latency_timeline(self, n_windows: int = 20) -> List[float]:
        """Mean latency per completion-order window — shows warmup decay
        and flush spikes (packets are appended in completion order)."""
        if n_windows <= 0:
            raise ValueError("n_windows must be positive")
        n = len(self.latencies)
        if n == 0:
            return []
        edges = np.linspace(0, n, n_windows + 1, dtype=np.int64)
        out = []
        for lo, hi in zip(edges, edges[1:]):
            if hi > lo:
                out.append(float(self.latencies[lo:hi].mean()))
        return out

    def top_metrics(self, n: int = 5) -> List[tuple]:
        """The ``n`` hottest entries of :attr:`metrics_snapshot`
        (counters/gauges by value, histograms by observation count),
        hottest first — the quick "where did the cycles go" view."""
        rows = []
        for name, value in self.metrics_snapshot.items():
            if isinstance(value, dict):
                heat = float(value.get("count", 0))
            else:
                heat = float(value)
            rows.append((name, heat))
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:n]

    @property
    def total_drops(self) -> int:
        """All packet drops across reasons (ingress + crash + unreachable)."""
        return sum(self.drops.values())

    @property
    def delivery_rate(self) -> float:
        """Fraction of simulated packets that completed their lookup
        (1.0 on fault-free runs)."""
        offered = self.packets + self.total_drops
        return self.packets / offered if offered else 0.0

    def summary(self) -> Dict[str, float]:
        out = {
            "packets": self.packets,
            "mean_cycles": round(self.mean_lookup_cycles, 3),
            "p99_cycles": round(self.percentile(99), 1),
            "max_cycles": self.max_lookup_cycles,
            "hit_rate": round(self.overall_hit_rate, 4),
            "router_mpps": round(self.router_mpps, 1),
            "fabric_messages": self.fabric_messages,
        }
        # Degraded-mode keys only appear when something degraded, so
        # fault-free summaries stay byte-identical to pre-fault-layer runs.
        if self.total_drops:
            out["dropped"] = self.total_drops
            out["delivery_rate"] = round(self.delivery_rate, 6)
        if self.retries:
            out["retries"] = self.retries
        if self.fabric_dropped_messages:
            out["fabric_dropped_messages"] = self.fabric_dropped_messages
        if self.failover_packets:
            out["failover_packets"] = self.failover_packets
            out["failover_mean_cycles"] = round(self.failover_mean_cycles, 3)
        # Churn keys only appear on runs that applied updates, keeping
        # churn-free summaries byte-identical to pre-churn-layer runs.
        if self.update_events_applied:
            out["updates_applied"] = self.update_events_applied
            out["update_patches"] = self.update_patches
            out["update_rebuilds"] = self.update_rebuilds
            out["update_service_cycles"] = self.update_service_cycles
            out["invalidation_messages"] = self.invalidation_messages
            out["invalidation_entries_dropped"] = (
                self.invalidation_entries_dropped
            )
            out["churn_misses"] = self.churn_misses
        return out
