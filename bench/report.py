"""Human-readable lines the benchmark prints above its JSON result."""

from __future__ import annotations

import statistics
from typing import Dict, List

from repro.batching import batch_enabled

from measure import Rep, simulated_metrics
from spans import SpanRecorder
from workloads import WHY, Workload


def header(w: Workload, seed: int, scale: str) -> None:
    kernels = "on" if batch_enabled() else "off"
    print(f"== {w.name} (seed {seed}, scale {scale}, array engine, batch "
          f"kernels {kernels}): {w.offered} packets offered per run, "
          f"{len(w.table)} prefixes")
    print(f"   {WHY[w.name]}")


def _value(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def end_to_end(w: Workload, reps: List[Rep], metrics: Dict[str, dict]) -> None:
    for name, m in metrics.items():
        print(f"  {name:20s} {_value(m['value']):>14s} {m['unit']:10s} {m['note']}")
    if reps:
        sim = simulated_metrics(w, reps[0].result)
        for name in ("lat_p50_cycles", "lat_p99_cycles", "lat_p999_cycles"):
            print(f"  {name:20s} {_value(sim[name]):>14s} {'cycles':10s} "
                  "simulated; printed only")


def span_table(spans: SpanRecorder, path: str) -> None:
    """Self time per span name: total, count and mean."""
    print(f"  spans: {len(spans.spans)} written to {path}")
    print(f"  {'span':30s} {'count':>6s} {'self_s':>10s} {'mean_self_s':>12s}")
    rows = sorted(spans.self_times().items(), key=lambda kv: -sum(kv[1]))
    for name, selfs in rows:
        print(f"  {name:30s} {len(selfs):6d} {sum(selfs):10.4f} "
              f"{statistics.mean(selfs):12.6f}")


def per_layer(metrics: Dict[str, dict]) -> None:
    for name, m in metrics.items():
        print(f"  {name:32s} {_value(m['value']):>14s} {m['unit']}")
