"""E10 — routing-update sensitivity (extension of Sec. 3.2 / 5.1).

The paper assumes every LR-cache is flushed after each routing-table update
and sizes its simulation window (15–60 ms) to the observed update interval
(20 updates/s on average, up to 100/s).  It notes the flushing policy "will
not work effectively if the routing table is updated incrementally and very
frequently" but never quantifies the cost.  This experiment does: mean
lookup time as a function of update rate, at 40 Gbps and ψ = 8.

Both runners drive the live churn pipeline
(:func:`repro.routing.churn.generate_churn` +
``SpalSimulator.run(updates=...)``): every swept rate is a real stream of
timestamped announce/withdraw events applied to the forwarding state
mid-run, so E10's numbers and E17's (:mod:`repro.experiments.churn`) share
one mechanism — the only difference is the axis each sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.tables import render_table
from ..core.config import CacheConfig, SpalConfig
from ..routing.churn import generate_churn
from ..sim.spal_sim import SpalSimulator
from .common import (
    ExperimentResult,
    default_packets_per_lc,
    get_rt2,
    scale_cache,
    streams_for_trace,
)

#: Updates per second swept (paper: 20 average, 100 peak; beyond that is
#: the regime the paper's flushing policy is said to break down in).
UPDATE_RATES = (0, 20, 100, 1_000, 10_000, 50_000)


def _churn_run(
    table,
    trace: str,
    n_lcs: int,
    beta: int,
    n: int,
    rate: int,
    policy: str,
    name: str,
):
    """One churn-driven simulation at ``rate`` updates/s under ``policy``.

    The horizon estimate (mean interarrival 10 cycles at 40 Gbps) sizes
    the churn window; rate 0 runs the plain churn-free simulator.
    """
    config = SpalConfig(n_lcs=n_lcs, cache=CacheConfig(n_blocks=beta))
    sim = SpalSimulator(table, config)
    streams = streams_for_trace(trace, n_lcs, n)
    horizon = n * 10
    kwargs = {}
    if rate > 0:
        kwargs["updates"] = generate_churn(
            table, rate_per_s=rate, horizon_cycles=horizon, seed=rate
        )
        kwargs["update_policy"] = policy
    return sim.run(
        streams, warmup_packets=n // 10, name=name, **kwargs
    )


def run_update_sensitivity(
    trace: str = "D_75",
    n_lcs: int = 8,
    cache_blocks: int = 4096,
    packets_per_lc: Optional[int] = None,
) -> ExperimentResult:
    """E10: mean lookup time versus routing-update rate (flush policy)."""
    result = ExperimentResult(
        "E10",
        f"Mean lookup time vs routing-update rate ({trace}, psi={n_lcs}; "
        "flush-on-update per paper Sec. 3.2)",
    )
    table = get_rt2()
    n = packets_per_lc if packets_per_lc is not None else default_packets_per_lc()
    beta = scale_cache(cache_blocks)
    rows: List[Dict[str, object]] = []
    for rate in UPDATE_RATES:
        run = _churn_run(
            table, trace, n_lcs, beta, n, rate, "flush",
            name=f"updates={rate}/s",
        )
        rows.append(
            {
                "updates_per_s": rate,
                "updates_in_window": run.update_events_applied,
                "mean_cycles": round(run.mean_lookup_cycles, 3),
                "hit_rate": round(run.overall_hit_rate, 4),
            }
        )
    result.rows = rows
    result.rendered = render_table(
        ["updates_per_s", "updates_in_window", "mean_cycles", "hit_rate"],
        [[r[k] for k in ("updates_per_s", "updates_in_window", "mean_cycles",
                         "hit_rate")] for r in rows],
    )
    return result


def run_invalidation_comparison(
    trace: str = "D_75",
    n_lcs: int = 8,
    cache_blocks: int = 4096,
    packets_per_lc: Optional[int] = None,
) -> ExperimentResult:
    """E10b — full flush (paper) vs selective invalidation (extension).

    At each update rate, the flush policy drops every LR-cache entry while
    selective invalidation drops only the entries the updated prefix
    covers (the same churn-skewed update stream either way).  Selective
    invalidation keeps the hit rate — and therefore SPAL's speedup —
    roughly flat into the "very frequent update" regime the paper's
    Sec. 3.2 caveat concerns; E17 extends this two-policy slice with the
    per-prefix REM variant and the update-rate × policy surface.
    """
    result = ExperimentResult(
        "E10b",
        f"Flush vs selective invalidation under update load ({trace}, psi={n_lcs})",
    )
    table = get_rt2()
    n = packets_per_lc if packets_per_lc is not None else default_packets_per_lc()
    beta = scale_cache(cache_blocks)
    rows: List[Dict[str, object]] = []
    for rate in (1_000, 10_000, 50_000):
        for policy in ("flush", "selective"):
            run = _churn_run(
                table, trace, n_lcs, beta, n, rate, policy,
                name=f"{policy}@{rate}",
            )
            rows.append(
                {
                    "updates_per_s": rate,
                    "policy": policy,
                    "mean_cycles": round(run.mean_lookup_cycles, 3),
                    "hit_rate": round(run.overall_hit_rate, 4),
                }
            )
    result.rows = rows
    result.rendered = render_table(
        ["updates_per_s", "policy", "mean_cycles", "hit_rate"],
        [[r[k] for k in ("updates_per_s", "policy", "mean_cycles",
                         "hit_rate")] for r in rows],
    )
    return result
