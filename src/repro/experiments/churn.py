"""E17 — live route churn: update rate × invalidation policy (extension).

The paper handles routing updates by flushing every LR-cache (Sec. 3.2)
and explicitly flags frequent incremental updates as the policy's weak
spot.  This experiment quantifies the full trade-off with the live churn
pipeline: seeded bursty update streams
(:func:`repro.routing.churn.generate_churn`) are interleaved with packet
events in the cycle loop (``SpalSimulator.run(updates=...)``), applied
incrementally to the holder LCs' forwarding state, and followed by cache
invalidation under each policy:

* ``flush`` — the paper's policy: every update empties every LR-cache;
* ``selective`` — drop only the entries the updated prefix covers, at
  every LC;
* ``rem`` — prefix-matching invalidation at the holder LCs, REM-only
  elsewhere (a LOC entry under the prefix can only live at a holder).

Every run executes with ``verify=True``: each FE result — including every
lookup racing the churn — is checked against a whole-table oracle that
tracks the updates, so the reported speedups are certified stale-free.
The headline result is the flush-vs-selective crossover: selective
invalidation is strictly better from ~1k updates/s and the gap widens with
rate, while the paper's own 20–100/s regime is essentially free either way.
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

#: Update rates swept (0 = the churn-free baseline; the paper's observed
#: range tops out at 100/s, the rest is the regime its caveat concerns).
CHURN_RATES = (0, 1_000, 10_000, 50_000)
POLICIES = ("flush", "selective", "rem")


def run_churn(
    trace: str = "D_75",
    n_lcs: int = 8,
    cache_blocks: int = 4096,
    packets_per_lc: Optional[int] = None,
    rates=CHURN_RATES,
    policies=POLICIES,
) -> ExperimentResult:
    """E17: mean lookup time over update rate × invalidation policy."""
    result = ExperimentResult(
        "E17",
        f"Live churn: update rate x invalidation policy ({trace}, "
        f"psi={n_lcs}; oracle-verified lookups)",
    )
    table = get_rt2()
    n = packets_per_lc if packets_per_lc is not None else default_packets_per_lc()
    beta = scale_cache(cache_blocks)
    horizon = n * 10  # mean interarrival 10 cycles at 40 Gbps
    rows: List[Dict[str, object]] = []
    for rate in rates:
        for policy in policies:
            config = SpalConfig(n_lcs=n_lcs, cache=CacheConfig(n_blocks=beta))
            sim = SpalSimulator(table, config, verify=True)
            streams = streams_for_trace(trace, n_lcs, n)
            kwargs = {}
            if rate > 0:
                kwargs["updates"] = generate_churn(
                    table, rate_per_s=rate, horizon_cycles=horizon, seed=rate
                )
                kwargs["update_policy"] = policy
            run = sim.run(
                streams, warmup_packets=n // 10,
                name=f"{policy}@{rate}", **kwargs,
            )
            rows.append(
                {
                    "updates_per_s": rate,
                    "policy": policy if rate > 0 else "none",
                    "updates_applied": run.update_events_applied,
                    "mean_cycles": round(run.mean_lookup_cycles, 3),
                    "hit_rate": round(run.overall_hit_rate, 4),
                    "churn_misses": run.churn_misses,
                    "update_service_cycles": run.update_service_cycles,
                    "invalidation_messages": run.invalidation_messages,
                }
            )
            if rate == 0:
                break  # policies are indistinguishable with no updates
    result.rows = rows
    cols = [
        "updates_per_s", "policy", "updates_applied", "mean_cycles",
        "hit_rate", "churn_misses", "update_service_cycles",
        "invalidation_messages",
    ]
    result.rendered = render_table(
        cols, [[r[k] for k in cols] for r in rows]
    )
    return result
