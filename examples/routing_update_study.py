#!/usr/bin/env python
"""Routing-update study: living with BGP churn.

The paper flushes every LR-cache after each table update and notes this
"will not work effectively if the routing table is updated incrementally
and very frequently".  This example quantifies that: it drives a SPAL
router through bursty, churn-skewed update streams at increasing rates
(``generate_churn``), applied to the forwarding tables mid-run, comparing
the paper's flush policy against selective invalidation (dropping only the
entries the updated prefix covers).

Run:  python examples/routing_update_study.py
"""

from repro.analysis import render_table
from repro.core import CacheConfig, SpalConfig
from repro.routing import generate_churn, make_rt2
from repro.sim import SpalSimulator
from repro.traffic import FlowPopulation, generate_router_streams, trace_spec

N_LCS = 8
PACKETS_PER_LC = 8_000


def main() -> None:
    table = make_rt2(size=15_000)
    spec = trace_spec("D_75").scaled(16 * PACKETS_PER_LC)
    population = FlowPopulation(spec, table)
    horizon = PACKETS_PER_LC * 10  # ~mean interarrival at 40 Gbps

    rows = []
    for rate in (100, 5_000, 25_000, 50_000):
        updates = generate_churn(
            table, rate_per_s=rate, horizon_cycles=horizon, seed=rate
        )
        for policy in ("flush", "selective"):
            sim = SpalSimulator(
                table,
                SpalConfig(n_lcs=N_LCS, cache=CacheConfig(n_blocks=1024)),
            )
            streams = generate_router_streams(population, N_LCS, PACKETS_PER_LC)
            run = sim.run(
                streams,
                warmup_packets=PACKETS_PER_LC // 10,
                updates=updates,
                update_policy=policy,
            )
            rows.append(
                [
                    rate,
                    policy,
                    run.update_events_applied,
                    f"{run.mean_lookup_cycles:.2f}",
                    f"{run.overall_hit_rate:.3f}",
                ]
            )
    print(render_table(
        ["updates/s", "policy", "events", "mean cycles", "hit rate"],
        rows,
        title=f"SPAL under BGP churn ({N_LCS} LCs, 40 Gbps, 1K-block caches)",
    ))
    print(
        "\nReading: at the paper's real-world rates (~20-100 updates/s) the"
        "\nflush policy costs nothing.  In the 'very frequent' regime the"
        "\npaper warns about, flushing collapses the hit rate while selective"
        "\ninvalidation — possible because a route change can only affect"
        "\naddresses its prefix covers — keeps SPAL at full speed."
    )


if __name__ == "__main__":
    main()
