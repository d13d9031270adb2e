#!/usr/bin/env python3
"""A/A spread of the untraced benchmark on one commit.

    python3 bench/aa.py [--runs K] [--seed S] [--seed-stride N]
                        [--seconds T] [--workload NAME ...]

Runs ``bench/run.py --workload W --trace 0`` K times per workload,
alternating the workload order between rounds.  Round r uses seed
``S + r * N``: the default stride 0 repeats one input, so host noise is
all that varies and every simulated metric and result digest must repeat
exactly; stride 1 varies the input as well.  For each metric it prints
the median, the quartiles and their distance as a share of the median
(the spread), and flags a spread above the metric's bound in
BENCHMARK.json.  Exits nonzero if any spread exceeds its bound (setup_s
excepted, as its bound covers medians only) or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Metrics whose value the simulator's cycle clock decides.
SIMULATED = ("mean_lookup_cycles", "lat_tail99_cycles", "lat_tail999_cycles",
             "hit_rate", "delivery_rate")


def run_once(workload: str, seed: int, seconds: float):
    """(metrics, digests) of one benchmark run; raises on a failed run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    digests = [ln.split()[-1] for ln in lines if ln.startswith("digest ")]
    return {k: v["value"] for k, v in result["metrics"].items()}, digests


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seed-stride", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", nargs="*", choices=names, default=names)
    args = ap.parse_args(argv)
    if args.runs < 3:
        ap.error("--runs must be at least 3")

    values = defaultdict(lambda: defaultdict(list))
    digests = defaultdict(set)
    for r in range(args.runs):
        order = args.workload if r % 2 == 0 else args.workload[::-1]
        for w in order:
            seed = args.seed + r * args.seed_stride
            t0 = time.perf_counter()
            metrics, ds = run_once(w, seed, args.seconds)
            print(f"round {r} {w} seed {seed}: pkts_per_s "
                  f"{metrics['pkts_per_s']:.0f}, run took "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
            for k, v in metrics.items():
                values[w][k].append(v)
            digests[w].add(tuple(ds))

    bad = 0
    print(f"\n{'workload':14s} {'metric':20s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in args.workload:
        for k, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > bounds[k] and k != "setup_s":
                flag, bad = "OVER BOUND", bad + 1
            elif spread > bounds[k] / 3:
                flag = "above bound/3"
            if args.seed_stride == 0 and k in SIMULATED and len(set(vs)) > 1:
                flag, bad = "NOT EXACT", bad + 1
            print(f"{w:14s} {k:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bounds[k]:6.0%} {flag}")
        if args.seed_stride == 0 and len(digests[w]) > 1:
            print(f"{w}: result digests differ between runs")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
