#!/usr/bin/env python3
"""The repository benchmark: four SPAL workloads, end to end and per layer.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T]
                         [--trace [0|1]] [--out DIR] [--scale full|smoke]
                         [--expect-digest HEX]

Without ``--workload`` every workload runs, one child process each, one
after another.  Each child first runs the reduced-scale scalar-vs-array
differential, then repeats construct + run for about ``--seconds`` and
prints every end-to-end metric with its unit.  ``--trace 1`` instead
alternates untraced and traced reps, calls each layer's public entry
point on the workload's inputs, writes the spans as JSONL under ``--out``
and prints every per-layer metric.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is nonzero when a check fails or a child does not finish.

The children run with ``REPRO_BATCH``, ``REPRO_WORKERS``, ``REPRO_PACKETS``
and ``REPRO_PAPER_SCALE`` cleared and ``OMP_NUM_THREADS=1``, so the calling
shell cannot change what is measured.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # Measure the checkout's own library, never an installed copy.
    sys.exit(f"error: {SRC}/repro not found; run from a repository checkout")
sys.path.insert(0, SRC)

import report  # noqa: E402  (these need the src path above)
import workloads  # noqa: E402
from measure import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    Checks,
    end_to_end,
    gate,
    per_layer,
    simulate,
    timed_reps,
)
from spans import SpanRecorder  # noqa: E402

#: A child that has not finished by then is killed and counts as failed.
CHILD_TIMEOUT_S = 170

#: Environment variables that would change what a child measures.
CLEARED_ENV = ("REPRO_BATCH", "REPRO_WORKERS", "REPRO_PACKETS", "REPRO_PAPER_SCALE")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES,
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to every generator seed (default 0)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long each workload measures (default 20)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: the traced per-layer run")
    ap.add_argument("--out", default=".bench_out",
                    help="directory for span files (default .bench_out)")
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the self-test")
    ap.add_argument("--expect-digest",
                    help="fail unless the timed result digest equals this")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def child_command(args: argparse.Namespace, name: str) -> list:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", args.out, "--scale", args.scale,
    ]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    return cmd


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(args: argparse.Namespace, name: str):
    """Run one workload in its own process; echo its report and return
    its result object (None if it crashed or timed out)."""
    try:
        proc = subprocess.run(
            child_command(args, name), env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print(f"error: {name} did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            pass
    for line in lines:
        print(line)
    if proc.returncode != 0 and result is None:
        print(f"error: {name} exited with code {proc.returncode}",
              file=sys.stderr)
    return result


def parent(args: argparse.Namespace) -> int:
    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running child instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = [args.workload] if args.workload else workloads.NAMES
    results = {name: run_child(args, name) for name in names}
    if any(r is None for r in results.values()):
        return 1
    if args.workload:
        combined = results[args.workload]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def child(args: argparse.Namespace) -> int:
    name, seed = args.workload, args.seed
    checks = Checks()
    gate_digest = gate(name, seed, "gate" if args.scale == "full" else "smoke",
                       checks)
    w = workloads.build(name, seed, args.scale)
    report.header(w, seed, args.scale)
    if args.trace:
        spans = SpanRecorder()
        values = per_layer(w, args.seconds, checks, spans)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{name}-seed{seed}.spans.jsonl")
        spans.write_jsonl(path)
        report.span_table(spans, path)
        metrics = {
            m: {"value": values[m], "unit": PER_LAYER[m][0]} for m in values
        }
        report.per_layer(metrics)
    else:
        reps = timed_reps(args.seconds, checks, lambda i: simulate(w), "timed")
        metrics = end_to_end(w, reps) if reps else {}
        report.end_to_end(w, reps, metrics)
        timed_digest = reps[0].digest if reps else None
        print(f"digest {name} gate  {gate_digest}")
        print(f"digest {name} timed {timed_digest}")
        if args.expect_digest and timed_digest != args.expect_digest:
            checks.fail("expected_digest",
                        f"{timed_digest} != {args.expect_digest}")
        metrics = {
            m: {"value": metrics[m]["value"], "unit": END_TO_END[m][0]}
            for m in metrics
        }
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0 if checks.correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
