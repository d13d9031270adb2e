#!/usr/bin/env python
"""Profile the simulator's hot path (the guides' rule: measure before
optimizing).

The headline section compares the two event-loop engines on the same
workload — the scalar per-packet loop versus the array-time engine of
:mod:`repro.sim.array_engine` — over the paper's best-caching trace
(D_75, WorldCup98-like) at ψ=8 with the nominal 4K-block cache.  Both
engines are timed cleanly (no profiler attached) over their schedule+run
phases, which is exactly the code the array engine replaces; the shared
precompute (trie builds, stream homing) is reported separately.  The two
runs must agree event-for-event, and the script asserts bit-identical
latencies before printing the ratio.

Also included: the per-phase wall-clock breakdown of ``run()`` beside the
construction steps (minimise, partition, matcher builds; raw and with
``minimize="full"``, the latter with the minimiser's seconds per pass), a
cProfile listing of the *scalar* engine (the baseline being optimized
away), and the batch-vs-scalar lookup throughput comparison for every
vectorized trie kernel (via :class:`repro.obs.KernelProfile`).

    python scripts/profile_sim.py [packets_per_lc] [--profile]
        [--table-size N] [--no-manifest] [--runs-dir DIR]

``--table-size`` rebuilds the workload table at N synthetic prefixes
(default 20,000) — the full-table profile (``make_rt2`` scales the RT_2
length mix), so the packed node pools, the streaming path and the
construction steps can be profiled at 200k–1M routes.  Peak RSS
(``resource.getrusage``) is reported at the end of every run.

Unless ``--no-manifest`` is given, every run archives a
:class:`repro.obs.RunManifest` (config digest, git SHA, events/s,
percentiles, peak RSS) under ``--runs-dir`` (default ``runs/``) for
``scripts/bench_history.py`` / ``scripts/obs_diff.py``.
"""

from __future__ import annotations

import cProfile
import pstats
import resource
import sys
import time
from typing import Tuple

import numpy as np

from repro.core import CacheConfig, SpalConfig
from repro.obs import KernelProfile, MetricsRegistry
from repro.routing import make_rt2
from repro.sim import SpalSimulator
from repro.traffic import FlowPopulation, generate_router_streams, trace_spec
from repro.tries import (
    BinaryTrie,
    HashReferenceMatcher,
    LCTrie,
    LuleaTrie,
    MultibitTrie,
)

KERNELS = {
    "binary": BinaryTrie,
    "lc": LCTrie,
    "lulea": LuleaTrie,
    "multibit": MultibitTrie,
    "ref": HashReferenceMatcher,
}

#: The headline engine-comparison workload: ψ=8 over D_75 (the paper's
#: best-caching trace) with the nominal 4K-block cache.  Kept in one
#: place so ``benchmarks/test_bench_headline.py`` gates the same setup.
HEADLINE = dict(trace="D_75", n_lcs=8, cache_blocks=4096)


def headline_workload(packets_per_lc: int, table=None):
    """(table, config, streams) for the headline engine comparison."""
    if table is None:
        table = make_rt2(size=20_000)
    spec = trace_spec(HEADLINE["trace"]).scaled(
        HEADLINE["n_lcs"] * packets_per_lc
    )
    population = FlowPopulation(spec, table)
    streams = generate_router_streams(
        population, HEADLINE["n_lcs"], packets_per_lc
    )
    config = SpalConfig(
        n_lcs=HEADLINE["n_lcs"],
        cache=CacheConfig(n_blocks=HEADLINE["cache_blocks"]),
    )
    return table, config, streams


def run_engine(table, config, streams, engine: str):
    """One clean (unprofiled) run; returns (result, sim, loop_seconds).

    ``loop_seconds`` covers the schedule+run phases — the event loop the
    array engine rewrites; precompute is shared and identical for both.
    """
    sim = SpalSimulator(table, config=config)
    result = sim.run([np.array(s, copy=True) for s in streams],
                     engine=engine)
    loop = sim.phase_seconds["schedule"] + sim.phase_seconds["run"]
    return result, sim, loop


def compare_engines(packets_per_lc: int, table=None) -> dict:
    """Time scalar vs array on the headline workload and check identity.

    Returns ``{"events", "scalar_s", "array_s", "ratio", ...}`` so the
    headline benchmark can gate on the same numbers this script prints.
    """
    table, config, streams = headline_workload(packets_per_lc, table)
    r_s, sim_s, loop_s = run_engine(table, config, streams, "scalar")
    r_a, sim_a, loop_a = run_engine(table, config, streams, "array")
    if sim_s.queue.processed != sim_a.queue.processed:
        raise AssertionError(
            f"engines processed different event counts: "
            f"{sim_s.queue.processed} vs {sim_a.queue.processed}"
        )
    if not np.array_equal(r_s.latencies, r_a.latencies):
        raise AssertionError("engines disagree on latencies")
    events = sim_a.queue.processed
    hits = sum(
        c.stats.hits + c.stats.waiting_hits + c.stats.victim_hits
        for c in sim_a.caches
    )
    lookups = sum(c.stats.lookups for c in sim_a.caches)
    return {
        "events": events,
        "config": config,
        "table_size": len(table),
        "packets": r_a.packets,
        "hit_rate": hits / lookups if lookups else 0.0,
        # Tail-latency SLO snapshot (identical across engines by the
        # assertion above; reported so profiling runs watch the tail,
        # not just the mean, when a change shifts the event schedule).
        "p50": r_a.percentile(50),
        "p99": r_a.percentile(99),
        "p999": r_a.percentile(99.9),
        "scalar_s": loop_s,
        "array_s": loop_a,
        "scalar_eps": events / loop_s,
        "array_eps": events / loop_a,
        "ratio": loop_s / loop_a,
        "phases_scalar": dict(sim_s.phase_seconds),
        "phases_array": dict(sim_a.phase_seconds),
        "construct_scalar": dict(sim_s.construct_seconds),
        "construct_array": dict(sim_a.construct_seconds),
    }


def minimised_construction(table, n_lcs: int) -> Tuple[dict, dict]:
    """Construction seconds per step for a ``minimize="full"`` simulator
    over ``table`` (built, not run), and the minimiser's seconds per
    pass."""
    sim = SpalSimulator(table, SpalConfig(n_lcs=n_lcs, minimize="full"))
    return dict(sim.construct_seconds), dict(sim.minimize_stats.pass_seconds)


def _ms(seconds: dict) -> str:
    return "  ".join(f"{k} {v * 1e3:.0f}ms" for k, v in seconds.items())


def lookup_throughput(
    table, registry: MetricsRegistry, n_addrs: int = 200_000
) -> None:
    """Batch vs scalar lookup throughput (Maddrs/s) for each kernel,
    measured through the KernelProfile hooks and published to ``registry``
    (``trie.kernel.*{kernel=...}``)."""
    rng = np.random.default_rng(0)
    addrs = rng.integers(0, 1 << 32, size=n_addrs, dtype=np.uint64)
    scalar_sample = addrs[: max(1, n_addrs // 10)]
    print(f"lookup throughput over {n_addrs} random addresses:")
    for name, factory in KERNELS.items():
        matcher = factory(table)
        profile = KernelProfile(name)
        matcher.profiler = profile
        matcher.lookup_batch(addrs[:1])  # compile outside the big batch
        matcher.lookup_batch(addrs)
        lookup = matcher.lookup
        start = time.perf_counter()
        for a in scalar_sample:
            lookup(int(a))
        profile.record_scalar(len(scalar_sample), time.perf_counter() - start)
        matcher.profiler = None
        profile.observe_into(registry)
        scalar_rate = (
            profile.scalar_lookups / profile.scalar_seconds / 1e6
            if profile.scalar_seconds
            else 0.0
        )
        if profile.traverse_seconds:
            batch_rate = profile.batch_lookups / profile.traverse_seconds / 1e6
            ratio = batch_rate / scalar_rate if scalar_rate else float("inf")
            print(f"  {name:9s} batch {batch_rate:7.1f} Maddrs/s   "
                  f"scalar {scalar_rate:7.2f} Maddrs/s   ({ratio:5.1f}x)   "
                  f"compile {profile.compile_seconds * 1e3:6.1f}ms")
        else:
            print(f"  {name:9s} batch       - (scalar fallback)   "
                  f"scalar {scalar_rate:7.2f} Maddrs/s")
    print()


def profile_scalar(packets_per_lc: int, table) -> None:
    """cProfile the scalar engine — the baseline the array engine
    replaces — and print the top functions by cumulative time."""
    table, config, streams = headline_workload(packets_per_lc, table)
    sim = SpalSimulator(table, config=config)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(streams, engine="scalar")
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(18)


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_run_manifest(stats: dict, runs_dir: str) -> None:
    """Archive the headline comparison as a run manifest."""
    from datetime import datetime, timezone

    from repro.obs.runstore import (
        RunManifest,
        config_digest,
        git_sha,
        write_manifest,
    )

    manifest = RunManifest(
        name="headline",
        engine="array",
        table_size=stats["table_size"],
        packets=stats["packets"],
        events=stats["events"],
        events_per_s=stats["array_eps"],
        p50=stats["p50"],
        p99=stats["p99"],
        p999=stats["p999"],
        peak_rss_mib=peak_rss_mib(),
        config_digest=config_digest(stats["config"]),
        git_sha=git_sha(),
        created=datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ"),
        metrics={
            "hit_rate": round(stats["hit_rate"], 6),
            "scalar_eps": round(stats["scalar_eps"], 1),
            "array_speedup": round(stats["ratio"], 3),
        },
    )
    path = write_manifest(manifest, runs_dir)
    print(f"manifest: {path}")


def main() -> None:
    argv = sys.argv[1:]
    table_size = 20_000
    if "--table-size" in argv:
        i = argv.index("--table-size")
        table_size = int(argv[i + 1])
        del argv[i:i + 2]
    runs_dir = "runs"
    if "--runs-dir" in argv:
        i = argv.index("--runs-dir")
        runs_dir = argv[i + 1]
        del argv[i:i + 2]
    args = [a for a in argv if not a.startswith("--")]
    packets = int(args[0]) if args else 20_000
    registry = MetricsRegistry()
    t0 = time.perf_counter()
    table = make_rt2(size=table_size)
    print(f"table: {len(table)} prefixes "
          f"(built in {time.perf_counter() - t0:.2f}s)")
    lookup_throughput(table, registry)

    print(f"engine comparison: {HEADLINE['trace']}, ψ={HEADLINE['n_lcs']}, "
          f"β={HEADLINE['cache_blocks']} blocks, {packets} packets/LC")
    stats = compare_engines(packets, table)
    for eng in ("scalar", "array"):
        loop = stats[f"{eng}_s"]
        eps = stats[f"{eng}_eps"]
        print(f"  {eng:6s} loop {loop:6.2f}s  {eps / 1000:7.0f}k events/s   "
              f"{_ms(stats[f'phases_{eng}'])}   "
              f"| construct {_ms(stats[f'construct_{eng}'])}")
    construct, passes = minimised_construction(table, HEADLINE["n_lcs"])
    print(f"  minimised construct {_ms(construct)}   "
          f"| minimise passes {_ms(passes)}")
    print(f"  {stats['events']} events, cache hit rate "
          f"{stats['hit_rate']:.4f}, array speedup "
          f"{stats['ratio']:.2f}x (bit-identical results)")
    print(f"  lookup latency p50 {stats['p50']:.1f}  p99 {stats['p99']:.1f}  "
          f"p99.9 {stats['p999']:.1f} cycles (both engines)")
    print()

    if "--profile" in sys.argv[1:]:
        profile_scalar(packets, table)

    print(f"peak RSS: {peak_rss_mib():.0f} MiB")
    if "--no-manifest" not in sys.argv[1:]:
        write_run_manifest(stats, runs_dir)


if __name__ == "__main__":
    main()
