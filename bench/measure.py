"""Timed simulator runs, correctness checks and the metrics built from them.

The benchmark measures each layer from outside: it times calls into
public names of ``repro`` and reads the counters a ``SimulationResult``
already carries.  Nothing here reaches into the simulator's internals.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import partition_table
from repro.errors import ReproError
from repro.obs import TimeSeries
from repro.routing import ChurnSchedule, minimize_table
from repro.sim import PacketStream, SimulationResult, SpalSimulator
from repro.tries import HashReferenceMatcher

from spans import SpanRecorder
from workloads import Workload, build

#: name -> (unit, better) of every end-to-end metric, printed by the
#: untraced run.  Host metrics summarise the timed reps (see
#: :func:`end_to_end`); simulated metrics come from the deterministic
#: result every rep reproduces.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "pkts_per_s": ("packets/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "mean_lookup_cycles": ("cycles", "lower"),
    "lat_tail99_cycles": ("cycles", "lower"),
    "lat_tail999_cycles": ("cycles", "lower"),
    "hit_rate": ("fraction", "higher"),
    "delivery_rate": ("fraction", "higher"),
}

#: name -> (unit, better) of every per-layer metric, printed by the
#: traced run.  Counts are summed over LCs unless the name says max.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "routing.minimize_s": ("s", "lower"),
    "routing.minimize_ratio": ("ratio", "higher"),
    "routing.translate_s": ("s", "lower"),
    "routing.translated_ops": ("count", "lower"),
    "partition.build_s": ("s", "lower"),
    "partition.routes_max_over_mean": ("ratio", "lower"),
    "partition.home_batch_maddrs_s": ("Maddrs/s", "higher"),
    "tries.ref.build_s": ("s", "lower"),
    "tries.ref.batch_maddrs_s": ("Maddrs/s", "higher"),
    "traffic.chunk_gen_s": ("s", "lower"),
    "sim.arm_s": ("s", "lower"),
    "sim.precompute_s": ("s", "lower"),
    "sim.schedule_s": ("s", "lower"),
    "sim.loop_s": ("s", "lower"),
    "sim.collect_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("events/s", "higher"),
    "sim.host_ns_per_event": ("ns", "lower"),
    "sim.horizon_cycles": ("cycles", "lower"),
    "cache.lookups": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.waiting_hits": ("count", "higher"),
    "cache.victim_hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.useful_ratio": ("fraction", "higher"),
    "fe.lookups": ("count", "lower"),
    "fe.utilization_max": ("fraction", "lower"),
    "fe.backlog_max": ("lookups", "lower"),
    "fabric.msgs_sent": ("count", "lower"),
    "fabric.msgs_dropped": ("count", "lower"),
    "fabric.rem_rtt_mean_cycles": ("cycles", "lower"),
    "sim.retries": ("count", "lower"),
    "drops.queue_full": ("count", "lower"),
    "drops.shed": ("count", "lower"),
    "updates.applied": ("count", "lower"),
    "updates.service_cycles": ("cycles", "lower"),
    "updates.invalidation_msgs": ("count", "lower"),
    "updates.entries_dropped": ("count", "lower"),
    "updates.churn_misses": ("count", "lower"),
    "updates.host_ms_each": ("ms", "lower"),
    "obs.windows": ("count", "lower"),
    "obs.monitor_events": ("count", "lower"),
    "obs.sampler_overhead_pct": ("%", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
}

#: Timed reps per run never fall below this, however long a rep takes.
MIN_REPS = 3


# -- result digest ------------------------------------------------------------

def _feed(h, value) -> None:
    """Hash ``value`` canonically: numbers by value (an engine may hold an
    int where another holds the equal float), containers in order, dicts
    by sorted key."""
    if isinstance(value, np.ndarray):
        h.update(b"a" + value.dtype.str.encode() + repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, TimeSeries):
        _feed(h, {"interval": value.interval, "n_lcs": value.n_lcs,
                  "columns": value.columns})
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value, key=str):
            _feed(h, str(key))
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, str):
        h.update(b"s" + struct.pack("<q", len(value)) + value.encode())
    elif value is None:
        h.update(b"n")
    else:
        number = value.item() if isinstance(value, np.generic) else value
        if float(number).is_integer() and abs(number) < 2**53:
            h.update(b"i" + str(int(number)).encode() + b";")
        else:
            h.update(b"f" + float(number).hex().encode() + b";")


def result_digest(result: SimulationResult, core: bool = False) -> str:
    """sha256 over every ``SimulationResult`` field.  ``core`` leaves out
    ``timeseries``, whose window attribution differs between engines and
    which sampling adds without changing any other field."""
    h = hashlib.sha256()
    for f in dataclasses.fields(result):
        if core and f.name == "timeseries":
            continue
        _feed(h, f.name)
        _feed(h, getattr(result, f.name))
    return h.hexdigest()


# -- one simulator run --------------------------------------------------------

@dataclass
class Rep:
    """What one construct + run leaves behind (the simulator is dropped)."""

    setup_s: float
    run_s: float
    phases: Dict[str, float]
    events: int
    monitor_events: int
    digest: str
    core_digest: str
    result: SimulationResult


def simulate(
    w: Workload,
    engine: str = "array",
    verify: bool = False,
    spans: Optional[SpanRecorder] = None,
    trace: str = "",
) -> Rep:
    """Construct a simulator and run it once, timing both.  Each timed
    section starts after a ``gc.collect()`` so one rep's garbage is not
    collected on the next rep's clock."""

    def span(name: str):
        return spans.span(name, trace) if spans is not None else nullcontext()

    kwargs = w.run_kwargs(engine)
    gc.collect()
    with span("sim.construct"):
        t0 = time.perf_counter()
        sim = SpalSimulator(w.table, w.config, verify=verify)
        setup_s = time.perf_counter() - t0
    gc.collect()
    with span("sim.run") as sp:
        t0 = time.perf_counter()
        result = sim.run(**kwargs)
        run_s = time.perf_counter() - t0
    if sp is not None:
        sp.attrs.update(sim.phase_seconds)
    monitor = kwargs["monitor"]
    return Rep(
        setup_s=setup_s,
        run_s=run_s,
        phases=dict(sim.phase_seconds),
        events=sim.queue.processed,
        monitor_events=len(monitor.events) if monitor is not None else 0,
        digest=result_digest(result),
        core_digest=result_digest(result, core=True),
        result=result,
    )


class Checks:
    """Counts attempted operations (simulator runs) and names each
    failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, label: str, fn: Callable[[], Rep]) -> Optional[Rep]:
        """One attempted run; a ``repro`` error (the run-end conservation
        audit, the ``verify=True`` oracle) fails the check ``label``."""
        self.attempted += 1
        try:
            return fn()
        except ReproError as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, label: str, detail: str) -> None:
        self.failures.append(f"{label}: {detail}")

    @property
    def correct(self) -> bool:
        return not self.failures


def gate(name: str, seed: int, scale: str, checks: Checks) -> Optional[str]:
    """Reduced-scale differential: the scalar reference loop and the array
    engine, both with the ``verify=True`` oracle, must produce the same
    core digest.  Returns that digest."""
    w = build(name, seed, scale)
    digests = {}
    for engine in ("scalar", "array"):
        rep = checks.run(
            f"gate.{engine}",
            lambda: simulate(w, engine=engine, verify=True),
        )
        if rep is not None:
            digests[engine] = rep.core_digest
    if len(digests) == 2 and digests["scalar"] != digests["array"]:
        checks.fail("gate.scalar_vs_array",
                    f"{digests['scalar'][:16]} != {digests['array'][:16]}")
    return digests.get("array")


def timed_reps(
    seconds: float,
    checks: Checks,
    rep: Callable[[int], Rep],
    label: str,
) -> List[Rep]:
    """Repeat ``rep(i)`` for about ``seconds``: another rep starts only if
    the median rep so far still fits, and at least :data:`MIN_REPS` run.
    Every rep must reproduce the first one's digest."""
    reps: List[Rep] = []
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        r = checks.run(f"{label}.rep{len(reps)}", lambda: rep(len(reps)))
        if r is None:
            break
        if reps and r.digest != reps[0].digest:
            checks.fail(f"{label}.digest",
                        f"rep {len(reps)} gave {r.digest[:16]}, "
                        f"rep 0 gave {reps[0].digest[:16]}")
        if reps:
            r.result = reps[0].result  # equal by digest; keep one copy
        reps.append(r)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and (
            elapsed + statistics.median(durations) > seconds
        ):
            break
    return reps


def peak_rss_mib() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics ------------------------------------------------------------------

def simulated_metrics(
    w: Workload, result: SimulationResult
) -> Dict[str, float]:
    """The simulated (cycle-clock) metrics; identical on every rep.

    The tail is bounded by its mean beyond p99 and p999 (the latency of
    the slowest 1 % and 0.1 % of measured packets): latencies are whole
    cycles, so the percentiles themselves sit on plateaus that no input
    change moves, while the tail means follow every packet in the tail.
    """
    lat = np.sort(result.latencies)
    n = len(lat)
    p50, p99, p999 = np.percentile(lat, [50.0, 99.0, 99.9])
    return {
        "mean_lookup_cycles": result.mean_lookup_cycles,
        "lat_tail99_cycles": float(lat[-max(1, n // 100):].mean()),
        "lat_tail999_cycles": float(lat[-max(1, n // 1000):].mean()),
        "lat_p50_cycles": float(p50),
        "lat_p99_cycles": float(p99),
        "lat_p999_cycles": float(p999),
        "measured_packets": n,
        "hit_rate": result.overall_hit_rate,
        "delivery_rate": (w.offered - result.total_drops) / w.offered,
    }


def end_to_end(w: Workload, reps: List[Rep]) -> Dict[str, dict]:
    """Every end-to-end metric as ``{"value", "unit", "note"}``.

    ``pkts_per_s`` is the run's fastest rep: the host is shared, and
    contention from other tenants only ever adds time, so the best rep
    is the steadiest reading of what the code costs (the median is
    printed beside it).  ``setup_s`` is the median construction."""
    pps = sorted(w.offered / r.run_s for r in reps)
    setup = sorted(r.setup_s for r in reps)
    n = len(reps)
    host = {
        "pkts_per_s": (
            pps[-1], f"best of {n} reps; median {statistics.median(pps):.6g}"
        ),
        "setup_s": (
            statistics.median(setup),
            f"median of {n}; min {setup[0]:.6g}, max {setup[-1]:.6g}",
        ),
        "peak_rss_mib": (peak_rss_mib(), "ru_maxrss of this workload's process"),
    }
    sim = simulated_metrics(w, reps[0].result)
    note = f"simulated; {sim['measured_packets']} measured packets"
    out = {}
    for name, (unit, _) in END_TO_END.items():
        value, why = host.get(name, (sim.get(name), note))
        out[name] = {"value": value, "unit": unit, "note": why}
    return out


def layer_counts(rep: Rep) -> Dict[str, float]:
    """Per-layer counts and ratios read off one run's result."""
    r = rep.result
    stats = [s for s in r.cache_stats if s]

    def total(key: str) -> int:
        return int(sum(s.get(key, 0) for s in stats))

    lookups = total("lookups")
    useful = total("hits") + total("waiting_hits") + total("victim_hits")
    rtt = r.metrics_snapshot.get("sim.rem.round_trip_cycles") or {}
    return {
        "sim.events": rep.events,
        "sim.horizon_cycles": r.horizon_cycles,
        "cache.lookups": lookups,
        "cache.hits": total("hits"),
        "cache.waiting_hits": total("waiting_hits"),
        "cache.victim_hits": total("victim_hits"),
        "cache.misses": total("misses"),
        "cache.evictions": total("evictions"),
        "cache.useful_ratio": useful / lookups if lookups else 0.0,
        "fe.lookups": int(sum(r.fe_lookups)),
        "fe.utilization_max": max(r.fe_utilization),
        "fe.backlog_max": max(r.extra["max_fe_backlog"]),
        "fabric.msgs_sent": r.fabric_messages,
        "fabric.msgs_dropped": r.fabric_dropped_messages,
        "fabric.rem_rtt_mean_cycles": float(rtt.get("mean", 0.0)),
        "sim.retries": r.retries,
        "drops.queue_full": r.drops.get("queue_full", 0),
        "drops.shed": r.drops.get("shed", 0),
        "updates.applied": r.update_events_applied,
        "updates.service_cycles": r.update_service_cycles,
        "updates.invalidation_msgs": r.invalidation_messages,
        "updates.entries_dropped": r.invalidation_entries_dropped,
        "updates.churn_misses": r.churn_misses,
        "obs.windows": len(r.timeseries) if r.timeseries is not None else 0,
        "obs.monitor_events": rep.monitor_events,
    }


def layer_times(reps: List[Rep]) -> Dict[str, float]:
    """Host time per simulator phase, medians over ``reps``."""

    def med(fn) -> float:
        return statistics.median(fn(r) for r in reps)

    loop = med(lambda r: r.phases["run"])
    events = reps[0].events
    return {
        "sim.arm_s": med(lambda r: r.run_s - sum(r.phases.values())),
        "sim.precompute_s": med(lambda r: r.phases["precompute"]),
        "sim.schedule_s": med(lambda r: r.phases["schedule"]),
        "sim.loop_s": loop,
        "sim.collect_s": med(lambda r: r.phases["collect"]),
        "sim.events_per_s": events / loop,
        "sim.host_ns_per_event": med(lambda r: r.run_s) / events * 1e9,
    }


def _destinations(w: Workload) -> np.ndarray:
    """The workload's destinations: every materialized stream, or the
    first chunk of every streamed one."""
    parts = [
        next(iter(s.chunks())) if isinstance(s, PacketStream) else s
        for s in w.streams
    ]
    return np.concatenate(parts)


def layer_calls(w: Workload, spans: SpanRecorder) -> Dict[str, float]:
    """Call each layer's public entry point on the workload's own inputs,
    one span per call, and derive the layer's host metrics."""
    trace = f"{w.name}/layers"
    cfg = w.config

    def call(name: str, fn, **attrs):
        gc.collect()
        with spans.span(name, trace, **attrs) as sp:
            out = fn()
        return out, sp.duration

    state, minimize_s = call(
        "routing.minimize_table",
        lambda: minimize_table(w.table, cfg.minimize or "full"),
    )
    schedule = w.updates if w.updates is not None else ChurnSchedule()
    translated, translate_s = call(
        "routing.translate_schedule",
        lambda: state.translate_schedule(schedule),
        events=len(schedule),
    )
    table = state.table if cfg.minimize else w.table
    plan, partition_s = call(
        "core.partition_table",
        lambda: partition_table(
            table,
            cfg.n_lcs,
            bits=cfg.partition_bits,
            pattern_oversubscription=cfg.pattern_oversubscription,
            replicas=cfg.replicas,
        ),
    )
    sizes = plan.partition_sizes()
    matchers, build_s = [], 0.0
    with spans.span("tries.build", trace):
        for lc, t in enumerate(plan.tables):
            m, s = call("tries.HashReferenceMatcher",
                        lambda: HashReferenceMatcher(t), lc=lc)
            matchers.append(m)
            build_s += s
    dests = _destinations(w)
    homes, home_s = call(
        "core.home_lc_batch", lambda: plan.home_lc_batch(dests),
        addresses=len(dests),
    )
    lookup_s = 0.0
    with spans.span("tries.lookup_batch", trace):
        for lc, m in enumerate(matchers):
            mine = dests[homes == lc]
            _, s = call("tries.lookup_batch_lc", lambda: m.lookup_batch(mine),
                        lc=lc, addresses=len(mine))
            lookup_s += s

    def generate_one_stream():
        s = w.make_stream(0)
        return [c for c in s.chunks()] if isinstance(s, PacketStream) else s

    _, chunk_s = call("traffic.make_stream", generate_one_stream, lc=0)
    return {
        "routing.minimize_s": minimize_s,
        "routing.minimize_ratio": state.stats.ratio,
        "routing.translate_s": translate_s,
        "routing.translated_ops": len(translated),
        "partition.build_s": partition_s,
        "partition.routes_max_over_mean": max(sizes) / statistics.mean(sizes),
        "partition.home_batch_maddrs_s": len(dests) / home_s / 1e6,
        "tries.ref.build_s": build_s,
        "tries.ref.batch_maddrs_s": len(dests) / lookup_s / 1e6,
        "traffic.chunk_gen_s": chunk_s,
    }


def per_layer(
    w: Workload,
    seconds: float,
    checks: Checks,
    spans: SpanRecorder,
) -> Dict[str, float]:
    """The traced run.  For about ``seconds``, each round runs an untraced
    rep, the companions (churn off, sampling off, where the workload has
    them) and a traced rep; then the direct layer calls run once."""
    companions = {}
    if w.updates is not None and len(w.updates):
        companions["no_churn"] = replace(w, updates=None)
    if w.config.sample_interval_cycles is not None:
        companions["unsampled"] = replace(
            w, monitored=False,
            config=replace(w.config, sample_interval_cycles=None),
        )
    others: Dict[str, List[Rep]] = {"plain": [], **{k: [] for k in companions}}

    def round_(i: int) -> Rep:
        others["plain"].append(simulate(w))
        for label, variant in companions.items():
            others[label].append(
                simulate(variant, spans=spans, trace=f"{w.name}/{label}/{i}")
            )
        return simulate(w, spans=spans, trace=f"{w.name}/{i}")

    traced = timed_reps(seconds, checks, round_, "traced")
    if not traced:
        return {}
    first = traced[0]
    if others["plain"][0].digest != first.digest:
        checks.fail("traced.identity", "spans changed the result digest")
    if any(r.core_digest != first.core_digest
           for r in others.get("unsampled", [])):
        checks.fail("companion.sampling_identity",
                    "sampling changed the core digest")
    out = layer_counts(first)
    out.update(layer_times(traced))
    out.update(layer_calls(w, spans))

    def median_loop(label: str) -> float:
        return statistics.median(r.phases["run"] for r in others[label])

    def median_pps(reps: List[Rep]) -> float:
        return statistics.median(w.offered / r.run_s for r in reps)

    out["bench.trace_overhead_pct"] = (
        median_pps(others["plain"]) / median_pps(traced) - 1.0
    ) * 100.0
    applied = first.result.update_events_applied
    out["updates.host_ms_each"] = (
        (out["sim.loop_s"] - median_loop("no_churn")) / applied * 1e3
        if applied and "no_churn" in companions else 0.0
    )
    out["obs.sampler_overhead_pct"] = (
        (out["sim.loop_s"] / median_loop("unsampled") - 1.0) * 100.0
        if "unsampled" in companions else 0.0
    )
    return {name: out[name] for name in PER_LAYER}
