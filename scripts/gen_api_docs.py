#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks `repro`'s subpackages, collects everything exported via ``__all__``,
and emits a markdown reference with signatures and first-paragraph
summaries.  Run after changing public APIs:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

SUBPACKAGES = [
    "repro.routing",
    "repro.tries",
    "repro.core",
    "repro.traffic",
    "repro.sim",
    "repro.obs",
    "repro.analysis",
    "repro.experiments",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n", 1)[0].replace("\n", " ").strip()


_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def stable_repr(obj) -> str:
    """``repr`` without object addresses and with sets sorted, so a rerun
    regenerates the same file."""
    if isinstance(obj, (set, frozenset)):
        items = ", ".join(sorted(map(repr, obj)))
        return f"{type(obj).__name__}({{{items}}})"
    return _ADDRESS.sub("", repr(obj))


def signature_of(obj) -> str:
    try:
        return _ADDRESS.sub("", str(inspect.signature(obj)))
    except (ValueError, TypeError):
        return "(...)"


def document_member(name: str, obj) -> list[str]:
    # Unwrap functools caches/partials so they document as functions.
    obj = inspect.unwrap(obj, stop=lambda o: not hasattr(o, "__wrapped__"))
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"### class `{name}{signature_of(obj)}`\n")
        summary = first_paragraph(obj)
        if summary:
            lines.append(summary + "\n")
        methods = [
            (m, f)
            for m, f in inspect.getmembers(obj, inspect.isfunction)
            if not m.startswith("_") and f.__qualname__.startswith(obj.__name__)
        ]
        for m, f in sorted(methods):
            lines.append(f"- `{m}{signature_of(f)}` — {first_paragraph(f)}")
        if methods:
            lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        summary = first_paragraph(obj)
        if summary:
            lines.append(summary + "\n")
    elif inspect.ismodule(obj):
        return []
    else:  # constants
        lines.append(f"### `{name}` = `{stable_repr(obj)}`\n")
    return lines


BATCH_SECTION = """
## Batch lookups

Every matcher inherits `lookup_batch(addresses) -> np.ndarray` from
`LongestPrefixMatcher`: it resolves a whole address array in one call and
returns the int64 next-hop array.  The paper structures with vectorized
kernels (`BinaryTrie`, `LCTrie`, `LuleaTrie`, `MultibitTrie`,
`HashReferenceMatcher`) compile their node structure into packed NumPy
arrays on first use and traverse level-synchronously — typically 5-60x
the scalar loop; everything else (and any width above 64 bits, e.g. IPv6)
transparently falls back to per-address `lookup` calls.  Results and the
`AccessCounter` bookkeeping are bit-identical either way, so `measure()`
and the paper's access-count metrics are unaffected.

The same machinery backs `pattern_of_batch` /
`PartitionPlan.home_lc_batch` (vectorized LR1 home-LC detection) and the
`SpalSimulator` fast path, which precomputes each stream's control-bit
patterns in batches (uint64 columns up to 64 bits, Python-int columns
above) and, under `verify=True`, checks each batch's holders against
the oracle in one pass up to 64 bits.  The home LC is read from the
pattern at miss time (`PartitionPlan.home_of_pattern`, the rule
`home_lc` also uses), because it depends on which replicas are live,
and an FE looks up the next hop of each miss it serves.
`HashReferenceMatcher.lookup` compiles the same interval map its kernel
uses once its probes since the last route change reach about three per
route, and bisects it from then on.
There is no switch: the per-address methods are the oracles the batch
paths are tested against.
"""


FAULT_SECTION = """
## Fault injection & failover

`FaultSchedule` (in `repro.core`) scripts deterministic fault events
against a simulator run: `fail_lc(cycle, lc)` fail-stops a line card,
`recover_lc(cycle, lc)` brings it back with a cold (flushed) cache, and
`degrade_fabric(start, end, extra_latency=..., drop_prob=...)` opens a
degradation window on the switching fabric (message losses are drawn
from the schedule's own seeded RNG).  Pass the schedule to
`SpalSimulator.run(streams, faults=...)`; fault events interleave with
packet events in cycle order, and an empty/absent schedule reproduces
the fault-free simulator bit for bit.

Failure semantics are fail-stop at packet boundaries.  A failed LC drops
its own new arrivals (counted `ingress`), ignores incoming remote
requests (the origin times out and fails over), and any lookup that
would complete *at* a failed card is a counted `crash` drop.  Remote
requests carry a timeout (`SpalConfig.default_rem_timeout()`, armed
when the schedule has LC failures or message loss) with a bounded retry
budget (`repro.core.config.REM_MAX_RETRIES`, two) and exponential
backoff; each retry targets the next live replica from
`PartitionPlan.live_replicas(address)`.  Retry exhaustion becomes a
counted `unreachable` drop — never an unhandled exception.  LR-caches
invalidate REM entries whose home died, so stale remote results cannot
be served across a failure.

Degraded runs populate extra `SimulationResult` fields: `drops` (the
`ingress`/`crash`/`unreachable` taxonomy), `retries`,
`fabric_dropped_messages`, `fault_events`, per-LC `lc_availability`, and
`failover_packets` / `failover_mean_cycles` for lookups that completed
on a non-first attempt.  Every offered packet ends in exactly one place
— `completed` or one drop bucket — and the simulator enforces that
conservation invariant at the end of each run.  Experiment `failover`
(E15) sweeps replication degree x failure timing; see
`examples/failover_demo.py` for a compact transient demo.
"""


CHURN_SECTION = """
## Live route churn

`repro.routing.churn` turns ordered update streams into *timestamped*
schedules: `generate_churn(table, rate_per_s, horizon_cycles, seed=...)`
draws bursty announce/withdraw/next-hop-change events (geometric burst
sizes, µs intra-burst gaps — AS-path-flap locality) whose mean rate
matches the request; `ChurnSchedule` also has chainable
`announce`/`withdraw` builders for hand-scripted cases, and
`validate(table)` proves the stream applies cleanly in order.

Pass a schedule to `SpalSimulator.run(streams, updates=...,
update_policy=...)` and each update interleaves with packet events in the
cycle loop: it is routed to its pattern-holder LC(s) through the
partition plan, applied to each holder's matcher *incrementally*
(`apply_update` on every trie — binary/DP patch natively; Lulea patches
chunkwise with a leak-threshold rebuild model; LC-trie patches next-hop
changes in place), charged as FE busy time via the paper's
`work x 12 ns + 120 ns` service model, and followed by cache
invalidation under the armed policy: `"flush"` (the paper's Sec. 3.2
full flush), `"selective"` (drop exactly the entries the prefix covers,
at every LC) or `"rem"` (prefix invalidation at holders, REM-only
elsewhere).  Invalidation is atomic at the update cycle — no lookup can
return a stale next hop, which the `verify=True` oracle (itself
update-tracking) certifies on every run — while update->invalidate
fabric messages are still charged for latency/port accounting.

Churn runs populate `SimulationResult.update_events_applied`,
`update_patches` / `update_rebuilds`, `update_service_cycles`,
`invalidation_messages`, `invalidation_entries_dropped` and
`churn_misses` (misses caused by invalidated entries, attributed at miss
time).  A run with no schedule is bit-identical to the pre-churn
simulator, on either engine.  Experiments `updates` (E10),
`invalidation` (E10b) and `churn` (E17) all drive this one mechanism.
"""


OBS_SECTION = """
## Observability

`repro.obs` adds zero-overhead-when-off instrumentation in four pieces
(full walkthrough in `docs/OBSERVABILITY.md`):

- **Metrics registry** — `MetricsRegistry` holds counters, gauges and
  fixed-bucket histograms named like `cache.lr.evictions{kind=REM,lc=3}`.
  Instruments are pre-bound at `SpalSimulator` / `SpalRouter` / `LRCache`
  construction, so hot paths do a plain `counter.value += 1`; everything
  else is published at snapshot time.  Every `SpalSimulator.run` stores
  `registry.snapshot()` into `SimulationResult.metrics_snapshot`
  (`result.top_metrics(5)` for the hottest entries); `SpalRouter.
  metrics_snapshot()` does the same for the step-by-step model.
- **Packet tracer** — pass `trace=Tracer()` to `SpalSimulator` to record
  cycle-stamped lifecycle events (ingress -> cache probe -> fabric -> FE ->
  completion/drop).  A disabled or absent tracer is normalized to `None`
  at construction, so the off-path is one truthiness check per site;
  `benchmarks/test_bench_obs.py` asserts <3% disabled overhead, and a
  property test pins traced == untraced bit-identity.
- **Timeline export** — `export_jsonl` dumps the raw event stream;
  `export_chrome_trace` writes Chrome `trace_event` JSON loadable in
  Perfetto, one track per line card and one per used fabric link, with a
  `pkt <pid>` span covering each packet's ingress->completion window
  (`validate_chrome_trace` is the CI schema check).
- **Kernel profiling** — `profile_matcher(matcher, addrs)` (or
  `measure(addrs, profiler=KernelProfile(...))`) splits compile vs
  traverse wall time and counts per-level node touches from the batch
  kernels.  `scripts/obs_report.py` prints all of the above for a small
  run; wall-clock phase timings live on `SpalSimulator.phase_seconds`,
  construction step timings on `SpalSimulator.construct_seconds`.
"""


def main() -> None:
    out: list[str] = [
        "# API reference\n",
        "_Generated by `scripts/gen_api_docs.py`; do not edit by hand._\n",
        BATCH_SECTION,
        FAULT_SECTION,
        CHURN_SECTION,
        OBS_SECTION,
    ]
    for pkg_name in SUBPACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(f"\n## {pkg_name}\n")
        summary = first_paragraph(pkg)
        if summary:
            out.append(summary + "\n")
        exported = getattr(pkg, "__all__", [])
        for name in exported:
            obj = getattr(pkg, name, None)
            if obj is None:
                continue
            out.extend(document_member(name, obj))
    target = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.write_text("\n".join(out) + "\n")
    print(f"wrote {target} ({target.stat().st_size // 1024} KB)")


if __name__ == "__main__":
    main()
