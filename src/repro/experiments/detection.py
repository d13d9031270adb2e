"""E22 — online gray-failure detection: latency, precision, recall.

PR 8 gave the simulator a gray-failure vocabulary (``FaultSchedule``)
and PR 9 a telemetry plane (:mod:`repro.obs.timeseries`) with an online
:class:`~repro.obs.monitor.HealthMonitor`.  This experiment closes the
loop: inject a *known* compound gray episode — a slow LC, a flapping
fabric link and a degraded LC cache, overlapping through the middle of
the run — and score each detector against that ground truth.

One **live** sampled run (monitor attached to the simulator) proves the
online path and pins the live == offline-replay contract; the threshold
sweep then replays the stored :class:`~repro.obs.timeseries.TimeSeries`
through fresh monitors via :meth:`HealthMonitor.consume`, so the sweep
costs no extra simulation.

Scoring, per detector and threshold:

* an event is a **true positive** when it lands inside *any* injected
  fault window (+ a two-sampling-window grace for rolling-window lag) —
  an operator paged during a real episode was paged correctly even if
  the proximate signal came from a sibling fault;
* **recall** asks whether the detector fired at least once inside the
  window of *its* mapped fault (``service_skew`` -> ``slow_lc``,
  ``hit_rate_collapse`` -> ``degrade_lc_cache``, ``slo_burn`` ->
  ``flap_link``, ``backlog_growth`` -> ``slow_lc``, whose doubled
  service time is what backs the queues up);
* **detection latency** is the first such in-window event's cycle minus
  the fault's start, also expressed in sampling windows.

The curated contract: at default thresholds ``service_skew`` flags the
injected slow LC within two sampling windows of the fault's onset.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from ..analysis.tables import render_table
from ..core.config import CacheConfig, SpalConfig
from ..core.faults import FaultSchedule
from ..obs.monitor import HealthMonitor
from ..sim.spal_sim import SpalSimulator
from .common import (
    LULEA_FE_CYCLES,
    ExperimentResult,
    default_packets_per_lc,
    get_rt2,
    plan_for,
    streams_for_trace,
)

#: Queue bounds: generous enough that backlog (not clamping) is the
#: signal — the slow LC must be able to back up past the detector's
#: default threshold of 8 before shedding kicks in.
FE_QUEUE_CAPACITY = 24
FABRIC_QUEUE_CAPACITY = 48

#: Target number of sampling windows across the run; the interval is
#: derived from the clean run's horizon so detection latency "in
#: windows" is comparable across scales.
TARGET_WINDOWS = 64

#: Detector -> injected fault it is expected to catch.
FAULT_FOR_DETECTOR = {
    "service_skew": "slow_lc",
    "backlog_growth": "slow_lc",
    "hit_rate_collapse": "degrade_lc_cache",
    "slo_burn": "flap_link",
}

COLUMNS = [
    "detector",
    "param",
    "value",
    "events",
    "tp",
    "fp",
    "precision",
    "detected",
    "latency_cycles",
    "latency_windows",
]


def _gray_mix(horizon: int, seed: int = 11) -> Tuple[
    FaultSchedule, Dict[str, Tuple[int, int]]
]:
    """The E21 compound gray episode, intensified so every detector has
    a real signal to find, plus its ground-truth windows.

    The slow LC runs at 10x (an FE in an ECC-storm / thermal-throttle
    regime — its queue must actually outgrow the backlog threshold, not
    just its siblings' service time), and *two* LC caches degrade: one
    LC's forced misses dilute by ~1/psi in the router-wide hit rate the
    detector watches, so a single degraded cache sits inside normal
    window-to-window jitter.
    """
    windows = {
        "slow_lc": (int(0.20 * horizon), int(0.60 * horizon)),
        "flap_link": (int(0.30 * horizon), int(0.55 * horizon)),
        "degrade_lc_cache": (int(0.25 * horizon), int(0.70 * horizon)),
    }
    faults = (
        FaultSchedule(seed=seed)
        .slow_lc(*windows["slow_lc"], lc=1, multiplier=10.0)
        .flap_link(*windows["flap_link"], period=2048, down_cycles=128)
        .degrade_lc_cache(*windows["degrade_lc_cache"], lc=2,
                          miss_fraction=0.9)
        .degrade_lc_cache(*windows["degrade_lc_cache"], lc=3,
                          miss_fraction=0.9)
    )
    return faults, windows


def _score(
    events,
    detector: str,
    windows: Dict[str, Tuple[int, int]],
    grace: int,
    ignore_before: int = 0,
) -> Dict[str, object]:
    """Precision / recall / latency for one detector's event list.

    Events before ``ignore_before`` (the cold-start warmup, where the
    caches are filling and every backlog/hit-rate signal is legitimately
    noisy) are excluded from scoring entirely — an operator mutes
    alerts during warmup rather than calling them false.
    """
    evs = [
        e for e in events
        if e.detector == detector and e.cycle >= ignore_before
    ]
    in_any = [
        e for e in evs
        if any(s <= e.cycle < end + grace for s, end in windows.values())
    ]
    start, _end = windows[FAULT_FOR_DETECTOR[detector]]
    mapped = sorted(
        e.cycle for e in evs if start <= e.cycle < _end + grace
    )
    row: Dict[str, object] = {
        "detector": detector,
        "events": len(evs),
        "tp": len(in_any),
        "fp": len(evs) - len(in_any),
        "precision": round(len(in_any) / len(evs), 3) if evs else "-",
        "detected": "yes" if mapped else "no",
        "latency_cycles": mapped[0] - start if mapped else "-",
        "latency_windows": (
            math.ceil((mapped[0] - start) / (grace // 2)) if mapped else "-"
        ),
    }
    return row


def run_detection(
    trace: str = "D_81",
    n_lcs: int = 4,
    packets_per_lc: Optional[int] = None,
) -> ExperimentResult:
    """E22: detection latency / precision / recall vs fault ground truth."""
    result = ExperimentResult(
        "E22", f"Gray-failure detection ({trace}, psi={n_lcs})"
    )
    n = packets_per_lc if packets_per_lc is not None else default_packets_per_lc()
    table = get_rt2()
    plan = plan_for("rt2", n_lcs)
    streams = streams_for_trace(trace, n_lcs, n)

    def make_config(**overrides) -> SpalConfig:
        return SpalConfig(
            n_lcs=n_lcs,
            cache=CacheConfig(n_blocks=256, victim_blocks=8),
            fe_lookup_cycles=LULEA_FE_CYCLES,
            **overrides,
        )

    # -- clean anchor run: horizon, SLO and sampling interval ---------------
    base = SpalSimulator(
        table, make_config(), partitioned=True, plan=plan
    ).run(
        streams, speed_gbps=40, warmup_packets=n // 10,
        name="detection-base",
    )
    horizon = base.horizon_cycles
    interval = max(64, horizon // TARGET_WINDOWS)
    grace = 2 * interval
    # SLO: double the healthy p99 — flap-induced retry storms blow far
    # past this, normal jitter does not.
    slo = 2.0 * max(base.percentile(99), 1.0)

    faults, windows = _gray_mix(horizon)

    def make_monitor(**overrides) -> HealthMonitor:
        kwargs = dict(slo_p99_cycles=slo)
        kwargs.update(overrides)
        return HealthMonitor(**kwargs)

    # -- the one sampled, faulted run (live monitor attached) ---------------
    live = make_monitor()
    sampled_config = dataclasses.replace(
        make_config(
            fe_queue_capacity=FE_QUEUE_CAPACITY,
            fabric_queue_capacity=FABRIC_QUEUE_CAPACITY,
        ),
        sample_interval_cycles=interval,
    )
    run = SpalSimulator(
        table, sampled_config, partitioned=True, plan=plan
    ).run(
        streams,
        speed_gbps=40,
        warmup_packets=n // 10,
        name="detection/gray",
        faults=faults,
        monitor=live,
    )
    series = run.timeseries
    # Mute scoring over the cold-start transient (~10% of the stream is
    # warmup; pad to 15% of the horizon for the tail of the fill).
    ignore_before = int(0.15 * horizon)

    # The online path and the offline replay must agree event-for-event.
    replay = make_monitor().consume(series)
    if replay != live.events:
        raise AssertionError(
            "live monitor events diverge from offline replay"
        )

    # -- threshold sweep over offline replays -------------------------------
    # hit_rate_collapse watches the router-wide hit rate, so one LC's
    # degradation dilutes by ~1/psi before it reaches the detector — the
    # sweep therefore probes sensitivities around miss_fraction/psi as
    # well as the shipping default of 0.5 (tuned for full collapse).
    sweeps = {
        "service_skew": ("skew_threshold", (1.25, 1.5, 2.0)),
        "hit_rate_collapse": ("hit_rate_drop", (0.1, 0.2, 0.5)),
        "backlog_growth": ("backlog_threshold", (4, 8, 16)),
        "slo_burn": ("burn_fraction", (0.25, 0.5, 0.75)),
    }
    rows: List[Dict[str, object]] = []
    for detector, (param, values) in sweeps.items():
        for value in values:
            events = make_monitor(**{param: value}).consume(series)
            row = _score(events, detector, windows, grace, ignore_before)
            row["param"] = param
            row["value"] = value
            rows.append(row)

    result.rows = rows
    skew = next(
        r for r in rows
        if r["detector"] == "service_skew" and r["value"] == 1.5
    )
    lines = [
        render_table(COLUMNS, [[r[k] for k in COLUMNS] for r in rows]),
        "",
        f"Sampling interval {interval} cycles ({len(series)} windows); "
        f"grace = 2 windows; SLO p99 = {slo:.0f} cycles "
        f"(2x the clean run's {base.percentile(99):.0f}).",
        f"Live monitor emitted {len(live.events)} events; offline replay "
        "of the stored series reproduced them event-for-event.",
        f"At default thresholds service_skew flagged the injected slow "
        f"LC {skew['latency_windows']} window(s) after fault onset "
        f"(contract: <= 2).",
    ]
    if skew["latency_windows"] == "-" or skew["latency_windows"] > 2:
        lines.append(
            "WARNING: service_skew missed the <=2-window detection "
            "contract at default thresholds."
        )
    result.rendered = "\n".join(lines)
    return result
