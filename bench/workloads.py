"""The benchmark's four workloads, built only from public ``repro`` names.

Each workload loads one layer heavily and the others lightly, so a change
to one layer shows on the workload that exercises it and reads flat on
the ones that bypass it (see README.md for the layer map):

* ``headline`` — the ROADMAP headline run (D_75, psi=8, beta=4096): the
  batched hit path, precompute and scheduling;
* ``overload_gray`` — E21's gray cell: the miss chain, bounded FE and
  fabric queues, shedding, gray faults, churn and the telemetry sampler;
* ``fib_churn`` — a minimised full-feed table under heavy churn: set-up
  (minimisation, partitioning, matcher builds) and the update path;
* ``stream_5e5`` — 5x10^5 packets through the streamed chunk pipeline.

Every generator seed is the repository default plus the benchmark's
``--seed``, so seed 0 reproduces the defaults and any other seed gives a
fresh but equally shaped input.  All inputs are built here, before any
timed section starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import CacheConfig, FaultSchedule, SpalConfig
from repro.obs import HealthMonitor
from repro.routing import ChurnSchedule, generate_churn, make_full_v4, make_rt2
from repro.sim import PacketStream
from repro.traffic import (
    FlowPopulation,
    LinkSpec,
    churn_storm,
    flash_crowd,
    generate_stream,
    trace_spec,
    uniform_scan,
)

#: Offered line rate of every LC (the paper's 40 Gbps operating point).
SPEED_GBPS = 40

#: (table prefixes, packets per LC) per workload and scale.  ``full`` is
#: what the benchmark times; ``gate`` is the reduced-scale scalar-vs-array
#: differential, whose scalar loop is the slow reference; ``smoke`` keeps
#: the self-test under a minute.
SIZES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "headline": {
        "full": (20_000, 25_000),
        "gate": (20_000, 3_000),
        "smoke": (5_000, 1_500),
    },
    "overload_gray": {
        "full": (20_000, 15_000),
        "gate": (20_000, 3_000),
        "smoke": (5_000, 1_500),
    },
    "fib_churn": {
        "full": (100_000, 4_000),
        "gate": (20_000, 1_000),
        "smoke": (10_000, 500),
    },
    "stream_5e5": {
        "full": (100_000, 125_000),
        "gate": (20_000, 3_000),
        "smoke": (10_000, 2_000),
    },
}

#: One line per workload: why it is in the benchmark.
WHY: Dict[str, str] = {
    "headline": (
        "ROADMAP headline (D_75, psi=8, beta=4096): ~96% hits, so the "
        "batched hit path, precompute and scheduling dominate"
    ),
    "overload_gray": (
        "E21 gray cell: scan + flash crowd at hit rate ~0.5 through bounded "
        "queues, gray faults, churn storm and the sampler; the miss chain"
    ),
    "fib_churn": (
        "minimised full-feed table at psi=16 under 500k updates/s: set-up "
        "(minimise, partition, matcher builds) and the update path"
    ),
    "stream_5e5": (
        "5x10^5 packets of 95%-hot traffic as PacketStreams over a full-feed "
        "table: the streamed chunk pipeline; no churn, faults or sampling"
    ),
}


@dataclass
class Workload:
    """Everything one simulator run needs, generated up front."""

    name: str
    table: object
    config: SpalConfig
    #: LC index -> that LC's destinations (an array or a PacketStream);
    #: the traced run times one call of it as the traffic layer.
    make_stream: Callable[[int], object]
    warmup_packets: int
    faults: Optional[FaultSchedule] = None
    updates: Optional[ChurnSchedule] = None
    monitored: bool = False
    streams: list = field(init=False)

    def __post_init__(self) -> None:
        self.streams = [self.make_stream(lc) for lc in range(self.config.n_lcs)]

    @property
    def offered(self) -> int:
        """Packets offered to the router per run."""
        return sum(len(s) for s in self.streams)

    def run_kwargs(self, engine: str = "array") -> dict:
        """Keyword arguments for one ``SpalSimulator.run`` call.

        Materialized streams are copied, so no run can see another's
        input, and the health monitor is fresh per run (it accumulates
        events)."""
        return dict(
            streams=[
                s if isinstance(s, PacketStream) else np.array(s, copy=True)
                for s in self.streams
            ],
            speed_gbps=SPEED_GBPS,
            warmup_packets=self.warmup_packets,
            faults=self.faults,
            updates=self.updates,
            update_policy="selective",
            engine=engine,
            monitor=HealthMonitor() if self.monitored else None,
        )


def _spec(name: str, seed: int, n_packets: int):
    spec = trace_spec(name)
    return replace(spec, seed=spec.seed + seed).scaled(n_packets)


def _arrival_horizon(packets_per_lc: int) -> int:
    """Expected cycle of the last arrival at the offered line rate."""
    return int(packets_per_lc * LinkSpec(SPEED_GBPS).mean_interarrival_cycles)


def headline(seed: int, size: int, n: int) -> Workload:
    table = make_rt2(seed=2 + seed, size=size)
    population = FlowPopulation(_spec("D_75", seed, 8 * n), table)
    return Workload(
        name="headline",
        table=table,
        config=SpalConfig(n_lcs=8, cache=CacheConfig(n_blocks=4096)),
        make_stream=lambda lc: generate_stream(population, n, lc),
        warmup_packets=n // 10,
    )


def overload_gray(seed: int, size: int, n: int) -> Workload:
    table = make_rt2(seed=2 + seed, size=size)
    spec = _spec("D_81", seed, 16 * n)
    before = FlowPopulation(spec, table)
    after = FlowPopulation(
        replace(spec, name=f"{spec.name}-pivot", seed=spec.seed + 101), table
    )

    def make_stream(lc: int) -> PacketStream:
        if lc == 0:
            return uniform_scan(before, n, lc=0, seed=21 + seed)
        return flash_crowd(before, after, n, lc=lc, seed=21 + seed)

    horizon = _arrival_horizon(n)
    # E21's compound gray episode at its fractions of the horizon.
    faults = (
        FaultSchedule(seed=11 + seed)
        .slow_lc(int(0.20 * horizon), int(0.60 * horizon), lc=1, multiplier=2.0)
        .flap_link(
            int(0.30 * horizon), int(0.55 * horizon), period=2048, down_cycles=128
        )
        .degrade_lc_cache(
            int(0.25 * horizon), int(0.70 * horizon), lc=2, miss_fraction=0.3
        )
    )
    return Workload(
        name="overload_gray",
        table=table,
        config=SpalConfig(
            n_lcs=4,
            cache=CacheConfig(n_blocks=1024, victim_blocks=8),
            fe_queue_capacity=4,
            fabric_queue_capacity=8,
            shed_policy="priority",
            sample_interval_cycles=max(1, horizon // 200),
        ),
        make_stream=make_stream,
        warmup_packets=n // 10,
        faults=faults,
        updates=churn_storm(
            table, rate_per_s=5_000, horizon_cycles=horizon, seed=5 + seed
        ),
        monitored=True,
    )


def fib_churn(seed: int, size: int, n: int) -> Workload:
    table = make_full_v4(seed=7 + seed, size=size)
    population = FlowPopulation(_spec("D_75", seed, 16 * n), table)
    return Workload(
        name="fib_churn",
        table=table,
        config=SpalConfig(
            n_lcs=16, cache=CacheConfig(n_blocks=4096), minimize="full"
        ),
        make_stream=lambda lc: generate_stream(population, n, lc),
        warmup_packets=n // 10,
        updates=generate_churn(
            table,
            rate_per_s=500_000,
            horizon_cycles=_arrival_horizon(n),
            seed=3 + seed,
        ),
    )


def hot_stream(seed: int, lc: int, n: int, hot: int = 512) -> PacketStream:
    """95 %-hot uniform traffic generated chunk by chunk (the E20 stream,
    with every RNG keyed on the workload seed as well)."""
    hot_set = np.random.default_rng((seed, lc)).integers(
        0, 1 << 32, size=hot, dtype=np.uint64
    )

    def make_chunk(start: int, count: int) -> np.ndarray:
        rng = np.random.default_rng((seed, lc, start))
        cold = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
        pick = rng.random(count) < 0.95
        return np.where(pick, hot_set[rng.integers(0, hot, size=count)], cold)

    return PacketStream.from_generator(n, make_chunk)


def stream_5e5(seed: int, size: int, n: int) -> Workload:
    return Workload(
        name="stream_5e5",
        table=make_full_v4(seed=7 + seed, size=size),
        config=SpalConfig(n_lcs=4, fe_lookup_cycles=5),
        make_stream=lambda lc: hot_stream(seed, lc, n),
        warmup_packets=n // 10,
    )


WORKLOADS: Dict[str, Callable[[int, int, int], Workload]] = {
    "headline": headline,
    "overload_gray": overload_gray,
    "fib_churn": fib_churn,
    "stream_5e5": stream_5e5,
}

NAMES: List[str] = list(WORKLOADS)


def build(name: str, seed: int, scale: str) -> Workload:
    """Generate workload ``name``'s inputs at ``scale`` for ``seed``."""
    size, n = SIZES[name][scale]
    return WORKLOADS[name](seed, size, n)
