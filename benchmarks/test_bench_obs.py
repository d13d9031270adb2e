"""Observability overhead gates.

The ``repro.obs`` contract has three measurable halves:

* **disabled tracing is (near) free** — a run constructed with
  ``Tracer(enabled=False)`` pays only one truthiness check per
  instrumented site, so its wall time must stay within 3% of a run with
  no tracer at all (the tentpole acceptance bound);
* **the telemetry sampler is cheap when on** — a run with
  ``sample_interval_cycles`` set pays only a per-window read of counters
  the engines maintain anyway, so its wall time must stay within 5% of
  an unsampled run (when off, each engine loop pays one dead integer
  compare against a sentinel boundary, so the 3% bound above covers it);
* **observation never changes outcomes** — traced, sampled, and plain
  runs return bit-identical results (spot-checked here; the exhaustive
  versions are the Hypothesis property test in
  ``tests/test_properties_sim.py`` and the scalar-vs-array identity
  suite in ``tests/test_engine_identity.py``).

The overhead comparisons take the min over interleaved repeats, which
cancels cache-warmup and frequency-scaling drift far better than a single
pair of timings.  Before asserting, each gate measures an A/A noise floor
(the same configuration in both interleave slots); a host whose floor
cannot resolve the bound — noisy shared runners, loaded dev boxes —
skips instead of failing on measurement noise.
"""

import time

import numpy as np
import pytest

from repro.core import CacheConfig, SpalConfig
from repro.obs import Tracer
from repro.sim import SpalSimulator
from repro.traffic import FlowPopulation, generate_router_streams, trace_spec

BENCH_PACKETS = 6_000
N_LCS = 4
SAMPLE_INTERVAL = 512

#: Headroom over the documented 3% bound: shared CI runners jitter, and a
#: flaky gate is worse than a slightly loose one.  Local runs comfortably
#: sit under 1.03; the assert uses the documented bound plus this slack.
CI_SLACK = 0.02


@pytest.fixture(scope="module")
def streams(rt1):
    spec = trace_spec("L_92-0").scaled(4 * BENCH_PACKETS)
    population = FlowPopulation(spec, rt1)
    return generate_router_streams(population, N_LCS, BENCH_PACKETS)


def run_once(rt1, streams, trace=None, sample_interval=None):
    sim = SpalSimulator(
        rt1,
        SpalConfig(
            n_lcs=N_LCS,
            cache=CacheConfig(n_blocks=512),
            sample_interval_cycles=sample_interval,
        ),
        trace=trace,
    )
    start = time.perf_counter()
    result = sim.run([s.copy() for s in streams], name="bench")
    return time.perf_counter() - start, result


def interleaved_mins(run_a, run_b, repeats=5):
    """min-of-repeats wall times for two run thunks, interleaved."""
    a = b = float("inf")
    for _ in range(repeats):
        a = min(a, run_a()[0])
        b = min(b, run_b()[0])
    return a, b


def require_noise_floor(rt1, streams, bound):
    """Skip when this host's A/A timing noise cannot resolve ``bound``."""
    base = lambda: run_once(rt1, streams)
    aa_x, aa_y = interleaved_mins(base, base)
    noise = abs(aa_y / aa_x - 1)
    if noise > bound / 2:
        pytest.skip(
            f"A/A timing noise {noise:.1%} on this host cannot resolve "
            f"a {bound:.0%} overhead bound"
        )


def test_disabled_tracer_overhead_under_3_percent(rt1, streams):
    run_once(rt1, streams)  # warm compile caches before timing anything
    require_noise_floor(rt1, streams, 0.03)
    base, disabled = interleaved_mins(
        lambda: run_once(rt1, streams),
        lambda: run_once(rt1, streams, trace=Tracer(enabled=False)),
    )
    ratio = disabled / base
    assert ratio < 1.03 + CI_SLACK, (
        f"disabled tracer costs {(ratio - 1) * 100:.1f}% "
        f"(base {base * 1e3:.1f}ms, disabled {disabled * 1e3:.1f}ms)"
    )


def test_sampler_overhead_under_5_percent(rt1, streams):
    run_once(rt1, streams)  # warm compile caches before timing anything
    require_noise_floor(rt1, streams, 0.05)
    base, sampled = interleaved_mins(
        lambda: run_once(rt1, streams),
        lambda: run_once(rt1, streams, sample_interval=SAMPLE_INTERVAL),
    )
    ratio = sampled / base
    assert ratio < 1.05 + CI_SLACK, (
        f"sampler costs {(ratio - 1) * 100:.1f}% "
        f"(base {base * 1e3:.1f}ms, sampled {sampled * 1e3:.1f}ms)"
    )


def test_sampled_run_is_bit_identical(rt1, streams):
    _, plain = run_once(rt1, streams)
    _, sampled = run_once(rt1, streams, sample_interval=SAMPLE_INTERVAL)
    assert np.array_equal(sampled.latencies, plain.latencies)
    assert sampled.summary() == plain.summary()
    assert sampled.metrics_snapshot == plain.metrics_snapshot
    # ...and the sampler actually ran: window totals tie out to the run.
    series = sampled.timeseries
    assert series is not None and len(series) > 0
    assert int(series["completed"].sum()) == plain.packets


def test_traced_run_is_bit_identical(rt1, streams):
    _, plain = run_once(rt1, streams)
    _, traced = run_once(rt1, streams, trace=Tracer())
    assert np.array_equal(traced.latencies, plain.latencies)
    assert traced.summary() == plain.summary()
    assert traced.metrics_snapshot == plain.metrics_snapshot


def test_bench_traced_run(benchmark, rt1, streams):
    """Absolute cost of tracing on (for the record, no gate): every packet
    contributes several events, so this bounds the tracer's append cost."""
    def traced():
        _, result = run_once(rt1, streams, trace=Tracer())
        return result

    result = benchmark.pedantic(traced, rounds=3, iterations=1)
    assert result.packets == N_LCS * BENCH_PACKETS
