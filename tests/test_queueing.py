"""Tests for the analytic queueing models — and cross-validation of the
event-driven simulator against M/D/1 theory."""

import math

import numpy as np
import pytest

from repro.analysis import (
    aggregate_hit_rates,
    compare,
    fe_load_imbalance,
    md1_sojourn,
    md1_wait,
    saturation_hit_rate,
    spal_mean_lookup_estimate,
    speedup,
    utilization,
)
from repro.sim.engine import Resource
from repro.core.config import SHED_POLICIES
from repro.sim.shedding import admit_floor, shed_decision


class TestMD1:
    def test_zero_load_no_wait(self):
        assert md1_wait(0.0, 40.0) == 0.0
        assert md1_sojourn(0.0, 40.0) == 40.0

    def test_known_value(self):
        # rho = 0.5: W = 0.5*s/(2*0.5) = s/2.
        assert md1_wait(0.0125, 40.0) == pytest.approx(20.0)

    def test_saturation_is_infinite(self):
        assert md1_wait(0.025, 40.0) == math.inf
        assert md1_wait(0.05, 40.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            md1_wait(-0.1, 40.0)
        with pytest.raises(ValueError):
            md1_wait(0.1, 0.0)

    def test_utilization(self):
        assert utilization(0.01, 40.0) == pytest.approx(0.4)

    def test_simulated_deterministic_queue_matches_md1(self):
        """Drive a Resource with Poisson arrivals and compare the empirical
        sojourn time with the closed form (within sampling error)."""
        rng = np.random.default_rng(7)
        service = 40
        lam = 0.015  # rho = 0.6
        arrivals = np.cumsum(rng.exponential(1.0 / lam, size=40_000))
        fe = Resource()
        sojourns = []
        for t in arrivals:
            t = int(t)
            _, done = fe.acquire(t, service)
            sojourns.append(done - t)
        expected = md1_sojourn(lam, service)
        measured = float(np.mean(sojourns))
        assert measured == pytest.approx(expected, rel=0.10)


class TestSpalEstimate:
    def test_components(self):
        est = spal_mean_lookup_estimate(hit_rate=0.9, n_lcs=16)
        assert est.hit_cycles < est.local_miss_cycles < est.remote_miss_cycles
        assert 0.0 < est.fe_load < 1.0
        assert est.mean_cycles > est.hit_cycles

    def test_higher_hit_rate_lowers_mean(self):
        lo = spal_mean_lookup_estimate(0.80, 16).mean_cycles
        hi = spal_mean_lookup_estimate(0.95, 16).mean_cycles
        assert hi < lo

    def test_saturation_when_hit_rate_too_low(self):
        est = spal_mean_lookup_estimate(hit_rate=0.5, n_lcs=16)
        assert est.mean_cycles == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            spal_mean_lookup_estimate(1.5, 4)
        with pytest.raises(ValueError):
            spal_mean_lookup_estimate(0.9, 0)

    def test_saturation_hit_rate_paper_point(self):
        # 40 Gbps (lambda=0.1/cycle) x 40-cycle FE -> h > 0.75.
        assert saturation_hit_rate(40, 0.1) == pytest.approx(0.75)
        # 10 Gbps (lambda=0.025) x 40 cycles: exactly at capacity -> h > 0.
        assert saturation_hit_rate(40, 0.025) == pytest.approx(0.0)

    def test_estimate_bounds_simulator_from_above(self):
        """The closed form is a pessimistic bound (it charges every
        arrival-LC miss a full FE lookup, ignoring home-cache hits): the
        simulator must come in below it but within a small factor."""
        from repro.experiments.common import run_spal

        run = run_spal("D_75", n_lcs=8, packets_per_lc=4000)
        est = spal_mean_lookup_estimate(
            hit_rate=run.overall_hit_rate, n_lcs=8
        )
        assert run.mean_lookup_cycles <= est.mean_cycles * 1.2
        assert run.mean_lookup_cycles >= est.mean_cycles * 0.2


class TestMetrics:
    def _result(self, name="x", lat=(2, 4, 6), fe=(10, 10)):
        from repro.sim.results import SimulationResult

        return SimulationResult(
            name=name,
            n_lcs=len(fe),
            latencies=np.array(lat, dtype=np.int64),
            horizon_cycles=100,
            fe_lookups=list(fe),
            cache_stats=[{"lookups": 10, "hits": 9, "waiting_hits": 0,
                          "victim_hits": 0}],
        )

    def test_speedup(self):
        assert speedup(40.0, self._result(lat=(4, 4))) == pytest.approx(10.0)
        import pytest as _pt

        with _pt.raises(ValueError):
            speedup(40.0, self._result(lat=(0,)))

    def test_compare_sorted(self):
        rows = compare({"slow": self._result(lat=(8, 8)),
                        "fast": self._result(lat=(2, 2))})
        assert [r["name"] for r in rows] == ["fast", "slow"]

    def test_fe_load_imbalance(self):
        assert fe_load_imbalance(self._result(fe=(10, 10))) == pytest.approx(1.0)
        assert fe_load_imbalance(self._result(fe=(30, 10))) == pytest.approx(1.5)
        assert fe_load_imbalance(self._result(fe=(0, 0))) == 1.0

    def test_aggregate_hit_rates(self):
        stats = aggregate_hit_rates([self._result(), self._result()])
        assert stats["min"] == stats["max"] == pytest.approx(0.9)
        assert aggregate_hit_rates([]) == {"min": 0.0, "mean": 0.0, "max": 0.0}


class TestMeasuredThroughput:
    def test_measured_mpps(self):
        import numpy as np
        from repro.sim.results import SimulationResult

        # 1000 packets over 10_000 cycles of 5ns = 50us -> 20 Mpps.
        r = SimulationResult(
            name="t", n_lcs=1,
            latencies=np.ones(1000, dtype=np.int64),
            horizon_cycles=10_000,
        )
        assert r.measured_mpps == pytest.approx(20.0)
        empty = SimulationResult(
            name="t", n_lcs=1,
            latencies=np.ones(1, dtype=np.int64), horizon_cycles=0,
        )
        assert empty.measured_mpps == 0.0


class TestResultJSON:
    def test_experiment_to_json(self):
        import json
        from repro.experiments.common import ExperimentResult

        r = ExperimentResult("EX", "title", rows=[{"a": 1, "b": "x"}])
        data = json.loads(r.to_json())
        assert data["exp_id"] == "EX"
        assert data["rows"][0] == {"a": 1, "b": "x"}


class TestShedFloor:
    """Below ``admit_floor`` every policy admits without drawing, which is
    what lets the array engine skip the kernel there."""

    @staticmethod
    def no_draw():
        raise AssertionError("shed_decision drew below the admit floor")

    @pytest.mark.parametrize("policy", SHED_POLICIES)
    def test_admits_without_drawing_below_floor(self, policy):
        for capacity in range(1, 65):
            floor = admit_floor(capacity)
            assert 0 <= floor < capacity
            for backlog in range(floor):
                for low_priority in (False, True):
                    assert shed_decision(
                        policy, backlog, capacity, low_priority, self.no_draw
                    ) is None

    def test_capacity_one_has_floor_zero(self):
        assert admit_floor(1) == 0

    def test_red_draws_at_the_floor(self):
        # The floor is tight for red: its ramp starts there.
        for capacity in range(2, 65):
            draws = []
            shed_decision("red", admit_floor(capacity), capacity, False,
                          lambda: draws.append(1) or 1.0)
            assert draws == [1]
