"""Tier-1 suite for the PR 9 observability layer: the windowed telemetry
sampler and its :class:`TimeSeries` container, the online
:class:`HealthMonitor` detectors, the run-archive / regression-tracking
helpers (:mod:`repro.obs.runstore`), the bounded-queue drop instants on
the Chrome timeline, and the ``SimulationResult.percentile`` edge cases
the report tooling depends on.

The cross-engine bit-identity of sampled runs is pinned separately in
``test_engine_identity.py``; here the focus is the telemetry layer's own
contracts — window accounting, export formats (strict OpenMetrics line
checks, JSONL round trips), detector semantics, and the history gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from repro.core.config import CacheConfig, SpalConfig
from repro.core.faults import FaultSchedule
from repro.errors import ObservabilityError, SimulationError
from repro.obs import (
    DROP_REASONS,
    HealthEvent,
    HealthMonitor,
    RunManifest,
    TimeSeries,
    TimeSeriesSampler,
    Tracer,
    append_history,
    baseline_for,
    check_regression,
    load_history,
    load_manifest,
    render_diff,
    sparkline,
    write_manifest,
)
from repro.obs.timeline import chrome_trace, validate_chrome_trace
from repro.obs.timeseries import PER_LC_COLUMNS, SCALAR_COLUMNS
from repro.routing import random_small_table
from repro.sim.results import SimulationResult
from repro.sim.spal_sim import SpalSimulator


# -- helpers -----------------------------------------------------------------


class FakeEngine:
    """A hand-cranked cumulative-counter state for sampler unit tests."""

    def __init__(self, n_lcs: int = 2):
        self.n_lcs = n_lcs
        self.completed = 0
        self.dropped = 0
        self.shed = 0
        self.hits = 0
        self.lookups = 0
        self.fe_busy = [0] * n_lcs
        self.fe_lookups = [0] * n_lcs
        self.fe_backlog = [0] * n_lcs
        self.fe_backlog_hw = 0
        self.fabric_backlog_hw = 0
        self.pending_latencies: list = []

    def reader(self):
        def read(at_cycle: int):
            new = self.pending_latencies
            self.pending_latencies = []
            return {
                "completed": self.completed,
                "dropped": self.dropped,
                "shed": self.shed,
                "hits": self.hits,
                "lookups": self.lookups,
                "fe_busy": list(self.fe_busy),
                "fe_lookups": list(self.fe_lookups),
                "fe_backlog": list(self.fe_backlog),
                "fe_backlog_hw": self.fe_backlog_hw,
                "fabric_backlog_hw": self.fabric_backlog_hw,
                "new_latencies": new,
            }

        return read


def run_sampled(config, n_lcs=3, n_packets=400, seed=7, engine="scalar",
                monitor=None, faults=None):
    """One small sampled run over random destinations."""
    table = random_small_table(60, seed=91, max_length=16)
    rng = np.random.default_rng(seed)
    # Full-width addresses so every LC's partition (and FE) sees traffic.
    streams = [
        rng.integers(0, 1 << 32, size=n_packets).astype(np.uint64)
        for _ in range(n_lcs)
    ]
    sim = SpalSimulator(table, config=config)
    result = sim.run(streams, engine=engine, monitor=monitor, faults=faults)
    return result, sim


def monitor_window(t_end, *, lookups=1000, hits=900, lat_count=100,
                   lat_p99=20.0, fe_backlog=(0, 0), fe_lookups=(50, 50),
                   fe_service_mean=(40.0, 40.0)):
    """A synthetic closed sampler window for detector unit tests."""
    return {
        "t_start": t_end - 100,
        "t_end": t_end,
        "completed": 100,
        "dropped": 0,
        "shed": 0,
        "hits": hits,
        "lookups": lookups,
        "hit_rate": hits / lookups if lookups else 0.0,
        "lat_count": lat_count,
        "lat_p50": 2.0,
        "lat_p99": lat_p99,
        "fe_backlog_hw": 0,
        "fabric_backlog_hw": 0,
        "fe_backlog": list(fe_backlog),
        "fe_lookups": list(fe_lookups),
        "fe_service_mean": list(fe_service_mean),
    }


# -- strict OpenMetrics line checker (satellite) -----------------------------

_OM_TYPE = re.compile(r"^# TYPE (spal_window_[a-z0-9_]+) gauge$")
_OM_SAMPLE = re.compile(
    r"^(spal_window_[a-z0-9_]+)"
    r'\{window="\d+"(?:,lc="\d+")?\} '
    r"(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)$"
)


def check_openmetrics(text: str) -> None:
    """Strict line-by-line format check of an OpenMetrics exposition:
    every line is a TYPE declaration, a sample with well-formed labels
    and a finite numeric value for a previously declared family, or the
    single terminating ``# EOF``."""
    lines = text.split("\n")
    assert lines[-1] == "", "exposition must end with a newline"
    lines = lines[:-1]
    assert lines[-1] == "# EOF", "exposition must end with '# EOF'"
    declared = set()
    for lineno, line in enumerate(lines[:-1]):
        m = _OM_TYPE.match(line)
        if m:
            assert m.group(1) not in declared, (
                f"line {lineno}: family {m.group(1)} declared twice"
            )
            declared.add(m.group(1))
            continue
        m = _OM_SAMPLE.match(line)
        assert m, f"line {lineno}: malformed OpenMetrics line {line!r}"
        assert m.group(1) in declared, (
            f"line {lineno}: sample before TYPE for {m.group(1)}"
        )
        assert np.isfinite(float(m.group(2)))
    assert "# EOF" not in lines[:-1], "'# EOF' appears before the end"


# -- sampler window accounting ----------------------------------------------


class TestSamplerAccounting:
    def test_interval_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            TimeSeriesSampler(0, 2)
        with pytest.raises(ObservabilityError):
            TimeSeriesSampler(-5, 2)

    def test_double_bind_rejected(self):
        eng = FakeEngine()
        sampler = TimeSeriesSampler(10, 2)
        sampler.bind(eng.reader())
        with pytest.raises(ObservabilityError):
            sampler.bind(eng.reader())

    def test_advance_before_bind_rejected(self):
        sampler = TimeSeriesSampler(10, 2)
        with pytest.raises(ObservabilityError):
            sampler.advance(25)

    def test_windows_are_successive_deltas(self):
        eng = FakeEngine()
        sampler = TimeSeriesSampler(10, 2)
        sampler.bind(eng.reader())
        eng.completed, eng.hits, eng.lookups = 4, 3, 4
        eng.pending_latencies = [5, 6]
        assert sampler.advance(10) == 20
        eng.completed, eng.hits, eng.lookups = 10, 6, 10
        eng.pending_latencies = [7]
        sampler.advance(20)
        series = sampler.finish(19)  # horizon inside the last closed window
        assert len(series) == 2
        assert series["completed"].tolist() == [4, 6]
        assert series["hits"].tolist() == [3, 3]
        assert series["hit_rate"].tolist() == [3 / 4, 3 / 6]
        assert series["lat_count"].tolist() == [2, 1]
        assert series["t_start"].tolist() == [0, 10]
        assert series["t_end"].tolist() == [10, 20]

    def test_multi_boundary_jump_emits_zero_delta_windows(self):
        eng = FakeEngine()
        sampler = TimeSeriesSampler(10, 2)
        sampler.bind(eng.reader())
        eng.completed = 5
        assert sampler.advance(35) == 40
        series = sampler.finish(34)
        # Boundaries 10, 20, 30 all closed; the whole delta lands in the
        # first window, the rest are zero-delta.
        assert series["t_end"].tolist() == [10, 20, 30, 35]
        assert series["completed"].tolist() == [5, 0, 0, 0]

    def test_finish_closes_partial_window_and_is_idempotent(self):
        eng = FakeEngine()
        sampler = TimeSeriesSampler(10, 2)
        sampler.bind(eng.reader())
        eng.completed = 2
        sampler.advance(10)
        eng.completed = 3
        first = sampler.finish(14)
        assert first["t_end"].tolist() == [10, 15]
        assert first["completed"].tolist() == [2, 1]
        eng.completed = 99  # must NOT be re-read after finish
        assert sampler.finish(500) is first

    def test_finish_without_any_boundary(self):
        eng = FakeEngine()
        sampler = TimeSeriesSampler(1000, 2)
        sampler.bind(eng.reader())
        eng.completed = 7
        series = sampler.finish(12)
        assert series["t_end"].tolist() == [13]
        assert series["completed"].tolist() == [7]

    def test_unbound_finish_packs_empty_series(self):
        series = TimeSeriesSampler(10, 3).finish(100)
        assert len(series) == 0
        assert series["fe_backlog"].shape == (0, 3)

    def test_per_lc_service_mean(self):
        eng = FakeEngine(n_lcs=2)
        sampler = TimeSeriesSampler(10, 2)
        sampler.bind(eng.reader())
        eng.fe_busy = [80, 0]
        eng.fe_lookups = [2, 0]
        sampler.advance(10)
        series = sampler.finish(9)
        assert series["fe_service_mean"].tolist() == [[40.0, 0.0]]
        assert series["fe_lookups"].tolist() == [[2, 0]]


class TestSparkline:
    def test_empty_is_empty(self):
        assert sparkline([]) == ""

    def test_constant_values_render_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_ramp(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_downsampling_keeps_spikes(self):
        values = [1.0] * 100
        values[37] = 50.0
        line = sparkline(values, width=10)
        assert len(line) == 10
        assert "█" in line

    def test_series_sparkline_per_lc_and_max(self):
        cols = {name: np.zeros(3) for name in SCALAR_COLUMNS}
        for name in PER_LC_COLUMNS:
            cols[name] = np.array([[0, 9], [0, 9], [0, 9]], dtype=np.int64)
        series = TimeSeries(10, 2, cols)
        assert series.sparkline("fe_backlog", lc=0) == "▁▁▁"
        # max across LCs picks up the busy one
        assert series.sparkline("fe_backlog") == "▁▁▁"
        cols["fe_backlog"] = np.array([[0, 1], [0, 5], [0, 9]])
        assert series.sparkline("fe_backlog")[-1] == "█"


# -- sampled simulation runs -------------------------------------------------


class TestSampledRun:
    CONFIG = SpalConfig(
        n_lcs=3,
        cache=CacheConfig(n_blocks=64, victim_blocks=4),
        sample_interval_cycles=256,
    )

    @pytest.mark.parametrize("bad", [0, -16])
    def test_config_rejects_nonpositive_interval(self, bad):
        # The field's domain is checked when the config is built.
        with pytest.raises(SimulationError):
            SpalConfig(n_lcs=2, sample_interval_cycles=bad)

    def test_monitor_requires_sampling(self):
        config = SpalConfig(n_lcs=2, cache=None)
        with pytest.raises(SimulationError):
            run_sampled(config, n_lcs=2, n_packets=50,
                        monitor=HealthMonitor())

    @pytest.mark.parametrize("engine", ["scalar", "array"])
    def test_totals_and_window_geometry(self, engine):
        result, _sim = run_sampled(self.CONFIG, engine=engine)
        series = result.timeseries
        assert series is not None and len(series) > 1
        # Column totals equal the run-level counters.
        assert int(series["completed"].sum()) == result.packets
        assert int(series["lat_count"].sum()) == len(result.latencies)
        assert int(series["dropped"].sum()) == result.total_drops
        # Window geometry: contiguous, interval-sized except the last.
        t_start, t_end = series["t_start"], series["t_end"]
        assert t_start[0] == 0
        assert (t_start[1:] == t_end[:-1]).all()
        assert (t_end[:-1] - t_start[:-1] == series.interval).all()
        assert t_end[-1] == result.horizon_cycles + 1
        # Windowed hit rates are rates; backlogs never negative.
        assert ((series["hit_rate"] >= 0) & (series["hit_rate"] <= 1)).all()
        assert (series["fe_backlog"] >= 0).all()

    @staticmethod
    def _attribution_digest(hot, crash, chunk_size=None, engine="array"):
        """sha256 of the integer series columns of one sampled run;
        ``chunk_size`` feeds the same arrivals as chunked streams."""
        from repro.sim.streaming import PacketStream

        table = random_small_table(60, seed=91, max_length=16)
        rng = np.random.default_rng(7)
        streams = [
            rng.integers(0, hot, size=3000).astype(np.uint64)
            for _ in range(3)
        ]
        if chunk_size is not None:
            streams = [PacketStream.from_array(s, chunk_size=chunk_size)
                       for s in streams]
        config = SpalConfig(n_lcs=3, cache=CacheConfig(n_blocks=256),
                            sample_interval_cycles=97, replicas=2)
        faults = (
            FaultSchedule(seed=7).fail_lc(3000, 1).recover_lc(20000, 1)
            if crash else None
        )
        series = SpalSimulator(table, config=config).run(
            streams, engine=engine, faults=faults
        ).timeseries
        ints = {
            name: col.tolist()
            for name, col in sorted(series.columns.items())
            if col.dtype.kind == "i"
        }
        return hashlib.sha256(json.dumps(ints).encode()).hexdigest()

    @pytest.mark.parametrize("hot,crash,want", [
        (64, False,
         "a62c10d5842b5d6088817f406c3fc8d2205cdcaec893cfeecb71a24009346931"),
        (4096, False,
         "6028d31146df840bd518c4284da2cec82a496cd80d10ad325b18df83a7136594"),
        (64, True,
         "34c0b38212acd319b019ee7493fb36dc0f54838761f4cb3183e7d578df53703e"),
    ], ids=["hit-runs", "misses", "lc-down"])
    def test_window_attribution_is_pinned(self, hot, crash, want):
        """Each engine closes a window before the first event at or past
        its boundary, so both produce one series.  The integer columns
        are pinned for long hit runs, for miss-heavy traffic and with an
        LC down, so a change to either loop cannot move the series
        unnoticed."""
        for engine in ("scalar", "array"):
            assert self._attribution_digest(hot, crash, engine=engine) \
                == want, engine

    @pytest.mark.parametrize("hot,crash", [
        (64, False), (4096, False), (64, True),
    ], ids=["hit-runs", "misses", "lc-down"])
    def test_array_window_attribution_ignores_chunking(
        self, monkeypatch, hot, crash
    ):
        """The arrival walk carries on across arrival windows, so the
        series does not depend on where chunks or windows end."""
        from repro.sim import array_engine

        want = self._attribution_digest(hot, crash)
        for chunk_size in (1, 64, 1000):
            assert self._attribution_digest(hot, crash, chunk_size) == want
        monkeypatch.setattr(array_engine, "_WINDOW_CAP", 100)
        assert self._attribution_digest(hot, crash) == want

    def test_streamed_chunks_match_run_totals(self):
        from repro.sim.streaming import PacketStream

        table = random_small_table(60, seed=91, max_length=16)
        rng = np.random.default_rng(3)
        streams = [
            PacketStream.from_array(
                rng.integers(0, 1 << 16, size=300).astype(np.uint64),
                chunk_size=64,
            )
            for _ in range(3)
        ]
        sim = SpalSimulator(table, config=self.CONFIG)
        result = sim.run(streams, engine="array")
        series = result.timeseries
        assert series is not None
        assert int(series["completed"].sum()) == result.packets
        assert int(series["lat_count"].sum()) == len(result.latencies)

    def test_jsonl_round_trip(self, tmp_path):
        result, _sim = run_sampled(self.CONFIG, n_packets=200)
        series = result.timeseries
        path = tmp_path / "telemetry.jsonl"
        n = series.to_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert n == len(series) == len(lines)
        for i, line in enumerate(lines):
            doc = json.loads(line)
            assert doc.pop("window") == i
            assert doc == series.window(i)

    def test_openmetrics_export_is_strictly_well_formed(self, tmp_path):
        result, _sim = run_sampled(self.CONFIG, n_packets=200)
        series = result.timeseries
        text = series.write_openmetrics(tmp_path / "telemetry.om")
        assert (tmp_path / "telemetry.om").read_text() == text
        check_openmetrics(text)
        # Every column family is present with the right sample count.
        n, lcs = len(series), series.n_lcs
        for name in SCALAR_COLUMNS:
            assert text.count(f"spal_window_{name}{{") == n
        for name in PER_LC_COLUMNS:
            assert text.count(f"spal_window_{name}{{") == n * lcs

    def test_openmetrics_checker_rejects_malformed(self):
        check_openmetrics(
            "# TYPE spal_window_completed gauge\n"
            'spal_window_completed{window="0"} 3\n# EOF\n'
        )
        with pytest.raises(AssertionError):
            check_openmetrics('spal_window_x{window="0"} 1\n# EOF\n')
        with pytest.raises(AssertionError):
            check_openmetrics(
                "# TYPE spal_window_x gauge\n"
                'spal_window_x{window=0} 1\n# EOF\n'
            )
        with pytest.raises(AssertionError):
            check_openmetrics(
                "# TYPE spal_window_x gauge\n"
                'spal_window_x{window="0"} 1\n'
            )

    def test_live_monitor_flags_slow_lc_within_two_windows(self):
        """The E22 acceptance contract at unit scale: with sampling on
        and a slow-LC gray failure injected, the attached monitor's
        service_skew detector fires within two sampling windows of the
        fault's onset, naming the right LC."""
        interval = 256
        config = SpalConfig(
            n_lcs=3, cache=None, sample_interval_cycles=interval
        )
        start, end = 1000, 3000
        faults = FaultSchedule(seed=5).slow_lc(
            start, end, lc=1, multiplier=4.0
        )
        monitor = HealthMonitor(skew_threshold=1.5)
        result, _sim = run_sampled(
            config, monitor=monitor, faults=faults
        )
        skew = [e for e in monitor.events if e.detector == "service_skew"]
        assert skew, "service_skew never fired"
        assert skew[0].lc == 1
        assert start <= skew[0].cycle <= start + 2 * interval
        # Offline replay of the stored series reproduces the live events.
        replay = HealthMonitor(skew_threshold=1.5).consume(result.timeseries)
        assert replay == monitor.events


# -- health monitor detectors ------------------------------------------------


def only(detector, **kwargs):
    """A monitor with every detector but one disabled."""
    base = dict(slo_p99_cycles=None, hit_rate_drop=None,
                backlog_threshold=None, skew_threshold=None)
    base.update(kwargs)
    return HealthMonitor(**base)


class TestHealthMonitor:
    def test_bad_params_rejected(self):
        with pytest.raises(ObservabilityError):
            HealthMonitor(window=0)
        with pytest.raises(ObservabilityError):
            HealthMonitor(confirm_windows=0)

    def test_slo_burn_fires_on_burn_fraction_and_rearms(self):
        mon = only("slo_burn", slo_p99_cycles=100.0, window=4,
                   burn_fraction=0.5)
        for t in range(1, 5):
            assert mon.observe(monitor_window(t * 100, lat_p99=50.0)) == []
        # Two hot windows of the rolling four -> rate 0.5 -> fire once.
        assert mon.observe(monitor_window(500, lat_p99=500.0)) == []
        events = mon.observe(monitor_window(600, lat_p99=500.0))
        assert [e.detector for e in events] == ["slo_burn"]
        # Latched while burning: no repeat event.
        assert mon.observe(monitor_window(700, lat_p99=500.0)) == []
        # Cool down until the rolling window clears, then re-arm.
        t = 800
        while mon._active["slo_burn"]:
            mon.observe(monitor_window(t, lat_p99=10.0))
            t += 100
        for _ in range(4):
            mon.observe(monitor_window(t, lat_p99=500.0))
            t += 100
        assert sum(e.detector == "slo_burn" for e in mon.events) == 2

    def test_slo_burn_ignores_empty_latency_windows(self):
        mon = only("slo_burn", slo_p99_cycles=100.0, window=2,
                   burn_fraction=0.5)
        for t in range(1, 6):
            # Huge p99 values but zero measured lookups: not a burn.
            out = mon.observe(
                monitor_window(t * 100, lat_p99=9999.0, lat_count=0)
            )
            assert out == []

    def test_hit_rate_collapse_vs_cumulative_baseline(self):
        mon = only("hit_rate_collapse", hit_rate_drop=0.5, min_lookups=32)
        # First window only seeds the baseline (no judgment possible).
        assert mon.observe(monitor_window(100, hits=900)) == []
        for t in (200, 300):
            assert mon.observe(monitor_window(t, hits=900)) == []
        events = mon.observe(monitor_window(400, hits=300))
        assert [e.detector for e in events] == ["hit_rate_collapse"]
        assert events[0].value == pytest.approx(0.3)

    def test_hit_rate_gates_on_min_lookups(self):
        mon = only("hit_rate_collapse", hit_rate_drop=0.5, min_lookups=32)
        mon.observe(monitor_window(100, hits=900))
        # A collapsed-rate window with too few lookups is not judged.
        assert mon.observe(
            monitor_window(200, lookups=10, hits=0)
        ) == []

    def test_backlog_growth_needs_confirmation_streak(self):
        mon = only("backlog_growth", backlog_threshold=8, confirm_windows=2)
        assert mon.observe(monitor_window(100, fe_backlog=(9, 0))) == []
        events = mon.observe(monitor_window(200, fe_backlog=(12, 0)))
        assert [e.detector for e in events] == ["backlog_growth"]
        assert events[0].lc == 0

    def test_backlog_shrinking_resets_streak(self):
        mon = only("backlog_growth", backlog_threshold=8, confirm_windows=2)
        mon.observe(monitor_window(100, fe_backlog=(9, 0)))
        mon.observe(monitor_window(200, fe_backlog=(7, 0)))   # shrank
        mon.observe(monitor_window(300, fe_backlog=(9, 0)))   # streak = 1
        assert mon.events == []

    def test_service_skew_fires_on_outlier_lc(self):
        mon = only("service_skew", skew_threshold=1.5)
        events = mon.observe(monitor_window(
            100, fe_lookups=(10, 10), fe_service_mean=(160.0, 40.0)
        ))
        assert [e.detector for e in events] == ["service_skew"]
        assert events[0].lc == 0
        assert events[0].value == pytest.approx(4.0)

    def test_service_skew_needs_two_live_lcs(self):
        mon = only("service_skew", skew_threshold=1.5)
        assert mon.observe(monitor_window(
            100, fe_lookups=(10, 0), fe_service_mean=(160.0, 0.0)
        )) == []

    def test_reset_clears_events_and_state(self):
        mon = only("service_skew", skew_threshold=1.5)
        mon.observe(monitor_window(
            100, fe_lookups=(10, 10), fe_service_mean=(160.0, 40.0)
        ))
        assert len(mon.events) == 1
        mon.reset()
        assert mon.events == []
        # Same stimulus fires again from a clean slate.
        mon.observe(monitor_window(
            100, fe_lookups=(10, 10), fe_service_mean=(160.0, 40.0)
        ))
        assert len(mon.events) == 1

    def test_health_event_str_mentions_lc(self):
        event = HealthEvent(cycle=512, detector="service_skew",
                            value=4.0, threshold=1.5, lc=2)
        assert "lc=2" in str(event) and "service_skew" in str(event)


# -- SimulationResult.percentile edge cases (satellite) ----------------------


class TestPercentileEdges:
    def make(self, latencies, **kwargs):
        return SimulationResult(
            name="t", n_lcs=2,
            latencies=np.asarray(latencies, dtype=np.int64),
            horizon_cycles=100, **kwargs,
        )

    def test_empty_latencies(self):
        r = self.make([])
        for q in (0, 50, 99, 99.9, 100):
            assert r.percentile(q) == 0.0
        assert r.mean_lookup_cycles == 0.0
        assert r.max_lookup_cycles == 0

    def test_single_packet(self):
        r = self.make([7])
        for q in (0, 50, 99, 100):
            assert r.percentile(q) == 7.0

    def test_all_dropped_run(self):
        r = self.make([], drops={"queue_full": 5, "shed": 3})
        assert r.percentile(99) == 0.0
        assert r.total_drops == 8
        assert r.delivery_rate == 0.0
        assert r.summary()["p99_cycles"] == 0.0


# -- run store / regression gate ---------------------------------------------


def make_manifest(**overrides):
    base = dict(
        name="headline", engine="array", table_size=20_000, packets=16_000,
        events=18_000, events_per_s=500_000.0, p50=1.0, p99=60.0,
        p999=128.0, peak_rss_mib=150.0, config_digest="abc123",
        git_sha="deadbee", created="20260808T120000Z",
        metrics={"hit_rate": 0.91},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRunStore:
    def test_manifest_write_load_round_trip(self, tmp_path):
        manifest = make_manifest()
        path = write_manifest(manifest, tmp_path / "runs")
        assert path.parent == tmp_path / "runs"
        assert load_manifest(path) == manifest

    def test_write_never_clobbers(self, tmp_path):
        a = write_manifest(make_manifest(), tmp_path)
        b = write_manifest(make_manifest(), tmp_path)
        assert a != b and a.exists() and b.exists()

    def test_from_dict_ignores_unknown_keys(self):
        doc = make_manifest().to_dict()
        doc["future_field"] = {"x": 1}
        assert RunManifest.from_dict(doc) == make_manifest()

    def test_history_append_and_baseline(self, tmp_path):
        path = tmp_path / "BENCH_history.json"
        assert load_history(path) == []
        append_history(make_manifest(created="A"), path)
        history = append_history(make_manifest(created="B"), path)
        assert len(history) == 2
        assert all("series" not in entry for entry in history)
        baseline = baseline_for(history, "headline")
        assert baseline["created"] == "A"
        assert baseline_for(history, "other") is None

    def test_regression_gate_trips_and_clears(self):
        base = make_manifest().to_dict()
        ok = make_manifest(events_per_s=480_000.0, p99=65.0).to_dict()
        assert check_regression(ok, base, threshold=0.15) == []
        slow = make_manifest(events_per_s=250_000.0, p99=120.0).to_dict()
        failures = check_regression(slow, base, threshold=0.15)
        assert len(failures) == 2
        assert any("events/s" in f for f in failures)
        assert any("p99" in f for f in failures)

    def test_render_diff_fields_and_sparklines(self):
        series = {
            "interval": 256, "n_lcs": 2,
            "columns": {
                "completed": [10, 20, 30], "hit_rate": [0.5, 0.8, 0.9],
                "lat_p99": [40.0, 20.0, 10.0], "dropped": [0, 0, 1],
            },
        }
        a = make_manifest(series=series)
        b = make_manifest(created="20260808T130000Z",
                          events_per_s=550_000.0, series=series)
        text = render_diff(a, b)
        assert "events_per_s" in text and "+10.0%" in text
        assert "hit_rate" in text        # shared metric block
        assert "per-window series" in text
        assert "█" in text               # sparklines rendered
        # No series on either side -> no sparkline section.
        assert "per-window series" not in render_diff(
            make_manifest(), make_manifest()
        )


# -- chrome-timeline drop instants (satellite) -------------------------------


class TestDropInstants:
    def test_drop_reasons_cover_bounded_queue_kinds(self):
        assert {"queue_full", "shed", "ingress", "crash",
                "unreachable"} <= DROP_REASONS

    def make_tracer(self, reason):
        tracer = Tracer()
        tracer.record("ingress", 0, lc=1, pid=7, dest=42)
        tracer.record("drop", 10, lc=1, pid=7, reason=reason)
        return tracer

    @pytest.mark.parametrize("reason", ["queue_full", "shed"])
    def test_bounded_queue_drops_become_instants(self, reason):
        doc = chrome_trace(self.make_tracer(reason))
        validate_chrome_trace(doc)
        instants = [e for e in doc["traceEvents"]
                    if e.get("ph") == "i" and e.get("cat") == "drop"]
        assert len(instants) == 1
        assert instants[0]["name"] == f"drop.{reason}"
        assert instants[0]["tid"] == 1
        assert instants[0]["args"]["packet"] == 7

    def test_other_drop_reasons_stay_span_only(self):
        doc = chrome_trace(self.make_tracer("crash"))
        validate_chrome_trace(doc)
        assert not any(
            e.get("cat") == "drop" for e in doc["traceEvents"]
        )

    def test_validator_rejects_unknown_instants(self):
        doc = chrome_trace(self.make_tracer("queue_full"))
        for event in doc["traceEvents"]:
            if event.get("cat") == "drop":
                event["name"] = "drop.bogus"
        with pytest.raises(ObservabilityError):
            validate_chrome_trace(doc)

    def test_validator_rejects_bad_instant_scope(self):
        doc = chrome_trace(self.make_tracer("shed"))
        for event in doc["traceEvents"]:
            if event.get("cat") == "drop":
                event["s"] = "X"
        with pytest.raises(ObservabilityError):
            validate_chrome_trace(doc)
