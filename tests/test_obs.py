"""The repro.obs subsystem: registry, tracer, timeline export, profiling."""

import json

import numpy as np
import pytest

from repro.analysis.metrics import degraded_mode_summary, drop_rate
from repro.core import CacheConfig, SpalConfig, SpalRouter
from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_CYCLE_BUCKETS,
    EVENT_NAMES,
    KernelProfile,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    exponential_buckets,
    export_chrome_trace,
    export_jsonl,
    load_jsonl,
    profile_matcher,
    render_metric_name,
    validate_chrome_trace,
)
from repro.obs.timeline import PID_FABRIC, PID_LINE_CARDS
from repro.routing import random_small_table
from repro.sim import SpalSimulator
from repro.sim.results import SimulationResult
from repro.tries.lulea import LuleaTrie


@pytest.fixture(scope="module")
def table():
    return random_small_table(80, seed=7, max_length=16)


def small_streams(n_lcs, n=300, seed=3):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 1 << 16, size=n).astype(np.uint64)
        for _ in range(n_lcs)
    ]


def traced_run(table, n_lcs=2, trace=None, registry=None):
    sim = SpalSimulator(
        table,
        SpalConfig(n_lcs=n_lcs, cache=CacheConfig(n_blocks=64)),
        registry=registry,
        trace=trace,
    )
    result = sim.run(small_streams(n_lcs), name="obs")
    return sim, result


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_bind_is_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("sim.drops", reason="crash")
        b = reg.counter("sim.drops", reason="crash")
        assert a is b
        assert len(reg) == 1

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("cache.lr.evictions", kind="REM", lc=3)
        b = reg.counter("cache.lr.evictions", lc=3, kind="REM")
        assert a is b
        assert render_metric_name(a.name, a.labels) == (
            "cache.lr.evictions{kind=REM,lc=3}"
        )

    def test_distinct_labels_are_distinct_instruments(self):
        reg = MetricsRegistry()
        loc = reg.counter("cache.lr.evictions", kind="LOC")
        rem = reg.counter("cache.lr.evictions", kind="REM")
        assert loc is not rem
        loc.value += 2
        assert rem.value == 0

    def test_label_values_are_stringified(self):
        reg = MetricsRegistry()
        c = reg.counter("fe.lookups", lc=3)
        assert c.labels == {"lc": "3"}
        assert reg.counter("fe.lookups", lc="3") is c

    @pytest.mark.parametrize(
        "bad", ["", "Sim.drops", "1sim", "sim..drops", "sim.drops!", "sim-x"]
    )
    def test_bad_metric_names_rejected(self, bad):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter(bad)

    def test_bad_label_key_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("sim.drops", **{"Bad": 1})

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("sim.retries")
        with pytest.raises(ObservabilityError):
            reg.gauge("sim.retries")
        with pytest.raises(ObservabilityError):
            reg.histogram("sim.retries")

    def test_histogram_edge_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("sim.rem.round_trip_cycles", buckets=(10, 20))
        assert reg.histogram("sim.rem.round_trip_cycles", buckets=(10, 20))
        with pytest.raises(ObservabilityError):
            reg.histogram("sim.rem.round_trip_cycles", buckets=(10, 30))

    def test_snapshot_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("z.last").value = 3
        reg.gauge("a.first").set(1.5)
        reg.histogram("m.mid").observe(9)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["z.last"] == 3
        assert snap["a.first"] == 1.5
        assert snap["m.mid"]["count"] == 1

    def test_get_by_rendered_name(self):
        reg = MetricsRegistry()
        c = reg.counter("fabric.msgs", kind="dropped")
        assert reg.get("fabric.msgs{kind=dropped}") is c
        assert reg.get("fabric.msgs{kind=sent}") is None

    def test_top_orders_by_heat(self):
        reg = MetricsRegistry()
        reg.counter("a.cold").value = 1
        reg.counter("b.hot").value = 100
        h = reg.histogram("c.hist")
        for _ in range(10):
            h.observe(1)
        assert [name for name, _ in reg.top(2)] == ["b.hot", "c.hist"]

    def test_reset_keeps_bound_references_valid(self):
        reg = MetricsRegistry()
        c = reg.counter("sim.retries")
        c.value = 7
        reg.reset()
        assert c.value == 0
        assert reg.counter("sim.retries") is c


class TestHistogram:
    def test_exact_edge_lands_in_its_bucket(self):
        """le (less-or-equal) semantics: v == edge belongs to that edge's
        bucket, v == edge + 1 to the next."""
        reg = MetricsRegistry()
        h = reg.histogram("t.h", buckets=(8, 16, 32))
        h.observe(8)
        h.observe(9)
        h.observe(16)
        h.observe(33)
        buckets = h.snapshot_value()["buckets"]
        assert buckets == {"le_8": 1, "le_16": 2, "le_32": 0, "inf": 1}

    def test_below_first_edge_lands_in_first_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.h", buckets=(8, 16))
        h.observe(0)
        assert h.counts[0] == 1

    def test_mean_and_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.h", buckets=(10,))
        for v in (2, 4, 6):
            h.observe(v)
        assert h.total == 3
        assert h.mean == pytest.approx(4.0)

    def test_percentile_upper_edge_estimate(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.h", buckets=(8, 16, 32))
        for v in (1, 2, 3, 20):
            h.observe(v)
        assert h.percentile(50) == 8.0
        assert h.percentile(100) == 32.0
        h.observe(1000)
        assert h.percentile(100) == float("inf")
        with pytest.raises(ObservabilityError):
            h.percentile(101)

    def test_bad_bucket_specs_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("t.empty", buckets=())
        with pytest.raises(ObservabilityError):
            reg.histogram("t.unsorted", buckets=(10, 10))

    def test_exponential_buckets(self):
        assert exponential_buckets(2, 2, 4) == (2.0, 4.0, 8.0, 16.0)
        with pytest.raises(ObservabilityError):
            exponential_buckets(0, 2, 4)
        with pytest.raises(ObservabilityError):
            exponential_buckets(1, 1.0, 4)
        with pytest.raises(ObservabilityError):
            exponential_buckets(1, 2, 0)

    def test_default_cycle_buckets_are_increasing(self):
        assert list(DEFAULT_CYCLE_BUCKETS) == sorted(DEFAULT_CYCLE_BUCKETS)


# ---------------------------------------------------------------------------
# Tracer and timeline export
# ---------------------------------------------------------------------------


class TestTracer:
    def test_record_and_group_by_packet(self):
        tr = Tracer()
        tr.record("ingress", 10, lc=0, pid=0, dest=42)
        tr.record("cache.miss", 10, lc=0, pid=0)
        tr.record("complete", 15, lc=0, pid=0)
        tr.record("flush", 20)
        assert len(tr) == 4
        pkts = tr.packets()
        assert list(pkts) == [0]
        assert [e["name"] for e in pkts[0]] == [
            "ingress", "cache.miss", "complete",
        ]

    def test_span_of(self):
        tr = Tracer()
        tr.record("ingress", 10, lc=1, pid=3)
        tr.record("drop", 25, lc=1, pid=3, reason="crash")
        span = tr.span_of(3)
        assert span == {
            "pid": 3, "lc": 1, "start": 10, "end": 25, "outcome": "dropped",
        }
        assert tr.span_of(99) is None

    def test_clear(self):
        tr = Tracer()
        tr.record("flush", 1)
        tr.clear()
        assert len(tr) == 0

    def test_simulator_only_emits_known_event_names(self, table):
        tr = Tracer()
        traced_run(table, trace=tr)
        assert len(tr) > 0
        assert {e["name"] for e in tr} <= EVENT_NAMES

    def test_disabled_tracer_is_normalized_away(self, table):
        tr = Tracer(enabled=False)
        sim, _ = traced_run(table, trace=tr)
        assert sim._trace is None
        assert len(tr) == 0


class TestTimeline:
    def test_jsonl_round_trip(self, table, tmp_path):
        tr = Tracer()
        traced_run(table, trace=tr)
        path = tmp_path / "events.jsonl"
        n = export_jsonl(tr, path)
        assert n == len(tr)
        assert load_jsonl(path) == tr.events

    def test_chrome_trace_has_one_track_per_lc_and_per_link(self, table):
        tr = Tracer()
        traced_run(table, n_lcs=2, trace=tr)
        doc = chrome_trace(tr)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        lc_tracks = {
            e["tid"]
            for e in meta
            if e["name"] == "thread_name" and e["pid"] == PID_LINE_CARDS
        }
        assert lc_tracks == {0, 1}
        link_names = {
            e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name" and e["pid"] == PID_FABRIC
        }
        # Both directions of the 2-LC fabric carried traffic.
        assert link_names == {"link 0->1", "link 1->0"}

    def test_chrome_trace_spans_cover_every_completed_packet(self, table):
        """The acceptance criterion: every non-dropped packet has a span
        covering ingress -> completion (validate raises otherwise)."""
        tr = Tracer()
        _, result = traced_run(table, n_lcs=2, trace=tr)
        doc = chrome_trace(tr)
        validate_chrome_trace(doc, n_lcs=2, tracer=tr)
        spans = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("pkt ")
        ]
        completed = sum(
            1 for e in tr if e["name"] == "complete"
        )
        assert completed == result.packets
        assert len(spans) == completed
        # ``complete`` records carry the served next hop, and the export
        # and validator above accept the extra argument.
        assert all(
            isinstance(e["hop"], int) for e in tr if e["name"] == "complete"
        )

    def test_export_writes_valid_json(self, table, tmp_path):
        tr = Tracer()
        traced_run(table, trace=tr)
        path = tmp_path / "trace.json"
        doc = export_chrome_trace(tr, path, name="unit")
        on_disk = json.loads(path.read_text())
        assert on_disk["otherData"]["name"] == "unit"
        assert len(on_disk["traceEvents"]) == len(doc["traceEvents"])

    def test_validation_rejects_malformed_documents(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"nope": []})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "X", "pid": 1, "tid": 0, "name": "x", "ts": -1}
                ]}
            )

    def test_validation_requires_all_lc_tracks(self, table):
        tr = Tracer()
        traced_run(table, n_lcs=2, trace=tr)
        doc = chrome_trace(tr)
        with pytest.raises(ObservabilityError):
            validate_chrome_trace(doc, n_lcs=4)


# ---------------------------------------------------------------------------
# Simulator / router integration
# ---------------------------------------------------------------------------


class TestMetricsSnapshot:
    def test_simulator_snapshot_contents(self, table):
        reg = MetricsRegistry()
        _, result = traced_run(table, n_lcs=2, registry=reg)
        snap = result.metrics_snapshot
        assert snap == reg.snapshot()
        total = sum(len(s) for s in small_streams(2))
        assert snap["sim.packets{outcome=completed}"] == total
        assert snap["sim.packets{outcome=dropped}"] == 0
        assert snap["fabric.msgs{kind=sent}"] == result.fabric_messages
        for lc in (0, 1):
            assert snap[f"fe.lookups{{lc={lc}}}"] == result.fe_lookups[lc]
            assert (
                snap[f"cache.lr.lookups{{lc={lc}}}"]
                == result.cache_stats[lc]["lookups"]
            )
        rt = snap["sim.rem.round_trip_cycles"]
        assert rt["count"] > 0  # some lookups crossed the fabric

    def test_phase_seconds_live_on_simulator_not_result(self, table):
        sim, result = traced_run(table)
        assert set(sim.phase_seconds) == {
            "precompute", "schedule", "run", "collect",
        }
        assert all(v >= 0 for v in sim.phase_seconds.values())
        assert not hasattr(result, "phase_seconds")

    def test_construct_seconds_kept_apart_from_run_phases(self, table):
        """Construction steps are timed in their own dict: a consumer that
        subtracts the phase sum from run() wall time must not see them."""
        sim, result = traced_run(table)
        assert set(sim.construct_seconds) == {"partition", "matchers"}
        assert all(v >= 0 for v in sim.construct_seconds.values())
        assert not set(sim.construct_seconds) & set(sim.phase_seconds)
        assert not hasattr(result, "construct_seconds")
        armed = SpalSimulator(table, SpalConfig(n_lcs=2, minimize="full"))
        assert set(armed.construct_seconds) == {
            "minimize", "partition", "matchers",
        }
        shared = SpalSimulator(table, SpalConfig(n_lcs=2), partitioned=False)
        assert set(shared.construct_seconds) == {"matchers"}

    def test_top_metrics(self):
        r = SimulationResult(
            name="t", n_lcs=1, latencies=np.array([1]), horizon_cycles=1,
            metrics_snapshot={
                "a.small": 1,
                "b.big": 50,
                "c.hist": {"count": 10, "sum": 1.0, "mean": 0.1, "buckets": {}},
            },
        )
        assert r.top_metrics(2) == [("b.big", 50.0), ("c.hist", 10.0)]

    def test_router_metrics_snapshot(self, table):
        router = SpalRouter(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=32))
        )
        for a in range(0, 50_000, 997):
            router.lookup(a, a % 2)
        snap = router.metrics_snapshot()
        assert snap["router.lookups"] == router.stats.lookups
        assert (
            snap["router.remote_requests"] == router.stats.remote_requests
        )
        assert "cache.lr.hit_rate{lc=0}" in snap
        assert "partition.routes{lc=1}" in snap


class TestLegacyResults:
    """analysis.metrics tolerates results minted before the fault layer
    (e.g. unpickled from an old sweep) that lack the degraded-mode fields."""

    @staticmethod
    def legacy_result():
        r = SimulationResult.__new__(SimulationResult)
        # Only the fields the pre-fault dataclass had.
        r.name = "old"
        r.n_lcs = 2
        r.latencies = np.array([4, 6], dtype=np.int64)
        r.horizon_cycles = 100
        r.cache_stats = [{}, {}]
        r.fe_lookups = [1, 1]
        r.fe_utilization = [0.1, 0.1]
        r.fabric_messages = 0
        r.flushes = 0
        r.extra = {}
        return r

    def test_drop_rate_returns_zero(self):
        assert drop_rate(self.legacy_result()) == 0.0

    def test_degraded_mode_summary_returns_fault_free_row(self):
        row = degraded_mode_summary(self.legacy_result())
        assert row["ingress_drops"] == 0
        assert row["crash_drops"] == 0
        assert row["unreachable_drops"] == 0
        assert row["delivery_rate"] == 1.0
        assert row["retries"] == 0
        assert row["fabric_lost"] == 0
        assert row["failover_packets"] == 0
        assert row["min_availability"] == 1.0

    def test_current_results_unchanged(self, table):
        _, result = traced_run(table)
        assert drop_rate(result) == 0.0
        assert degraded_mode_summary(result)["delivery_rate"] == 1.0


# ---------------------------------------------------------------------------
# Kernel profiling hooks
# ---------------------------------------------------------------------------


class TestKernelProfile:
    def test_touches_by_level_is_reverse_cumulative(self):
        p = KernelProfile("unit")
        p.record_batch(np.array([1, 2, 2, 3]), 0.5)
        # 4 lookups reached level 1, 3 reached level 2, 1 reached level 3.
        assert p.touches_by_level() == [4, 3, 1]
        assert p.batch_lookups == 4
        assert p.mean_accesses == pytest.approx(2.0)
        assert p.traverse_seconds == pytest.approx(0.5)

    def test_profile_matcher_is_transparent(self, table):
        addrs = np.random.default_rng(0).integers(
            0, 1 << 32, 2000, dtype=np.uint64
        )
        matcher = LuleaTrie(table)
        plain = matcher.measure(addrs)
        matcher = LuleaTrie(table)
        measured, profile = profile_matcher(matcher, addrs)
        assert measured == plain
        assert matcher.profiler is None  # hook removed afterwards
        assert profile.lookups == len(addrs)
        assert profile.compile_calls == 1
        touches = profile.touches_by_level()
        assert touches and touches[0] == len(addrs)
        # Monotonically non-increasing by construction.
        assert all(a >= b for a, b in zip(touches, touches[1:]))

    def test_observe_into_publishes_gauges(self, table):
        reg = MetricsRegistry()
        addrs = np.arange(500, dtype=np.uint64)
        profile_matcher(LuleaTrie(table), addrs, registry=reg)
        snap = reg.snapshot()
        assert snap["trie.kernel.lookups{kernel=LL}"] == 500
        assert "trie.kernel.compile_seconds{kernel=LL}" in snap
        assert any(k.startswith("trie.kernel.level_touches") for k in snap)

    def test_measure_with_profiler_keyword(self, table):
        profile = KernelProfile("ll")
        matcher = LuleaTrie(table)
        matcher.measure(np.arange(100, dtype=np.uint64), profiler=profile)
        assert profile.lookups == 100
        assert matcher.profiler is None
