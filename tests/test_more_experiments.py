"""Tests for the extension experiments: IPv6 storage, seed robustness,
per-LC link speeds."""

import numpy as np
import pytest

from repro.core import CacheConfig, SpalConfig
from repro.errors import SimulationError
from repro.experiments import run_ipv6_storage, run_seed_robustness
from repro.routing import random_small_table
from repro.sim import SpalSimulator
from repro.traffic import FlowPopulation, TraceSpec, generate_router_streams


class TestIPv6Storage:
    @pytest.mark.slow
    def test_rows_and_savings(self):
        result = run_ipv6_storage(size=1500)
        assert len(result.rows) == 12  # 2 tables x 3 tries x 2 psi
        for row in result.rows:
            assert row["saving_kb"] > 0
            assert row["reduction"] > 1.0

    @pytest.mark.slow
    def test_absolute_saving_larger_under_ipv6(self):
        """The paper: "the reduction amount will be much larger under IPv6"
        — per-LC byte savings for the binary trie at psi=16."""
        result = run_ipv6_storage(size=1500)
        by_key = {(r["table"], r["trie"], r["psi"]): r for r in result.rows}
        v4 = by_key[("IPv4", "binary", 16)]["saving_kb"]
        v6 = by_key[("IPv6", "binary", 16)]["saving_kb"]
        assert v6 > v4


class TestSeedRobustness:
    def test_low_variance(self):
        result = run_seed_robustness(
            trace="D_75", n_lcs=4, n_seeds=3, packets_per_lc=3000
        )
        data = [r for r in result.rows if isinstance(r["mean_cycles"], float)]
        assert len(data) == 3
        means = [r["mean_cycles"] for r in data]
        spread = (max(means) - min(means)) / (sum(means) / len(means))
        # Conclusions must not hinge on the draw: <25% relative spread.
        assert spread < 0.25
        assert result.rows[-1]["seed"] == "mean±std"


class TestPerLcSpeeds:
    @pytest.fixture
    def setup(self):
        table = random_small_table(150, seed=61)
        spec = TraceSpec("t", n_flows=400, recency=0.3, seed=2)
        pop = FlowPopulation(spec, table)
        return table, pop

    def test_mixed_speeds_run(self, setup):
        table, pop = setup
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256))
        )
        streams = generate_router_streams(pop, 4, 800)
        result = sim.run(streams, speed_gbps=[40, 10, 40, 10])
        assert result.packets == 3200

    def test_slower_lcs_spread_arrivals(self, setup):
        table, pop = setup

        def horizon(speeds):
            sim = SpalSimulator(
                table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=256))
            )
            streams = generate_router_streams(pop, 2, 500)
            return sim.run(streams, speed_gbps=speeds).horizon_cycles

        assert horizon([10, 10]) > horizon([40, 40])

    def test_wrong_speed_count(self, setup):
        table, pop = setup
        sim = SpalSimulator(table, SpalConfig(n_lcs=4))
        streams = generate_router_streams(pop, 4, 100)
        with pytest.raises(SimulationError):
            sim.run(streams, speed_gbps=[40, 10])

    def test_unsupported_speed_value(self, setup):
        table, pop = setup
        sim = SpalSimulator(table, SpalConfig(n_lcs=2))
        streams = generate_router_streams(pop, 2, 100)
        with pytest.raises(SimulationError):
            sim.run(streams, speed_gbps=[40, 25])


class TestSimulatorReuseGuard:
    def test_second_run_rejected(self):
        table = random_small_table(60, seed=62)
        spec = TraceSpec("t", n_flows=100, seed=3)
        pop = FlowPopulation(spec, table)
        sim = SpalSimulator(table, SpalConfig(n_lcs=2))
        streams = generate_router_streams(pop, 2, 50)
        sim.run(streams)
        with pytest.raises(SimulationError):
            sim.run(generate_router_streams(pop, 2, 50))


class TestIndexFunction:
    def test_xor_index_correctness(self):
        """Lookups stay correct regardless of the index function."""
        from repro.core import LOC, LRCache

        for index in ("mod", "xor"):
            cache = LRCache(n_blocks=64, index=index, victim_blocks=0)
            for a in (0x0A000001, 0xC0A80101, 0x0A010001):
                cache.insert_complete(a, a & 0xF, LOC)
            for a in (0x0A000001, 0xC0A80101, 0x0A010001):
                assert cache.probe(a).next_hop == a & 0xF

    def test_bad_index_rejected(self):
        from repro.core import LRCache
        from repro.errors import CacheConfigError

        with pytest.raises(CacheConfigError):
            LRCache(n_blocks=64, index="hash")
        with pytest.raises(CacheConfigError):
            CacheConfig(index="hash")

    def test_xor_spreads_aligned_addresses(self):
        """Addresses sharing low bits (stride = n_sets) collide under mod
        but spread under xor when their high halves differ."""
        from repro.core import LOC, LRCache

        def distinct_sets(index):
            cache = LRCache(n_blocks=64, index=index, victim_blocks=0)
            # Same low 16 bits, different high bits.
            addrs = [(i << 16) | 0x0004 for i in range(16)]
            return len({id(cache._set_of(a)) for a in addrs})

        assert distinct_sets("mod") == 1
        assert distinct_sets("xor") > 4

    def test_index_fn_experiment(self):
        from repro.experiments import run_index_function_ablation

        result = run_index_function_ablation(packets_per_lc=2000)
        assert {r["index"] for r in result.rows} == {"mod", "xor"}


class TestScorecard:
    @pytest.mark.slow
    def test_all_claims_pass_at_small_scale(self):
        from repro.experiments import run_scorecard

        result = run_scorecard(packets_per_lc=2500)
        statuses = {r["exp"]: r["status"] for r in result.rows}
        assert len(statuses) == 9
        failures = {k: v for k, v in statuses.items() if v != "PASS"}
        assert not failures, f"scorecard regressions: {failures}"


class TestVerifyMode:
    def test_verified_run_passes(self):
        table = random_small_table(100, seed=63)
        spec = TraceSpec("t", n_flows=200, seed=4)
        pop = FlowPopulation(spec, table)
        sim = SpalSimulator(
            table,
            SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=64)),
            verify=True,
        )
        result = sim.run(generate_router_streams(pop, 4, 400))
        assert result.packets == 1600

    def test_corrupted_partition_detected(self):
        table = random_small_table(100, seed=64)
        spec = TraceSpec("t", n_flows=200, seed=5)
        pop = FlowPopulation(spec, table)
        sim = SpalSimulator(table, SpalConfig(n_lcs=2, cache=None), verify=True)

        class Liar:
            def lookup(self, address):
                return -7  # never a real hop

            def lookup_batch(self, addresses):
                return np.full(len(addresses), -7, dtype=np.int64)

        sim._matchers = [Liar(), Liar()]
        with pytest.raises(SimulationError, match="partition invariant"):
            sim.run(generate_router_streams(pop, 2, 50))


class TestRT1Trend:
    def test_similar_trend_claim(self):
        from repro.experiments import run_rt1_trend

        result = run_rt1_trend(packets_per_lc=3000)
        verdict = result.rows[-1]["mean_cycles"]
        assert "same_trend=True" in verdict
        # Strong correlation between the two tables' psi sweeps.
        r = float(verdict.split("r=")[1].split(",")[0])
        assert r > 0.8


class TestPacketsOverride:
    def test_env_override(self, monkeypatch):
        from repro.experiments.common import default_packets_per_lc

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        monkeypatch.setenv("REPRO_PACKETS", "5000")
        assert default_packets_per_lc() == 5000
        monkeypatch.setenv("REPRO_PACKETS", "junk")
        assert default_packets_per_lc() == 30_000
        monkeypatch.setenv("REPRO_PACKETS", "3")
        assert default_packets_per_lc() == 100  # floored

    def test_cli_packets_flag(self, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.delenv("REPRO_PACKETS", raising=False)
        assert main(["--packets", "nope"]) == 2
        assert main(["--packets", "2000", "partition-bits"]) == 0
        monkeypatch.delenv("REPRO_PACKETS", raising=False)
