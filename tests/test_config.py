"""Unit tests for CacheConfig / SpalConfig field domains and fabric wiring."""

import pytest

from repro.errors import CacheConfigError, ReproError, SimulationError
from repro.core import CacheConfig, SpalConfig


class TestCacheConfig:
    def test_defaults_match_paper(self):
        c = CacheConfig()
        assert c.n_blocks == 4096        # β = 4K, the paper's sweet spot
        assert c.associativity == 4      # Sec. 3.2: degree 4 near-optimal
        assert c.mix == 0.5              # γ = 50%
        assert c.victim_blocks == 8      # Sec. 3.2: 8-block victim cache

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_blocks=0),
            dict(n_blocks=10, associativity=4),
            dict(mix=-0.1),
            dict(mix=1.1),
            dict(victim_blocks=-1),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(CacheConfigError):
            CacheConfig(**kw)


class TestSpalConfig:
    def test_defaults(self):
        c = SpalConfig()
        assert c.n_lcs == 16
        assert c.fe_lookup_cycles == 40  # Lulea-trie FE

    def test_invalid_lcs(self):
        with pytest.raises(SimulationError):
            SpalConfig(n_lcs=0)

    def test_invalid_fe_cycles(self):
        with pytest.raises(SimulationError):
            SpalConfig(fe_lookup_cycles=0)

    def test_cache_validated_through(self):
        with pytest.raises(CacheConfigError):
            SpalConfig(cache=CacheConfig(mix=2.0))

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("default", "crossbar"),   # 16 LCs -> crossbar
            ("ideal", "ideal"),
            ("bus", "bus"),
            ("crossbar", "crossbar"),
            ("multistage", "multistage"),
        ],
    )
    def test_make_fabric(self, kind, expected):
        fab = SpalConfig(fabric=kind).make_fabric()
        assert fab.name == expected

    def test_unknown_fabric(self):
        with pytest.raises(SimulationError):
            SpalConfig(fabric="warp")

    def test_fabric_latency_override(self):
        for latency in (0, 7):
            fab = SpalConfig(
                fabric="crossbar", fabric_latency=latency
            ).make_fabric()
            assert fab.name == "crossbar"
            assert fab.latency_cycles() == latency

    def test_minimize_values_come_from_pass_sets(self):
        from repro.routing import minimize

        # The config takes the one pass set a run arms; "light" stays a
        # minimize_table name only.
        assert "full" in minimize.PASS_SETS and "light" in minimize.PASS_SETS
        for value in (None, "full"):
            assert SpalConfig(minimize=value).minimize == value
        for value in ("light", "ortc", ["full"]):
            with pytest.raises(SimulationError, match="None or 'full'"):
                SpalConfig(minimize=value)


@pytest.mark.parametrize("make,raises", [
    # Signs and names: today's rules, now checked at construction.
    (lambda: SpalConfig(n_lcs=0), SimulationError),
    (lambda: SpalConfig(fabric="bogus"), SimulationError),
    (lambda: CacheConfig(policy="bogus"), CacheConfigError),
    # Types: each of these used to construct and fail later, if at all.
    (lambda: SpalConfig(n_lcs=2.5), SimulationError),
    (lambda: SpalConfig(n_lcs=True), SimulationError),
    (lambda: SpalConfig(n_lcs=2, fe_lookup_cycles=1.5), SimulationError),
    (lambda: SpalConfig(n_lcs=2, sample_interval_cycles=2.5),
     SimulationError),
    (lambda: SpalConfig(cache=4096), SimulationError),
    (lambda: CacheConfig(n_blocks=8.0), CacheConfigError),
    (lambda: SpalConfig(early_recording="no"), SimulationError),
    (lambda: SpalConfig(fe_queue_capacity=2.5), SimulationError),
    # fabric_latency: an int >= 0, and a crossbar's only.
    (lambda: SpalConfig(fabric="crossbar", fabric_latency=-3),
     SimulationError),
    (lambda: SpalConfig(fabric="crossbar", fabric_latency=2.5),
     SimulationError),
    (lambda: SpalConfig(fabric="bus", fabric_latency=7), SimulationError),
], ids=["n_lcs_zero", "fabric_unknown", "cache_policy_unknown",
        "n_lcs_fractional", "n_lcs_bool", "fe_cycles_fractional",
        "sample_interval_fractional", "cache_not_config",
        "cache_blocks_float", "early_recording_str",
        "fe_queue_capacity_fractional", "fabric_latency_negative",
        "fabric_latency_fractional", "fabric_latency_not_crossbar"])
def test_rejected_config_raises_at_construction(make, raises):
    """The construction-time twin of ``test_simulator.py``'s
    ``test_rejected_call_leaves_simulator_runnable``: an out-of-domain
    config never exists, so neither engine can diverge on it — the scalar
    loop used to run a fractional cycle count that made the array engine
    raise a bare ``TypeError`` mid-run, and a negative ``fabric_latency``
    gave the array engine negative latencies."""
    with pytest.raises(raises) as info:
        make()
    assert isinstance(info.value, ReproError)


class TestKnobTable:
    """docs/ARCHITECTURE.md §10 names the consumer of every knob: a new
    field or ``run`` argument cannot land without a row, and a deleted
    one cannot leave its row behind."""

    def test_every_knob_has_a_consumer_row(self):
        import dataclasses
        import inspect
        import re
        from pathlib import Path

        from repro.sim import SpalSimulator

        doc = (
            Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"
        ).read_text(encoding="utf-8")
        section = doc.split("## 10. Knobs and their consumers", 1)[1]
        rows = {
            m.group(1): m.group(2).strip()
            for m in re.finditer(r"^\| `([^`]+)` \|(.*)\|$", section, re.M)
        }
        knobs = {f"SpalConfig.{f.name}" for f in dataclasses.fields(SpalConfig)}
        knobs |= {f"CacheConfig.{f.name}" for f in dataclasses.fields(CacheConfig)}
        knobs |= {
            f"run({name})"
            for name in inspect.signature(SpalSimulator.run).parameters
            if name != "self"
        }
        assert sorted(knobs - set(rows)) == [], "knobs without a row"
        assert sorted(set(rows) - knobs) == [], "rows for deleted knobs"
        assert all(rows.values()), "a row names no consumer"

    def test_every_field_declares_a_domain(self):
        """Construction checks each field against its declared domain, so
        a field without one would land unchecked."""
        import dataclasses

        from repro.core.config import Domain

        for cls in (SpalConfig, CacheConfig):
            for f in dataclasses.fields(cls):
                assert isinstance(f.metadata.get("domain"), Domain), (
                    f"{cls.__name__}.{f.name} declares no domain"
                )
