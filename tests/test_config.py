"""Unit tests for CacheConfig / SpalConfig validation and fabric wiring."""

import pytest

from repro.errors import CacheConfigError, SimulationError
from repro.core import CacheConfig, SpalConfig


class TestCacheConfig:
    def test_defaults_match_paper(self):
        c = CacheConfig()
        assert c.n_blocks == 4096        # β = 4K, the paper's sweet spot
        assert c.associativity == 4      # Sec. 3.2: degree 4 near-optimal
        assert c.mix == 0.5              # γ = 50%
        assert c.victim_blocks == 8      # Sec. 3.2: 8-block victim cache
        c.validate()

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
            CacheConfig(**kw).validate()


class TestSpalConfig:
    def test_defaults(self):
        c = SpalConfig()
        assert c.n_lcs == 16
        assert c.fe_lookup_cycles == 40  # Lulea-trie FE
        c.validate()

    def test_invalid_lcs(self):
        with pytest.raises(SimulationError):
            SpalConfig(n_lcs=0).validate()

    def test_invalid_fe_cycles(self):
        with pytest.raises(SimulationError):
            SpalConfig(fe_lookup_cycles=0).validate()

    def test_cache_validated_through(self):
        with pytest.raises(CacheConfigError):
            SpalConfig(cache=CacheConfig(mix=2.0)).validate()

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
            SpalConfig(fabric="warp").make_fabric()

    def test_fabric_latency_override(self):
        fab = SpalConfig(fabric="crossbar", fabric_latency=7).make_fabric()
        assert fab.latency_cycles() == 7

    def test_minimize_values_come_from_pass_sets(self):
        from repro.routing import minimize

        # The config takes the one pass set a run arms; "light" stays a
        # minimize_table name only.
        assert "full" in minimize.PASS_SETS and "light" in minimize.PASS_SETS
        for value in (None, "full"):
            SpalConfig(minimize=value).validate()
        for value in ("light", "ortc", ["full"]):
            with pytest.raises(SimulationError, match="None or 'full'"):
                SpalConfig(minimize=value).validate()


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
