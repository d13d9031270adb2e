"""Smoke self-test of the benchmark: ``python -m pytest bench/``.

Runs ``bench/run.py --scale smoke`` (tiny inputs, short measuring window)
as a user would and checks what it prints.  Kept out of the tier-1
``testpaths``: it measures the benchmark, not the library.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, env=None, cwd=ROOT):
    """Run the benchmark at smoke scale; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--scale", "smoke", "--seconds", "0.2", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=cwd, env=env, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def digests(lines):
    return {tuple(ln.split()[1:3]): ln.split()[3]
            for ln in lines if ln.startswith("digest ")}


@pytest.fixture(scope="module")
def seed0():
    code, lines = bench()
    assert code == 0, "\n".join(lines)
    return lines


def test_every_metric_printed_with_its_unit(seed0, tmp_path):
    result = json.loads(seed0[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    code, traced = bench("--workload", "overload_gray", "--trace", "1",
                         "--out", str(tmp_path))
    assert code == 0, "\n".join(traced)
    per_workload = [
        {k.split("/", 1)[1]: v for k, v in result["metrics"].items()
         if k.startswith(f"{w}/")}
        for w in WORKLOADS
    ]
    for section, printed, results in (
        ("end_to_end", seed0, per_workload),
        ("per_layer", traced, [json.loads(traced[-1])["metrics"]]),
    ):
        for m in BENCH[section]:
            name, unit = m["name"], m["unit"]
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            pattern = re.compile(
                rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)")
            assert any(pattern.match(ln) for ln in printed), name
            for metrics in results:
                assert metrics[name]["unit"] == unit
                assert isinstance(metrics[name]["value"], (int, float))
        assert all(len(r) == len(BENCH[section]) for r in results)
    span_file = tmp_path / "overload_gray-seed0.spans.jsonl"
    spans = [json.loads(ln) for ln in span_file.read_text().splitlines()]
    assert {"trace", "span", "parent", "name", "start", "end"} <= set(spans[0])
    assert any(s["name"] == "sim.run" and "precompute" in s["attrs"]
               for s in spans)


def test_seed_moves_inputs_not_metric_set(seed0):
    code, lines = bench("--seed", "1")
    assert code == 0, "\n".join(lines)
    before, after = digests(seed0), digests(lines)
    assert before.keys() == after.keys()
    assert all(before[k] != after[k] for k in before)
    assert (json.loads(lines[-1])["metrics"].keys()
            == json.loads(seed0[-1])["metrics"].keys())


def test_parent_environment_is_pinned(seed0):
    env = dict(os.environ, REPRO_BATCH="0")
    code, lines = bench("--workload", "headline", env=env)
    assert code == 0, "\n".join(lines)
    assert "batch kernels on" in lines[0]
    mine = digests(lines)
    assert mine and all(digests(seed0)[k] == v for k, v in mine.items())


def test_failed_check_exits_nonzero():
    code, lines = bench("--workload", "headline", "--expect-digest", "0" * 64)
    assert code != 0
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert any(ln.startswith("FAILED expected_digest") for ln in lines)


def test_without_the_library_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "headline", cwd=str(tmp_path))
    assert code != 0
    assert not any(ln.startswith("{") for ln in lines)
