"""Smoke test of the benchmark at tiny size: ``python3 -m pytest cutbench -q``.

Every workload runs end to end with and without tracing; a second seed
gives the same metric names and op counts; one seed traced twice gives the
same per-layer counts; and without the library's sources the benchmark
fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    res = subprocess.run(
        [sys.executable, "cutbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return res


def _result(workload: str, seed: int, trace: int):
    res = _run(workload, seed, trace)
    assert res.returncode == 0, res.stderr
    line = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], res.stdout
    assert line["attempted"] >= 1
    out = HERE / "out" / workload / f"seed-{seed}{'-trace' if trace else ''}" / "result.json"
    return line, json.loads(out.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_runs_repeat_across_seeds(workload):
    first, rec1 = _result(workload, 1, 0)
    second, rec2 = _result(workload, 2, 0)
    assert list(first["metrics"]) == [name for name, _unit in END_TO_END]
    assert list(second["metrics"]) == list(first["metrics"])
    assert rec1["ops_per_sweep"] == rec2["ops_per_sweep"]
    for name, unit in END_TO_END:
        assert first["metrics"][name]["unit"] == unit
        assert first["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, _ = _result(workload, 3, 1)
    second, _ = _result(workload, 3, 1)
    assert list(first["metrics"]) == list(second["metrics"])
    counts = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "cutbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = _run("family-scale", 1, 0, cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()
