"""Smoke test of the benchmark itself; it makes no timing assertions.

One short pass of a tiny optimize workload, untraced and traced, must
print a result line with every metric that BENCHMARK.json names, in its
unit, and with exact counts from the tracer.  Without a memgrad source
tree the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "problem": {"name": "quadratic_diag", "params": {"coeffs": [0.02, 0.005]},
                "noise": {"kind": "gaussian", "sigma": 0.1}},
    "methods": [{"name": "memsgd", "params": {"p": 2.0, "eta": 0.5}},
                {"name": "adam", "params": {"eta": 0.01}}],
    "run": {"kind": "optimize", "iterations": 40, "x0": [1.0, 1.0], "n_seeds": 2,
            "record_stride": 10},
    "bounds": [{"kind": "memsgd_discrete", "method": "memsgd(eta=0.5,p=2.0)",
                "params": {"p": 2.0, "eta": 0.5, "d": 2, "dist2": 2.0,
                           "varsigma2": 0.01}}],
    "master_seed": 0,
}


def test_spec_matches_benchmark_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_short_pass_reports_every_metric(tmp_path, trace):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY), encoding="utf-8")
    workload = Workload("smoke", "tiny optimize pass", lambda root, work, seed: config,
                        "optimize", has_reference=False)
    result = run.measure(workload, ROOT, tmp_path / "work", 0, 0.001, trace)
    payload = json.loads(run.report(result, run.environment(ROOT)).splitlines()[-1])

    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] and payload["failed"] == 0 and payload["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(payload["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = payload["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        metrics = {name: m["value"] for name, m in payload["metrics"].items()}
        assert metrics["optimizers.calls"] == 2 * 2 * 40
        assert metrics["harness.runs"] == 4
        assert metrics["harness.records"] == 4 * 5
        assert metrics["theory.bound_evals"] == 5
        assert metrics["continuum.traj_calls"] == 0


def test_fails_without_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quartic-optimize", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
