"""Tests of the benchmark itself, at tiny size.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from check import check_output, golden_view, subset_mismatch
from workloads import Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
# Deterministic size counters: equal for every seed at one size.  The
# numeric drift is a measured float and depends on the initial conditions.
SIZE_COUNTERS = [m["name"] for m in SPEC["per_layer"]
                 if m["unit"] in ("count", "bits")] + ["engine.kept_ratio"]


def bench(workload: str, trace: int, seed: int = 1, root: Path = ROOT
          ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_size_counters_do_not_depend_on_the_seed(workload):
    first, second = (result_of(bench(workload, 1, seed)) for seed in (3, 4))
    for name in SIZE_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = bench("search", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_output_check_reports_a_wrong_verdict():
    job = Job("q", "verify", "q.prob", exit_code=1,
              verdicts={"G1": True, "G2": False})
    obj = {"status": "failed", "generators_checked": [
        {"name": "G1", "admits_gauge": True, "verified": True, "law": ["a"]},
        {"name": "G2", "admits_gauge": False}]}
    golden = golden_view(obj)
    assert check_output(job, 1, obj, golden) == []
    assert check_output(job, 0, obj, golden)            # exit code
    flipped = json.loads(json.dumps(obj))
    flipped["generators_checked"][1]["admits_gauge"] = True
    assert check_output(job, 1, flipped, golden)         # verdict
    changed = json.loads(json.dumps(obj))
    changed["generators_checked"][0]["law"] = ["b"]
    assert check_output(job, 1, changed, golden)         # golden law


def test_golden_comparison_ignores_keys_the_golden_lacks():
    golden = {"solutions": [{"law": ["x"]}]}
    actual = {"solutions": [{"law": ["x"], "extra": 1}], "stats": {}}
    assert subset_mismatch(golden, actual) is None
    assert subset_mismatch(golden, {"solutions": []}) is not None
