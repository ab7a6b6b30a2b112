"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest bench/test_smoke.py -q

It runs every workload untraced and traced and checks that each metric
BENCHMARK.json names is printed, that a deliberately corrupted fill result is
caught by the correctness gate, and that the benchmark refuses to run without
the engine's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--scale", "toy", "--seconds", "0.2",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_prints_every_metric(trace, group):
    result = last_json(bench("--workload", "all", "--trace", trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_single_workload_prints_exactly_its_metrics():
    result = last_json(bench("--workload", WORKLOADS[0], "--seed", "3"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_fill_result_raises_error_rate():
    proc = bench("--workload", "fill-centered", "--inject-fault")
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0
    assert "check failed" in proc.stdout


def test_refuses_to_run_without_engine_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
