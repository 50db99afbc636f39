"""Reduced-size runs of every benchmark workload, made the way its caller makes them."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_verify_check_catches_a_wrong_rank():
    assert run._check_verify_row(3, 6, "unisolvence", "rank 105 of 105, facet kernel ok=True") is None
    assert run._check_verify_row(3, 6, "unisolvence", "rank 104 of 105, facet kernel ok=True")
    assert run._check_verify_row(2, 3, "facet-kernel", "kernel dim 1, expected 1")
    assert run._check_verify_row(3, 6, "facet-kernel", "kernel dim 1, expected 1") is None


def test_nodal_check_catches_a_corrupted_function():
    proc = subprocess.run([sys.executable, "-m", "serendipity.cli", "export", "--what", "nodal",
                           "--n", "2", "--r", "2"], cwd=ROOT, capture_output=True, text=True,
                          env=run.child_env(), timeout=60)
    payload = json.loads(proc.stdout)
    assert run._check_nodal(payload, 2, 2, random.Random(0)) == []
    payload["polynomials"][3][0]["coeff"] = "7/1"
    assert run._check_nodal(payload, 2, 2, random.Random(0))
