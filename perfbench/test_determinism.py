"""The benchmark's own checks: exact counts repeat, names match BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench/test_determinism.py

Each case runs ``run.py`` as the driver does, in a subprocess from the
repository root, with a short ``--seconds``.  The counts compared are
taken over the first ops of a run, which always execute, so they must
not depend on the wall clock.  Seed 1 is a development seed; seed 1001
is the first held-out seed (see README.md).
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, seconds: float = 1.0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact_counts(workload: str, seed: int) -> dict:
    record = ROOT / ".perfbench_out" / f"{workload}-s{seed}-t1.json"
    return json.loads(record.read_text())["per_layer_info"]["exact_counts"]


@pytest.mark.parametrize("seed", [1, 1001])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload, seed):
    first = result(bench(workload, seed, trace=1))
    counts = exact_counts(workload, seed)
    second = result(bench(workload, seed, trace=1))
    assert first["correct"] and second["correct"]
    assert exact_counts(workload, seed) == counts
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert counts["core.flops"] > 0


def test_end_to_end_names_and_units():
    out = result(bench("solve-stencil", 1, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("solve-stencil", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
