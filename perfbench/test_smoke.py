"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs in --smoke mode, untraced and traced; each must pass all
of its output checks and print every metric of BENCHMARK.json with its unit.
"""

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


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed,trace", [(1, 0), (1, 1), (2, 0)])
def test_smoke_prints_every_metric_and_passes_checks(workload, seed, trace):
    proc = run_bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "metric failed_frac = 0.0 ratio" in proc.stdout

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    prefix = "layer" if trace else "metric"
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        line = next(l for l in lines if l.startswith(f"{prefix} {metric['name']} = "))
        assert f" {metric['unit']} (median of " in line
    if trace:
        assert "trace overhead:" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
