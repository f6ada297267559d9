"""Smoke test: every workload at a tiny size, untraced and traced.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

ORACLES = {
    "rare_event_is": {"rate_band", "p_hat_exact_4se"},
    "rate_search": {"feasible", "rate_exact_1e-6"},
    "laplace_tanh": {"values_within_h_bounds", "gaps_strictly_decrease"},
    "sample_export": {"paths_csv_shape", "increments_roundtrip",
                      "terminal_variance_4se"},
}
TRACE_CHECKS = {"trace_streams_equal_sampled_paths",
                "trace_rate_rows_equal_skeleton_solves"}


def _run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_every_workload_has_oracles():
    assert {w["name"] for w in SPEC["workloads"]} == set(ORACLES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(ORACLES))
def test_workload_smoke(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    ran = {line.split()[1].split(".", 1)[1]
           for line in lines if line.startswith("check ")}
    assert ORACLES[workload] | (TRACE_CHECKS if trace else set()) <= ran
    assert result["correct"] and result["failed"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "sample_export", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
