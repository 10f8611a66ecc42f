"""Smoke check of the benchmark harness: tiny inputs, every workload, both
modes.  It checks the result schema and that nothing failed; it sets no
timing bounds.

Run from the repository root: ``python -m pytest bench/test_smoke.py``.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run(workload, trace):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)), m["name"]
        if not trace:
            assert entry["value"] > 0, m["name"]


def test_fails_without_the_package(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, the run must
    fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
