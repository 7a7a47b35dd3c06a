"""Smoke test of the benchmark harness at the criterion-11 tiny configuration.

    python3 -m pytest perfbench/test_smoke.py

Runs each workload once untraced and once traced and checks that every
metric BENCHMARK.json names, and each workload's own named metrics, are
printed with their units.  Also checks that the benchmark fails without a
result when the sources it measures are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMED = {
    "cv-train": {"cv_wall_s": "s", "train_samples_per_s": "samples/s",
                 "combined_binary_accuracy": "fraction",
                 "ecg_5class_recall": "fraction"},
    "stream-infer": {"window_latency_p50_ms": "ms", "window_latency_p99_ms": "ms",
                     "window_latency_samples": "count"},
    "closed-loop-sim": {"sim_events_per_s": "events/s"},
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if not line.startswith("#")}
    for name, unit in NAMED[workload].items():
        assert printed.get(name) == unit, name
    assert any(line.startswith("# host ") for line in lines)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cv-train", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
