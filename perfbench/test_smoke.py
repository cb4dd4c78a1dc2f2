"""Smoke test of the benchmark: every workload once at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, and that traced spans nest so that no self time is negative.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    _, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(workload):
    report, result = run(workload, 1)
    assert result["correct"] is True
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = report["spans"]
    assert spans["nesting_errors"] == []
    # self times are differences of clock readings; allow float rounding only
    assert spans["min_self_s"] >= -1e-9
    assert spans["self_sum_s"] == pytest.approx(spans["traced_ops_s"], rel=1e-9)
