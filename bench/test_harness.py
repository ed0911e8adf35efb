"""Self-test of the benchmark harness at tiny sizes; takes about 25 s.

    python3 -m pytest -q bench/test_harness.py

Run from the repository root. Every workload runs once untraced and once
traced; each must print every metric BENCHMARK.json names, with its unit,
and fail no invocation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import trace_cli  # noqa: E402
import workloads  # noqa: E402


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines[:-1]), m["name"]
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines[:-1])


def test_missing_trace_target_is_reported_and_patches_are_undone():
    import reprokit.cli
    import reprokit.trec_io

    original = reprokit.trec_io.load_run
    tracer = trace_cli.Tracer()
    tracer.install({"trec_io": ("load_run", "no_such_function"), "no_such_module": ("f",)})
    try:
        assert tracer.missing == ["trec_io.no_such_function", "no_such_module.f"]
        assert reprokit.cli.load_run is not original
        assert reprokit.trec_io.load_run is not original
    finally:
        tracer.restore()
    assert reprokit.cli.load_run is original
    assert reprokit.trec_io.load_run is original


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workloads.NAMES[0],
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
