"""Smoke test of the benchmark harness.

Every workload runs in smoke mode (one pass over a cheap subset of its pool),
its pinned checks pass, and it prints every metric BENCHMARK.json names, with
that metric's unit.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    # the printed table names every metric, fail_ratio too, with its unit
    table = {}
    for line in proc.stdout.splitlines()[1:-1]:
        fields = line.split()
        if len(fields) >= 3:
            table[fields[0]] = fields[2]
    assert table == {**table, **wanted, "fail_ratio": "ratio"}


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "intertwine", "--smoke")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
