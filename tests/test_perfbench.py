"""The benchmark harness in perfbench/ looks the program up by name: a
traced run of each workload must end in a strict result line that carries
every per-layer metric BENCHMARK.json declares."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "11", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=no_constant)
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["per_layer"]}
