"""Smoke test of the benchmark harness.

Runs ``perfbench/run.py`` from the repository root as the benchmark does,
for the shortest time it allows, and requires a clean exit and a result
line whose outputs all matched ``perfbench/reference.json``.  Together the
four runs take about twenty-five seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [("run_readme", 0),
                                             ("run_readme", 1),
                                             ("sweep_d1", 0),
                                             ("spectrum_certify", 1)])
def test_benchmark_runs_and_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    # the cause first, so that a one-line summary still names it
    last = next((line for line in reversed(proc.stderr.splitlines())
                 if line.strip()), "")
    why = (f"exit code {proc.returncode}: {last}\n"
           f"standard error tail:\n{proc.stderr[-4000:]}")
    assert proc.returncode == 0, why
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, why
    assert result["failed"] == 0
