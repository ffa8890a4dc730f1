"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from tracing import summarize  # noqa: E402
from worker import KERNEL_REF_S, reference_scale, run_pass  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())


@pytest.fixture
def job(tmp_path):
    def make(workload, ops, horizon=50.0, trace=False):
        path = tmp_path / "scenario.yaml"
        path.write_text(json.dumps(dict(run.README_SCENARIO, horizon=horizon)))
        return {"workload": workload, "root": str(HERE.parent),
                "scenario": str(path), "workdir": str(tmp_path),
                "trace": trace, "ops": ops}
    return make


def spectrum_ops(count, seed=0):
    ops = run.make_ops("spectrum_certify", seed, REFERENCE)[:count]
    return ([{k: v for k, v in op.items() if k != "expected"} for op in ops],
            [op["expected"][0] for op in ops])


def failures(result, expected):
    return sum(bool(run.compare(obs, ref))
               for obs, ref in zip(result["obs"], expected, strict=True))


def test_make_ops_is_seeded_and_stratified():
    sweep = run.make_ops("sweep_d1", 7, REFERENCE)
    assert sweep == run.make_ops("sweep_d1", 7, REFERENCE)
    assert sweep != run.make_ops("sweep_d1", 8, REFERENCE)
    values = [float(v) for v in sweep[0]["values"]]
    assert len(values) == 8
    assert sum(0.905 < v < 2.71 for v in values) == 6
    assert sum(v < 0.905 for v in values) == 2
    sets = run.make_ops("spectrum_certify", 7, REFERENCE)
    verdicts = [op["expected"][0]["verdict"] for op in sets]
    assert verdicts.count("AsymptoticallyStable") == 32
    assert verdicts.count("Unstable") == 16
    assert all(0.02 < op["params"][tau] < 0.5
               for op in sets for tau in ("tau1", "tau2"))


@pytest.mark.parametrize("key, value, ok", [
    ("sigma", 0.5 * (1 + 1e-10), True),
    ("sigma", 0.5 * (1 + 1e-8), False),
    ("verdict", "Unstable", False),
    ("n_roots", 8, False),
    ("final_state", [1.0, 1e-3, 1e-18 + 1e-10], True),
    ("final_state", [1.0, 1e-3, 1e-8], False),
    ("V0", None, False),
])
def test_compare_tolerances(key, value, ok):
    ref = {"sigma": 0.5, "verdict": "AsymptoticallyStable", "n_roots": 7,
           "final_state": [1.0, 1e-3, 1e-18], "V0": 2e-9}
    assert (run.compare(dict(ref, **{key: value}), ref) == []) is ok


def test_compare_rejects_missing_fields():
    assert run.compare({"error": "ValueError: boom"}, {"sigma": 1.0})


@pytest.mark.parametrize("corrupt", [
    lambda e: e.update(sigma=e["sigma"] * (1 + 1e-6)),
    lambda e: e.update(n_roots=e["n_roots"] + 1),
    lambda e: e.update(verdict="Unstable"),
    lambda e: e.update(rightmost=e["rightmost"] * 1.01),
])
def test_one_corrupted_reference_fails_one_operation(job, corrupt):
    ops, expected = spectrum_ops(3)
    result = run_pass(job("spectrum_certify", ops))
    assert failures(result, expected) == 0
    bad = copy.deepcopy(expected)
    corrupt(next(e for e in bad if "sigma" in e))
    assert failures(result, bad) == 1


def copy_of_benchmark(dest: Path) -> Path:
    """A checkout holding the benchmark's files, to run a modified copy."""
    shutil.copy(HERE.parent / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_corrupted_reference_makes_the_benchmark_fail(tmp_path):
    root = copy_of_benchmark(tmp_path)
    (root / "src").symlink_to(HERE.parent / "src")
    ref = copy.deepcopy(REFERENCE)
    ref["run_readme"]["expected"]["final_state"][1] *= 1 + 1e-6
    (root / "perfbench" / "reference.json").write_text(json.dumps(ref))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run_readme",
         "--seconds", "1"],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert info["failed_frac"] == 1.0
    assert "final_state" in proc.stderr


def test_traced_counters_repeat_and_self_times_add_up(job):
    ops, _ = spectrum_ops(2)
    first, second = (summarize(run_pass(job("spectrum_certify", ops,
                                            trace=True))["spans"])
                     for _ in range(2))
    counters = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counters == {k: v for k, v in second.items()
                        if not k.endswith("_s")}
    assert first["spectrum.root_scan.calls"] == 2
    assert first["bench.calls"] == 2
    assert "simulate.integrate.calls" not in first


def test_sweep_rows_integrate_twice_only_when_admissible(job):
    result = run_pass(job("sweep_d1", [{"values": ["1.5", "0.5"]}],
                          horizon=1.0, trace=True))
    assert [row[1] for row in result["rows"]] == [True, False]
    summary = summarize(result["spans"], result["rows"])
    assert summary["scenario.sweep.integrate_by_row"] == [2, 1]
    assert summary["scenario.sweep.integrate_per_admissible_row"] == 2
    assert summary["scenario.sweep.integrate_per_inadmissible_row"] == 1
    assert summary["scenario.sweep.redundant_integrate_s"] > 0
    assert "spectrum.root_scan.calls" not in summary
    assert len(result["op_s"]) == 2 and result["notes"] == []


def test_run_counts_steps_and_csv_rows(job):
    result = run_pass(job("run_readme", [{}], horizon=1.0, trace=True))
    summary = summarize(result["spans"])
    assert summary["simulate.integrate.steps"] == 2000
    assert summary["simulate.to_csv.rows"] == 2001
    assert summary["simulate.to_csv.bytes"] > 0
    assert summary["scenario.sweep.redundant_integrate_s"] == 0
    assert not list(Path(job("run_readme", [])["workdir"]).glob("op*"))


def test_summarize_rejects_overlapping_spans():
    spans = [["bench.op", -1, 0.0, 1.0, None],
             ["simulate.integrate", 0, 0.0, 0.6, None],
             ["simulate.to_csv", 0, 0.5, 1.2, None]]
    with pytest.raises(ValueError):
        summarize(spans)


def test_reference_scale_shrinks_times_on_a_slow_host():
    assert reference_scale([KERNEL_REF_S] * 3) == pytest.approx(1.0)
    assert reference_scale([2 * KERNEL_REF_S] * 3) == pytest.approx(0.5)
    assert reference_scale([KERNEL_REF_S, 4 * KERNEL_REF_S]) == pytest.approx(0.625)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(10)]) is None
    t = run.tail([float(i) for i in range(200)])
    assert t["name"] == "op_wall_s.p95" and t["beyond"] == 10


def test_fails_without_the_package_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_d1",
         "--seconds", "1"],
        cwd=copy_of_benchmark(tmp_path), capture_output=True, text=True,
        timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
