"""Benchmark of the classify -> certify -> simulate -> verify pipeline.

    python3 perfbench/run.py --workload run_readme --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports ``planktonfish`` from ``src/``.
Workloads (inputs are drawn from ``reference.json`` by the seed):

* ``run_readme``: ``planktonfish run`` on the README scenario;
* ``sweep_d1``: one 8-value ``planktonfish sweep`` over ``params.d1``;
* ``spectrum_certify``: 48 parameter sets through the spectrum and
  certificate API, without integration.

Every pass runs in a fresh worker process (``worker.py``), one at a time,
pinned to one CPU.  Times are in reference seconds: wall seconds scaled by
the host speed measured alongside them (``worker.SpeedProbe``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1`` traced
and untraced passes alternate and it carries the per-layer metrics.
Each operation's outputs are compared with the values in
``reference.json``; a mismatch counts as a failed operation.  The line
before the result records the environment and the numbers that are not
metrics (failed fraction, tail latency, rows of a sweep).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import calibrate, reference_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
SETUP_CAL_S = 0.1     # calibration before and after each set-up probe
MIN_PASSES = 2        # untraced passes, so that a median is never one run
DEADLINE_S = 165.0    # stop starting passes that would end later than this

# The README scenario; YAML accepts it as JSON.  The sweep uses horizon 20.
README_SCENARIO = {
    "params": {"r": 1.0, "K": 1.0, "c1": 1.0, "c2": 1.0, "d1": 1.5,
               "d2": 1.0, "b1": 3.0, "b2": 1.0, "tau1": 0.1, "tau2": 0.1},
    "history": {"preset": "equilibrium_plus_constant",
                "offsets": [1.0e-5, 5.0e-6, 1.0e-5]},
    "horizon": 50.0,
    "solver": {"step_divisor": 20, "stride": 1},
    "overrides": {"alpha": 1.0, "m_fraction": 0.5, "mu_fraction": 0.25,
                  "h33_factor": 2.0},
    "outputs": {"dir": "out", "files": ["equilibria", "certificate",
                                        "trajectory", "verification",
                                        "report"]},
}
SWEEP_HORIZON = 20.0

# Relative tolerances of the reference checks; every other field must
# match exactly (exit codes, verdicts, case ids, root and row counts).
REL_TOL = {"sigma": 1e-9, "epsilon": 1e-9, "q": 1e-9, "V0": 1e-9,
           "final_t": 1e-12, "rightmost": 1e-6, "worst_envelope_margin": 1e-6}
STATE_TOL = 1e-9  # final state, relative to its largest component


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- inputs --------------------------------------------------------------------

def make_ops(workload: str, seed: int, reference: dict) -> list[dict]:
    """The workload's operations for ``seed``, with their expected outputs.

    ``sweep_d1`` and ``spectrum_certify`` draw one pool item from every
    stratum of ``reference.json`` and shuffle them, so each seed covers
    the same range of inputs (and of cost) with different values.
    """
    if workload == "run_readme":
        return [{"expected": [reference["run_readme"]["expected"]]}]
    rng = random.Random(f"{workload}/{seed}")
    strata: dict[int, list] = {}
    for item in reference[workload]["pool"]:
        strata.setdefault(item["stratum"], []).append(item)
    picked = [rng.choice(strata[s]) for s in sorted(strata)]
    rng.shuffle(picked)
    if workload == "sweep_d1":
        return [{"values": [item["d1"] for item in picked],
                 "expected": [item["expected"] for item in picked]}]
    return [{"params": item["params"], "history": item["history"],
             "expected": [item["expected"]]} for item in picked]


def compare(observed: dict, expected: dict) -> list[str]:
    """Mismatches between one operation's observation and its reference."""
    if set(observed) != set(expected):
        return [f"fields {sorted(set(observed) ^ set(expected))} differ"]
    bad = []
    for key, ref in expected.items():
        got = observed[key]
        if key == "final_state" and ref is not None and got is not None:
            scale = max(abs(v) for v in ref)
            ok = (len(got) == len(ref) and
                  max(abs(a - b) for a, b in zip(got, ref)) <= STATE_TOL * scale)
        elif key in REL_TOL and ref is not None and got is not None:
            ok = abs(got - ref) <= REL_TOL[key] * abs(ref)
        else:
            ok = got == ref
        if not ok:
            bad.append(f"{key}: got {got!r}, expected {ref!r}")
    return bad


# -- passes --------------------------------------------------------------------

def _worker(job: dict, workdir: Path, deadline: float, capture=False):
    path = workdir / "job.json"
    path.write_text(json.dumps(job))
    timeout = max(deadline + 10.0 - time.monotonic(), 5.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(path)],
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
            text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return proc.stdout


def measure_setup(base_job: dict, workdir: Path,
                  deadline: float) -> list[tuple[float, float]]:
    """Fresh-interpreter times to import the package and load the inputs.

    Returns (wall, reference) seconds per probe; each probe is calibrated
    by the kernel run just before and just after it.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibrate(SETUP_CAL_S)
        start = time.monotonic()
        out = _worker(dict(base_job, mode="setup"), workdir, deadline,
                      capture=True)
        raw = float(out.split()[-1]) - start
        after = calibrate(SETUP_CAL_S)
        samples.append((raw, raw * reference_scale(before + after)))
    return samples


def run_passes(base_job, workdir, seconds, trace, deadline) -> list[dict]:
    """Worker passes for ``seconds``; traced and untraced alternate if tracing.

    A traced run makes at least two traced passes (so that exact counters
    can be compared) and one untraced pass (for the tracing overhead).
    """
    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 0
        t0 = time.monotonic()
        _worker(dict(base_job, mode="pass", trace=traced), workdir, deadline)
        result = json.loads((workdir / "result.json").read_text())
        result["traced"] = traced
        result["scale"] = result["workload_s"] / result["wall_workload_s"]
        passes.append(result)
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now + longest > deadline:
            break
        done = len(passes) >= (3 if trace else MIN_PASSES)
        if done and now - start + longest > seconds:
            break
    return passes


# -- metrics ---------------------------------------------------------------------

def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        idx = math.ceil(pct / 100.0 * n) - 1
        if n - idx - 1 >= 10:
            return {"name": f"op_wall_s.p{pct:g}", "value": ordered[idx],
                    "unit": "s", "samples": n, "beyond": n - idx - 1}
    return None


def layer_metrics(passes, spec, info) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced passes; counters must repeat."""
    from tracing import summarize

    traced = [r for r in passes if r["traced"]]
    plain_s = statistics.median(r["workload_s"] for r in passes
                                if not r["traced"])
    problems, summaries = [], []
    for result in traced:
        try:
            summary = summarize(result["spans"], result["rows"])
        except ValueError as exc:
            problems.append(f"trace rejected: {exc}")
            summary = {}
        for key in summary:
            if key.endswith(("_s", ".us_per_step")):
                summary[key] *= result["scale"]
        summary["trace.workload_s"] = result["workload_s"]
        summary["trace.overhead_s"] = summary["trace.workload_s"] - plain_s
        summaries.append(summary)
    values = {}
    for m in spec:
        name = m["name"]
        series = [s.get(name, 0.0) for s in summaries]
        if m["unit"] in ("count", "bytes", "calls/row"):
            if len(set(series)) != 1:
                problems.append(f"counter {name} differs between passes "
                                f"with the same inputs: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    info["untraced_workload_s"] = plain_s
    info["layer_self_s_sum"] = statistics.median(
        sum(v for k, v in s.items() if k.count(".") == 1 and
            k.endswith(".self_s") and not k.startswith("bench."))
        for s in summaries)
    if traced[0]["rows"]:
        info["sweep_rows"] = [
            {"integrate_calls": s.get("scenario.sweep.integrate_by_row"),
             "admissible": [adm for _, adm in r["rows"]]}
            for s, r in zip(summaries, traced)]
    return values, problems


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "planktonfish" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    reference = json.loads(REFERENCE.read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for this process and its workers, which inherit the setting,
    # so that the speed probe measures the CPU the operations run on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else []))
    deadline = time.monotonic() + DEADLINE_S
    ops = make_ops(args.workload, args.seed, reference)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        scenario = dict(README_SCENARIO)
        if args.workload == "sweep_d1":
            scenario["horizon"] = SWEEP_HORIZON
        (workdir / "scenario.yaml").write_text(json.dumps(scenario))
        base_job = {"workload": args.workload, "root": str(ROOT),
                    "scenario": str(workdir / "scenario.yaml"),
                    "workdir": str(workdir),
                    "result": str(workdir / "result.json"),
                    "trace": False,
                    "ops": [{k: v for k, v in op.items() if k != "expected"}
                            for op in ops]}
        setup = [] if args.trace else measure_setup(base_job, workdir, deadline)
        passes = run_passes(base_job, workdir, args.seconds, args.trace,
                            deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    expected = [e for op in ops for e in op["expected"]]
    attempted = failed = 0
    for result in passes:
        for obs, ref in zip(result["obs"], expected, strict=True):
            attempted += 1
            bad = compare(obs, ref)
            if bad:
                failed += 1
                print(f"output check failed: {'; '.join(bad[:3])}",
                      file=sys.stderr)
    op_s = [t for r in passes if not r["traced"] for t in r["op_s"]]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": len(cpus), "pinned_cpu": min(cpus),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "passes": len(passes),
            "speed_scale": [r["scale"] for r in passes],
            "traced_passes": sum(r["traced"] for r in passes),
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "op_wall_s_tail": tail(op_s),
            "notes": sorted({n for r in passes for n in r["notes"]})}
    problems = []
    if args.trace:
        metrics, problems = layer_metrics(passes, spec["per_layer"], info)
        names = spec["per_layer"]
    else:
        info["setup_s_samples"] = setup
        info["wall_workload_s"] = [r["wall_workload_s"] for r in passes]
        info["wall_op_wall_s.p50"] = statistics.median(
            t for r in passes for t in r["wall_op_s"])
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "workload_s": statistics.median(r["workload_s"] for r in passes),
            "op_wall_s.p50": statistics.median(op_s),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        }
        names = spec["end_to_end"]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    info["problems"] = problems
    print(json.dumps({"perfbench": info}))
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("run_readme", "sweep_d1", "spectrum_certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
