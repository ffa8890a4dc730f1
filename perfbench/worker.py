"""Benchmark worker: one workload pass in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

``run.py`` writes the job file (workload, generated inputs, trace flag,
scratch and result paths) and starts one worker per pass, so every pass
pays what a user's process pays and its peak memory is its own.  In
``setup`` mode the worker only imports the package and loads the inputs,
then prints the ``time.monotonic()`` at which it was ready.  In ``pass``
mode it times every operation, reads back what the operation produced (an
"observation", compared with the reference by ``run.py``), deletes the
operation's output directory and writes the result file.

The package is driven only through its public API and ``cli.main``.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import json
import math
import re
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

from tracing import ROOT_SPAN, Tracer

KERNEL_SAMPLES = 9  # eval_K samples per delay window for check_generic_certificate
TAIL_BYTES = 4096   # read from the end of a CSV; holds its last row
PROBE_PERIOD_S = 0.02  # how often the speed probe times its kernel
KERNEL_REF_S = 1e-4    # kernel time at the reference speed


def _kernel():
    x, y, z = 0.5, 0.4, 1e-5
    for _ in range(300):
        dx = x * (1.0 - x) - x * y
        dy = -1.5 * y + 2.7 * x * y - y * z
        dz = -z + 0.9 * y * z
        x, y, z = x + 1e-3 * dx, y + 1e-3 * dy, z + 1e-3 * dz
    return x + y + z


def _timed_kernel() -> float:
    # CPU time of this thread: a pinned probe thread shares its CPU with
    # the operation whenever numpy releases the GIL
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


def reference_scale(kernel_s) -> float:
    """Factor from wall seconds to reference seconds.

    ``kernel_s`` are times of the fixed kernel taken evenly over an
    interval; the mean of their rates is the host's mean speed in it.
    """
    return KERNEL_REF_S * sum(1.0 / k for k in kernel_s) / len(kernel_s)


def calibrate(seconds: float) -> list[float]:
    """Kernel times, back to back for about ``seconds``."""
    end = time.perf_counter() + seconds
    samples = [_timed_kernel()]
    while time.perf_counter() < end:
        samples.append(_timed_kernel())
    return samples


class SpeedProbe:
    """Samples the host's speed while operations run.

    The host's speed changes by up to a factor of two within seconds, for
    every process alike.  A daemon thread wakes every ``PROBE_PERIOD_S``
    and times one run of a fixed pure-Python kernel (about 0.1 ms), which
    pauses the operation briefly.  ``run.py`` pins its workers to one CPU,
    so the thread measures the CPU the operation runs on.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            k = _timed_kernel()
            self.times.append(time.perf_counter())
            self.kernel_s.append(k)

    def __enter__(self):
        self.kernel_s.append(_timed_kernel())
        self.times.append(time.perf_counter())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Reference-time factor for [start, end], widened by one period."""
        lo = bisect.bisect_left(self.times, start - PROBE_PERIOD_S)
        hi = bisect.bisect_right(self.times, end + PROBE_PERIOD_S)
        return reference_scale(self.kernel_s[lo:hi] or self.kernel_s)


def setup(job):
    """Import the package and load the workload's inputs."""
    import planktonfish
    from planktonfish import cli, scenario  # noqa: F401  (cli imports every module)

    src = Path(job["root"], "src").resolve()
    if src not in Path(planktonfish.__file__).resolve().parents:
        raise SystemExit(f"planktonfish imported from {planktonfish.__file__}, "
                         f"not from {src}")
    if job["workload"] == "spectrum_certify":
        return [planktonfish.derive_params(**op["params"]) for op in job["ops"]]
    return scenario.load_scenario(job["scenario"])


# -- operations (timed) ------------------------------------------------------

def _execute_run(pf, job, op, out):
    return pf.cli.main(["run", job["scenario"], "--out", str(out)])


def _execute_sweep(pf, job, op, out):
    return pf.cli.main(["sweep", job["scenario"], "--key", "params.d1",
                        "--values", ",".join(op["values"]), "--out", str(out)])


def _execute_spectrum(pf, job, op, out):
    p = pf.derive_params(**op["params"])
    res = {"eq": pf.classify_equilibria(p), "verdict": pf.lemma_classify(p)}
    lin = pf.linearize(p)
    res["roots"] = pf.root_scan(lin, p)
    if res["verdict"].kind != "AsymptoticallyStable":
        return res
    try:
        cert = pf.build_certificate(p)
    except (pf.CertificateError, pf.DomainError) as exc:
        res["certificate_error"] = type(exc).__name__
        return res
    res["cert"] = cert
    res["C"] = pf.assemble_C(cert)
    kernels = [[pf.eval_K(cert, which, s)
                for s in (tau * k / (KERNEL_SAMPLES - 1)
                          for k in range(KERNEL_SAMPLES))]
               for which, tau in ((1, p.tau1), (2, p.tau2))]
    res["generic"] = pf.check_generic_certificate(lin.A, lin.B1, lin.B2,
                                                  cert.H, *kernels)
    a = op["history"]["amplitude"]
    hist = pf.History.equilibrium_plus_sine(
        p, (a * lin.x0, 0.5 * a * lin.y0, 0.0), op["history"]["frequency"])
    res["theorem"] = pf.check_initial_conditions(
        hist, pf.extend_history(hist, p), cert, p)
    return res


# -- observations (untimed) --------------------------------------------------

def _value(text, key):
    """First token after ``key =`` or ``key:`` at the start of a line."""
    m = re.search(rf"^{re.escape(key)}\s*[=:]\s*(\S+)", text, re.M)
    return m.group(1) if m else None


def _float(s):
    return None if s in (None, "") else float(s)


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _csv_tail(path):
    """(data rows, last row as floats) of a CSV file with a header.

    The file is streamed, not read whole: this process's peak memory is
    a metric, and a 100k-row CSV must not set it.
    """
    try:
        with open(path, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
            fh.seek(max(fh.tell() - TAIL_BYTES, 0))
            last = fh.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
    except OSError:
        return None, None
    return rows, [float(v) for v in last.split(b",")]


def _trajectory_end(out):
    rows, last = _csv_tail(out / "trajectory.csv")
    return {"trajectory_rows": rows,
            "final_t": last and last[0], "final_state": last and last[1:4]}


def _observe_run(out, op, code):
    eq = _read(out / "equilibria.txt")
    cert = _read(out / "certificate.txt")
    report = _read(out / "report.txt")
    obs = {"exit_code": code,
           "case_id": _value(eq, "case"),
           "verdict": _value(eq, "verdict"),
           "sigma": _float(_value(cert, "sigma")),
           "epsilon": _float(_value(cert, "epsilon")),
           "q": _float(_value(cert, "q")),
           "C_pd": _value(cert, "C positive definite on supported subspace"),
           "V0": _float(_value(report, "V0")),
           "envelopes_valid": _value(report, "envelopes_valid"),
           "envelope_check": _value(report, "envelope check"),
           "diff_ineq": _value(report, "differential inequality"),
           "verification_rows": _csv_tail(out / "verification.csv")[0]}
    obs.update(_trajectory_end(out))
    return [obs]


def _observe_sweep(out, op, code):
    try:
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    if len(rows) != len(op["values"]):
        return [{"error": f"sweep wrote {len(rows)} summary rows"}
                for _ in op["values"]]
    obs = []
    for i, row in enumerate(rows):
        row_dir = out / f"sweep_{i:03d}"
        item = {"sweep_exit_code": code,
                "value": float(row["value"]),
                "exit_code": int(row["exit_code"]),
                "verdict": row["verdict"],
                "case_id": _value(_read(row_dir / "equilibria.txt"), "case"),
                "admissible": row["admissible"]}
        for key in ("sigma", "epsilon", "q", "V0", "worst_envelope_margin"):
            item[key] = _float(row[key])
        item.update(_trajectory_end(row_dir))
        obs.append(item)
    return obs


def _observe_spectrum(out, op, res):
    roots = res["roots"]
    obs = {"case_id": res["eq"].case_id,
           "verdict": res["verdict"].kind,
           "n_roots": len(roots.roots),
           "rightmost": (roots.rightmost_real_part
                         if math.isfinite(roots.rightmost_real_part) else None)}
    if "certificate_error" in res:
        obs["certificate_error"] = res["certificate_error"]
    elif "cert" in res:
        cert, theorem = res["cert"], res["theorem"]
        obs.update(sigma=cert.sigma, epsilon=cert.epsilon, q=cert.q,
                   C_pd=bool(res["C"].positive_definite),
                   generic_ok=bool(res["generic"].ok),
                   V0=theorem.V0, envelopes_valid=theorem.envelopes_valid)
    return [obs]


WORKLOADS = {
    "run_readme": (_execute_run, _observe_run),
    "sweep_d1": (_execute_sweep, _observe_sweep),
    "spectrum_certify": (_execute_spectrum, _observe_spectrum),
}


def run_pass(job) -> dict:
    """Run every operation of the job once; returns the result record.

    ``op_s`` holds one time per counted operation: a run, a parameter
    set, or a sweep row.  A sweep is one call, so its rows are timed by a
    clock at ``scenario.load_scenario``, which the sweep calls once to
    validate the config and then once at the start of every row.
    ``workload_s`` is the summed time of the calls.  Times are in reference
    seconds (see :class:`SpeedProbe`); ``wall_op_s`` and
    ``wall_workload_s`` are the same times in wall seconds.
    """
    import planktonfish as pf
    from planktonfish import scenario

    setup(job)
    execute, observe = WORKLOADS[job["workload"]]
    tracer = Tracer() if job["trace"] else None
    restore = tracer.install(pf) if tracer else (lambda: None)
    marks: list[float] = []
    load = scenario.load_scenario

    def row_clock(*args, **kwargs):
        marks.append(time.perf_counter())
        return load(*args, **kwargs)

    scenario.load_scenario = row_clock
    result = {"obs": [], "rows": [], "notes": []}
    calls, ops = [], []  # (start, end) of every call and counted operation
    try:
        with SpeedProbe() as probe:
            for op in job["ops"]:
                out = Path(job["workdir"], "op")
                out.mkdir()
                marks.clear()
                timed = (tracer.span(ROOT_SPAN) if tracer
                         else contextlib.nullcontext())
                t0 = time.perf_counter()
                try:
                    with timed:
                        raw = execute(pf, job, op, out)
                    error = None
                except Exception:
                    error = traceback.format_exc()
                t1 = time.perf_counter()
                if error is None:
                    obs = observe(out, op, raw)
                else:
                    print(error, file=sys.stderr)
                    obs = [{"error": error.strip().splitlines()[-1]}
                           for _ in op.get("values", [None])]
                shutil.rmtree(out)
                result["obs"].extend(obs)
                calls.append((t0, t1))
                if job["workload"] != "sweep_d1":
                    ops.append((t0, t1))
                    continue
                starts = marks[1:]
                if len(starts) != len(op["values"]):
                    result["notes"].append(
                        f"row clock saw {len(starts)} rows for "
                        f"{len(op['values'])} values; row times are the "
                        "sweep time split evenly")
                    starts = [t0 + (t1 - t0) * k / len(obs)
                              for k in range(len(obs))]
                ops.extend(zip(starts, starts[1:] + [t1]))
                result["rows"].extend(
                    [s, o.get("admissible") == "True"]
                    for s, o in zip(starts, obs))
    finally:
        scenario.load_scenario = load
        restore()
    result["op_s"] = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in ops]
    result["wall_op_s"] = [t1 - t0 for t0, t1 in ops]
    result["wall_workload_s"] = sum(t1 - t0 for t0, t1 in calls)
    result["workload_s"] = sum((t1 - t0) * probe.scale(t0, t1)
                               for t0, t1 in calls)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["spans"] = tracer.spans if tracer else None
    return result


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    if job["mode"] == "setup":
        setup(job)
        print(repr(time.monotonic()))
        return 0
    Path(job["result"]).write_text(json.dumps(run_pass(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
