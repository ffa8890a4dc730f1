"""Record the reference outputs that ``run.py`` checks every operation against.

    python3 perfbench/record_reference.py

Runs every input of the pools of ``sweep_d1`` and ``spectrum_certify``
through the worker (untraced) and writes ``perfbench/reference.json``.
The benchmark's seed only chooses among these inputs, so every seed's
inputs have reference values.  Re-run this only for a change that is meant
to alter the pipeline's outputs, and review the diff of ``reference.json``.

Pools are stratified: ``run.py`` draws one item per stratum.  If
``reference.json`` exists, its inputs and strata are kept and only the
expected outputs are recorded again, so every seed keeps its inputs and
results before and after the change stay comparable.  Otherwise new pools
are drawn from a fixed generator seed.  The sweep's strata are equal slices
of the two ``d1`` bands.  The spectrum sets are grouped by their cost, the
fastest of three runs in reference seconds, so that every seed gets the
same mix of cheap and expensive root scans.  No input or output property
that was tried predicts that cost well.  Grouped by root count instead,
the summed cost of the 48 sets that a seed draws had 2.6 times the
interquartile spread over 400 seeds (5.8 % against 2.2 %, from measured
costs of every set).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from worker import run_pass  # noqa: E402

POOL_SEED = 20231218
PER_STRATUM = {"sweep_d1": 4, "spectrum_certify": 6}
# d1 bands of the README parameters: delay-independent stable between
# e1*c1*K/3 = 0.905 and e1*c1*K = 2.71 (kept off the edges), and
# delay-dependent below it, where the certificate does not apply.
SWEEP_BANDS = ((0.92, 2.70, 6), (0.20, 0.88, 2))  # (low, high, strata)
SPECTRUM_SETS = (("stable", 32), ("unstable", 16))
TAU_RANGE = (0.02, 0.5)
COST_REPEATS = 3  # a set's cost is its fastest of these runs


def _rates(rng):
    r, K, c1, c2 = rng.uniform(0.5, 2.0, 4)
    b1, b2 = rng.uniform(1.0, 4.0, 2)
    tau1, tau2 = rng.uniform(*TAU_RANGE, 2)
    return (float(v) for v in (r, K, c1, c2, b1, b2, tau1, tau2))


def stable_params(rng) -> dict:
    """Rates with d1 strictly inside the delay-independent stable band."""
    r, K, c1, c2, b1, b2, tau1, tau2 = _rates(rng)
    d2 = float(rng.uniform(0.5, 2.0))
    e1, e2 = b1 * math.exp(-c1 * tau1), b2 * math.exp(-c2 * tau2)
    upper = e1 * c1 * K
    lower = upper * max(1.0 / 3.0, 1.0 - c1 * d2 / (e2 * c2 * r))
    d1 = lower + float(rng.uniform(0.1, 0.9)) * (upper - lower)
    return dict(r=r, K=K, c1=c1, c2=c2, d1=d1, d2=d2, b1=b1, b2=b2,
                tau1=tau1, tau2=tau2)


def unstable_params(rng) -> dict:
    """Rates with d1 below the coexistence threshold (plankton-only unstable)."""
    while True:
        r, K, c1, c2, b1, b2, tau1, tau2 = _rates(rng)
        e1, e2 = b1 * math.exp(-c1 * tau1), b2 * math.exp(-c2 * tau2)
        upper = e1 * c1 * K
        d2 = 0.3 * e2 * c2 * r / c1
        threshold = upper * (1.0 - c1 * d2 / (e2 * c2 * r))
        if threshold > 0.2 * upper:
            d1 = float(rng.uniform(0.2, 0.8)) * threshold
            return dict(r=r, K=K, c1=c1, c2=c2, d1=d1, d2=d2, b1=b1, b2=b2,
                        tau1=tau1, tau2=tau2)


def _pass(workdir: Path, workload: str, ops: list, scenario: dict) -> dict:
    path = workdir / "scenario.yaml"
    path.write_text(json.dumps(scenario))
    return run_pass({"workload": workload, "root": str(HERE.parent),
                     "scenario": str(path), "workdir": str(workdir),
                     "trace": False, "ops": ops})


def _require(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"reference pool rejected: {what}")


def make_pools(workdir: Path) -> dict:
    """New inputs and strata of ``sweep_d1`` and ``spectrum_certify``."""
    rng = np.random.default_rng(POOL_SEED)
    pools = {"sweep_d1": []}
    stratum = 0
    for low, high, count in SWEEP_BANDS:
        edges = np.linspace(low, high, count + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            pools["sweep_d1"] += [{"stratum": stratum, "d1": f"{v:.4f}"} for v in
                                  rng.uniform(a, b, PER_STRATUM["sweep_d1"])]
            stratum += 1
    pools["spectrum_certify"] = []
    stratum = 0
    for kind, count in SPECTRUM_SETS:
        make = stable_params if kind == "stable" else unstable_params
        items = []
        for _ in range(count * PER_STRATUM["spectrum_certify"]):
            op = {"params": make(rng),
                  "history": {"amplitude": float(10.0 ** rng.uniform(-5, -3)),
                              "frequency": float(rng.uniform(1.0, 10.0))}}
            result = _pass(workdir, "spectrum_certify",
                           [op] * COST_REPEATS, {})
            items.append((min(result["op_s"]), op))
        items.sort(key=lambda item: item[0])
        for k in range(count):
            chunk = items[k * PER_STRATUM["spectrum_certify"]:
                          (k + 1) * PER_STRATUM["spectrum_certify"]]
            pools["spectrum_certify"] += [dict(op, stratum=stratum)
                                          for _, op in chunk]
            stratum += 1
    return pools


def record(workdir: Path, pools: dict) -> dict:
    """Expected outputs of the README run and of every pool input."""
    ref = {}
    result = _pass(workdir, "run_readme", [{}], run.README_SCENARIO)
    ref["run_readme"] = {"expected": result["obs"][0]}
    _require(result["obs"][0]["exit_code"] == 0, "run_readme does not exit 0")

    pool = pools["sweep_d1"]
    scenario = dict(run.README_SCENARIO, horizon=run.SWEEP_HORIZON)
    result = _pass(workdir, "sweep_d1",
                   [{"values": [item["d1"] for item in pool]}], scenario)
    ref["sweep_d1"] = {"pool": [dict(item, expected=obs) for item, obs in
                                zip(pool, result["obs"], strict=True)]}
    stable_strata = SWEEP_BANDS[0][2]
    for item in ref["sweep_d1"]["pool"]:
        exp = item["expected"]
        want = (0, "True") if item["stratum"] < stable_strata else (2, "")
        _require((exp.get("exit_code"), exp.get("admissible")) == want,
                 f"sweep row d1={item['d1']} gave {exp}")

    ref["spectrum_certify"] = {"pool": []}
    stable_strata = SPECTRUM_SETS[0][1]
    for item in pools["spectrum_certify"]:
        op = {"params": item["params"], "history": item["history"]}
        exp = _pass(workdir, "spectrum_certify", [op], {})["obs"][0]
        _require("error" not in exp, f"{op} raised {exp}")
        _require((item["stratum"] < stable_strata) == ("sigma" in exp),
                 f"set {op} of stratum {item['stratum']} gave {exp}")
        ref["spectrum_certify"]["pool"].append(dict(item, expected=exp))
    return ref


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # as run.py does
    workdir = HERE.parent / ".perfbench_work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.monotonic()
    try:
        if run.REFERENCE.exists():
            old = json.loads(run.REFERENCE.read_text())
            pools = {w: [{k: v for k, v in item.items() if k != "expected"}
                         for item in old[w]["pool"]]
                     for w in ("sweep_d1", "spectrum_certify")}
        else:
            pools = make_pools(workdir)
        ref = record(workdir, pools)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {run.REFERENCE} in {time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
