"""Command-line front end.

    planktonfish run <config.yaml> [--out DIR]
    planktonfish sweep <config.yaml> --key params.d1 --values 1.2,1.4 [--out DIR]
    planktonfish --seed-check
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile

import numpy as np

from . import scenario as scenario_mod
from .certificate import CertificateOptions, assemble_C
from .model import classify_equilibria, derive_params, linearize, rhs
from .scenario import EXIT_INPUT, EXIT_OK, ConfigError
from .simulate import History, integrate
from .spectrum import eval_Q, eval_factors, lemma_classify, root_scan


def self_check() -> bool:
    """Reduced built-in acceptance run; prints one line per check.

    The last two checks read one pipeline run of the README scenario.
    """
    rng = np.random.default_rng(20240817)
    results = []

    def record(name, ok):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    # equilibria zero the right-hand side
    ok = True
    for _ in range(20):
        p = derive_params(r=rng.uniform(0.5, 2), K=rng.uniform(0.5, 2),
                          c1=rng.uniform(0.5, 2), c2=rng.uniform(0.5, 2),
                          d1=rng.uniform(0.2, 3), d2=rng.uniform(0.5, 2),
                          b1=rng.uniform(1, 3), b2=rng.uniform(1, 3),
                          tau1=rng.uniform(0.02, 0.3),
                          tau2=rng.uniform(0.02, 0.3))
        for _, point in classify_equilibria(p).points:
            ok &= max(abs(v) for v in rhs(point, point, point, p)) <= 1e-12
    record("equilibria zero the dynamics", ok)

    # quasi-polynomial factorization, on the README rates
    rates = dict(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0, b1=3.0,
                 b2=1.0, tau1=0.1, tau2=0.1)
    p = derive_params(**rates)
    lin = linearize(p)
    ok = True
    for _ in range(100):
        lam = complex(rng.uniform(-5, 2), rng.uniform(-20, 20))
        q = eval_Q(lam, lin, p)
        q1, q2 = eval_factors(lam, lin, p)
        ok &= abs(q - q1 * q2) <= 1e-10 * (1 + abs(q))
    record("characteristic function factorization", ok)

    # verdict corroborated by root locations
    ok = lemma_classify(p).kind == "AsymptoticallyStable"
    ok &= root_scan(lin, p).rightmost_real_part < 0
    record("stable verdict confirmed by root scan", ok)

    # solver against the logistic closed form
    p0 = derive_params(r=1, K=1, c1=0, c2=0, d1=1, d2=1, b1=0, b2=0,
                       tau1=0.1, tau2=0.1)
    hist = History.constant(p0, (0.5, 0.0, 0.0))
    traj = integrate(p0, hist, 10.0)
    exact = 0.5 * math.exp(10.0) / (1 + 0.5 * (math.exp(10.0) - 1))
    record("logistic closed-form agreement",
           abs(traj.sample(10.0)[0] - exact) <= 1e-8)

    # the README scenario end to end, no files written
    with tempfile.TemporaryDirectory() as tmp:
        run = scenario_mod.run_loaded_scenario(scenario_mod.Scenario(
            params=rates, history_preset="equilibrium_plus_constant",
            history_args={"offsets": (1e-5, 5e-6, 1e-5)}, horizon=20.0,
            step_divisor=20, stride=1, options=CertificateOptions(),
            out_dir=tmp, files=()))
    record("certificate block matrix positive definite",
           run.cert is not None and assemble_C(run.cert).positive_definite)
    record("README scenario passes every check", run.code == EXIT_OK)

    return all(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planktonfish",
        description="Stability certificates and simulation for the "
                    "two-delay plankton-fish model")
    parser.add_argument("--seed-check", action="store_true",
                        help="run the built-in acceptance suite and exit")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory")

    sweep_p = sub.add_parser("sweep", help="sweep one scalar scenario field")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--key", required=True,
                         help="dotted path of the field, e.g. params.d1")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated list of values")
    sweep_p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    if args.seed_check:
        return 0 if self_check() else 1
    if args.command == "run":
        code, _ = scenario_mod.run_scenario(args.config, out_dir=args.out)
        return code
    if args.command == "sweep":
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            print(f"input error: --values: {exc}")
            return EXIT_INPUT
        try:
            code, summary = scenario_mod.sweep(args.config, args.key, values,
                                               out_dir=args.out)
        except ConfigError as exc:
            print(f"input error: {exc}")
            return EXIT_INPUT
        print(f"sweep summary written to {summary}")
        return code
    parser.print_help()
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
