"""Finite extreme rates, delays and horizons end in a documented exit code.

Every rate below is a finite float that ``derive_params`` accepts; the
pipeline must still never raise.  Quotients that underflow to 0, powers
and exponentials beyond float range, and step counts that overflow are
refused as certificate failures (exit 2) or input errors (exit 4).
"""

import copy
import dataclasses
import math

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planktonfish.certificate import build_certificate
from planktonfish.cli import main
from planktonfish.errors import CertificateError, DomainError
from planktonfish.model import derive_params
from planktonfish.scenario import (EXIT_INADMISSIBLE, EXIT_INPUT, EXIT_OK,
                                   EXIT_VIOLATION, load_scenario,
                                   run_loaded_scenario)

from test_scenario_fuzz import README_TREE

README = README_TREE["params"]
RATES = ("r", "K", "c1", "c2", "d1", "d2", "b1", "b2")
HORIZON = 1e-3  # two steps of the README step


def _config(path, rates, horizon=HORIZON):
    tree = copy.deepcopy(README_TREE)
    tree["params"].update(rates)
    tree["horizon"] = horizon
    tree["outputs"] = {"dir": str(path.parent / "out"),
                       "files": ["equilibria", "certificate"]}
    path.write_text(yaml.safe_dump(tree))
    return str(path)


# (rates, horizon, exit code, a fragment of the printed output or of
# certificate.txt)
ROWS = {
    # m2's divisor e2*c2*y0 underflows to 0 although e2*c2 > 0
    "c2=5e-324": (dict(c2=5e-324), HORIZON, EXIT_INADMISSIBLE,
                  "e2*c2*y0 = 0.0 underflows to 0"),
    "r=5e-324": (dict(r=5e-324), HORIZON, EXIT_INADMISSIBLE,
                 "e2*c2*y0 = 0.0 underflows to 0"),
    # the coexistence threshold's divisor e2*c2*r underflows to 0
    "r=b2=1e-310": (dict(r=1e-310, b2=1e-310), HORIZON, EXIT_INADMISSIBLE,
                    "verdict: AsymptoticallyStable"),
    # horizon / step overflows (so does the certificate's rate m1, see
    # CERTIFICATE_ROWS)
    "tau1=1e-310": (dict(tau1=1e-310), HORIZON, EXIT_INPUT,
                    "horizon 0.001 / step 5e-312 overflows the step count"),
    # the states overflow (so does a square in build_certificate)
    "r=d2=1e200,b2=1e-300": (dict(r=1e200, d2=1e200, b2=1e-300), HORIZON,
                             EXIT_INPUT, "non-finite state at t = 0.0005"),
    # horizon / step overflows in integrate
    "horizon=1e308": ({}, 1e308, EXIT_INPUT,
                      "horizon 1e+308 / step 0.0005 overflows"),
    "tau2=1e-320": (dict(tau2=1e-320), 50.0, EXIT_INPUT,
                    "horizon 50.0 / step 4.74e-322 overflows"),
    # the default step underflows to 0
    "tau2=5e-324": (dict(tau2=5e-324), 50.0, EXIT_INPUT,
                    "step 5e-324 / 20 = 0.0 is too short"),
}


@pytest.mark.parametrize("rates, horizon, code, message", ROWS.values(),
                         ids=list(ROWS))
def test_reproducer_exits_cleanly(tmp_path, capsys, rates, horizon, code,
                                  message):
    cfg = _config(tmp_path / "scenario.yaml", rates, horizon)
    assert main(["run", cfg]) == code
    out = capsys.readouterr().out
    assert "Traceback" not in out
    files = sorted((tmp_path / "out").glob("*.txt"))
    assert message in out + "".join(f.read_text() for f in files)


# rates whose run stops at the integration, before the certificate, and
# the message build_certificate refuses them with
CERTIFICATE_ROWS = {
    "tau1=1e-310": (dict(tau1=1e-310),
                    "rate m1 = inf is not positive and finite"),
    "r=d2=1e200,b2=1e-300": (dict(r=1e200, d2=1e200, b2=1e-300),
                             "not representable in floating point "
                             "(Numerical result out of range)"),
}


@pytest.mark.parametrize("rates, message", CERTIFICATE_ROWS.values(),
                         ids=list(CERTIFICATE_ROWS))
def test_certificate_refuses_overflow(rates, message):
    with pytest.raises(CertificateError) as raised:
        build_certificate(derive_params(**dict(README, **rates)))
    assert message in str(raised.value)


@pytest.fixture(scope="module")
def readme_scenario(tmp_path_factory):
    return load_scenario(_config(
        tmp_path_factory.mktemp("extremes") / "scenario.yaml", {}))


# log-uniform over the positive finite floats from 5e-324 to 1.7e308
EXTREME = st.floats(-1074.0, math.log2(1.7e308)).map(lambda e: 2.0 ** e)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rates=st.dictionaries(st.sampled_from(RATES), EXTREME, min_size=1,
                             max_size=3))
@example(rates=dict(c2=5e-324))
@example(rates=dict(r=5e-324))
@example(rates=dict(r=1e-310, b2=1e-310))
@example(rates=dict(r=1e200, d2=1e200, b2=1e-300))
@example(rates=dict(b2=7.2e-221))  # beta overflows
def test_extreme_rates_exit_cleanly(readme_scenario, rates):
    params = dict(README, **rates)
    result = run_loaded_scenario(dataclasses.replace(readme_scenario,
                                                     params=params))
    assert result.code in (EXIT_OK, EXIT_INADMISSIBLE, EXIT_VIOLATION,
                           EXIT_INPUT)
    # a certificate that is built holds finite scalars, also for rates
    # whose run stops at the integration, before the certificate
    try:
        cert = build_certificate(derive_params(**params),
                                 readme_scenario.options)
    except (CertificateError, DomainError):
        return
    assert all(map(math.isfinite, (
        cert.beta, cert.q, cert.sigma, cert.epsilon, cert.m1, cert.m2)))


@pytest.mark.xfail(strict=True, reason="the fixed RK4 step ignores the "
                   "rates: h*d2 = 27 lies outside RK4's stability interval, "
                   "and z grows from 1e-5 to 3688.67 in two steps")
def test_stiff_certified_set_passes(tmp_path):
    # certified, and all five conditions pass; the run takes two steps
    cfg = _config(tmp_path / "scenario.yaml", dict(d2=54003.12980064407))
    assert main(["run", cfg]) == EXIT_OK
