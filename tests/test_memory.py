"""A run's memory is its solution: nothing else grows with the horizon.

Once ``integrate`` returns, the states and derivatives (48 bytes per
step) are the only arrays of the run's length.  On the README scenario at
horizons 2.5 and 20, the tracemalloc peak of ``integrate`` beyond those two
arrays, and of each check and the CSV writer, must grow by less than 5 %
of the growth of ``states.nbytes`` (0.12 -> 0.96 MB).  A copy such as
``np.abs(states)`` or a stored time column would grow by 100 % or 33 %.
The short run keeps more rows than one ``to_csv`` chunk (4096), so both
runs write full chunks.
"""

import tracemalloc

import pytest

from planktonfish import (History, build_certificate,
                          check_differential_inequality, check_envelope,
                          check_initial_conditions, check_positivity_boundedness,
                          derive_params, extend_history, integrate)

HORIZONS = (2.5, 20.0)
GROWTH_SHARE = 0.05


def _peak(call):
    """(result, tracemalloc peak of ``call()`` above the memory held before)."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = call()
    return out, tracemalloc.get_traced_memory()[1] - before


def _peaks(p, cert, hist, theorem, horizon, path):
    traj, peak = _peak(lambda: integrate(p, hist, horizon))
    peaks = {"integrate": peak - traj.states.nbytes - traj.derivs.nbytes}
    peaks["positivity"] = _peak(
        lambda: check_positivity_boundedness(traj, p))[1]
    peaks["envelope"] = _peak(lambda: check_envelope(traj, cert, theorem))[1]
    peaks["diff_ineq"] = _peak(
        lambda: check_differential_inequality(traj, cert))[1]
    peaks["to_csv"] = _peak(lambda: traj.to_csv(path))[1]
    return traj.states.nbytes, peaks


@pytest.fixture(scope="module")
def readme_peaks(tmp_path_factory):
    p = derive_params(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
                      b1=3.0, b2=1.0, tau1=0.1, tau2=0.1)
    hist = History.equilibrium_plus_constant(p, (1e-5, 5e-6, 1e-5))
    cert = build_certificate(p)
    theorem = check_initial_conditions(hist, extend_history(hist, p), cert, p)
    assert theorem.envelopes_valid
    path = tmp_path_factory.mktemp("memory") / "trajectory.csv"
    tracemalloc.start()
    try:
        _peaks(p, cert, hist, theorem, 0.01, path)  # first calls' imports
        return [_peaks(p, cert, hist, theorem, t, path) for t in HORIZONS]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["integrate", "positivity", "envelope",
                                  "diff_ineq", "to_csv"])
def test_peak_does_not_grow_with_the_run(readme_peaks, name):
    (short_bytes, short), (long_bytes, long) = readme_peaks
    assert long_bytes - short_bytes == 3 * 8 * 35000
    growth = long[name] - short[name]
    assert growth < GROWTH_SHARE * (long_bytes - short_bytes), (
        f"{name}: peak {short[name]} -> {long[name]} bytes")
