import math

import numpy as np
import pytest

from planktonfish import (History, build_certificate, check_initial_conditions,
                          derive_params, extend_history)


@pytest.fixture
def case2_params():
    """Canonical delay-independent stable parameter set (three equilibria)."""
    return derive_params(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
                         b1=3.0, b2=1.0, tau1=0.1, tau2=0.1)


@pytest.fixture
def case3_params():
    """Coexistence parameter set; plankton-only point unstable."""
    return derive_params(r=2.0, K=1.0, c1=1.0, c2=1.0, d1=1.0, d2=1.0,
                         b1=3.0, b2=2.0, tau1=0.0, tau2=0.0)


def random_stable_params(rng, tau_range=(0.01, 0.5)):
    """Parameter set satisfying the delay-independent stability inequality."""
    while True:
        r = rng.uniform(0.5, 2.0)
        K = rng.uniform(0.5, 2.0)
        c1 = rng.uniform(0.5, 2.0)
        c2 = rng.uniform(0.5, 2.0)
        b1 = rng.uniform(1.0, 4.0)
        b2 = rng.uniform(1.0, 4.0)
        tau1 = rng.uniform(*tau_range)
        tau2 = rng.uniform(*tau_range)
        d2 = rng.uniform(0.5, 2.0)
        e1 = b1 * math.exp(-c1 * tau1)
        e2 = b2 * math.exp(-c2 * tau2)
        upper = e1 * c1 * K
        lower = upper * max(1.0 / 3.0, 1.0 - c1 * d2 / (e2 * c2 * r))
        d1 = lower + rng.uniform(0.1, 0.9) * (upper - lower)
        if lower < d1 < upper:
            return derive_params(r=r, K=K, c1=c1, c2=c2, d1=d1, d2=d2,
                                 b1=b1, b2=b2, tau1=tau1, tau2=tau2)


def random_unstable_params(rng, tau_range=(0.01, 0.5)):
    """Parameter set with the plankton-only point unstable (coexistence case)."""
    while True:
        r = rng.uniform(0.5, 2.0)
        K = rng.uniform(0.5, 2.0)
        c1 = rng.uniform(0.5, 2.0)
        c2 = rng.uniform(0.5, 2.0)
        b1 = rng.uniform(1.0, 4.0)
        b2 = rng.uniform(1.0, 4.0)
        tau1 = rng.uniform(*tau_range)
        tau2 = rng.uniform(*tau_range)
        e1 = b1 * math.exp(-c1 * tau1)
        e2 = b2 * math.exp(-c2 * tau2)
        upper = e1 * c1 * K
        d2 = 0.3 * e2 * c2 * r / c1  # keeps the coexistence threshold at 0.7*upper
        threshold = upper * (1.0 - c1 * d2 / (e2 * c2 * r))
        if threshold <= 0.2 * upper:
            continue
        d1 = rng.uniform(0.2, 0.8) * threshold
        if d1 > 0:
            return derive_params(r=r, K=K, c1=c1, c2=c2, d1=d1, d2=d2,
                                 b1=b1, b2=b2, tau1=tau1, tau2=tau2)


def grid_max_abs_deviation(hist, i, window, center, points=1024):
    """Max of |component_i(theta) - center| on a uniform grid of the window.

    A grid maximum approaches the window sup from below; the reference
    that ``History.sup_abs_deviation`` must never undercut.
    """
    grid = np.linspace(*window, points)
    return float(np.abs(hist.eval_many(grid)[:, i] - center).max())


def admissible_perturbation(p, cert, delta0=1e-2, max_halvings=40,
                            kind="constant", frequency=3.0):
    """Shrink an equilibrium perturbation until all theorem conditions pass.

    Returns (history, theorem_report, delta).
    """
    delta = delta0
    for _ in range(max_halvings):
        if kind == "constant":
            hist = History.equilibrium_plus_constant(
                p, (delta, 0.5 * delta, delta))
        else:
            hist = History.equilibrium_plus_sine(
                p, (delta, 0.5 * delta, 0.0), frequency)
        ext = extend_history(hist, p)
        theorem = check_initial_conditions(hist, ext, cert, p)
        if theorem.envelopes_valid:
            return hist, theorem, delta
        delta /= 2.0
    raise AssertionError("could not construct an admissible perturbation")


def build_stable_certified(rng, tau_range=(0.05, 0.3)):
    p = random_stable_params(rng, tau_range)
    return p, build_certificate(p)
