import csv
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planktonfish import simulate
from planktonfish import (DomainError, History, IntegrationError,
                          check_positivity_boundedness, default_step,
                          derive_params, integrate, plankton_only_point)

from conftest import grid_max_abs_deviation


@pytest.fixture
def logistic_params():
    return derive_params(r=1, K=1, c1=0, c2=0, d1=1, d2=1, b1=0, b2=0,
                         tau1=0.1, tau2=0.1)


def _logistic(x0, r, K, t):
    return x0 * K * math.exp(r * t) / (K + x0 * (math.exp(r * t) - 1.0))


def _reference_integrate(p, hist, t_end, step=None):
    """Per-step RK4 with one scalar Hermite lookup per delayed value.

    The straightforward method of steps that ``integrate`` must reproduce
    bit for bit; returns ``(states, derivs)``.  The delayed value of row
    i at stage offset off sits at position i + off - tau/h: node
    k = i + floor(off - tau/h) plus the fraction u, or the history at the
    stage time when k < 0.
    """
    n = math.ceil(t_end / (default_step(p) if step is None else step)
                  - 1e-12)
    h = t_end / n
    r, K, c1, c2 = p.r, p.K, p.c1, p.c2
    d1, d2, e1, e2 = p.d1, p.d2, p.e1, p.e2
    tau1, tau2 = p.tau1, p.tau2
    states = [tuple(float(v) for v in hist(0.0))]
    derivs = []

    def lookup(i, off, tau):
        c = off - tau / h
        j = math.floor(c)
        k, u = i + j, c - j
        if k < 0:
            return hist(min((i * h + off * h) - tau, 0.0))
        u2, u3 = u * u, u * u * u
        h00 = 2.0 * u3 - 3.0 * u2 + 1.0
        h10 = u3 - 2.0 * u2 + u
        h01 = -2.0 * u3 + 3.0 * u2
        h11 = u3 - u2
        a, b = states[k], states[k + 1]
        fa, fb = derivs[k], derivs[k + 1]
        return (h00 * a[0] + h10 * h * fa[0] + h01 * b[0] + h11 * h * fb[0],
                h00 * a[1] + h10 * h * fa[1] + h01 * b[1] + h11 * h * fb[1],
                h00 * a[2] + h10 * h * fa[2] + h01 * b[2] + h11 * h * fb[2])

    def f(i, off, state):
        x, y, z = state
        if tau1 > 0.0:
            x1, y1, _ = lookup(i, off, tau1)
        else:
            x1, y1 = x, y
        if tau2 > 0.0:
            _, y2, z2 = lookup(i, off, tau2)
        else:
            y2, z2 = y, z
        return (r * x * (1.0 - x / K) - c1 * x * y,
                -d1 * y + e1 * c1 * x1 * y1 - c2 * y * z,
                -d2 * z + e2 * c2 * y2 * z2)

    for i in range(n):
        y0 = states[i]
        k1 = f(i, 0.0, y0)
        derivs.append(k1)
        k2 = f(i, 0.5, tuple(y0[j] + 0.5 * h * k1[j] for j in range(3)))
        k3 = f(i, 0.5, tuple(y0[j] + 0.5 * h * k2[j] for j in range(3)))
        k4 = f(i, 1.0, tuple(y0[j] + h * k3[j] for j in range(3)))
        nxt = tuple(y0[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                    for j in range(3))
        if not all(math.isfinite(v) for v in nxt):
            raise IntegrationError(f"non-finite state at t = {i * h + h:g}")
        states.append(nxt)
    derivs.append(f(n, 0.0, states[n]))
    return np.array(states), np.array(derivs)


def _readme_params(tau1=0.1, tau2=0.1):
    return derive_params(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
                         b1=3.0, b2=1.0, tau1=tau1, tau2=tau2)


def _tabulated(p):
    thetas = np.linspace(-p.tau_max, 0.0, 25)
    values = np.column_stack([0.5 + 0.1 * np.cos(7.0 * thetas),
                              0.3 + 2.0 * thetas ** 2,
                              0.1 + 0.0 * thetas])
    return History.tabulated(p, thetas, values)


# name -> (params, history builder, horizon, explicit step or None)
_REFERENCE_CASES = {
    "readme": (_readme_params(), lambda p: History.equilibrium_plus_constant(
        p, (1.0e-5, 5.0e-6, 1.0e-5)), 50.0, None),
    "unequal_delays": (_readme_params(0.1, 0.1234),
                       lambda p: History.constant(p, (0.5, 0.3, 0.2)),
                       3.0, None),
    "horizon_off_grid": (_readme_params(),
                         lambda p: History.constant(p, (0.5, 0.3, 0.2)),
                         1.2345, None),
    "horizon_below_delay": (_readme_params(),
                            lambda p: History.constant(p, (0.5, 0.3, 0.2)),
                            0.001, None),
    "tau1_zero": (_readme_params(0.0, 0.1),
                  lambda p: History.constant(p, (0.5, 0.3, 0.2)), 2.0, None),
    "tau2_zero": (_readme_params(0.1, 0.0),
                  lambda p: History.constant(p, (0.5, 0.3, 0.2)), 2.0, None),
    "both_zero": (_readme_params(0.0, 0.0),
                  lambda p: History.constant(p, (0.5, 0.3, 0.2)), 2.0, None),
    "sine_history": (_readme_params(0.1, 0.1234),
                     lambda p: History.equilibrium_plus_sine(
                         p, (0.02, 0.01, 0.0), 7.0, phase=0.3), 3.0, None),
    "tabulated_history": (_readme_params(0.05, 0.3), _tabulated, 2.0, None),
    "tau1_above_tau2": (_readme_params(0.3, 0.05),
                        lambda p: History.constant(p, (0.5, 0.3, 0.2)),
                        2.0, None),
    "equal_delays_sine": (_readme_params(), lambda p:
                          History.equilibrium_plus_sine(
                              p, (0.02, 0.01, 0.0), 7.0, phase=0.3),
                          3.0, None),
    "equal_delays_tabulated": (_readme_params(), _tabulated, 2.0, None),
    "explicit_step": (_readme_params(0.1, 0.1234),
                      lambda p: History.constant(p, (0.5, 0.3, 0.2)),
                      2.0, 0.1 / 37),
}


class TestHistory:
    def test_constant_preset(self, case2_params):
        hist = History.constant(case2_params, (0.5, 0.2, 0.1))
        assert hist(0.0) == (0.5, 0.2, 0.1)
        assert hist(-case2_params.tau_max) == (0.5, 0.2, 0.1)

    def test_equilibrium_presets_anchor_at_equilibrium(self, case2_params):
        x0, y0 = plankton_only_point(case2_params)
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        assert hist(0.0) == pytest.approx((x0 + 0.01, y0, 0.0), rel=1e-14)
        sine = History.equilibrium_plus_sine(case2_params, (0.0, 0.1, 0.0), 5.0)
        assert sine(0.0) == pytest.approx((x0, y0, 0.0), rel=1e-14)

    def test_rejects_negative_component(self, case2_params):
        with pytest.raises(DomainError, match="non-negative"):
            History.constant(case2_params, (0.5, -0.1, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_component(self, case2_params, bad):
        with pytest.raises(DomainError, match=rf"component 1 has minimum "
                                              rf"{bad!r} .* on \[-0.1, 0\]; "
                                              rf".* finite"):
            History.constant(case2_params, (0.5, bad, 0.0))

    def test_rejects_a_dip_that_a_uniform_grid_aliases(self, case2_params):
        # 2 pi * 256 / tau_max: every point of a 257-point grid on psi's
        # window sits on a zero of the sine, where psi = y0 > 0, but psi
        # dips to y0 - 2 y0 = -y0 between them
        p = case2_params
        _, y0 = plankton_only_point(p)
        with pytest.raises(DomainError, match="component 1 has minimum "
                                              f"{-y0!r}"):
            History.equilibrium_plus_sine(p, (0.0, 2.0 * y0, 0.0),
                                          2.0 * math.pi * 256.0 / p.tau_max)

    def test_constant_presets_give_constant_rows(self, case2_params):
        # the zero-frequency sine reads back exactly the constants
        p = case2_params
        x0, y0 = plankton_only_point(p)
        ts = np.linspace(-p.tau_max, 0.0, 4096)
        offsets = (1e-5, 5e-6, 1e-5)
        cases = [(History.constant(p, (0.5, 0.2, 1e-300)), (0.5, 0.2, 1e-300)),
                 (History.equilibrium_plus_constant(p, offsets),
                  (x0 + offsets[0], y0 + offsets[1], offsets[2]))]
        for hist, row in cases:
            assert np.array_equal(hist.eval_many(ts),
                                  np.full((ts.size, 3), row))

    def test_rejects_zero_initial_phytoplankton(self, case2_params):
        with pytest.raises(DomainError, match="phi"):
            History.constant(case2_params, (0.0, 0.1, 0.0))

    def test_domain_check(self, case2_params):
        hist = History.constant(case2_params, (0.5, 0.2, 0.1))
        with pytest.raises(DomainError, match="-10.0 outside"):
            hist.eval_many([-0.05, -10.0, 0.0])
        with pytest.raises(DomainError, match="0.5 outside"):
            hist.eval_many([0.5])
        # the rounding slack at both ends is accepted, and above 0 reads 0
        lo = -case2_params.tau_max * (1.0 + 1e-10)
        assert hist.eval_many([lo, 1e-13]).tolist() == [[0.5, 0.2, 0.1]] * 2

    def test_tabulated_roundtrip(self, case2_params):
        thetas = np.linspace(-case2_params.tau_max, 0.0, 30)
        values = np.column_stack([0.5 + 0.1 * np.cos(thetas),
                                  0.3 + 0.05 * np.sin(thetas) ** 2,
                                  0.1 + 0.0 * thetas])
        hist = History.tabulated(case2_params, thetas, values)
        for k in (0, 10, 29):
            assert hist(float(thetas[k])) == pytest.approx(
                tuple(values[k]), abs=1e-12)

    def test_tabulated_must_cover_window(self, case2_params):
        thetas = np.linspace(-0.01, 0.0, 5)
        values = np.full((5, 3), 0.5)
        with pytest.raises(DomainError, match="cover"):
            History.tabulated(case2_params, thetas, values)

    def test_analytic_maximum_matches_grid(self, case2_params):
        hist = History.equilibrium_plus_sine(case2_params, (0.0, 0.07, 0.0),
                                             37.0, phase=0.4)
        window = (-case2_params.tau1, 0.0)
        _, y0 = plankton_only_point(case2_params)
        exact = hist.sup_abs_deviation(1, window, y0)
        grid = grid_max_abs_deviation(hist, 1, window, y0)
        assert exact == pytest.approx(0.07, rel=1e-9)
        assert grid <= exact + 1e-12
        assert grid >= exact - 1e-4

    @pytest.mark.parametrize("kind", ["constant", "equilibrium_plus_constant",
                                      "sine"])
    def test_preset_sup_is_exact(self, case2_params, kind):
        # the presets' sups are closed forms: a constant's distance, and
        # for the sine the equilibrium plus or minus the amplitude at an
        # interior extremum (50 t + 0.2 passes -3 pi/2 and -pi/2)
        _, y0 = plankton_only_point(case2_params)
        window = (-case2_params.tau1, 0.0)
        if kind == "constant":
            hist, expected = History.constant(case2_params, (0.5, 0.2, 0.1)), 0.3
        elif kind == "equilibrium_plus_constant":
            hist = History.equilibrium_plus_constant(case2_params,
                                                     (0.01, 0.03, 0.0))
            expected = abs(y0 + 0.03 - 0.5)
        else:
            hist = History.equilibrium_plus_sine(case2_params, (0.0, 0.03, 0.0),
                                                 50.0, phase=0.2)
            expected = max(abs(y0 + 0.03 - 0.5), abs(y0 - 0.03 - 0.5))
        sup = hist.sup_abs_deviation(1, window, 0.5)
        assert sup == pytest.approx(expected, rel=1e-12)
        assert sup >= grid_max_abs_deviation(hist, 1, window, 0.5)

    def test_sine_sup_over_a_full_period_is_closed_form(self, case2_params):
        # extrema are not enumerated when the window holds a full period
        hist = History.equilibrium_plus_sine(case2_params, (0.0, 0.03, 0.0),
                                             1e10, phase=0.3)
        _, y0 = plankton_only_point(case2_params)
        start = time.perf_counter()
        sup = hist.sup_abs_deviation(1, (-case2_params.tau1, 0.0), 0.5)
        assert time.perf_counter() - start < 0.1
        assert sup == max(abs(y0 + 0.03 - 0.5), abs(y0 - 0.03 - 0.5))
        assert sup == pytest.approx(abs(y0 - 0.5) + 0.03, rel=1e-15)

    @pytest.mark.parametrize("frequency, phase", [
        (3.0, 0.0), (37.0, 0.4), (50.0, 0.2), (62.0, -1.1)])
    def test_sine_sup_below_a_period_keeps_its_candidates(self, case2_params,
                                                          frequency, phase):
        # the sup before the closed form, at the endpoints and extrema
        p = case2_params
        hist = History.equilibrium_plus_sine(p, (0.02, 0.03, 0.0), frequency,
                                             phase=phase)
        for i, (a, b) in enumerate(hist.windows[:2]):
            assert frequency * (b - a) < 2.0 * math.pi
            k0 = math.floor((frequency * a + phase) / math.pi - 0.5)
            k1 = math.ceil((frequency * b + phase) / math.pi + 0.5)
            interior = (((k + 0.5) * math.pi - phase) / frequency
                        for k in range(k0, k1 + 1))
            thetas = [a, b] + [t for t in interior if a <= t <= b]
            expected = float(np.abs(hist.eval_many(thetas)[:, i] - 0.4).max())
            assert hist.sup_abs_deviation(i, (a, b), 0.4) == expected

    def test_sine_sup_with_negative_frequency(self, case2_params):
        # sin(-60 t) on [-0.1, 0] passes both pi/2 and 3 pi/2
        hist = History.equilibrium_plus_sine(case2_params, (0.0, 0.07, 0.0),
                                             -60.0)
        mirror = History.equilibrium_plus_sine(case2_params,
                                               (0.0, -0.07, 0.0), 60.0)
        window = (-case2_params.tau1, 0.0)
        sup = hist.sup_abs_deviation(1, window, 0.3)
        assert sup == pytest.approx(mirror.sup_abs_deviation(1, window, 0.3),
                                    rel=1e-12)
        assert sup >= grid_max_abs_deviation(hist, 1, window, 0.3, 100001)

    def test_tabulated_sup_covers_dense_grid(self, case2_params):
        knots = np.linspace(-case2_params.tau_max, 0.0, 9)
        hist = History.tabulated(case2_params, knots, np.column_stack(
            [0.5 + 0.1 * np.sin(40.0 * knots), 0.3 + 0.2 * np.cos(55.0 * knots),
             0.1 + 0.0 * knots]))
        for i, window in ((0, (-0.1, 0.0)), (1, (-0.07, -0.02))):
            sup = hist.sup_abs_deviation(i, window, 0.4)
            dense = grid_max_abs_deviation(hist, i, window, 0.4, 100001)
            assert dense <= sup <= dense + 1e-9
            assert grid_max_abs_deviation(hist, i, window, 0.4) <= sup

    @pytest.mark.parametrize("kind", ["sine", "tabulated"])
    def test_validation_message_names_exact_minimum(self, case2_params, kind):
        # a fish component that dips below zero inside its window; the
        # message names the component's exact minimum on [-tau2, 0]
        from scipy.interpolate import CubicSpline
        from scipy.optimize import minimize_scalar
        p = case2_params
        knots = np.linspace(-p.tau_max, 0.0, 5)
        fish = 30.0 * (knots + 0.04) ** 2 - 0.01
        if kind == "sine":
            # 40 theta passes -pi/2 at theta = -0.039, inside the window
            expected = -1e-3
            make = lambda: History.equilibrium_plus_sine(  # noqa: E731
                p, (0.0, 0.0, 1e-3), 40.0)
        else:
            # the spline's minimum lies between the knots -0.05 and -0.025
            spline = CubicSpline(knots, fish, bc_type="natural")
            best = minimize_scalar(spline, bounds=(-0.05, -0.025),
                                   method="bounded",
                                   options={"xatol": 1e-12})
            expected = float(best.fun)
            assert -0.05 < best.x < -0.025 and expected < fish.min()
            make = lambda: History.tabulated(  # noqa: E731
                p, knots, np.column_stack([0.5 + 0 * knots, 0.3 + 0 * knots,
                                           fish]))
        with pytest.raises(DomainError) as info:
            make()
        found = re.fullmatch(
            r"history component 2 has minimum (\S+) and maximum \S+ on "
            r"\[-0.1, 0\]; components must be finite and non-negative",
            str(info.value))
        assert found
        assert float(found.group(1)) == pytest.approx(expected, rel=1e-12,
                                                      abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(
        st.tuples(st.just("sine"), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                  st.one_of(st.floats(-100.0, 100.0), st.floats(-1e4, 1e4),
                            # frequencies that alias a uniform grid of
                            # 2^k + 1 points on a window of 0.1 or 0.3
                            st.builds(lambda s, k, n, tau: s * 2.0 * math.pi
                                      * n * 2 ** k / tau,
                                      st.sampled_from([-1.0, 1.0]),
                                      st.integers(4, 10), st.integers(1, 8),
                                      st.sampled_from([0.1, 0.3]))),
                  st.floats(-math.pi, math.pi)),
        st.tuples(st.just("tabulated"),
                  st.lists(st.floats(1.0, 2.0), min_size=12, max_size=36))),
        window=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_range_bounds_a_dense_grid_and_is_attained(self, case, window):
        p = _readme_params(0.1, 0.3)
        x0, y0 = plankton_only_point(p)
        if case[0] == "sine":
            _, ux, uy, w, ph = case
            hist = History.equilibrium_plus_sine(p, (ux * x0, uy * y0, 0.0),
                                                 w, phase=ph)
        else:
            values = np.reshape(case[1][:len(case[1]) // 3 * 3], (-1, 3))
            knots = np.linspace(-p.tau_max, 0.0, values.shape[0])
            hist = History.tabulated(p, knots, values)
        u, v = sorted(window)
        windows = list(hist.windows) + [(-p.tau_max * v, -p.tau_max * u)]
        for i, (a, b) in ((i, ab) for ab in windows for i in range(3)):
            lo, hi = hist.component_range(i, (a, b))
            f = lambda ts: hist.eval_many(ts)[:, i]  # noqa: E731
            dense = f(np.linspace(a, b, 4097))
            tol = 1e-12 * (1.0 + np.abs(dense).max())
            assert lo - tol <= dense.min() and dense.max() <= hi + tol
            assert abs(_zoomed_min(f, a, b) - lo) <= 1e-9
            assert abs(-_zoomed_min(lambda ts: -f(ts), a, b) - hi) <= 1e-9


def _zoomed_min(f, a, b, points=1025, seeds=4, rounds=5):
    """Smallest value of f on [a, b] that a zooming grid search finds.

    The lowest local minima of a uniform grid are each refined by a
    fresh grid over their two neighbouring intervals, ``rounds`` times.
    """
    ts = np.linspace(a, b, points)
    v = f(ts)
    pad = np.concatenate(([np.inf], v, [np.inf]))
    local = np.flatnonzero((v <= pad[:-2]) & (v <= pad[2:]))
    best = math.inf
    for k in local[np.argsort(v[local])][:seeds]:
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, points - 1)]
        for _ in range(rounds):
            grid = np.linspace(lo, hi, points)
            g = f(grid)
            j = int(np.argmin(g))
            lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, points - 1)]
        best = min(best, float(g[j]))
    return best


class TestIntegrate:
    def test_equilibrium_is_stationary(self, case2_params):
        hist = History.equilibrium_plus_constant(case2_params, (0.0, 0.0, 0.0))
        traj = integrate(case2_params, hist, 5.0)
        x0, y0 = plankton_only_point(case2_params)
        drift = np.abs(traj.states - np.array([x0, y0, 0.0])).max()
        assert drift <= 1e-12

    def test_logistic_closed_form(self, logistic_params):
        hist = History.constant(logistic_params, (0.5, 0.0, 0.0))
        traj = integrate(logistic_params, hist, 10.0)
        for t in (1.0, 5.0, 10.0):
            assert abs(traj.sample(t)[0] - _logistic(0.5, 1, 1, t)) <= 1e-8

    def test_linear_decay_closed_form(self, logistic_params):
        hist = History.constant(logistic_params, (0.5, 0.4, 0.3))
        traj = integrate(logistic_params, hist, 5.0)
        _, y, z = traj.sample(5.0)
        assert y == pytest.approx(0.4 * math.exp(-5.0), rel=1e-9)
        assert z == pytest.approx(0.3 * math.exp(-5.0), rel=1e-9)

    def test_observed_order_at_least_three_and_a_half(self, case2_params):
        p = case2_params
        hist = History.equilibrium_plus_sine(p, (0.05, 0.03, 0.0), 3.0)
        t_end = 5 * p.tau_min
        ref = integrate(p, hist, t_end, step=p.tau_min / 160)
        errs = []
        for div in (20, 40):
            traj = integrate(p, hist, t_end, step=p.tau_min / div)
            errs.append(max(abs(traj.sample(t_end)[i] - ref.sample(t_end)[i])
                            for i in range(3)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.5

    def test_step_cap_enforced(self, case2_params):
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        with pytest.raises(DomainError, match="delay"):
            integrate(case2_params, hist, 1.0, step=case2_params.tau_min / 5)

    def test_step_cap_uses_smallest_positive_delay(self):
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=0.0, tau2=0.1)
        hist = History.equilibrium_plus_constant(p, (0.01, 0.0, 0.0))
        with pytest.raises(DomainError, match="delay"):
            integrate(p, hist, 1.0, step=0.02)
        integrate(p, hist, 1.0, step=0.1 / 20)

    def test_zero_delays_run_without_cap(self):
        p = derive_params(r=1, K=1, c1=0, c2=0, d1=1, d2=1, b1=0, b2=0,
                          tau1=0.0, tau2=0.0)
        hist = History.constant(p, (0.5, 0.0, 0.0))
        traj = integrate(p, hist, 2.0)
        assert traj.sample(2.0)[0] == pytest.approx(_logistic(0.5, 1, 1, 2.0),
                                                    abs=1e-8)

    def test_invalid_horizon_and_step(self, case2_params):
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        with pytest.raises(DomainError):
            integrate(case2_params, hist, 0.0)
        with pytest.raises(DomainError):
            integrate(case2_params, hist, 1.0, step=-0.001)

    def test_one_zero_delay_divides_the_other(self):
        # tau_min is the smallest positive delay, so with tau1 = 0 the
        # default step divides tau2 and tau2's stencil reads the nodes
        tau2 = 0.0761773441234148
        p = _readme_params(0.0, tau2)
        h = default_step(p)
        assert p.tau_min == tau2 and h == tau2 / 153
        fractions = {off: u for off, _, u in simulate._stencil(p.tau_min, h)}
        assert fractions[0.0] == fractions[1.0] == 0.0
        # on the mesh the error against an h/16 run is rounding (9.4e-15);
        # the step 0.0005 of tau2 / 152.4 gave 7.9e-12
        hist = History.equilibrium_plus_constant(p, (1e-2, 5e-3, 1e-2))
        traj = integrate(p, hist, 10 * tau2)
        ref = integrate(p, hist, 10 * tau2, step=traj.step / 16)
        assert traj.step == h
        assert np.abs(traj.states - ref.states[::16]).max() < 1e-13

    @pytest.mark.parametrize("call", [
        lambda p, hist: integrate(p, hist, math.nan),
        lambda p, hist: integrate(p, hist, 1.0, step=math.nan),
        lambda p, hist: hist(math.nan),
        lambda p, hist: hist.eval_many([-0.05, math.nan]),
        lambda p, hist: integrate(p, hist, 1.0).sample(math.nan),
        lambda p, hist: integrate(p, hist, 1.0).sample_many([0.5, math.nan]),
    ], ids=["horizon", "step", "theta", "theta_in_array", "sample_time",
            "in_sample_times"])
    def test_nan_is_domain_error(self, case2_params, call):
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call(case2_params, hist)

    @pytest.mark.parametrize("t_end", [1e-16, 1e-300])
    def test_horizon_below_one_step_runs_one_step(self, case2_params, t_end):
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        traj = integrate(case2_params, hist, t_end)
        assert traj.step == t_end
        assert traj.states.shape == (2, 3)
        assert np.isfinite(traj.states).all()

    def test_step_too_short_for_the_delay_is_domain_error(self, case2_params):
        # 0.1 / 5e-324 overflows, so the delay has no place on the mesh
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        with pytest.raises(DomainError) as raised:
            integrate(case2_params, hist, 5e-324)
        assert str(raised.value) == ("step 5e-324 is too short for the delay "
                                     "0.1 (delay / step overflows)")

    def test_overflowing_step_count_is_domain_error(self, case2_params):
        # 1e308 / 0.0005 overflows before any array is allocated
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        with pytest.raises(DomainError) as raised:
            integrate(case2_params, hist, 1e308)
        assert str(raised.value) == ("horizon 1e+308 / step 0.0005 overflows "
                                     "the step count")

    @pytest.mark.parametrize("taus, divisor, message", [
        ((0.1, 5e-324), 20, "step 5e-324 / 20 = 0.0 is too short for "
                            "tau_min = 5e-324"),
        ((0.1, 0.1), 10 ** 308, f"step 0.01 / {10 ** 308} = 1e-310 is too "
                                f"short for tau_min = 0.1"),
        ((0.1, 0.1), 0, "step divisor must be positive, got 0"),
    ], ids=["step_underflows", "tau_min_over_step_overflows", "zero_divisor"])
    def test_unrepresentable_default_step_is_domain_error(self, taus, divisor,
                                                          message):
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=taus[0], tau2=taus[1])
        with pytest.raises(DomainError) as raised:
            default_step(p, divisor)
        assert str(raised.value) == message

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_matches_per_step_reference(self, case):
        p, make_history, t_end, step = _REFERENCE_CASES[case]
        hist = make_history(p)
        states, derivs = _reference_integrate(p, hist, t_end, step)
        traj = integrate(p, hist, t_end, step=step)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.derivs, derivs)

    # delayed lookups per block: one per distinct positive delay
    @pytest.mark.parametrize("taus, per_block", [
        ((0.1, 0.1), 1), ((0.1, 0.1234), 2), ((0.3, 0.05), 2),
        ((0.0, 0.1), 1), ((0.1, 0.0), 1),
    ])
    def test_delayed_lookups_per_block(self, monkeypatch, taus, per_block):
        calls, delayed = [], simulate._delayed

        def counting(*args):
            out = delayed(*args)
            calls.append(out.shape[0] * out.shape[1])
            return out

        monkeypatch.setattr(simulate, "_delayed", counting)
        p = _readme_params(*taus)
        traj = integrate(p, History.constant(p, (0.5, 0.3, 0.2)), 2.0)
        n = traj.states.shape[0] - 1
        block = math.floor(min(t for t in taus if t > 0.0) / traj.step) - 2
        assert len(calls) == per_block * math.ceil((n + 1) / block)
        assert sum(calls) == per_block * 3 * (n + 1)

    def test_on_mesh_delay_reads_nodes_exactly(self, monkeypatch):
        # tau/h = 200 exactly: the stage-0 and stage-1 rows of row i are
        # the nodes i - 200 and i - 199, the history before them
        blocks, delayed = [], simulate._delayed

        def keeping(states, derivs, h, hist, tau, stencil, i0, i1):
            out = delayed(states, derivs, h, hist, tau, stencil, i0, i1)
            blocks.append((i0, i1, out))
            return out

        monkeypatch.setattr(simulate, "_delayed", keeping)
        p = _readme_params()
        hist = History.equilibrium_plus_sine(p, (0.02, 0.01, 0.0), 7.0,
                                             phase=0.3)
        traj = integrate(p, hist, 1.0)
        h, m = traj.step, 200
        assert p.tau1 / h == m
        for i0, i1, out in blocks:
            for plane, shift in ((out[0], m), (out[2], m - 1)):
                i = np.arange(i0, i1)
                on = i >= shift
                assert np.array_equal(plane[on], traj.states[i[on] - shift])
                stage = i[~on] * h + (m - shift) * h - p.tau1
                assert np.array_equal(plane[~on],
                                      hist.eval_many(np.minimum(stage, 0.0)))

    def test_off_mesh_delay_reads_a_constant_fraction(self):
        p = _readme_params(0.1, 0.1234)
        traj = integrate(p, History.constant(p, (0.5, 0.3, 0.2)), 3.0)
        h, n, tau = traj.step, traj.states.shape[0] - 1, p.tau2
        stencil = simulate._stencil(tau, h)
        out = simulate._delayed(traj.states, traj.derivs, h, traj.history,
                                tau, stencil, 0, n + 1)
        i = np.arange(n + 1)
        for plane, (off, j, u) in zip(out, stencil):
            assert 0.0 < u < 1.0
            stage = (i * h + off * h) - tau
            # every row sits at node i + j plus the same fraction u
            q = stage / h
            assert np.array_equal(np.floor(q), i + j)
            assert np.abs(q - np.floor(q) - u).max() <= 1e-9
            expected = traj.sample_many(stage)
            assert (np.abs(plane - expected) <= 1e-14 * np.abs(expected)).all()

    @pytest.mark.parametrize("x_start, message", [
        (1e150, "non-finite state at t = 0.0005"),
        (6e3, "non-finite state at t = 0.003"),
    ])
    def test_non_finite_state_raises(self, case2_params, x_start, message):
        hist = History.constant(case2_params, (x_start, 0.1, 0.1))
        with pytest.raises(IntegrationError) as expected:
            _reference_integrate(case2_params, hist, 50.0)
        assert str(expected.value) == message
        with pytest.raises(IntegrationError) as raised:
            integrate(case2_params, hist, 50.0)
        assert str(raised.value) == message

    # step counts whose arrays numpy refuses to shape: no allocation is tried
    @pytest.mark.parametrize("t_end, step", [(1e300, None), (1.0, 1e-21)])
    def test_unstorable_step_count_is_domain_error(self, case2_params, t_end,
                                                   step):
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        with pytest.raises(DomainError, match=r"steps of size .* cannot be "
                                              r"stored"):
            integrate(case2_params, hist, t_end, step=step)

    def test_failed_allocation_is_domain_error(self, case2_params,
                                               monkeypatch):
        def no_memory(shape, *args, **kwargs):
            raise MemoryError("Unable to allocate 48 PiB")

        monkeypatch.setattr(simulate.np, "zeros", no_memory)
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        with pytest.raises(DomainError) as raised:
            integrate(case2_params, hist, 1.0)
        assert str(raised.value) == ("2000 steps of size 0.0005 cannot be "
                                     "stored (Unable to allocate 48 PiB)")

    def test_deterministic_rerun(self, case2_params):
        hist = History.equilibrium_plus_sine(case2_params, (0.02, 0.01, 0.0),
                                             2.0)
        a = integrate(case2_params, hist, 3.0)
        b = integrate(case2_params, hist, 3.0)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivs, b.derivs)


class TestDenseOutput:
    def test_nodes_are_exact(self, case2_params):
        hist = History.equilibrium_plus_sine(case2_params, (0.02, 0.01, 0.0),
                                             2.0)
        traj = integrate(case2_params, hist, 2.0)
        for k in (0, 7, traj.states.shape[0] - 1):
            assert traj.sample(traj.step * k) == tuple(traj.states[k])

    def test_negative_times_delegate_to_history(self, case2_params):
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        traj = integrate(case2_params, hist, 1.0)
        assert traj.sample(-0.05) == hist(-0.05)

    def test_beyond_horizon_rejected(self, case2_params):
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        traj = integrate(case2_params, hist, 1.0)
        with pytest.raises(DomainError):
            traj.sample(1.5)

    def test_vectorized_sampling_matches_scalar(self, case2_params):
        hist = History.equilibrium_plus_sine(case2_params, (0.02, 0.01, 0.0),
                                             2.0)
        traj = integrate(case2_params, hist, 2.0)
        ts = np.array([-0.05, 0.0, 0.123, 0.5, 1.999, 2.0])
        many = traj.sample_many(ts)
        for i, t in enumerate(ts):
            assert np.array_equal(many[i], np.array(traj.sample(float(t))))

    def test_interpolation_error_is_high_order(self, logistic_params):
        hist = History.constant(logistic_params, (0.2, 0.0, 0.0))
        traj = integrate(logistic_params, hist, 2.0)
        h = traj.step
        t = 100.5 * h  # midpoint between nodes
        assert abs(traj.sample(t)[0] - _logistic(0.2, 1, 1, t)) <= 1e-10

    def test_csv_roundtrip(self, case2_params, tmp_path):
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        traj = integrate(case2_params, hist, 1.0)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (traj.states.shape[0], 4)
        assert np.array_equal(rows[:, 1:], traj.states)
        header = path.read_text().splitlines()[0]
        assert header == "t,x,y,z"

        traj.to_csv(path, stride=7)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "z"])
            for i in range(0, traj.states.shape[0], 7):
                writer.writerow([f"{traj.step * i:.17g}"]
                                + [f"{v:.17g}" for v in traj.states[i]])
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape[0] == len(range(0, traj.states.shape[0], 7))
        assert path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    @pytest.mark.parametrize("stride", [1, 2, 7, None])
    def test_csv_chunk_boundaries(self, case2_params, tmp_path, monkeypatch,
                                  chunk, stride):
        # rows split into chunks of 1, 3 or 4096 write the bytes of a
        # per-row writer with t = step * i; None is a stride above n
        hist = History.equilibrium_plus_constant(case2_params, (0.01, 0.0, 0.0))
        traj = integrate(case2_params, hist, 1.0)
        n = traj.states.shape[0]
        stride = n + 1 if stride is None else stride
        monkeypatch.setattr(simulate, "_CSV_CHUNK", chunk)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, stride=stride)
        expected = "t,x,y,z\r\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g\r\n" % (traj.step * i, *traj.states[i])
            for i in range(0, n, stride))
        assert path.read_bytes() == expected.encode()


def _bit_pattern(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestRecordedExtrema:
    @pytest.mark.parametrize("kind", ["negative", "signed_zeros", "zeros",
                                      "negative_zeros"])
    def test_extrema_equal_a_scan_of_the_states(self, case2_params, kind):
        rng = np.random.default_rng(5)
        states = {
            "negative": rng.normal(size=(50, 3)),
            "signed_zeros": np.array([[0.0, -0.0, -2.5], [-0.0, 0.0, -0.0],
                                      [1.5, -0.0, 0.0]]),
            "zeros": np.zeros((4, 3)),
            "negative_zeros": np.full((4, 3), -0.0),
        }[kind]
        hist = History.constant(case2_params, (0.1, 0.1, 0.1))
        traj = simulate.Trajectory(case2_params, hist, 0.01, states,
                                   np.zeros_like(states))
        assert (_bit_pattern(traj.observed_inf)
                == _bit_pattern(states.min(axis=0)))
        assert (_bit_pattern(traj.observed_sup)
                == _bit_pattern(states.max(axis=0)))
        assert (_bit_pattern(traj.observed_max_abs)
                == _bit_pattern(float(np.abs(states).max())))


class TestPositivity:
    def test_default_step_divides_delay(self, case2_params):
        for divisor in (20, 40):
            h = default_step(case2_params, divisor)
            n = case2_params.tau_min / h
            assert abs(n - round(n)) <= 1e-9
            assert h <= case2_params.tau_min / divisor * (1 + 1e-12)

    def test_equilibrium_scenario(self, case2_params):
        hist = History.equilibrium_plus_constant(case2_params, (0.0, 0.0, 0.0))
        traj = integrate(case2_params, hist, 5.0)
        report = check_positivity_boundedness(traj, case2_params)
        assert report.passed
        assert report.observed_min >= 0.0

    def test_large_history_stays_nonnegative_and_bounded(self, case2_params):
        hist = History.constant(case2_params, (1.8, 1.5, 1.0))
        traj = integrate(case2_params, hist, 20.0)
        report = check_positivity_boundedness(traj, case2_params)
        assert report.passed
        assert report.observed_min >= -1e-9
        assert traj.states[:, 0].max() <= report.x_bound + 1e-6
        assert report.x_bound == pytest.approx(1.8)

    @pytest.mark.parametrize("K, x_peak, passed", [
        (1e-3, 1e-3 * (1.0 + 1e-4), False),  # 1e-6 absolute would pass it
        (1e3, 1e3 + 1e-4, True),  # 1e-6 absolute would fail it
    ])
    def test_logistic_tolerance_scales_with_the_bound(self, K, x_peak, passed):
        p = derive_params(r=1, K=K, c1=0, c2=0, d1=1, d2=1, b1=0, b2=0,
                          tau1=0.1, tau2=0.1)
        hist = History.constant(p, (0.5 * K, 0.0, 0.0))
        states = np.array([[0.5 * K, 0.0, 0.0], [x_peak, 0.0, 0.0],
                           [0.9 * K, 0.0, 0.0]])
        traj = simulate.Trajectory(p, hist, 0.005, states,
                                   np.zeros_like(states))
        report = check_positivity_boundedness(traj, p)
        assert report.x_bound == K
        assert report.passed is passed
        assert any("logistic bound" in m
                   for m in report.messages) is not passed

    def test_logistic_bound_takes_the_exact_sup(self, case2_params):
        # a phi peak above K midway between two points of a 257-point grid
        # on [-tau1, 0]: a grid maximum misses it, the exact sup does not
        p = case2_params
        x0, _ = plankton_only_point(p)
        grid = np.linspace(-p.tau1, 0.0, 257)
        peak = 0.5 * (grid[100] + grid[101])
        w, amp = 300.0, 0.5
        hist = History.equilibrium_plus_sine(p, (amp, 0.0, 0.0), w,
                                             phase=math.pi / 2 - w * peak)
        assert x0 + amp > p.K
        report = check_positivity_boundedness(integrate(p, hist, 1.0), p)
        assert report.x_bound == hist.sup_abs_deviation(0, (-p.tau1, 0.0), 0.0)
        assert report.x_bound == pytest.approx(x0 + amp, rel=1e-12)
        assert report.x_bound > hist.eval_many(grid)[:, 0].max()
