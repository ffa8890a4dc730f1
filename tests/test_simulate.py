import csv
import math

import numpy as np
import pytest

from planktonfish import simulate
from planktonfish import (DomainError, History, IntegrationError,
                          check_positivity_boundedness, default_step,
                          derive_params, integrate, plankton_only_point)


@pytest.fixture
def logistic_params():
    return derive_params(r=1, K=1, c1=0, c2=0, d1=1, d2=1, b1=0, b2=0,
                         tau1=0.1, tau2=0.1)


def _logistic(x0, r, K, t):
    return x0 * K * math.exp(r * t) / (K + x0 * (math.exp(r * t) - 1.0))


def _reference_integrate(p, hist, t_end, step=None):
    """Per-step RK4 with one scalar Hermite lookup per delayed value.

    The straightforward method of steps that ``integrate`` must reproduce
    bit for bit; returns ``(states, derivs)``.
    """
    n = math.ceil(t_end / (default_step(p) if step is None else step)
                  - 1e-12)
    h = t_end / n
    r, K, c1, c2 = p.r, p.K, p.c1, p.c2
    d1, d2, e1, e2 = p.d1, p.d2, p.e1, p.e2
    tau1, tau2 = p.tau1, p.tau2
    states = [tuple(float(v) for v in hist(0.0))]
    derivs = []

    def lookup(s, completed):
        # value at time s: history for s < 0, Hermite on completed nodes else
        if s < 0.0:
            return hist(s)
        k = int(s / h)
        if k >= completed:
            return states[completed]
        u = s / h - k
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

    def f(t, state, completed):
        x, y, z = state
        if tau1 > 0.0:
            x1, y1, _ = lookup(t - tau1, completed)
        else:
            x1, y1 = x, y
        if tau2 > 0.0:
            _, y2, z2 = lookup(t - tau2, completed)
        else:
            y2, z2 = y, z
        return (r * x * (1.0 - x / K) - c1 * x * y,
                -d1 * y + e1 * c1 * x1 * y1 - c2 * y * z,
                -d2 * z + e2 * c2 * y2 * z2)

    for i in range(n):
        t = i * h
        y0 = states[i]
        k1 = f(t, y0, i)
        derivs.append(k1)
        k2 = f(t + 0.5 * h, tuple(y0[j] + 0.5 * h * k1[j] for j in range(3)), i)
        k3 = f(t + 0.5 * h, tuple(y0[j] + 0.5 * h * k2[j] for j in range(3)), i)
        k4 = f(t + h, tuple(y0[j] + h * k3[j] for j in range(3)), i)
        nxt = tuple(y0[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                    for j in range(3))
        if not all(math.isfinite(v) for v in nxt):
            raise IntegrationError(f"non-finite state at t = {t + h:g}")
        states.append(nxt)
    derivs.append(f(n * h, states[n], n))
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

    def test_rejects_zero_initial_phytoplankton(self, case2_params):
        with pytest.raises(DomainError, match="phi"):
            History.constant(case2_params, (0.0, 0.1, 0.0))

    def test_domain_check(self, case2_params):
        hist = History.constant(case2_params, (0.5, 0.2, 0.1))
        with pytest.raises(DomainError):
            hist.component(0, -10.0)
        with pytest.raises(DomainError):
            hist.component(0, 0.5)

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
        exact = hist.analytic_max_abs_deviation(1, window, y0)
        grid = hist.max_abs_deviation(1, window, y0)
        assert exact == pytest.approx(0.07, rel=1e-9)
        assert grid <= exact + 1e-12
        assert grid >= exact - 1e-4

    def test_tabulated_has_no_analytic_maximum(self, case2_params):
        thetas = np.linspace(-case2_params.tau_max, 0.0, 10)
        hist = History.tabulated(case2_params, thetas, np.full((10, 3), 0.5))
        assert hist.analytic_max_abs_deviation(0, (-0.1, 0.0), 0.0) is None

    def test_tabulated_sup_covers_dense_grid(self, case2_params):
        knots = np.linspace(-case2_params.tau_max, 0.0, 9)
        hist = History.tabulated(case2_params, knots, np.column_stack(
            [0.5 + 0.1 * np.sin(40.0 * knots), 0.3 + 0.2 * np.cos(55.0 * knots),
             0.1 + 0.0 * knots]))
        for i, window in ((0, (-0.1, 0.0)), (1, (-0.07, -0.02))):
            sup = hist.sup_abs_deviation(i, window, 0.4)
            dense = max(abs(hist.component(i, t) - 0.4)
                        for t in np.linspace(*window, 100001).tolist())
            assert dense <= sup <= dense + 1e-9
            assert hist.max_abs_deviation(i, window, 0.4) <= sup


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
    def test_dense_lookups_per_block(self, monkeypatch, taus, per_block):
        calls, dense = [], simulate._dense

        def counting(*args):
            calls.append(args[-1].size)
            return dense(*args)

        monkeypatch.setattr(simulate, "_dense", counting)
        p = _readme_params(*taus)
        traj = integrate(p, History.constant(p, (0.5, 0.3, 0.2)), 2.0)
        n = traj.states.shape[0] - 1
        block = math.floor(min(t for t in taus if t > 0.0) / traj.step) - 2
        assert len(calls) == per_block * math.ceil((n + 1) / block)
        assert sum(calls) == per_block * 3 * (n + 1)

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
            assert traj.sample(float(traj.times[k])) == tuple(traj.states[k])

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
                writer.writerow([f"{traj.times[i]:.17g}"]
                                + [f"{v:.17g}" for v in traj.states[i]])
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape[0] == len(range(0, traj.states.shape[0], 7))
        assert path.read_bytes() == expected.read_bytes()


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
