import csv
import dataclasses
import math

import numpy as np
import pytest

from planktonfish import (DomainError, History, build_certificate,
                          check_differential_inequality, check_envelope,
                          check_initial_conditions,
                          check_positivity_boundedness, derive_params, eval_V0,
                          eval_V_along, extend_history,
                          gronwall_bound, integrate, plankton_only_point,
                          predicted_envelope)
from planktonfish import verify
from planktonfish.verify import (CHECK_TIMES, V_CHUNK, V_QUAD_SUBINTERVALS,
                                 _quadratic_forms, _simpson_weights,
                                 condition_rhs, default_sampling,
                                 solver_error_estimate,
                                 write_verification_csv)

from conftest import admissible_perturbation, grid_max_abs_deviation


@pytest.fixture
def case2_cert(case2_params):
    return build_certificate(case2_params)


@pytest.fixture
def admissible(case2_params, case2_cert):
    hist, theorem, delta = admissible_perturbation(case2_params, case2_cert)
    return case2_params, case2_cert, hist, theorem, delta


class TestExtendedHistory:
    def test_shifts_by_equilibrium(self, case2_params):
        hist = History.equilibrium_plus_constant(case2_params,
                                                 (0.02, 0.01, 0.03))
        ext = extend_history(hist, case2_params)
        assert ext.eval_many([0.0])[0] == pytest.approx([0.02, 0.01, 0.03],
                                                        abs=1e-14)

    def test_equilibrium_history_extends_to_zero(self, case2_params):
        hist = History.equilibrium_plus_constant(case2_params, (0.0, 0.0, 0.0))
        ext = extend_history(hist, case2_params)
        assert not ext.eval_many(np.linspace(-0.1, 0.0, 11)).any()

    @pytest.mark.parametrize("kind", ["constant", "sine", "tabulated"])
    def test_eval_many_matches_pointwise(self, kind):
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=0.05, tau2=0.2)
        if kind == "constant":
            hist = History.constant(p, (0.5, 0.3, 0.2))
        elif kind == "sine":
            hist = History.equilibrium_plus_sine(p, (0.02, 0.01, 0.0), 9.0,
                                                 phase=0.4)
        else:
            knots = np.linspace(-p.tau_max, 0.0, 17)
            hist = History.tabulated(p, knots, np.column_stack(
                [0.5 + 0.1 * np.cos(9.0 * knots), 0.3 + knots ** 2,
                 0.1 - 0.2 * knots]))
        ext = extend_history(hist, p)
        # the history's own rows, shifted, on all of [-tau_max, 0]; below
        # it the history refuses the theta
        edges = [-p.tau2, -p.tau1, 0.0]
        thetas = np.concatenate((
            np.linspace(-p.tau2, 0.0, 41), np.linspace(-p.tau1, 0.0, 13),
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 1.0)))
        x0, y0 = plankton_only_point(p)
        assert np.array_equal(ext.eval_many(thetas),
                              hist.eval_many(thetas) - (x0, y0, 0.0))
        with pytest.raises(DomainError, match="outside"):
            ext.eval_many([-0.1, -0.3])


class TestEvalV0:
    def test_zero_at_equilibrium(self, case2_params, case2_cert):
        hist = History.equilibrium_plus_constant(case2_params, (0.0, 0.0, 0.0))
        assert eval_V0(extend_history(hist, case2_params), case2_cert) == 0.0

    def test_constant_offset_closed_form(self, case2_params, case2_cert):
        # a pure zooplankton offset integrates the middle kernel entry
        # against exp(m1*theta) in closed form
        cert = case2_cert
        p = case2_params
        delta = 1e-3
        hist = History.equilibrium_plus_constant(p, (0.0, delta, 0.0))
        v0 = eval_V0(extend_history(hist, p), cert)
        base11 = cert.alpha * p.d1 ** 2 + cert.mu1 * cert.h22
        expected = delta ** 2 * (
            cert.h22
            + base11 * (1.0 - math.exp(-cert.m1 * p.tau1)) / cert.m1)
        assert v0 == pytest.approx(expected, rel=1e-8)

    def test_quadrature_refinement_is_converged(self, case2_params, case2_cert,
                                                monkeypatch):
        hist = History.equilibrium_plus_sine(case2_params, (0.01, 0.02, 0.0),
                                             7.0)
        ext = extend_history(hist, case2_params)
        monkeypatch.setattr(verify, "V_QUAD_SUBINTERVALS", 64)
        coarse = eval_V0(ext, case2_cert)
        monkeypatch.setattr(verify, "V_QUAD_SUBINTERVALS", 256)
        fine = eval_V0(ext, case2_cert)
        assert coarse == pytest.approx(fine, rel=1e-8)

    def test_quadratic_scaling(self, case2_params, case2_cert):
        base = 2e-3
        v_ref = None
        for lam in (1.0, 0.5, 0.25):
            hist = History.equilibrium_plus_constant(
                case2_params, (lam * base, lam * base / 2, lam * base))
            v = eval_V0(extend_history(hist, case2_params), case2_cert)
            if v_ref is None:
                v_ref = v
            else:
                assert v == pytest.approx(lam * lam * v_ref, rel=1e-10)


class TestInitialConditions:
    def test_equilibrium_history_is_admissible(self, case2_params, case2_cert):
        hist = History.equilibrium_plus_constant(case2_params, (0.0, 0.0, 0.0))
        ext = extend_history(hist, case2_params)
        report = check_initial_conditions(hist, ext, case2_cert, case2_params)
        assert report.V0 == 0.0
        assert report.envelopes_valid
        assert set(report.conditions) == {"45", "46", "47", "48", "49"}

    def test_zooplankton_window_condition_fails_when_violated(
            self, case2_params, case2_cert):
        rhs = condition_rhs(case2_cert)
        bad = 1.01 * max(rhs["45"], rhs["46"])
        hist = History.equilibrium_plus_constant(case2_params, (0.0, bad, 0.0))
        ext = extend_history(hist, case2_params)
        report = check_initial_conditions(hist, ext, case2_cert, case2_params)
        assert not report.envelopes_valid
        failed = {k for k, c in report.conditions.items() if not c.passed}
        assert "45" in failed or "46" in failed
        worst = min(report.conditions[k].margin for k in failed)
        assert worst < 0

    def test_window_sup_is_taken_from_above(self, case2_params, case2_cert):
        # a sine whose peak falls midway between two points of a 1024-point
        # grid on the window, where a grid maximum misses it
        window = (-case2_params.tau1, 0.0)
        grid = np.linspace(*window, 1024)
        peak = 0.5 * (grid[500] + grid[501])
        w, amp = 300.0, 0.07
        phase = math.pi / 2 - w * peak
        hist = History.equilibrium_plus_sine(case2_params, (0.0, amp, 0.0), w,
                                             phase=phase)
        _, y0 = plankton_only_point(case2_params)
        true_sup = abs(y0 + amp * math.sin(w * peak + phase) - case2_cert.y0)
        assert grid_max_abs_deviation(hist, 1, window, case2_cert.y0) < true_sup
        report = check_initial_conditions(
            hist, extend_history(hist, case2_params), case2_cert, case2_params)
        assert report.conditions["45"].lhs >= true_sup
        assert report.conditions["46"].lhs >= true_sup

    def test_margins_improve_under_shrinking(self, admissible):
        p, cert, hist, report, delta = admissible
        smaller = History.equilibrium_plus_constant(
            p, (delta / 10, delta / 20, delta / 10))
        small_report = check_initial_conditions(
            smaller, extend_history(smaller, p), cert, p)
        assert small_report.envelopes_valid
        for key in report.conditions:
            assert (small_report.conditions[key].margin
                    >= report.conditions[key].margin)

    def test_report_text_lists_conditions(self, admissible):
        _, _, _, report, _ = admissible
        text = report.to_text()
        for key in ("45", "46", "47", "48", "49"):
            assert f"condition ({key})" in text
        assert "envelopes_valid = True" in text


class TestEnvelopeFormulas:
    def test_zero_functional_gives_zero_envelope(self, case2_cert):
        assert predicted_envelope(case2_cert, 0.0, 3.0) == (0.0, 0.0, 0.0)
        assert gronwall_bound(case2_cert, 0.0, 3.0) == 0.0

    def test_direct_substitution(self, case2_cert):
        # with unit weights and q = 5*eps the deflation factor is exactly 2
        cert = dataclasses.replace(case2_cert, h11=1.0, h12=0.0, h22=1.0,
                                   h33=1.0, q=5.0 * case2_cert.epsilon)
        eps = cert.epsilon
        v0 = 0.01
        bx, by, bz = predicted_envelope(cert, v0, 2.0)
        expected = 0.2 * math.exp(-eps)
        assert bx == pytest.approx(expected, rel=1e-12)
        assert by == pytest.approx(expected, rel=1e-12)
        assert bz == pytest.approx(expected, rel=1e-12)

    def test_decay_rate(self, case2_cert):
        v0 = 1e-6
        b0 = predicted_envelope(case2_cert, v0, 0.0)[0]
        b1 = predicted_envelope(case2_cert, v0, 2.0 / case2_cert.epsilon)[0]
        assert b1 == pytest.approx(b0 / math.e, rel=1e-12)
        g0 = gronwall_bound(case2_cert, v0, 0.0)
        g1 = gronwall_bound(case2_cert, v0, 1.0 / case2_cert.epsilon)
        assert g1 == pytest.approx(g0 / math.e, rel=1e-12)

    def test_rejects_functional_beyond_attraction_set(self, case2_cert):
        big = (case2_cert.epsilon / case2_cert.q) ** 2 * 4.0
        with pytest.raises(DomainError):
            predicted_envelope(case2_cert, big, 1.0)
        with pytest.raises(DomainError):
            gronwall_bound(case2_cert, big, 1.0)


class TestFunctionalAlongTrajectory:
    def test_zero_along_equilibrium(self, case2_params, case2_cert):
        hist = History.equilibrium_plus_constant(case2_params, (0.0, 0.0, 0.0))
        traj = integrate(case2_params, hist, 3.0)
        values = eval_V_along(traj, case2_cert, [0.0, 1.0, 3.0])[0]
        assert (np.abs(values) <= 1e-22).all()

    def test_matches_initial_value(self, admissible):
        p, cert, hist, report, _ = admissible
        traj = integrate(p, hist, 2.0)
        assert eval_V_along(traj, cert, [0.0])[0][0] == report.V0

    def test_domain_check(self, admissible):
        p, cert, hist, _, _ = admissible
        traj = integrate(p, hist, 1.0)
        with pytest.raises(DomainError):
            eval_V_along(traj, cert, 2.0)

    def test_gronwall_bound_holds(self, admissible):
        p, cert, hist, report, _ = admissible
        traj = integrate(p, hist, 20.0)
        ts = np.linspace(0.0, 20.0, 21)
        values = eval_V_along(traj, cert, ts)[0]
        for t, v in zip(ts.tolist(), values.tolist()):
            assert v <= gronwall_bound(cert, report.V0, t) + 1e-7

    @pytest.mark.parametrize("kind", ["sine", "tabulated"])
    def test_initial_value_is_eval_V0(self, kind):
        # V at t = 0 along the trajectory and V0 on the extended history
        # run the same quadrature on the same values
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=0.05, tau2=0.2)
        cert = build_certificate(p)
        x0, y0 = plankton_only_point(p)
        if kind == "sine":
            hist = History.equilibrium_plus_sine(p, (2e-3, 1e-3, 0.0), 9.0,
                                                 phase=0.4)
        else:
            knots = np.linspace(-p.tau_max, 0.0, 17)
            hist = History.tabulated(p, knots, np.column_stack(
                [x0 + 1e-3 * np.cos(9.0 * knots), y0 + knots ** 2,
                 1e-3 - 2e-3 * knots]))
        traj = integrate(p, hist, 0.5)
        v0 = eval_V0(extend_history(hist, p), cert)
        assert v0 > 0.0
        assert v0 == eval_V_along(traj, cert, [0.0])[0][0]


def _reference_V(traj, cert, p, t, subintervals=V_QUAD_SUBINTERVALS):
    """One time per call, three dense lookups: what ``eval_V_along`` batches."""
    if t < 0.0 or t > traj.t_end * (1.0 + 1e-12):
        raise DomainError(f"t = {t!r} outside [0, {traj.t_end}]")
    ext = extend_history(traj.history, p)
    shift = np.array([cert.x0, cert.y0, 0.0])
    vt = np.asarray(traj.sample(t)) - shift
    total = float(vt @ cert.H @ vt)
    b1, b2 = cert.lin.B1, cert.lin.B2
    base1 = cert.alpha * b1.T @ b1 + cert.mu1 * cert.H1
    base2 = cert.beta * b2.T @ b2 + cert.mu2 * cert.H2
    for tau, m, base in ((p.tau1, cert.m1, base1), (p.tau2, cert.m2, base2)):
        s = np.linspace(t - tau, t, subintervals + 1)
        vals = np.empty((s.size, 3))
        neg = s < 0.0
        if neg.any():
            vals[neg] = ext.eval_many(s[neg])
        if (~neg).any():
            vals[~neg] = traj.sample_many(s[~neg]) - shift
        integrand = np.exp(-m * (t - s)) * _quadratic_forms(vals, base)
        total += float(_simpson_weights(subintervals, tau / subintervals)
                       @ integrand)
    return total


class TestEvalVMany:
    """V at many times in one ``eval_V_along`` pass."""

    @pytest.fixture(params=["equal_delays", "unequal_delays", "sine"])
    def trajectory(self, request):
        taus = (0.1, 0.1) if request.param == "equal_delays" else (0.05, 0.3)
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=taus[0], tau2=taus[1])
        cert = build_certificate(p)
        if request.param == "sine":
            hist = History.equilibrium_plus_sine(p, (2e-3, 1e-3, 0.0), 7.0)
        else:
            hist = History.equilibrium_plus_constant(p, (2e-3, 1e-3, 1e-3))
        return p, cert, integrate(p, hist, 1.5)

    def test_matches_per_time_reference(self, trajectory):
        p, cert, traj = trajectory
        # t = 0, times below each delay (history nodes), an uneven count
        # that spans several chunks, and t = t_end
        ts = np.concatenate(([0.0, 0.01, 0.5 * p.tau1, 0.9 * p.tau2],
                             np.linspace(0.02, traj.t_end, 2 * V_CHUNK + 5)))
        assert ts[-1] == traj.t_end
        got = eval_V_along(traj, cert, ts)[0]
        ref = np.array([_reference_V(traj, cert, p, float(t)) for t in ts])
        assert (ref > 0.0).all()
        assert (np.abs(got - ref) <= 1e-14 * ref).all()
        assert [eval_V_along(traj, cert, [t])[0][0] for t in ts[:5]] \
            == got[:5].tolist()

    @pytest.mark.parametrize("bad", [-1e-3, 1.6])
    def test_domain_check(self, trajectory, bad):
        p, cert, traj = trajectory
        with pytest.raises(DomainError, match="outside"):
            eval_V_along(traj, cert, [0.5, bad, 1.0])
        with pytest.raises(DomainError, match="outside"):
            eval_V_along(traj, cert, bad)


class TestChecks:
    def test_envelope_on_admissible_scenario(self, admissible):
        p, cert, hist, report, _ = admissible
        traj = integrate(p, hist, 30.0)
        env = check_envelope(traj, cert, report)
        assert env.passed
        assert min(env.worst_margin) >= 0.0
        assert env.tolerance >= 1e-6

    def test_envelope_requires_admissible_report(self, case2_params,
                                                 case2_cert):
        rhs = condition_rhs(case2_cert)
        bad = 1.5 * max(rhs["45"], rhs["46"])
        hist = History.equilibrium_plus_constant(case2_params, (0.0, bad, 0.0))
        report = check_initial_conditions(
            hist, extend_history(hist, case2_params), case2_cert, case2_params)
        traj = integrate(case2_params, hist, 1.0)
        with pytest.raises(DomainError):
            check_envelope(traj, case2_cert, report)

    def test_differential_inequality_on_admissible_scenario(self, admissible):
        p, cert, hist, _, _ = admissible
        traj = integrate(p, hist, 10.0)
        dineq = check_differential_inequality(traj, cert)
        assert dineq.passed
        assert dineq.worst_slack >= 0.0

    def test_differential_inequality_interior_sampling(self, admissible):
        # any time in [0, t_end] is valid, the end points included, and
        # the check's own times end at t_end
        p, cert, hist, _, _ = admissible
        traj = integrate(p, hist, 2.0)
        V, dV = eval_V_along(traj, cert, [0.0, traj.t_end])
        assert (V > 0.0).all() and (dV < 0.0).all()
        with pytest.raises(DomainError, match="outside"):
            eval_V_along(traj, cert, [1.01 * traj.t_end])
        assert check_differential_inequality(traj, cert).times[-1] \
            == traj.t_end

    def test_verification_csv_layout(self, admissible, tmp_path):
        p, cert, hist, report, _ = admissible
        traj = integrate(p, hist, 2.0)
        path = tmp_path / "verification.csv"
        write_verification_csv(path, cert, check_envelope(traj, cert, report),
                               check_differential_inequality(traj, cert))
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,x,y,z,V,bound_x,bound_y,bound_z,"
                            "margin_x,margin_y,margin_z")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (CHECK_TIMES, 11)
        assert (data[:, 8:] >= -1e-6).all()

    @pytest.mark.parametrize("case", ["readme", "sine"])
    def test_verification_csv_matches_reference(self, case, tmp_path):
        # README rates and offsets at horizon 5, and tau = (0.3, 0.05) with
        # a sine history: the rows written from the two reports are the
        # rows that evaluating V, the states and the envelopes again gives
        taus = (0.1, 0.1) if case == "readme" else (0.3, 0.05)
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=taus[0], tau2=taus[1])
        cert = build_certificate(p)
        if case == "readme":
            hist = History.equilibrium_plus_constant(p, (1e-5, 5e-6, 1e-5))
        else:
            hist = History.equilibrium_plus_sine(p, (1e-5, 5e-6, 0.0), 7.0)
        report = check_initial_conditions(hist, extend_history(hist, p),
                                          cert, p)
        traj = integrate(p, hist, 5.0)
        path = tmp_path / "verification.csv"
        write_verification_csv(path, cert, check_envelope(traj, cert, report),
                               check_differential_inequality(traj, cert))
        ref = _reference_verification_csv(tmp_path / "reference.csv", traj,
                                          cert, report)
        assert path.read_bytes() == ref


def _reference_verification_csv(path, traj, cert, report):
    """``verification.csv`` bytes from its own lookup, V pass and envelopes."""
    times = default_sampling(traj)
    shift = (cert.x0, cert.y0, 0.0)
    states = traj.sample_many(times).tolist()
    values = eval_V_along(traj, cert, times)[0].tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "z", "V",
                         "bound_x", "bound_y", "bound_z",
                         "margin_x", "margin_y", "margin_z"])
        for t, state, v in zip(times, states, values):
            bounds = predicted_envelope(cert, report.V0, float(t))
            margins = [bounds[i] - abs(state[i] - shift[i]) for i in range(3)]
            writer.writerow([f"{val:.17g}" for val in
                             (t, *state, v, *bounds, *margins)])
    return path.read_bytes()


@pytest.fixture(scope="module")
def readme_run():
    """The README scenario: CASE2 rates, small constant offsets, horizon 50."""
    p = derive_params(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
                      b1=3.0, b2=1.0, tau1=0.1, tau2=0.1)
    hist = History.equilibrium_plus_constant(p, (1e-5, 5e-6, 1e-5))
    return p, build_certificate(p), integrate(p, hist, 50.0)


class TestExactRate:
    @pytest.mark.parametrize("taus, kind", [((0.1, 0.1), "constant"),
                                            ((0.05, 0.3), "sine"),
                                            ((0.3, 0.05), "sine")])
    def test_matches_central_difference(self, taus, kind, monkeypatch):
        monkeypatch.setattr(verify, "V_QUAD_SUBINTERVALS", 512)
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=taus[0], tau2=taus[1])
        cert = build_certificate(p)
        if kind == "sine":
            hist = History.equilibrium_plus_sine(p, (2e-3, 1e-3, 0.0), 7.0)
        else:
            hist = History.equilibrium_plus_constant(p, (2e-3, 1e-3, 1e-3))
        traj = integrate(p, hist, 2.1)
        h = traj.step
        # V is smooth away from the breaking points, the multiples of a delay
        ts = np.linspace(0.31, 2.0, 60)
        ts = ts[np.all([np.abs(ts - np.round(ts / tau) * tau) >= 4.0 * h
                        for tau in taus], axis=0)]
        assert ts.size >= 40
        V, dV = eval_V_along(traj, cert, ts)
        fd = (eval_V_along(traj, cert, ts + h)[0]
              - eval_V_along(traj, cert, ts - h)[0]) / (2.0 * h)
        assert (dV < 0.0).all()
        assert (np.abs(dV - fd) <= 1e-4 * np.abs(fd)).all()
        assert V.tolist() == eval_V_along(traj, cert, ts)[0].tolist()

    # the README run decays at 13 eps V or faster
    @pytest.mark.parametrize("factor, passed", [(2.0, True), (20.0, False)])
    def test_scaled_epsilon(self, readme_run, factor, passed):
        p, cert, traj = readme_run
        scaled = dataclasses.replace(cert, epsilon=factor * cert.epsilon)
        dineq = check_differential_inequality(traj, scaled)
        assert dineq.passed is passed
        assert (dineq.worst_slack >= 0.0) is passed

    def test_rounding_floor_is_far_below_decay(self, readme_run):
        p, cert, traj = readme_run
        dineq = check_differential_inequality(traj, cert)
        decay = cert.epsilon * eval_V_along(traj, cert, dineq.times)[0]
        assert 0.0 < dineq.floor < 1e-6 * decay.min()
        assert dineq.passed
        assert 1.0 < dineq.observed_decay_ratio < math.inf

    def test_recorded_extrema_give_the_scanned_values(self, readme_run):
        # the checks read the trajectory's recorded extrema; they equal a
        # scan of the states
        p, cert, traj = readme_run
        max_abs = np.abs(traj.states).max()
        assert (check_positivity_boundedness(traj, p).observed_min
                == float(traj.states.min()))
        assert (solver_error_estimate(traj)
                == traj.step ** 4 * max(1.0, float(max_abs)))
        lin = cert.lin
        norms = [np.linalg.norm(m, 2) for m in (cert.H, lin.A, lin.B1, lin.B2)]
        assert check_differential_inequality(traj, cert).floor == float(
            16.0 * (2.0 ** -52 * max_abs) ** 2 * norms[0]
            * (sum(norms[1:]) + cert.m1 + cert.m2))

    @pytest.mark.parametrize("horizon", [0.001, 5.0])
    def test_equilibrium_start(self, case2_params, case2_cert, horizon):
        # V and its rate are rounding noise; the floor absorbs them
        hist = History.equilibrium_plus_constant(case2_params, (0.0, 0.0, 0.0))
        traj = integrate(case2_params, hist, horizon)
        dineq = check_differential_inequality(traj, case2_cert)
        assert dineq.passed
        assert dineq.observed_decay_ratio == math.inf
