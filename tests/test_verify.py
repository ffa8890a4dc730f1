import dataclasses
import math

import numpy as np
import pytest

from planktonfish import (DomainError, History, build_certificate,
                          check_differential_inequality, check_envelope,
                          check_initial_conditions, derive_params, eval_V0,
                          eval_V_along, eval_V_many, extend_history,
                          gronwall_bound, integrate, plankton_only_point,
                          predicted_envelope)
from planktonfish.verify import (V_CHUNK, V_QUAD_SUBINTERVALS, _kernel_bases,
                                 _quadratic_forms, _simpson_weights,
                                 condition_rhs, write_verification_csv)

from conftest import admissible_perturbation


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
        assert ext(0.0) == pytest.approx([0.02, 0.01, 0.03], abs=1e-14)

    def test_zero_outside_windows(self, case2_params):
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=0.05, tau2=0.2)
        hist = History.equilibrium_plus_constant(p, (0.02, 0.01, 0.03))
        ext = extend_history(hist, p)
        # x window is [-tau1, 0]; theta below it reads as zero
        assert ext.component(0, -0.1) == 0.0
        assert ext.component(2, -0.1) == pytest.approx(0.03, abs=1e-14)
        assert ext.component(1, -0.2) == pytest.approx(0.01, abs=1e-14)

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
        edges = [-p.tau2, -p.tau1, 0.0]
        thetas = np.concatenate((
            np.linspace(-p.tau2, 0.0, 41), np.linspace(-p.tau1, 0.0, 13),
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 1.0),
            [-0.3, -1.0]))
        assert np.array_equal(ext.eval_many(thetas),
                              np.array([ext(t) for t in thetas.tolist()]))


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

    def test_quadrature_refinement_is_converged(self, case2_params, case2_cert):
        hist = History.equilibrium_plus_sine(case2_params, (0.01, 0.02, 0.0),
                                             7.0)
        ext = extend_history(hist, case2_params)
        coarse = eval_V0(ext, case2_cert, subintervals=64)
        fine = eval_V0(ext, case2_cert, subintervals=256)
        assert coarse == pytest.approx(fine, rel=1e-8)

    def test_subinterval_validation(self, case2_params, case2_cert):
        ext = extend_history(
            History.equilibrium_plus_constant(case2_params, (0.0, 0.0, 0.0)),
            case2_params)
        with pytest.raises(DomainError):
            eval_V0(ext, case2_cert, subintervals=32)
        with pytest.raises(DomainError):
            eval_V0(ext, case2_cert, subintervals=65)

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
        hist = History.equilibrium_plus_sine(case2_params, (0.0, amp, 0.0), w,
                                             phase=math.pi / 2 - w * peak)
        _, y0 = plankton_only_point(case2_params)
        true_sup = abs(y0 + amp * math.sin(w * peak + hist.meta["phase"])
                       - case2_cert.y0)
        assert hist.max_abs_deviation(1, window, case2_cert.y0) < true_sup
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
        for t in (0.0, 1.0, 3.0):
            assert abs(eval_V_along(traj, case2_cert, case2_params, t)) <= 1e-22

    def test_matches_initial_value(self, admissible):
        p, cert, hist, report, _ = admissible
        traj = integrate(p, hist, 2.0)
        v_start = eval_V_along(traj, cert, p, 0.0)
        assert v_start == pytest.approx(report.V0, rel=1e-9)

    def test_domain_check(self, admissible):
        p, cert, hist, _, _ = admissible
        traj = integrate(p, hist, 1.0)
        with pytest.raises(DomainError):
            eval_V_along(traj, cert, p, 2.0)

    def test_gronwall_bound_holds(self, admissible):
        p, cert, hist, report, _ = admissible
        traj = integrate(p, hist, 20.0)
        for t in np.linspace(0.0, 20.0, 21):
            v = eval_V_along(traj, cert, p, float(t))
            assert v <= gronwall_bound(cert, report.V0, float(t)) + 1e-7


def _reference_eval_V_along(traj, cert, p, t,
                            subintervals=V_QUAD_SUBINTERVALS):
    """One time per call, three dense lookups: what ``eval_V_many`` batches."""
    if t < 0.0 or t > traj.t_end * (1.0 + 1e-12):
        raise DomainError(f"t = {t!r} outside [0, {traj.t_end}]")
    ext = extend_history(traj.history, p)
    shift = np.array([cert.x0, cert.y0, 0.0])
    vt = np.asarray(traj.sample(t)) - shift
    total = float(vt @ cert.H @ vt)
    base1, base2 = _kernel_bases(cert)
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
        got = eval_V_many(traj, cert, p, ts)
        ref = np.array([_reference_eval_V_along(traj, cert, p, float(t))
                        for t in ts])
        assert (ref > 0.0).all()
        assert (np.abs(got - ref) <= 1e-14 * ref).all()
        assert [eval_V_along(traj, cert, p, float(t)) for t in ts[:5]] \
            == got[:5].tolist()

    @pytest.mark.parametrize("bad", [-1e-3, 1.6])
    def test_domain_check(self, trajectory, bad):
        p, cert, traj = trajectory
        with pytest.raises(DomainError, match="outside"):
            eval_V_many(traj, cert, p, [0.5, bad, 1.0])
        with pytest.raises(DomainError, match="outside"):
            eval_V_along(traj, cert, p, bad)


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
        dineq = check_differential_inequality(traj, cert, p)
        assert dineq.passed
        assert dineq.worst_slack >= 0.0

    def test_differential_inequality_interior_sampling(self, admissible):
        p, cert, hist, _, _ = admissible
        traj = integrate(p, hist, 2.0)
        with pytest.raises(DomainError):
            check_differential_inequality(traj, cert, p,
                                          sampling=np.array([0.0]))

    def test_verification_csv_layout(self, admissible, tmp_path):
        p, cert, hist, report, _ = admissible
        traj = integrate(p, hist, 2.0)
        path = tmp_path / "verification.csv"
        times = np.linspace(0.1, 2.0, 5)
        write_verification_csv(path, traj, cert, report, p, times=times)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,x,y,z,V,bound_x,bound_y,bound_z,"
                            "margin_x,margin_y,margin_z")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (5, 11)
        assert (data[:, 8:] >= -1e-6).all()
