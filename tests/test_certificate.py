import math
import re

import numpy as np
import pytest
import yaml

from planktonfish import (CertificateError, CertificateOptions, DomainError,
                          assemble_C, build_certificate,
                          check_generic_certificate, choose_rates, derive_params,
                          eval_K, linearize)
from planktonfish.certificate import (GenericCheckResult, _block_matrix,
                                      _supported_submatrix)
from planktonfish.cli import main
from planktonfish.model import coexistence_threshold
from planktonfish.spectrum import lemma_classify

from conftest import build_stable_certified, random_stable_params


@pytest.fixture
def case2_cert(case2_params):
    return build_certificate(case2_params)


def _reference_sigma(cert):
    """sigma = lambda_min(H^{-1/2} L H^{-1/2}), with H^{-1/2} from an
    eigendecomposition of H: the form the Cholesky factor replaced."""
    vals, vecs = np.linalg.eigh(cert.H)
    hs = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    hs = 0.5 * (hs + hs.T)
    return float(np.linalg.eigvalsh(hs @ cert.L @ hs)[0])


def _near_boundary_params(k):
    """README rates with d1 = e1*c1*K/3 * (1 + k * 2**-52), k ulps inside
    the lower end of the stability gap, where H is nearly singular."""
    e1c1K = 3.0 * math.exp(-0.1)
    return derive_params(r=1.0, K=1.0, c1=1.0, c2=1.0,
                         d1=e1c1K / 3.0 * (1.0 + k * 2.0 ** -52), d2=1.0,
                         b1=3.0, b2=1.0, tau1=0.1, tau2=0.1)


class TestChooseRates:
    def test_fish_rate_closed_form(self):
        # pick d2 = e * (e2*c2*y0) so the supremum of the m2 range is 2/tau2
        base = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1.0, b1=3, b2=1,
                             tau1=0.1, tau2=0.1)
        lin = linearize(base)
        d2 = math.e * base.e2 * base.c2 * lin.y0
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=d2, b1=3, b2=1,
                          tau1=0.1, tau2=0.1)
        _, m2 = choose_rates(p)
        assert m2 == pytest.approx(1.0 / p.tau2, rel=1e-12)

    def test_prey_rate_positive_at_balanced_predation(self):
        # with d1 = e1*c1*K/2 the predation term c1*y0 equals r*x0/K, so the
        # first ratio in the rate bound vanishes and only the second binds
        e1c1K = 3 * math.exp(-0.1)
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=e1c1K / 2, d2=5.0,
                          b1=3, b2=1, tau1=0.1, tau2=0.1)
        m1, _ = choose_rates(p)
        lin = linearize(p)
        a = p.r * lin.x0 / p.K
        rho = p.d1 ** 2 / (a * a + p.d1 ** 2)
        assert m1 == pytest.approx(-0.5 * math.log(rho) / p.tau1, rel=1e-12)
        assert m1 > 0

    def test_rates_respect_their_inequalities(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            p = random_stable_params(rng, tau_range=(0.05, 0.4))
            m1, m2 = choose_rates(p)
            lin = linearize(p)
            a = p.r * lin.x0 / p.K
            em1 = math.exp(-m1 * p.tau1)
            assert m1 > 0 and m2 > 0
            assert a * a * em1 > (a - p.c1 * lin.y0) ** 2
            assert (a * a + p.d1 ** 2) * em1 > p.d1 ** 2
            assert p.e2 * p.c2 * lin.y0 * math.exp(m2 * p.tau2 / 2) < p.d2

    def test_rejects_zero_delay(self):
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=0.0, tau2=0.1)
        with pytest.raises(DomainError):
            choose_rates(p)

    def test_rejects_violated_stability_inequality(self):
        p = derive_params(r=2, K=1, c1=1, c2=1, d1=1, d2=1, b1=3, b2=2,
                          tau1=0.1, tau2=0.1)
        with pytest.raises(CertificateError, match="e2"):
            choose_rates(p)

    def test_refuses_a_set_the_lemma_does_not_call_stable(self):
        # d2 one ulp above e2*c2*y0 = 0.4048374180359595: the lemma calls
        # the set Unstable
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=0.4048374180359596,
                          b1=3, b2=1, tau1=0.1, tau2=0.1)
        assert lemma_classify(p).kind == "Unstable"
        for build in (choose_rates, build_certificate):
            with pytest.raises(CertificateError,
                               match=r"^certificate inapplicable: verdict "
                                     r"Unstable \(d1 = 1.5 < "):
                build(p)


    def test_refuses_an_m2_margin_that_rounds_away(self, tmp_path):
        # b2 = 3 puts the lower end of the stable band at the coexistence
        # threshold 1.7145122541078788; one ulp above it, with m_fraction =
        # 1 - 2^-40, d2 - e2*c2*y0*exp(m2*tau2/2) rounds to exactly 0
        rates = dict(r=1.0, K=1.0, c1=1.0, c2=1.0, d2=1.0, b1=3.0, b2=3.0,
                     tau1=0.1, tau2=0.1)
        threshold = coexistence_threshold(derive_params(d1=1.5, **rates))
        d1 = math.nextafter(threshold, math.inf)
        p = derive_params(d1=d1, **rates)
        assert lemma_classify(p).kind == "AsymptoticallyStable"
        options = CertificateOptions(m_fraction=1.0 - 2.0 ** -40)
        message = (r"^certificate inapplicable: rate m2 = \S+ leaves "
                   r"d2 - e2\*c2\*y0\*exp\(m2\*tau2/2\) = 0\.0 after "
                   r"rounding; m_fraction = 0\.9999999999990905 is too close "
                   r"to 1$")
        for build in (choose_rates, build_certificate):
            with pytest.raises(CertificateError, match=message):
                build(p, options)
        config = tmp_path / "scenario.yaml"
        config.write_text(yaml.safe_dump({
            "params": dict(rates, d1=d1), "horizon": 0.01,
            "overrides": {"m_fraction": options.m_fraction}}))
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 2
        assert re.search(message[1:-1],
                         (out / "certificate.txt").read_text())


# invariant -> (rates, m_fraction): a set that makes the invariant the
# first to fail, from a seeded scan with rates log-uniform in [1e-3, 1e3],
# delays in [1e-4, 10] and d1 within 50 ulps of an end of the stable band
# or inside it
INVARIANT_ROWS = {
    "l11 > 0": (dict(
        r=0.020822764511665044, K=0.2869712269221624, c1=91.2676004988954,
        c2=2.2208157024366204, d1=1.24e-322, d2=11.548112072778089,
        b1=0.08644633490197859, b2=486.0847157767471,
        tau1=8.129895732966908, tau2=0.0135026455453923), 0.5),
    "l11*l22 - l12^2 > 0": (dict(
        r=3.765942660667609, K=17.62206969484001, c1=0.002489629396496863,
        c2=0.135552691049351, d1=0.6617371856807639, d2=0.06860970542700134,
        b1=15.084080652306197, b2=0.01284220033725264,
        tau1=0.02305110500411029, tau2=0.0007596270167812692),
        0.35764406505883395),
    "det L > 0": (dict(
        r=53.263515072889646, K=0.15743701793388432, c1=2.9587820434010608,
        c2=0.0011336273649356682, d1=0.005655906427067726,
        d2=0.0019070527771654449, b1=0.01217634452247895,
        b2=538.3681977828466, tau1=0.0009607454858410695,
        tau2=0.6007337920469616), 1.0 - 2.0 ** -40),
    "H positive definite": (dict(
        r=0.652250298751371, K=0.030160392964036324, c1=1.8304807052065217,
        c2=2.777455615786447, d1=8.4975970966829e-07,
        d2=0.0011986299841722906, b1=0.019970033931176866,
        b2=0.047521943766324425, tau1=3.8170413004039605,
        tau2=0.6739493490041417), 0.5),
    "sigma > 0": (dict(
        r=22.716553034458475, K=0.18591744661256773, c1=5.957055519729945,
        c2=111.15328426018424, d1=9.42748313972651, d2=39.447448239873964,
        b1=12.820916390860553, b2=1.3003423507958924,
        tau1=0.06875419352212289, tau2=0.14785599436712585), 0.999999),
    "m1 inequalities": (dict(
        r=0.5437020457168694, K=14.535487202323193, c1=4.634696602594435,
        c2=11.069293521082269, d1=0.09145135789940696, d2=7.898687570238286,
        b1=0.0014322186604331468, b2=0.29404966542360883,
        tau1=0.011560912332698054, tau2=0.0453076299384174),
        1.0 - 2.0 ** -40),
    "beta and q finite": (dict(
        r=1.5280303164959503, K=0.20871804166995261, c1=1.149110523689314,
        c2=398.0657496750762, d1=0.00024360228506112468,
        d2=0.01130852412681013, b1=7.945736297896341, b2=2.790532781680349,
        tau1=7.555142976857266, tau2=1.3799497646081256), 0.99),
}


class TestBuildCertificate:
    def test_reference_scalars(self, case2_cert):
        cert = case2_cert
        assert cert.sigma == pytest.approx(0.0349, abs=2e-4)
        assert cert.epsilon == pytest.approx(cert.sigma / 2, rel=1e-12)
        assert cert.q == pytest.approx(2.541, abs=2e-3)
        assert cert.mu1 == cert.mu2 == pytest.approx(cert.sigma / 4, rel=1e-12)

    def test_epsilon_rule(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            _, cert = build_stable_certified(rng)
            assert cert.epsilon == pytest.approx(
                min(cert.sigma - 2 * max(cert.mu1, cert.mu2),
                    cert.m1, cert.m2), rel=1e-14)
            assert cert.epsilon > 0

    def test_weight_matrix_structure(self, case2_cert):
        cert = case2_cert
        H = cert.H
        assert np.array_equal(H, H.T)
        assert H[0, 2] == H[1, 2] == 0.0
        assert np.array_equal(cert.H1 + cert.H2, H)
        assert cert.minor == pytest.approx(
            cert.h11 * cert.h22 - cert.h12 ** 2, rel=1e-15)
        assert cert.minor > 0

    def test_lyapunov_identity(self):
        # L must equal the negative of the weighted Lyapunov combination
        rng = np.random.default_rng(43)
        for _ in range(10):
            p, cert = build_stable_certified(rng)
            lin = cert.lin
            ht1 = np.zeros((3, 3))
            ht1[1, 0], ht1[1, 1] = cert.h12, cert.h22
            ht2 = np.diag([0.0, 0.0, cert.h33])
            rhs = -(cert.H @ lin.A + lin.A.T @ cert.H
                    + cert.alpha * lin.B1.T @ lin.B1
                    + cert.beta * lin.B2.T @ lin.B2
                    + math.exp(cert.m1 * p.tau1) / cert.alpha * ht1.T @ ht1
                    + math.exp(cert.m2 * p.tau2) / cert.beta * ht2.T @ ht2)
            scale = np.abs(cert.L).max()
            assert np.abs(cert.L - rhs).max() <= 1e-9 * scale

    def test_minor_closed_form(self):
        # l11*l22 - l12^2 factors through the first stability gap
        rng = np.random.default_rng(44)
        for _ in range(15):
            p, cert = build_stable_certified(rng)
            a = p.r * cert.x0 / p.K
            em1 = math.exp(-cert.m1 * p.tau1)
            l11, l12 = cert.L[0, 0], cert.L[0, 1]
            l22 = cert.L[1, 1]
            direct = l11 * l22 - l12 * l12
            factored = (cert.alpha * p.e1 ** 2
                        * (a * a * em1 - (a - p.c1 * cert.y0) ** 2) * l22)
            assert direct == pytest.approx(factored, rel=1e-10)

    def test_sigma_is_tight(self, case2_cert):
        cert = case2_cert
        slack = np.linalg.eigvalsh(cert.L - cert.sigma * cert.H)
        assert slack[0] >= -1e-10 * np.linalg.norm(cert.L)
        bumped = np.linalg.eigvalsh(
            cert.L - (cert.sigma * 1.001 + 1e-9) * cert.H)
        assert bumped[0] < 0

    def test_sigma_matches_inverse_square_root(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            cert = build_certificate(random_stable_params(rng))
            ref = _reference_sigma(cert)
            assert abs(cert.sigma - ref) <= 1e-12 * ref

    def test_sigma_is_the_pencil_eigenvalue(self):
        # sigma is the largest s with L - s*H positive semidefinite: at
        # sigma the pencil is singular, and a relative 1e-6 more breaks it
        rng = np.random.default_rng(47)
        for _ in range(30):
            cert = build_certificate(random_stable_params(rng))
            norm_L = np.linalg.norm(cert.L)
            slack = np.linalg.eigvalsh(cert.L - cert.sigma * cert.H)[0]
            assert abs(slack) <= 1e-12 * norm_L
            bumped = np.linalg.eigvalsh(
                cert.L - cert.sigma * (1.0 + 1e-6) * cert.H)[0]
            assert bumped < 0.0

    # near the lower end of the stability gap the positive-definiteness
    # rule refuses H up to k = 246 ulps and accepts it from k = 247 on
    @pytest.mark.parametrize("k", [1, 246])
    def test_nearly_singular_weight_rejected(self, k):
        with pytest.raises(CertificateError, match="H positive definite"):
            build_certificate(_near_boundary_params(k))

    @pytest.mark.parametrize("k", [247, 1000])
    def test_weight_just_inside_the_rule_accepted(self, k):
        cert = build_certificate(_near_boundary_params(k))
        assert cert.sigma > 0.0 and cert.epsilon > 0.0

    # epsilon > 0 has no row: it fails only when fl(mu_fraction * sigma)
    # rounds up to sigma / 2, which needs a subnormal sigma
    @pytest.mark.parametrize("invariant", list(INVARIANT_ROWS))
    def test_each_invariant_fails_first_on_its_row(self, invariant):
        rates, m_fraction = INVARIANT_ROWS[invariant]
        message = f"certificate invariant violated: {invariant}"
        with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
            build_certificate(derive_params(**rates),
                              CertificateOptions(m_fraction=m_fraction))

    def test_report_contains_all_scalars(self, case2_cert):
        text = case2_cert.report()
        for name in ("sigma", "epsilon", "q", "h33", "m1", "m2"):
            assert f"{name} = " in text

    def test_report_states_cond_H(self, case2_cert):
        # sigma's relative accuracy is about cond(H) * 2**-52
        def cond_H(cert):
            text = cert.report()
            return float(re.search(r"^cond_H = (\S+)$", text, re.M).group(1))

        assert cond_H(build_certificate(_near_boundary_params(247))) > 1e12
        assert 1.0 < cond_H(case2_cert) < 10.0

    def test_option_validation(self, case2_params):
        with pytest.raises(DomainError):
            build_certificate(case2_params, CertificateOptions(mu_fraction=0.6))
        with pytest.raises(DomainError):
            build_certificate(case2_params, CertificateOptions(m_fraction=1.5))
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="alpha"):
                build_certificate(case2_params, CertificateOptions(alpha=alpha))
        for factor in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="h33_factor"):
                build_certificate(case2_params,
                                  CertificateOptions(h33_factor=factor))

    def test_alpha_scales_the_quadratic_data(self, case2_params):
        # H and L are homogeneous of degree one in alpha, so sigma is invariant
        c1 = build_certificate(case2_params, CertificateOptions(alpha=1.0))
        c2 = build_certificate(case2_params, CertificateOptions(alpha=2.0))
        assert np.allclose(2.0 * c1.H, c2.H, rtol=1e-12)
        assert np.allclose(2.0 * c1.L, c2.L, rtol=1e-12)
        assert c2.sigma == pytest.approx(c1.sigma, rel=1e-9)


class TestKernels:
    def test_left_endpoint_values(self, case2_cert):
        cert = case2_cert
        lin = cert.lin
        K10 = eval_K(cert, 1, 0.0)
        expected = cert.alpha * lin.B1.T @ lin.B1 + cert.mu1 * cert.H1
        assert np.array_equal(K10, expected)

    def test_exponential_decay_between_endpoints(self, case2_cert):
        cert = case2_cert
        p = cert.params
        K10 = eval_K(cert, 1, 0.0)
        K1t = eval_K(cert, 1, p.tau1)
        assert np.allclose(K1t, math.exp(-cert.m1 * p.tau1) * K10, rtol=1e-14)
        K2m = eval_K(cert, 2, 0.5 * p.tau2)
        assert np.allclose(K2m, math.exp(-cert.m2 * 0.5 * p.tau2)
                           * eval_K(cert, 2, 0.0), rtol=1e-14)

    def test_derivative_matches_rate(self, case2_cert):
        cert = case2_cert
        s, h = 0.05, 1e-5
        diff = (eval_K(cert, 1, s + h) - eval_K(cert, 1, s - h)) / (2 * h)
        expected = -cert.m1 * eval_K(cert, 1, s)
        assert np.abs(diff - expected).max() <= 1e-6 * np.abs(expected).max()

    def test_domain_checks(self, case2_cert):
        with pytest.raises(DomainError):
            eval_K(case2_cert, 1, -0.01)
        with pytest.raises(DomainError):
            eval_K(case2_cert, 2, 1.0)
        with pytest.raises(DomainError):
            eval_K(case2_cert, 3, 0.0)


class TestBlockMatrix:
    def test_reference_assembly(self, case2_cert):
        report = assemble_C(case2_cert)
        assert report.positive_definite
        assert report.min_eig_supported > 0
        # kernels act on three of the nine delayed coordinates only
        assert len(report.zero_rows) == 3
        # the full matrix is singular along those rows
        min_full = np.linalg.eigvalsh(report.C)[0]
        assert abs(min_full) <= 1e-12 * np.linalg.norm(report.C)

    def test_random_stable_sets(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            _, cert = build_stable_certified(rng)
            report = assemble_C(cert)
            assert report.positive_definite
            assert report.min_eig_supported > 0

    def test_symmetry(self, case2_cert):
        C = assemble_C(case2_cert).C
        assert np.array_equal(C, C.T)


def _reference_pd(m):
    """The one-matrix definiteness test the batched check replaced."""
    a = np.asarray(m, dtype=float)
    a = 0.5 * (a + a.T)
    if not np.isfinite(a).all():
        return False
    tol = 1e-13 * max(np.linalg.norm(a), 1e-300)
    try:
        return bool((np.diag(np.linalg.cholesky(a)) ** 2 > tol).all())
    except np.linalg.LinAlgError:
        return False


def _reference_generic_check(A, B1, B2, H, K1_samples, K2_samples):
    """The generic check with every matrix tested on its own, in order."""
    if not _reference_pd(H):
        return GenericCheckResult(False, "H not positive definite")
    samples = [("K1", [np.asarray(k, dtype=float) for k in K1_samples]),
               ("K2", [np.asarray(k, dtype=float) for k in K2_samples])]
    for name, ks in samples:
        for i, k in enumerate(ks):
            sub, _ = _supported_submatrix(k)
            if not (sub.size > 0 and _reference_pd(sub)):
                return GenericCheckResult(
                    False, f"{name}({i}) not positive definite on its support")
        for i in range(len(ks) - 1):
            sub, _ = _supported_submatrix(ks[i])
            dsub, _ = _supported_submatrix(ks[i] - ks[i + 1])
            if dsub.shape != sub.shape or not _reference_pd(dsub):
                return GenericCheckResult(
                    False, f"{name} not strictly decreasing at sample {i}")
    (_, k1), (_, k2) = samples
    C = _block_matrix(A, B1, B2, H, k1[0], k2[0], k1[-1], k2[-1])
    if not _reference_pd(_supported_submatrix(C)[0]):
        return GenericCheckResult(False, "C not positive definite on its support")
    return GenericCheckResult(True, None)


def _kernel_mutations(cert):
    """(name, K1 samples, K2 samples) of the model kernels and mutations."""
    p = cert.params
    k1 = [eval_K(cert, 1, s) for s in np.linspace(0.0, p.tau1, 9)]
    k2 = [eval_K(cert, 2, s) for s in np.linspace(0.0, p.tau2, 9)]
    yield "model", k1, k2
    bad = list(k1)
    bad[3] = bad[3] - 2.0 * np.diag(np.diag(bad[3]))
    yield "K1(3) not PD", bad, k2
    bad = list(k2)
    bad[6] = bad[5] + 1e-3 * np.abs(bad[5]).max() * np.eye(3)
    yield "K2 rises after sample 5", k1, bad
    bad = list(k2)
    bad[6] = bad[5]
    yield "K2 flat after sample 5", k1, bad
    yield "constant K1", [k1[0]] * 5, k2
    bad = list(k1)
    bad[4] = bad[4].copy()
    bad[4][0, 1] = np.nan
    yield "NaN in K1(4)", bad, k2
    # K1 gains a row (and column) from sample 6 on: another support
    extra = np.zeros((3, 3))
    extra[2, 2] = 1e-3 * np.abs(k1[0]).max()
    yield "K1 support grows", k1[:6] + [k + extra for k in k1[6:]], k2
    yield "K1 support shrinks", [k + extra for k in k1[:6]] + k1[6:], k2
    yield "K2 all zero", k1, [np.zeros((3, 3))] * 4


class TestGenericCheck:
    def _samples(self, cert, which, n=9):
        tau = cert.params.tau1 if which == 1 else cert.params.tau2
        return [eval_K(cert, which, s) for s in np.linspace(0.0, tau, n)]

    def test_model_certificate_passes(self, case2_cert):
        cert = case2_cert
        lin = cert.lin
        result = check_generic_certificate(
            lin.A, lin.B1, lin.B2, cert.H,
            self._samples(cert, 1), self._samples(cert, 2))
        assert result.ok and result.failure is None

    def test_indefinite_weight_rejected(self, case2_cert):
        cert = case2_cert
        lin = cert.lin
        result = check_generic_certificate(
            lin.A, lin.B1, lin.B2, -np.eye(3),
            self._samples(cert, 1), self._samples(cert, 2))
        assert not result.ok and "H" in result.failure

    def test_non_symmetric_weight_rejected(self, case2_cert):
        # the upper triangle alone is the identity, but x^T H x is indefinite
        cert = case2_cert
        lin = cert.lin
        h = np.array([[1.0, 0.0, 0.0], [10.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        result = check_generic_certificate(
            lin.A, lin.B1, lin.B2, h,
            self._samples(cert, 1), self._samples(cert, 2))
        assert not result.ok
        assert result.failure == "H not positive definite"

    def test_constant_kernel_rejected(self, case2_cert):
        cert = case2_cert
        lin = cert.lin
        flat = [eval_K(cert, 1, 0.0)] * 5
        result = check_generic_certificate(
            lin.A, lin.B1, lin.B2, cert.H, flat, self._samples(cert, 2))
        assert not result.ok and "decreasing" in result.failure

    def test_matches_one_matrix_at_a_time(self, case2_cert):
        cert = case2_cert
        lin = cert.lin
        seen = set()
        for name, k1, k2 in _kernel_mutations(cert):
            args = (lin.A, lin.B1, lin.B2, cert.H, k1, k2)
            result = check_generic_certificate(*args)
            assert result == _reference_generic_check(*args), name
            seen.add(result.failure)
        assert seen == {None, "K1(3) not positive definite on its support",
                        "K2 not strictly decreasing at sample 5",
                        "K1 not strictly decreasing at sample 0",
                        "K1(4) not positive definite on its support",
                        "K1 not strictly decreasing at sample 5",
                        "K2(0) not positive definite on its support"}

    def test_one_cholesky_per_stack(self, case2_cert, monkeypatch):
        # H, each kernel's samples with its differences, and C: four stacks
        # (one matrix at a time made 36 calls)
        cert = case2_cert
        lin = cert.lin
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(a.shape) or cholesky(a))
        result = check_generic_certificate(
            lin.A, lin.B1, lin.B2, cert.H,
            self._samples(cert, 1), self._samples(cert, 2))
        assert result.ok
        assert len(calls) <= 5, calls

    def test_block_diagonal_pair_beyond_three_states(self):
        # n = 4: two decoupled 2-dimensional certificates side by side; the
        # pair is certified exactly when both blocks are
        a = np.array([[-2.0, 0.5], [0.0, -1.5]])
        b1 = np.array([[0.1, 0.0], [0.2, 0.1]])
        b2 = np.array([[0.0, 0.1], [0.1, 0.0]])
        h = np.array([[1.0, 0.1], [0.1, 1.0]])
        k1 = [np.exp(-s) * np.eye(2) for s in np.linspace(0.0, 0.5, 5)]
        k2 = [np.exp(-2.0 * s) * np.diag([1.0, 0.5])
              for s in np.linspace(0.0, 0.3, 5)]
        bad_k1 = list(k1)
        bad_k1[2] = np.diag([1.0, -1.0]) * bad_k1[2]
        cases = {"good": (a, b1, b2, h, k1, k2),
                 "bad K1": (a, b1, b2, h, bad_k1, k2),
                 "unstable": (-a, b1, b2, h, k1, k2)}
        alone = {name: check_generic_certificate(*case)
                 for name, case in cases.items()}

        def pair(x, y):
            z = np.zeros((2, 2))
            mats = [np.block([[m, z], [z, w]]) for m, w in zip(x[:4], y[:4])]
            kernels = [[np.block([[m, z], [z, w]]) for m, w in zip(kx, ky)]
                       for kx, ky in zip(x[4:], y[4:])]
            return check_generic_certificate(*mats, *kernels)

        for x in cases:
            for y in cases:
                both = pair(cases[x], cases[y])
                assert both.ok == (alone[x].ok and alone[y].ok), (x, y)
        assert alone["good"].ok and not alone["unstable"].ok
        failure = "K1(2) not positive definite on its support"
        assert alone["bad K1"].failure == failure
        assert pair(cases["good"], cases["bad K1"]).failure == failure
        assert pair(cases["bad K1"], cases["good"]).failure == failure
        assert pair(cases["good"], cases["unstable"]).failure == (
            "C not positive definite on its support")

    def test_one_state(self):
        k1 = [np.array([[np.exp(-s)]]) for s in np.linspace(0.0, 0.5, 5)]
        k2 = [np.array([[np.exp(-s)]]) for s in np.linspace(0.0, 0.2, 5)]
        args = (np.array([[-3.0]]), np.array([[0.2]]), np.array([[0.1]]),
                np.array([[1.0]]))
        assert check_generic_certificate(*args, k1, k2).ok
        # a growing mode cannot be certified
        result = check_generic_certificate(np.array([[3.0]]), *args[1:],
                                           k1, k2)
        assert result.failure == "C not positive definite on its support"
        result = check_generic_certificate(*args[:3], np.array([[-1.0]]),
                                           k1, k2)
        assert result.failure == "H not positive definite"

    def test_shape_validation(self, case2_cert):
        cert = case2_cert
        lin = cert.lin
        with pytest.raises(DomainError):
            check_generic_certificate(lin.A, lin.B1, lin.B2, np.eye(2),
                                      self._samples(cert, 1),
                                      self._samples(cert, 2))
        with pytest.raises(DomainError):
            check_generic_certificate(lin.A, lin.B1, lin.B2, cert.H,
                                      [eval_K(cert, 1, 0.0)],
                                      self._samples(cert, 2))
