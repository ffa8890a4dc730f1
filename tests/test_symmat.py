import numpy as np
import pytest

from planktonfish import (DomainError, assemble_C, build_certificate, eval_K,
                          is_positive_definite)
from planktonfish.certificate import _supported_submatrix
from planktonfish.symmat import _PD_TOL, first_not_positive_definite

from conftest import random_stable_params


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def _random_spd(rng, n, shift=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


def _reference_pd(a):
    """The hand-written unpivoted elimination the LAPACK test replaced."""
    a = np.asarray(a, dtype=float)
    tol = _PD_TOL * max(np.linalg.norm(a), 1e-300)
    work = a.copy()
    for k in range(a.shape[0]):
        pivot = work[k, k]
        if pivot <= tol:
            return False
        lk = work[k + 1:, k] / pivot
        work[k + 1:, k + 1:] -= np.outer(lk, work[k, k + 1:])
    return True


def _certificate_matrices(cert):
    """H, C (full and supported) and the supported kernel samples."""
    p = cert.params
    C = assemble_C(cert).C
    yield "H", cert.H
    yield "C", C
    yield "C supported", _supported_submatrix(C)[0]
    for which, tau in ((1, p.tau1), (2, p.tau2)):
        for k in range(9):
            K = eval_K(cert, which, tau * k / 8)
            yield f"K{which}({k})", _supported_submatrix(K)[0]


class TestPositiveDefinite:
    def test_identity(self):
        pd, min_eig = is_positive_definite(np.eye(3))
        assert pd and min_eig == pytest.approx(1.0)

    def test_indefinite(self):
        pd, min_eig = is_positive_definite(np.diag([1.0, -2.0]))
        assert not pd and min_eig == pytest.approx(-2.0)

    def test_semidefinite_rejected(self):
        pd, _ = is_positive_definite(np.diag([1.0, 0.0]))
        assert not pd

    def test_pivot_floor(self):
        # a factorization succeeds, but a pivot is below 1e-13 * ||M||_F
        v = np.array([1.0, 2.0, -0.5])
        for a in (np.diag([1.0, 1e-20]), np.outer(v, v) + 1e-15 * np.eye(3)):
            np.linalg.cholesky(a)
            pd, _ = is_positive_definite(a)
            assert not pd and not _reference_pd(a)

    def test_agrees_with_eigenvalue_sign(self):
        rng = np.random.default_rng(32)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(2, 8))
            a = _random_symmetric(rng, n)
            pd, min_eig = is_positive_definite(a)
            # skip the tolerance band around singularity
            if abs(min_eig) <= 1e-10 * np.linalg.norm(a):
                continue
            assert pd == (min_eig > 0.0)
            checked += 1
        assert checked >= 400

    def test_matches_reference_elimination(self):
        rng = np.random.default_rng(35)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(2, 10))
            a = _random_symmetric(rng, n)
            if rng.random() < 0.5:
                a += rng.uniform(0.0, 3.0) * np.eye(n)  # more PD cases
            pd, min_eig = is_positive_definite(a)
            if abs(min_eig) <= 1e-10 * np.linalg.norm(a):
                continue
            assert pd == _reference_pd(a)
            checked += 1
        assert checked >= 400

    def test_matches_reference_on_certificates(self):
        rng = np.random.default_rng(36)
        for _ in range(8):
            cert = build_certificate(random_stable_params(rng))
            for name, m in _certificate_matrices(cert):
                assert is_positive_definite(m)[0] == _reference_pd(m), name

    def test_non_symmetric_uses_symmetric_part(self):
        # x^T M x only sees (M + M^T)/2: here it has eigenvalue -4, although
        # each triangle mirrored on its own is positive definite
        m = np.array([[1.0, 0.0, 0.0], [10.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for a in (m, m.T):
            pd, min_eig = is_positive_definite(a)
            assert not pd and min_eig == pytest.approx(-4.0)
        # a skew part leaves the form alone
        pd, min_eig = is_positive_definite([[2.0, 1.0], [-1.0, 2.0]])
        assert pd and min_eig == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # in either triangle, on or off the diagonal
        for i, j in ((0, 0), (0, 2), (1, 2), (2, 0)):
            a = np.eye(3)
            a[i, j] = bad
            pd, min_eig = is_positive_definite(a)
            assert pd is False and np.isnan(min_eig)

    def test_random_spd_accepted(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            pd, min_eig = is_positive_definite(_random_spd(rng, n))
            assert pd and min_eig > 0

    def test_stack_shape_check_without_size_cap(self):
        for bad in (np.eye(3), np.zeros((2, 3, 4)), np.zeros(3)):
            with pytest.raises(DomainError, match="square"):
                first_not_positive_definite(bad)
        with pytest.raises(DomainError, match="square"):
            is_positive_definite(np.zeros((2, 3)))
        # LAPACK needs no dimension cap: 12 x 12 is decided like 3 x 3
        stack = np.stack([np.eye(12), np.eye(12), np.eye(12)])
        assert first_not_positive_definite(stack) is None
        stack[1, 11, 11] = -1.0
        assert first_not_positive_definite(stack) == 1
