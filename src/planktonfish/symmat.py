"""Small dense symmetric linear algebra for certificate checks.

Eigen-decomposition, positive-definiteness test (of one matrix or of a
stack in one batched call) and inverse square root for symmetric matrices
up to 9x9, on LAPACK through ``numpy.linalg`` (``eigh``, ``eigvalsh`` and
``cholesky``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

MAX_DIM = 9
_PD_TOL = 1e-13  # pivot tolerance, relative to the Frobenius norm


def _square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or n > MAX_DIM:
        raise DomainError(f"expected square matrix of dimension <= {MAX_DIM}")
    return a


class SymMatrix:
    """Symmetric matrix with symmetry exact by construction."""

    def __init__(self, upper: np.ndarray):
        upper = _square(upper)
        n = upper.shape[0]
        # mirror the upper triangle so both halves are bitwise identical
        a = np.triu(upper)
        self._a = a + np.triu(a, 1).T
        self.n = n

    @classmethod
    def from_array(cls, a) -> "SymMatrix":
        return cls(np.asarray(a, dtype=float))

    def array(self) -> np.ndarray:
        return self._a.copy()

    def __getitem__(self, idx):
        return self._a[idx]

    def norm(self) -> float:
        return float(np.linalg.norm(self._a))


def _as_sym_array(M) -> np.ndarray:
    if isinstance(M, SymMatrix):
        return M.array()
    return SymMatrix.from_array(M).array()


def sym_eigen(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (LAPACK ``eigh``)."""
    return np.linalg.eigh(_as_sym_array(M))


def first_not_positive_definite(stack) -> int | None:
    """Index of the first matrix of a stack (k, m, m) that is not positive
    definite, or None when all are.

    The rule, per matrix M: the quadratic form x^T M x has the matrix
    (M + M^T)/2, which is M itself, bit for bit, when M is symmetric.  It
    must be finite, and an unpivoted Cholesky factorization of it must
    succeed with all pivots (the squared diagonal of the factor) above
    1e-13 * ||M||_F.  The whole stack goes through one Cholesky call;
    only when that call fails are the matrices factorized one at a time,
    to find the first that fails.
    """
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] > MAX_DIM:
        raise DomainError(f"expected a stack of square matrices of "
                          f"dimension <= {MAX_DIM}")
    a = 0.5 * (a + a.transpose(0, 2, 1))
    finite = np.isfinite(a).all(axis=(1, 2))
    # LAPACK never sees a non-finite entry; such a matrix fails anyway
    a = np.where(finite[:, None, None], a, np.eye(a.shape[1]))
    tol = _PD_TOL * np.maximum(np.linalg.norm(a, axis=(1, 2)), 1e-300)

    def pivots_pass(m, t):
        return (np.diagonal(np.linalg.cholesky(m), axis1=-2, axis2=-1) ** 2
                > t[..., None]).all(axis=-1)

    try:
        failed = np.flatnonzero(~(finite & pivots_pass(a, tol)))
        return int(failed[0]) if failed.size else None
    except np.linalg.LinAlgError:
        pass
    for i in range(len(a)):
        try:
            if not (finite[i] and pivots_pass(a[i], tol[i])):
                return i
        except np.linalg.LinAlgError:
            return i
    return None


def is_positive_definite(M) -> tuple[bool, float]:
    """(PD flag, smallest eigenvalue) of the quadratic form x^T M x.

    The flag is ``first_not_positive_definite`` on M alone.  The
    eigenvalue, of (M + M^T)/2, is for reporting (NaN for a non-finite M).
    """
    a = _square(M.array() if isinstance(M, SymMatrix) else M)
    pd = first_not_positive_definite(a[None]) is None
    a = 0.5 * (a + a.T)
    if not np.isfinite(a).all():
        return False, math.nan
    return pd, float(np.linalg.eigvalsh(a)[0])


def inv_sqrt(M) -> SymMatrix:
    """M^{-1/2} via eigendecomposition; requires M positive definite."""
    a = _as_sym_array(M)
    pd, min_eig = is_positive_definite(a)
    if not pd:
        raise DomainError(f"inv_sqrt requires a positive definite matrix "
                          f"(min eigenvalue {min_eig:g})")
    eigvals, vecs = np.linalg.eigh(a)
    root = vecs @ np.diag(1.0 / np.sqrt(eigvals)) @ vecs.T
    # numerical symmetrization before wrapping
    return SymMatrix.from_array(0.5 * (root + root.T))
