"""Small dense symmetric linear algebra for certificate checks.

Eigen-decomposition, positive-definiteness test and inverse square root
for symmetric matrices up to 9x9, on LAPACK through ``numpy.linalg``
(``eigh``, ``eigvalsh`` and ``cholesky``).
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


def is_positive_definite(M) -> tuple[bool, float]:
    """(PD flag, smallest eigenvalue) of the quadratic form x^T M x.

    The form's matrix is the symmetric part (M + M^T)/2, which is M
    itself, bit for bit, when M is symmetric.  The flag comes from an
    unpivoted Cholesky factorization of it with all pivots (the squared
    diagonal of the factor) required to exceed 1e-13 * ||M||_F; a failed
    factorization or a non-finite entry gives False.  The eigenvalue is
    for reporting (NaN for a non-finite M).
    """
    a = _square(M.array() if isinstance(M, SymMatrix) else M)
    a = 0.5 * (a + a.T)
    if not np.isfinite(a).all():
        return False, math.nan
    tol = _PD_TOL * max(np.linalg.norm(a), 1e-300)
    try:
        pd = bool((np.diag(np.linalg.cholesky(a)) ** 2 > tol).all())
    except np.linalg.LinAlgError:
        pd = False
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
