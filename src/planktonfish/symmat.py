"""The positive-definiteness rule of the certificate checks.

One rule decides whether a matrix is positive definite, for a single
matrix or for a stack of them in one batched LAPACK Cholesky call
(``numpy.linalg.cholesky``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_PD_TOL = 1e-13  # pivot tolerance, relative to the Frobenius norm


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
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DomainError("expected a stack of square matrices")
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
    a = np.asarray(M, dtype=float)
    pd = first_not_positive_definite(a[None]) is None
    a = 0.5 * (a + a.T)
    if not np.isfinite(a).all():
        return False, math.nan
    return pd, float(np.linalg.eigvalsh(a)[0])
