"""Construction of the Lyapunov-Krasovskii stability certificate.

Builds, for a parameter set with the plankton-only point asymptotically
stable independent of the delays, the weight matrix H, the exponential
delay kernels K1(s), K2(s), the matrix L, and the scalar constants
(sigma, mu1, mu2, epsilon, q) that drive the decay estimates.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DomainError
from .model import LinearizedSystem, ModelParams, linearize
from .spectrum import lemma_classify
from .symmat import first_not_positive_definite, is_positive_definite


@dataclass(frozen=True)
class CertificateOptions:
    """Tunable choices within the admissible family (defaults are one point).

    ``m_fraction`` scales m1, m2 relative to the supremum allowed by their
    defining inequalities; ``mu_fraction`` sets mu1 = mu2 = mu_fraction * sigma
    (must stay below 1/2); ``h33_factor`` multiplies the lower bound forced
    by det L > 0.
    """

    alpha: float = 1.0
    m_fraction: float = 0.5
    mu_fraction: float = 0.25
    h33_factor: float = 2.0


@dataclass(frozen=True)
class LKCertificate:
    """All constructed certificate data; immutable after construction."""

    params: ModelParams
    lin: LinearizedSystem
    x0: float
    y0: float
    alpha: float
    beta: float
    m1: float
    m2: float
    mu1: float
    mu2: float
    h11: float
    h12: float
    h22: float
    h33: float
    H: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    L: np.ndarray
    sigma: float
    epsilon: float
    q: float

    @property
    def minor(self) -> float:
        """h11*h22 - h12^2 (positive for a valid certificate)."""
        return self.h11 * self.h22 - self.h12 * self.h12

    def report(self) -> str:
        """Full-precision structured text dump for audit."""
        out = io.StringIO()
        out.write("LK certificate (defaults are one admissible choice,\n"
                  "not optimized over m1, m2, mu, h33, alpha)\n")
        for name in ("x0", "y0", "alpha", "beta", "m1", "m2", "mu1", "mu2",
                     "h11", "h12", "h22", "h33", "sigma", "epsilon", "q"):
            out.write(f"{name} = {getattr(self, name):.17g}\n")
        out.write(f"minor h11*h22-h12^2 = {self.minor:.17g}\n")
        # sigma, from the Cholesky factor of H, loses about cond(H)*2**-52
        # relative; near the ends of the stability gap that is many digits.
        # H is positive definite, so its 2-norm condition number is
        # lambda_max/lambda_min
        eig = np.linalg.eigvalsh(self.H)
        out.write(f"cond_H = {eig[-1] / eig[0]:.17g}\n")
        for name in ("H", "L"):
            out.write(f"{name} =\n")
            for row in getattr(self, name):
                out.write("  " + "  ".join(f"{v:.17g}" for v in row) + "\n")
        return out.getvalue()


@dataclass
class BlockMatrixReport:
    """Assembled 9x9 matrix with its definiteness diagnostics.

    The delay kernels are singular in the coordinates they do not act on,
    so the full matrix always has structurally zero rows; positive
    definiteness is decided on the supported subspace (the complement of
    those rows).
    """

    C: np.ndarray
    positive_definite: bool
    min_eig_supported: float
    zero_rows: list[int]


@dataclass
class GenericCheckResult:
    ok: bool
    failure: str | None


def choose_rates(p: ModelParams,
                 options: CertificateOptions | None = None) -> tuple[float, float]:
    """Exponential kernel rates m1, m2, strictly inside their admissible range.

    The gate is the lemma's verdict AsymptoticallyStable plus e2*c2 > 0,
    which m2 and beta divide by and the lemma does not imply.  m2 comes
    from requiring e2*c2*y0*exp(m2*tau2/2) < d2, which must still hold
    after rounding; m1 from the pair of inequalities bounding
    exp(-m1*tau1) from below.  Defaults take half the supremum of each.
    """
    options = options or CertificateOptions()
    verdict = lemma_classify(p)
    if verdict.kind != "AsymptoticallyStable":
        raise CertificateError(f"certificate inapplicable: verdict "
                               f"{verdict.kind} ({verdict.witness})")
    if not p.e2 * p.c2 > 0.0:
        raise CertificateError("certificate inapplicable: e2*c2 = 0")
    if p.tau1 == 0.0 or p.tau2 == 0.0:
        raise DomainError(
            "certificate construction requires tau1 > 0 and tau2 > 0; "
            "pass a small positive delay to approximate the zero-delay case")
    lin = linearize(p)
    a = p.r * lin.x0 / p.K
    e2c2y0 = p.e2 * p.c2 * lin.y0
    if not (a > 0.0 and e2c2y0 > 0.0):
        raise CertificateError(f"certificate inapplicable: r*x0/K = {a!r} "
                               f"or e2*c2*y0 = {e2c2y0!r} underflows to 0")
    rho = max(((a - p.c1 * lin.y0) / a) ** 2,
              p.d1 ** 2 / (a * a + p.d1 ** 2))
    m1 = -options.m_fraction * math.log(rho) / p.tau1
    m2 = 2.0 * options.m_fraction * math.log(p.d2 / e2c2y0) / p.tau2
    # a few ulps inside the lemma's stable side, rounding can empty a
    # range; a tiny delay can make a rate overflow
    for name, m in (("m1", m1), ("m2", m2)):
        if not 0.0 < m < math.inf:
            raise CertificateError(f"certificate inapplicable: rate {name} "
                                   f"= {m:.17g} is not positive and finite")
    # m_fraction near 1 can round m2's margin away; h33 divides by it
    gap33 = _m2_margin(p, e2c2y0, m2)
    if not gap33 > 0.0:
        raise CertificateError(
            f"certificate inapplicable: rate m2 = {m2:.17g} leaves "
            f"d2 - e2*c2*y0*exp(m2*tau2/2) = {gap33!r} after rounding; "
            f"m_fraction = {options.m_fraction!r} is too close to 1")
    return m1, m2


def _m2_margin(p: ModelParams, e2c2y0: float, m2: float) -> float:
    """gap33 = d2 - e2*c2*y0*exp(m2*tau2/2), positive for an admissible m2."""
    return p.d2 - e2c2y0 * math.exp(m2 * p.tau2 / 2.0)


def build_certificate(p: ModelParams,
                      options: CertificateOptions | None = None) -> LKCertificate:
    """Construct the full certificate for a delay-independent stable set.

    A set whose arithmetic leaves float range is a CertificateError.
    """
    options = options or CertificateOptions()
    if not 0.0 < options.mu_fraction < 0.5:
        raise DomainError("mu_fraction must lie in (0, 1/2)")
    if not 0.0 < options.m_fraction < 1.0:
        raise DomainError("m_fraction must lie in (0, 1)")
    if not 0.0 < options.alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    if not 0.0 < options.h33_factor < math.inf:
        raise DomainError("h33_factor must be positive and finite")
    try:
        return _construct(p, options)
    except (ZeroDivisionError, OverflowError) as exc:
        raise CertificateError(f"certificate inapplicable: not representable "
                               f"in floating point ({exc.args[-1]})") from None


def _construct(p: ModelParams, options: CertificateOptions) -> LKCertificate:
    m1, m2 = choose_rates(p, options)
    lin = linearize(p)
    x0, y0 = lin.x0, lin.y0
    a = p.r * x0 / p.K
    alpha = options.alpha
    em1 = math.exp(-m1 * p.tau1)

    h22 = alpha * (a + p.d1) * em1
    l22 = alpha * ((a * a + p.d1 ** 2) * em1 - p.d1 ** 2)
    h11 = (p.e1 / p.d1) ** 2 * (a * l22 + alpha * p.c1 * y0 * p.d1 ** 2)
    h12 = alpha * (p.e1 / p.d1) * a * a * em1
    l11 = (p.e1 * a / p.d1) ** 2 * l22 + alpha * p.e1 ** 2 * (
        a * a * em1 - (a - p.c1 * y0) ** 2)
    l12 = (p.e1 / p.d1) * a * l22
    l13 = alpha * p.c2 * y0 * (p.e1 / p.d1) * a * a * em1
    l23 = alpha * p.c2 * y0 * (a + p.d1) * em1

    gap33 = _m2_margin(p, p.e2 * p.c2 * y0, m2)
    minor = l11 * l22 - l12 * l12
    corner = l11 * l23 ** 2 + l22 * l13 ** 2 - 2.0 * l12 * l13 * l23
    h33 = options.h33_factor * corner / (2.0 * gap33 * minor)
    l33 = 2.0 * h33 * gap33
    beta = h33 * math.exp(m2 * p.tau2 / 2.0) / (p.e2 * p.c2 * y0)

    H = np.array([[h11, h12, 0.0], [h12, h22, 0.0], [0.0, 0.0, h33]])
    H1 = np.array([[h11, h12, 0.0], [h12, h22, 0.0], [0.0, 0.0, 0.0]])
    H2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, h33]])
    L = np.array([[l11, l12, l13], [l12, l22, l23], [l13, l23, l33]])

    def _fail(item: str):
        raise CertificateError(f"certificate invariant violated: {item}")

    # Sylvester chain for L, in the paper's order
    if not l11 > 0.0:
        _fail("l11 > 0")
    if not minor > 0.0:
        _fail("l11*l22 - l12^2 > 0")
    if not np.linalg.det(L) > 0.0:
        _fail("det L > 0")
    if first_not_positive_definite(H[None]) is not None:
        _fail("H positive definite")

    # sigma = lambda_min of the pencil (L, H); with H = R R^T it is the
    # smallest eigenvalue of R^{-1} L R^{-T}
    r_inv = np.linalg.inv(np.linalg.cholesky(H))
    sigma = float(np.linalg.eigvalsh(r_inv @ L @ r_inv.T)[0])
    if not sigma > 0.0:
        _fail("sigma > 0")

    mu1 = mu2 = options.mu_fraction * sigma
    epsilon = min(sigma - 2.0 * max(mu1, mu2), m1, m2)
    if not epsilon > 0.0:
        _fail("epsilon > 0")

    one = 1.0 - h12 / math.sqrt(h11 * h22)
    q = (2.0 / math.sqrt(one)) * max(
        math.sqrt((p.r / p.K) ** 2 + p.c1 ** 2)
        / (min(math.sqrt(h11), math.sqrt(h22)) * math.sqrt(one)),
        p.c2 / math.sqrt(h33))

    # re-check m1's inequalities; m2's, gap33 > 0, choose_rates checked
    if not (a * a * em1 > (a - p.c1 * y0) ** 2
            and (a * a + p.d1 ** 2) * em1 > p.d1 ** 2):
        _fail("m1 inequalities")
    if not (math.isfinite(beta) and math.isfinite(q)):
        _fail("beta and q finite")

    return LKCertificate(
        params=p, lin=lin, x0=x0, y0=y0, alpha=alpha, beta=beta,
        m1=m1, m2=m2, mu1=mu1, mu2=mu2,
        h11=h11, h12=h12, h22=h22, h33=h33,
        H=H, H1=H1, H2=H2, L=L,
        sigma=sigma, epsilon=epsilon, q=q)


def kernel_base(cert: LKCertificate, which: int) -> np.ndarray:
    """Constant factor base_i of the delay kernel K_i(s) = exp(-m_i s) base_i."""
    lin = cert.lin
    if which == 1:
        return cert.alpha * lin.B1.T @ lin.B1 + cert.mu1 * cert.H1
    if which == 2:
        return cert.beta * lin.B2.T @ lin.B2 + cert.mu2 * cert.H2
    raise DomainError("which must be 1 or 2")


def eval_K(cert: LKCertificate, which: int, s: float) -> np.ndarray:
    """Delay kernel K1(s) or K2(s) as a symmetric 3x3 matrix."""
    base = kernel_base(cert, which)
    p = cert.params
    tau, m = (p.tau1, cert.m1) if which == 1 else (p.tau2, cert.m2)
    if not 0.0 <= s <= tau:
        raise DomainError(f"s = {s!r} outside [0, {tau}]")
    return math.exp(-m * s) * base


def _supports(stack: np.ndarray) -> np.ndarray:
    """Mask (k, n) of the rows of each matrix in a stack that are not zero.

    A row is structurally zero when its largest entry is at most 1e-14
    times the matrix's largest entry.
    """
    rows = np.abs(stack).max(axis=2)
    scale = np.maximum(rows.max(axis=1), 1e-300)
    return ~(rows <= 1e-14 * scale[:, None])


def _supported_submatrix(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    keep = _supports(a[None])[0]
    return a[np.ix_(keep, keep)], np.flatnonzero(~keep).tolist()


def _block_matrix(A, B1, B2, H, K1_0, K2_0, K1_tau, K2_tau) -> np.ndarray:
    """The symmetrized 3n x 3n block matrix C of a two-delay certificate."""
    Z = np.zeros(A.shape)
    C = -np.block([
        [H @ A + A.T @ H + K1_0 + K2_0, H @ B1, H @ B2],
        [B1.T @ H, -K1_tau, Z],
        [B2.T @ H, Z, -K2_tau],
    ])
    return 0.5 * (C + C.T)


def assemble_C(cert: LKCertificate) -> BlockMatrixReport:
    """The 9x9 block matrix whose definiteness certifies decay.

    Rows corresponding to coordinates that the delay kernels do not act on
    are identically zero, so the PD verdict and the smallest eigenvalue
    refer to the supported subspace.
    """
    lin = cert.lin
    p = cert.params
    C = _block_matrix(lin.A, lin.B1, lin.B2, cert.H,
                      eval_K(cert, 1, 0.0), eval_K(cert, 2, 0.0),
                      eval_K(cert, 1, p.tau1), eval_K(cert, 2, p.tau2))
    sub, zero_rows = _supported_submatrix(C)
    pd, min_sub = is_positive_definite(sub)
    return BlockMatrixReport(C=C, positive_definite=pd,
                             min_eig_supported=min_sub, zero_rows=zero_rows)


def _first_kernel_failure(ks: np.ndarray) -> int | None:
    """First failing position in a kernel's samples, then its differences.

    Position i < N is sample i, which must be positive definite on its
    support; position N + i is the difference of samples i and i + 1,
    which must be supported on as many rows as sample i and positive
    definite there.  Matrices that share a support form one stack.
    """
    N = len(ks)
    stack = np.concatenate((ks, ks[:-1] - ks[1:]))
    keep = _supports(stack)
    size = keep.sum(axis=1)
    bad = np.concatenate((size[:N] == 0, size[N:] != size[:N - 1]))
    failures = np.flatnonzero(bad).tolist()
    groups: dict[bytes, list[int]] = {}
    for pos in np.flatnonzero(~bad).tolist():
        groups.setdefault(keep[pos].tobytes(), []).append(pos)
    for positions in groups.values():
        rows = np.flatnonzero(keep[positions[0]])
        j = first_not_positive_definite(stack[np.ix_(positions, rows, rows)])
        if j is not None:
            failures.append(positions[j])
    return min(failures, default=None)


def check_generic_certificate(A, B1, B2, H, K1_samples,
                              K2_samples) -> GenericCheckResult:
    """Check a user-supplied certificate for the general two-delay system.

    ``K1_samples`` and ``K2_samples`` are the kernels on uniform grids over
    their delay windows (first sample at s = 0, last at s = tau).  Kernels
    may be singular in unused coordinates; definiteness and strict decrease
    are checked on the supported subspace.
    """
    A, B1, B2, H = (np.asarray(m, dtype=float) for m in (A, B1, B2, H))
    n = A.shape[0]
    for name, m in (("A", A), ("B1", B1), ("B2", B2), ("H", H)):
        if m.shape != (n, n):
            raise DomainError(f"matrix {name} has shape {m.shape}, expected {(n, n)}")
    samples = [("K1", [np.asarray(k, dtype=float) for k in K1_samples]),
               ("K2", [np.asarray(k, dtype=float) for k in K2_samples])]
    for name, ks in samples:
        if len(ks) < 2:
            raise DomainError(f"{name} needs at least two samples")
        for k in ks:
            if k.shape != (n, n):
                raise DomainError(f"{name} sample has shape {k.shape}")
    if first_not_positive_definite(H[None]) is not None:
        return GenericCheckResult(False, "H not positive definite")
    for name, ks in samples:
        pos = _first_kernel_failure(np.array(ks))
        if pos is None:
            continue
        if pos < len(ks):
            failure = f"{name}({pos}) not positive definite on its support"
        else:
            failure = f"{name} not strictly decreasing at sample {pos - len(ks)}"
        return GenericCheckResult(False, failure)
    (_, k1), (_, k2) = samples
    C = _block_matrix(A, B1, B2, H, k1[0], k2[0], k1[-1], k2[-1])
    sub, _ = _supported_submatrix(C)
    if first_not_positive_definite(sub[None]) is not None:
        return GenericCheckResult(False, "C not positive definite on its support")
    return GenericCheckResult(True, None)
