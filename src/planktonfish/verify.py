"""Admissibility conditions, decay envelopes, and functional checks.

Evaluates the Lyapunov-Krasovskii functional on the extended initial
history and along simulated trajectories, checks the five admissibility
conditions on the initial data, and validates the predicted exponential
envelopes and the differential inequality dV/dt <= -eps*V + q*V^{3/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificate import LKCertificate, kernel_base
from .errors import DomainError
from .floatcsv import write_float_rows
from .model import ModelParams, plankton_only_point, rhs
from .simulate import History, Trajectory

V_QUAD_SUBINTERVALS = 128  # per delay window; spec floor is 64
ENVELOPE_BASE_TOL = 1e-6
DIFF_INEQ_RTOL = 1e-4  # relative to eps V + |dV/dt|
V_CHUNK = 16  # times per batched lookup in _functional; its lookup arrays
# (16 x 259 rows of 3 doubles, 99 KB) stay under glibc's 128 KB mmap
# threshold, so the heap reuses them instead of faulting them in per chunk
CHECK_TIMES = 200  # trajectory checks sample t_end/200, ..., t_end


class ExtendedHistory:
    """The history's own rows on [-tau_max, 0], less (x0, y0, 0)."""

    def __init__(self, hist: History, x0: float, y0: float):
        self.hist = hist
        self.shift = (x0, y0, 0.0)

    def eval_many(self, thetas) -> np.ndarray:
        """Rows (phi - x0, psi - y0, eta) at each theta, from one history lookup."""
        return self.hist.eval_many(thetas) - self.shift


def extend_history(hist: History, p: ModelParams) -> ExtendedHistory:
    return ExtendedHistory(hist, *plankton_only_point(p))


@dataclass
class ConditionResult:
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass
class TheoremReport:
    V0: float
    conditions: dict[str, ConditionResult]

    @property
    def envelopes_valid(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_text(self) -> str:
        lines = [f"V0 = {self.V0:.17g}"]
        for name, c in self.conditions.items():
            lines.append(
                f"condition ({name}): lhs = {c.lhs:.17g}  rhs = {c.rhs:.17g}  "
                f"margin = {c.margin:.17g}  {'PASS' if c.passed else 'FAIL'}")
        lines.append(f"envelopes_valid = {self.envelopes_valid}")
        return "\n".join(lines) + "\n"


@dataclass
class EnvelopeReport:
    passed: bool
    worst_margin: tuple[float, float, float]
    tolerance: float
    times: np.ndarray = field(repr=False, default=None)
    states: np.ndarray = field(repr=False, default=None)  # rows (x, y, z)
    bounds: np.ndarray = field(repr=False, default=None)  # predicted_envelope


@dataclass
class DiffIneqReport:
    passed: bool
    worst_slack: float
    floor: float  # rounding floor F of the tolerance
    observed_decay_ratio: float  # min of -dV/dt / (eps V) where eps V > F
    times: np.ndarray = field(repr=False, default=None)
    V: np.ndarray = field(repr=False, default=None)
    dV: np.ndarray = field(repr=False, default=None)


def _simpson_weights(n: int, h: float) -> np.ndarray:
    # composite Simpson on n subintervals (n even), n+1 nodes
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _quadratic_forms(values: np.ndarray, base: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", values, base, values)


def _functional(lookup, cert: LKCertificate, ts: np.ndarray) -> np.ndarray:
    """Lyapunov-Krasovskii functional V and its rate, rows (V, dV/dt) over ``ts``.

    ``lookup`` maps an array of times s to the rows u(s) of the deviation
    from the plankton-only point.  V(t) is u(t)^T H u(t) plus, per delay,
    the Simpson sum I_i of exp(-m_i (t - s)) u(s)^T base_i u(s) over
    [t - tau_i, t].  The times are taken ``V_CHUNK`` at a time, and all
    of a chunk's points go through one ``lookup`` call.  The quadratic
    form at t and each window's Simpson sum are then taken per time, with
    the same operations as a single time, so V does not depend on the
    batching.  The rate of these sums is exact: dV/dt = 2 u^T H u' + sum_i
    [integrand_i(t) - integrand_i(t - tau_i) - m_i I_i], u' being ``rhs`` at
    u(t) and the first nodes u(t - tau_i), plus the shift.  Every window
    takes ``V_QUAD_SUBINTERVALS`` subintervals, for V0 and along a run.
    """
    n = V_QUAD_SUBINTERVALS
    p = cert.params
    shift = np.array([cert.x0, cert.y0, 0.0])
    windows = [(tau, m, kernel_base(cert, which),
                _simpson_weights(n, tau / n))
               for which, tau, m in ((1, p.tau1, cert.m1),
                                     (2, p.tau2, cert.m2))]
    out = np.empty((2, ts.size))
    # a huge initial offset overflows to V = inf: inadmissible, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, ts.size, V_CHUNK):
            t = ts[lo:lo + V_CHUNK]
            nodes = [np.linspace(t - tau, t, n + 1, axis=1)
                     for tau, _, _, _ in windows]
            vals = lookup(np.concatenate([t] + [s.ravel() for s in nodes]))
            u = vals[:t.size]
            total = np.array([float(v @ cert.H @ v) for v in u])
            per_window = vals[t.size:].reshape(len(windows), -1, 3)
            first = [(v[::n + 1] + shift).T for v in per_window]
            du = np.column_stack(rhs((u + shift).T, *first, p))
            rate = 2.0 * np.einsum("ij,jk,ik->i", u, cert.H, du)
            for (_, m, base, w), s, v in zip(windows, nodes, per_window):
                integrand = (np.exp(-m * (t[:, None] - s))
                             * _quadratic_forms(v, base).reshape(s.shape))
                sums = np.array([float(w @ row) for row in integrand])
                total += sums
                rate += integrand[:, -1] - integrand[:, 0] - m * sums
            out[:, lo:lo + t.size] = total, rate
    return out


def eval_V0(ext: ExtendedHistory, cert: LKCertificate) -> float:
    """Functional value at t = 0 on the initial data."""
    return float(_functional(ext.eval_many, cert, np.zeros(1))[0][0])


def condition_rhs(cert: LKCertificate) -> dict[str, float]:
    """Right-hand sides of the five admissibility conditions."""
    p = cert.params
    minor = cert.minor
    root = math.sqrt(minor)
    f1 = (cert.mu1 / (p.e1 * p.c1)) * math.exp(-cert.m1 * p.tau1 / 2.0)
    f2 = (cert.mu2 / (p.e2 * p.c2)) * math.exp(-cert.m2 * p.tau2 / 2.0)
    return {
        "45": root / cert.h22 * f1,
        "46": f2,
        "47": cert.epsilon / cert.q,
        "48": minor / (cert.h22 * math.sqrt(cert.h11)) * f1,
        "49": root / math.sqrt(cert.h11) * f2,
    }


def _attraction_denominator(cert: LKCertificate, sqrt_v0: float) -> float:
    """1 - (q/eps) sqrt(V0): positive exactly inside the attraction set."""
    return 1.0 - (cert.q / cert.epsilon) * sqrt_v0


def check_initial_conditions(hist: History, ext: ExtendedHistory,
                             cert: LKCertificate,
                             p: ModelParams) -> TheoremReport:
    """Evaluate the admissibility conditions on the initial data."""
    rhs = condition_rhs(cert)
    V0 = eval_V0(ext, cert)
    sqrt_v0 = math.sqrt(V0)
    dev1 = hist.sup_abs_deviation(1, (-p.tau1, 0.0), cert.y0)
    dev2 = hist.sup_abs_deviation(1, (-p.tau2, 0.0), cert.y0)
    conditions = {
        "45": ConditionResult(dev1, rhs["45"], dev1 <= rhs["45"]),
        "46": ConditionResult(dev2, rhs["46"], dev2 <= rhs["46"]),
        "47": ConditionResult(sqrt_v0, rhs["47"], sqrt_v0 < rhs["47"]),
    }
    denom = _attraction_denominator(cert, sqrt_v0)
    deflated = sqrt_v0 / denom if denom > 0.0 else math.inf
    for name in ("48", "49"):
        conditions[name] = ConditionResult(
            deflated, rhs[name], denom > 0.0 and deflated <= rhs[name])
    return TheoremReport(V0=V0, conditions=conditions)


def predicted_envelope(cert: LKCertificate, V0: float,
                       t: float) -> tuple[float, float, float]:
    """Decay envelopes for |x - x0|, |y - y0|, |z| at time t."""
    sqrt_v0 = math.sqrt(V0)
    denom = _attraction_denominator(cert, sqrt_v0)
    if denom <= 0.0:
        raise DomainError("envelope undefined: sqrt(V0) >= epsilon/q")
    d = sqrt_v0 * math.exp(-cert.epsilon * t / 2.0) / denom
    root = math.sqrt(cert.minor)
    return (math.sqrt(cert.h22) / root * d,
            math.sqrt(cert.h11) / root * d,
            d / math.sqrt(cert.h33))


def gronwall_bound(cert: LKCertificate, V0: float, t: float) -> float:
    """Explicit decay bound on V(t) implied by the differential inequality."""
    denom = _attraction_denominator(cert, math.sqrt(V0))
    if denom <= 0.0:
        raise DomainError("bound undefined: sqrt(V0) >= epsilon/q")
    return V0 * math.exp(-cert.epsilon * t) / denom ** 2


def eval_V_along(traj: Trajectory, cert: LKCertificate, ts) -> np.ndarray:
    """Rows (V, dV/dt) along the trajectory at each time of ``ts`` in [0, t_end]."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    outside = ~((ts >= 0.0) & (ts <= traj.t_end * (1.0 + 1e-12)))
    if outside.any():
        raise DomainError(f"t = {float(ts[outside][0])!r} "
                          f"outside [0, {traj.t_end}]")
    return _functional(lambda s: traj.sample_many(s) - (cert.x0, cert.y0, 0.0),
                       cert, ts)


def solver_error_estimate(traj: Trajectory) -> float:
    """Crude one-step error scale of the 4th-order fixed-step solver."""
    scale = max(1.0, traj.observed_max_abs)
    return traj.step ** 4 * scale


def default_sampling(traj: Trajectory) -> np.ndarray:
    return np.linspace(traj.t_end / CHECK_TIMES, traj.t_end, CHECK_TIMES)


def check_envelope(traj: Trajectory, cert: LKCertificate,
                   report: TheoremReport) -> EnvelopeReport:
    """Compare |x-x0|, |y-y0|, |z| against the predicted envelopes.

    The report keeps the states and bounds at the check times.
    """
    if not report.envelopes_valid:
        raise DomainError("envelope check requires an admissible report")
    times = default_sampling(traj)
    tol = ENVELOPE_BASE_TOL + 10.0 * solver_error_estimate(traj)
    states = traj.sample_many(times)
    bounds = np.array([predicted_envelope(cert, report.V0, float(t))
                       for t in times])
    margins = bounds + tol - np.abs(states - (cert.x0, cert.y0, 0.0))
    worst = tuple(float(m) for m in margins.min(axis=0))
    return EnvelopeReport(passed=bool((margins >= 0.0).all()),
                          worst_margin=worst, tolerance=tol, times=times,
                          states=states, bounds=bounds)


def check_differential_inequality(traj: Trajectory,
                                  cert: LKCertificate) -> DiffIneqReport:
    """Check dV/dt <= -eps*V + q*V^{3/2} with V's exact rate (``eval_V_along``).

    The slack -eps V + q V^{3/2} + tol - dV/dt must be >= 0 at every time,
    with tol = DIFF_INEQ_RTOL (eps V + |dV/dt|) + F, where F = 16 (2^-52
    max|state|)^2 ||H|| (||A|| + ||B1|| + ||B2|| + m1 + m2) (spectral norms)
    is the rate that rounding the state alone gives.  The report keeps V and
    dV/dt at the check times.
    """
    times = default_sampling(traj)
    V, dV = eval_V_along(traj, cert, times)
    lin = cert.lin
    norms = [np.linalg.norm(m, 2) for m in (cert.H, lin.A, lin.B1, lin.B2)]
    floor = float(16.0 * (2.0 ** -52 * traj.observed_max_abs) ** 2
                  * norms[0] * (sum(norms[1:]) + cert.m1 + cert.m2))
    decay = cert.epsilon * V
    slack = (-decay + cert.q * V ** 1.5
             + DIFF_INEQ_RTOL * (decay + np.abs(dV)) + floor - dV)
    above = decay > floor
    ratio = float(np.min(-dV[above] / decay[above], initial=math.inf))
    return DiffIneqReport(passed=bool((slack >= 0.0).all()),
                          worst_slack=float(slack.min(initial=math.inf)),
                          floor=floor, observed_decay_ratio=ratio, times=times,
                          V=V, dV=dV)


def write_verification_csv(path, cert: LKCertificate, env: EnvelopeReport,
                           dineq: DiffIneqReport):
    """CSV with state, functional value, envelopes, and margins.

    The rows come from two reports on one trajectory; nothing is re-evaluated.
    """
    margins = env.bounds - np.abs(env.states - (cert.x0, cert.y0, 0.0))
    write_float_rows(path, ("t", "x", "y", "z", "V", "bound_x", "bound_y",
                            "bound_z", "margin_x", "margin_y", "margin_z"),
                     [np.column_stack((env.times, env.states, dineq.V,
                                       env.bounds, margins))])
