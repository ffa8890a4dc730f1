"""Admissibility conditions, decay envelopes, and functional checks.

Evaluates the Lyapunov-Krasovskii functional on the extended initial
history and along simulated trajectories, checks the five admissibility
conditions on the initial data, and validates the predicted exponential
envelopes and the differential inequality dV/dt <= -eps*V + q*V^{3/2}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .certificate import LKCertificate
from .errors import DomainError
from .model import ModelParams
from .simulate import History, Trajectory

V_QUAD_SUBINTERVALS = 128  # per delay window; spec floor is 64
ENVELOPE_BASE_TOL = 1e-6
DIFF_INEQ_TOL = 1e-5
V_CHUNK = 32  # times per batched lookup in eval_V_many; bounds its memory


class ExtendedHistory:
    """Shifted initial data, zero-extended outside the delay windows."""

    def __init__(self, hist: History, p: ModelParams, x0: float, y0: float):
        self.hist = hist
        self.p = p
        self.shift = (x0, y0, 0.0)
        self.windows = ((-p.tau1, 0.0), (-p.tau_max, 0.0), (-p.tau2, 0.0))

    def component(self, i: int, theta: float) -> float:
        lo, hi = self.windows[i]
        if theta < lo or theta > hi:
            return 0.0
        return self.hist.component(i, theta) - self.shift[i]

    def __call__(self, theta: float) -> np.ndarray:
        return np.array([self.component(i, theta) for i in range(3)])

    def eval_many(self, thetas) -> np.ndarray:
        """Rows of :meth:`__call__` at each theta, from one history lookup."""
        thetas = np.asarray(thetas, dtype=float)
        out = np.zeros((thetas.size, 3))
        inside = (thetas >= -self.p.tau_max) & (thetas <= 0.0)
        if inside.any():
            out[inside] = self.hist.eval_many(thetas[inside]) - self.shift
        for i, (lo, hi) in enumerate(self.windows):
            out[(thetas < lo) | (thetas > hi), i] = 0.0
        return out


def extend_history(hist: History, p: ModelParams) -> ExtendedHistory:
    from .model import plankton_only_point
    x0, y0 = plankton_only_point(p)
    return ExtendedHistory(hist, p, x0, y0)


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


@dataclass
class DiffIneqReport:
    passed: bool
    worst_slack: float
    times: np.ndarray = field(repr=False, default=None)


def _simpson_weights(n: int, h: float) -> np.ndarray:
    # composite Simpson on n subintervals (n even), n+1 nodes
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _kernel_bases(cert: LKCertificate) -> tuple[np.ndarray, np.ndarray]:
    b1, b2 = cert.lin.B1, cert.lin.B2
    base1 = cert.alpha * b1.T @ b1 + cert.mu1 * cert.H1
    base2 = cert.beta * b2.T @ b2 + cert.mu2 * cert.H2
    return base1, base2


def _quadratic_forms(values: np.ndarray, base: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", values, base, values)


def eval_V0(ext: ExtendedHistory, cert: LKCertificate,
            subintervals: int = V_QUAD_SUBINTERVALS) -> float:
    """Functional value at t = 0 on the extended history."""
    if subintervals < 64 or subintervals % 2:
        raise DomainError("subintervals must be an even number >= 64")
    p = cert.params
    v0 = ext(0.0)
    # a huge initial offset overflows to V0 = inf: inadmissible, not an error
    with np.errstate(over="ignore"):
        total = float(v0 @ cert.H @ v0)
    base1, base2 = _kernel_bases(cert)
    for tau, m, base in ((p.tau1, cert.m1, base1), (p.tau2, cert.m2, base2)):
        thetas = np.linspace(-tau, 0.0, subintervals + 1)
        vals = ext.eval_many(thetas)
        integrand = np.exp(m * thetas) * _quadratic_forms(vals, base)
        total += float(_simpson_weights(subintervals, tau / subintervals)
                       @ integrand)
    return total


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
    denom = 1.0 - (cert.q / cert.epsilon) * sqrt_v0
    if denom > 0.0:
        deflated = sqrt_v0 / denom
        conditions["48"] = ConditionResult(deflated, rhs["48"],
                                           deflated <= rhs["48"])
        conditions["49"] = ConditionResult(deflated, rhs["49"],
                                           deflated <= rhs["49"])
    else:
        conditions["48"] = ConditionResult(math.inf, rhs["48"], False)
        conditions["49"] = ConditionResult(math.inf, rhs["49"], False)
    return TheoremReport(V0=V0, conditions=conditions)


def predicted_envelope(cert: LKCertificate, V0: float,
                       t: float) -> tuple[float, float, float]:
    """Decay envelopes for |x - x0|, |y - y0|, |z| at time t."""
    if V0 == 0.0:
        return (0.0, 0.0, 0.0)
    sqrt_v0 = math.sqrt(V0)
    denom = 1.0 - (cert.q / cert.epsilon) * sqrt_v0
    if denom <= 0.0:
        raise DomainError("envelope undefined: sqrt(V0) >= epsilon/q")
    d = sqrt_v0 * math.exp(-cert.epsilon * t / 2.0) / denom
    root = math.sqrt(cert.minor)
    return (math.sqrt(cert.h22) / root * d,
            math.sqrt(cert.h11) / root * d,
            d / math.sqrt(cert.h33))


def gronwall_bound(cert: LKCertificate, V0: float, t: float) -> float:
    """Explicit decay bound on V(t) implied by the differential inequality."""
    if V0 == 0.0:
        return 0.0
    denom = 1.0 - (cert.q / cert.epsilon) * math.sqrt(V0)
    if denom <= 0.0:
        raise DomainError("bound undefined: sqrt(V0) >= epsilon/q")
    return V0 * math.exp(-cert.epsilon * t) / denom ** 2


def eval_V_many(traj: Trajectory, cert: LKCertificate, p: ModelParams,
                ts, subintervals: int = V_QUAD_SUBINTERVALS) -> np.ndarray:
    """Functional value along the trajectory at each time of ``ts`` in [0, t_end].

    The times are taken ``V_CHUNK`` at a time.  A chunk's quadrature nodes
    are built at once and looked up in one dense-output call for s >= 0
    and one extended-history call for s < 0.  The quadratic form at t and
    each window's Simpson sum are then taken per time, with the same
    operations as a single time, so V does not depend on the batching.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    outside = (ts < 0.0) | (ts > traj.t_end * (1.0 + 1e-12))
    if outside.any():
        raise DomainError(f"t = {float(ts[outside][0])!r} "
                          f"outside [0, {traj.t_end}]")
    ext = extend_history(traj.history, p)
    shift = np.array([cert.x0, cert.y0, 0.0])
    base1, base2 = _kernel_bases(cert)
    windows = [(tau, m, base, _simpson_weights(subintervals, tau / subintervals))
               for tau, m, base in ((p.tau1, cert.m1, base1),
                                    (p.tau2, cert.m2, base2))]
    out = np.empty(ts.size)
    for lo in range(0, ts.size, V_CHUNK):
        t = ts[lo:lo + V_CHUNK]
        nodes = [np.linspace(t - tau, t, subintervals + 1, axis=1)
                 for tau, _, _, _ in windows]
        s = np.concatenate([t] + [n.ravel() for n in nodes])
        vals = np.empty((s.size, 3))
        neg = s < 0.0
        if neg.any():
            vals[neg] = ext.eval_many(s[neg])
        vals[~neg] = traj.sample_many(s[~neg]) - shift
        vt = vals[:t.size]
        total = np.array([float(v @ cert.H @ v) for v in vt])
        per_window = vals[t.size:].reshape(len(windows), -1, 3)
        for (_, m, base, w), n, v in zip(windows, nodes, per_window):
            integrand = (np.exp(-m * (t[:, None] - n))
                         * _quadratic_forms(v, base).reshape(n.shape))
            total += [float(w @ row) for row in integrand]
        out[lo:lo + t.size] = total
    return out


def eval_V_along(traj: Trajectory, cert: LKCertificate, p: ModelParams,
                 t: float, subintervals: int = V_QUAD_SUBINTERVALS) -> float:
    """Functional value along the trajectory at time t in [0, t_end]."""
    return float(eval_V_many(traj, cert, p, [t], subintervals)[0])


def solver_error_estimate(traj: Trajectory) -> float:
    """Crude one-step error scale of the 4th-order fixed-step solver."""
    scale = max(1.0, float(np.abs(traj.states).max()))
    return traj.step ** 4 * scale


def default_sampling(traj: Trajectory, count: int = 200) -> np.ndarray:
    return np.linspace(traj.t_end / count, traj.t_end, count)


def check_envelope(traj: Trajectory, cert: LKCertificate,
                   report: TheoremReport,
                   sampling: np.ndarray | None = None) -> EnvelopeReport:
    """Compare |x-x0|, |y-y0|, |z| against the predicted envelopes."""
    if not report.envelopes_valid:
        raise DomainError("envelope check requires an admissible report")
    times = default_sampling(traj) if sampling is None else np.asarray(sampling)
    tol = ENVELOPE_BASE_TOL + 10.0 * solver_error_estimate(traj)
    shift = np.array([cert.x0, cert.y0, 0.0])
    devs = np.abs(traj.sample_many(times) - shift)
    bounds = np.array([predicted_envelope(cert, report.V0, float(t))
                       for t in times])
    margins = bounds + tol - devs
    worst = tuple(float(m) for m in margins.min(axis=0))
    return EnvelopeReport(passed=bool((margins >= 0.0).all()),
                          worst_margin=worst, tolerance=tol, times=times)


def check_differential_inequality(traj: Trajectory, cert: LKCertificate,
                                  p: ModelParams,
                                  sampling: np.ndarray | None = None
                                  ) -> DiffIneqReport:
    """Finite-difference check of dV/dt <= -eps*V + q*V^{3/2}.

    The differencing step equals the solver step to avoid
    interpolation-order artifacts.
    """
    h = traj.step
    if sampling is None:
        times = np.linspace(2.0 * h, traj.t_end - 2.0 * h, 100)
    else:
        times = np.asarray(sampling, dtype=float)
        if (times < h).any() or (times > traj.t_end - h).any():
            raise DomainError("sampling must be interior: [step, t_end - step]")
    worst = math.inf
    ok = True
    values = eval_V_many(traj, cert, p,
                         np.concatenate((times, times + h, times - h)))
    for v, vp, vm in values.reshape(3, -1).T.tolist():
        dv = (vp - vm) / (2.0 * h)
        bound = -cert.epsilon * v + cert.q * v ** 1.5
        slack = bound + DIFF_INEQ_TOL * (1.0 + abs(v)) - dv
        worst = min(worst, slack)
        if slack < 0.0:
            ok = False
    return DiffIneqReport(passed=ok, worst_slack=worst, times=times)


def write_verification_csv(path, traj: Trajectory, cert: LKCertificate,
                           report: TheoremReport,
                           p: ModelParams,
                           times: np.ndarray | None = None):
    """CSV with state, functional value, envelopes, and margins."""
    times = default_sampling(traj) if times is None else np.asarray(times)
    shift = (cert.x0, cert.y0, 0.0)
    states = traj.sample_many(times).tolist()
    values = eval_V_many(traj, cert, p, times).tolist()
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
