"""Method-of-steps integration of the delayed plankton-fish system.

Fixed-step classical 4th-order Runge-Kutta with cubic Hermite dense
output, advanced as a block method of steps (Bellen & Zennaro, Numerical
Methods for Delay Differential Equations, 2003).  The step is at most
the smallest positive delay / 20, so a block of floor(tau_min/h) - 2
steps reads its delayed values only from history or from nodes completed
before the block.  Each block evaluates those delayed terms in one
vectorised lookup, then runs a scalar RK4 loop over the local part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError
from .model import ModelParams, plankton_only_point

POSITIVITY_TOL = 1e-9
_GRID = 257  # validation / window-max sampling per history component
_CSV_CHUNK = 4096  # trajectory rows formatted per write


class History:
    """Initial functions (phi, psi, eta) on the delay windows.

    Built through one of the preset constructors or ``tabulated``.  Each
    component is evaluated on [-tau_max, 0]; the per-component windows
    [-tau1, 0], [-tau_max, 0], [-tau2, 0] are kept for the verification
    maxima.  Components must be non-negative and phi(0) must be positive.
    """

    def __init__(self, p: ModelParams, funcs, kind: str, meta: dict,
                 many=None):
        self.p = p
        self._funcs = funcs
        self._many = many  # array evaluation (m,) -> (m, 3), if any
        self.kind = kind
        self.meta = meta
        self.windows = ((-p.tau1, 0.0), (-p.tau_max, 0.0), (-p.tau2, 0.0))
        self._validate()

    # -- preset constructors -------------------------------------------------

    @classmethod
    def constant(cls, p: ModelParams, values) -> "History":
        vx, vy, vz = (float(v) for v in values)
        return cls(p, (lambda t: vx, lambda t: vy, lambda t: vz),
                   "constant", {"values": (vx, vy, vz)})

    @classmethod
    def equilibrium_plus_constant(cls, p: ModelParams, offsets) -> "History":
        x0, y0 = plankton_only_point(p)
        ox, oy, oz = (float(v) for v in offsets)
        return cls(p, (lambda t: x0 + ox, lambda t: y0 + oy, lambda t: oz),
                   "equilibrium_plus_constant",
                   {"equilibrium": (x0, y0, 0.0), "offsets": (ox, oy, oz)})

    @classmethod
    def equilibrium_plus_sine(cls, p: ModelParams, amplitudes,
                              frequency: float, phase: float = 0.0) -> "History":
        x0, y0 = plankton_only_point(p)
        ax, ay, az = (float(v) for v in amplitudes)
        w, ph = float(frequency), float(phase)
        eq = (x0, y0, 0.0)

        def make(i, amp):
            return lambda t: eq[i] + amp * math.sin(w * t + ph)

        return cls(p, (make(0, ax), make(1, ay), make(2, az)),
                   "equilibrium_plus_sine",
                   {"equilibrium": eq, "amplitudes": (ax, ay, az),
                    "frequency": w, "phase": ph})

    @classmethod
    def tabulated(cls, p: ModelParams, thetas, values) -> "History":
        from scipy.interpolate import CubicSpline
        thetas = np.asarray(thetas, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (thetas.size, 3):
            raise DomainError("tabulated history needs values of shape (n, 3)")
        if thetas[0] > -p.tau_max or thetas[-1] < 0.0:
            raise DomainError("tabulated history must cover [-tau_max, 0]")
        splines = [CubicSpline(thetas, values[:, i], bc_type="natural")
                   for i in range(3)]

        def make(s):
            return lambda t: float(s(t))

        def many(ts):
            return np.column_stack([s(ts) for s in splines])

        return cls(p, tuple(make(s) for s in splines), "tabulated", {},
                   many)

    # -- evaluation ----------------------------------------------------------

    def _clamp(self, theta: float) -> float:
        lo = -self.p.tau_max
        if theta < lo - 1e-9 * (1.0 + self.p.tau_max) or theta > 1e-12:
            raise DomainError(f"history evaluated at theta = {theta!r} "
                              f"outside [{lo}, 0]")
        return min(theta, 0.0)

    def component(self, i: int, theta: float) -> float:
        return self._funcs[i](self._clamp(theta))

    def __call__(self, theta: float):
        return (self.component(0, theta), self.component(1, theta),
                self.component(2, theta))

    def eval_many(self, thetas) -> np.ndarray:
        """Rows (phi, psi, eta) at each theta of an array.

        A tabulated history makes one spline call per component; the
        presets evaluate their scalar functions point by point.
        """
        ts = [self._clamp(t) for t in np.asarray(thetas, dtype=float).tolist()]
        if self._many is not None:
            return self._many(np.array(ts))
        return np.array([[f(t) for f in self._funcs] for t in ts]).reshape(-1, 3)

    def max_abs_deviation(self, i: int, window, center: float) -> float:
        """Max of |component_i(theta) - center| on a dense grid + endpoints."""
        a, b = window
        grid = np.linspace(a, b, max(_GRID, 1024))
        return max(abs(self._funcs[i](t) - center) for t in grid)

    def analytic_max_abs_deviation(self, i: int, window,
                                   center: float) -> float | None:
        """Closed-form window maximum for the preset families, else None."""
        a, b = window
        if self.kind == "constant":
            return abs(self.meta["values"][i] - center)
        if self.kind == "equilibrium_plus_constant":
            eq = self.meta["equilibrium"][i]
            return abs(eq + self.meta["offsets"][i] - center)
        if self.kind == "equilibrium_plus_sine":
            eq = self.meta["equilibrium"][i]
            amp = self.meta["amplitudes"][i]
            w, ph = self.meta["frequency"], self.meta["phase"]
            cands = [a, b]
            if w != 0.0:
                # interior extrema of sin(w t + ph)
                k0 = math.floor((w * a + ph) / math.pi - 0.5)
                k1 = math.ceil((w * b + ph) / math.pi + 0.5)
                for k in range(k0, k1 + 1):
                    t = ((k + 0.5) * math.pi - ph) / w
                    if a <= t <= b:
                        cands.append(t)
            return max(abs(eq + amp * math.sin(w * t + ph) - center)
                       for t in cands)
        return None

    def _validate(self):
        for i, (lo, _) in enumerate(self.windows):
            for t in np.linspace(lo, 0.0, _GRID):
                v = self._funcs[i](float(t))
                if not math.isfinite(v) or v < 0.0:
                    raise DomainError(
                        f"history component {i} is {v!r} at theta = {t:g}; "
                        f"components must be finite and non-negative")
        if self._funcs[0](0.0) <= 0.0:
            raise DomainError("history requires phi(0) > 0")


@dataclass
class PositivityReport:
    passed: bool
    observed_sup: tuple[float, float, float]
    observed_min: float
    x_bound: float
    messages: list[str] = field(default_factory=list)


def _dense(states: np.ndarray, derivs: np.ndarray, h: float,
           history: History, ts: np.ndarray) -> np.ndarray:
    """State at each time of ``ts``: history for t < 0, cubic Hermite else.

    Nodes sit at ``k*h`` and ``ts`` must not reach past the last row of
    ``states`` whose node and derivative are both complete.
    """
    # negative times are interpolated at t = 0, then replaced by history
    q = np.maximum(ts, 0.0) / h
    k = np.minimum(q.astype(int), states.shape[0] - 2)
    u = np.minimum(q - k, 1.0)[:, None]
    u2, u3 = u * u, u * u * u
    out = ((2.0 * u3 - 3.0 * u2 + 1.0) * states[k]
           + (u3 - 2.0 * u2 + u) * h * derivs[k]
           + (-2.0 * u3 + 3.0 * u2) * states[k + 1]
           + (u3 - u2) * h * derivs[k + 1])
    neg = ts < 0.0
    if neg.any():
        out[neg] = history.eval_many(ts[neg])
    return out


class Trajectory:
    """Dense-output numerical solution on [0, t_end]."""

    def __init__(self, p: ModelParams, history: History, step: float,
                 states: np.ndarray, derivs: np.ndarray):
        self.p = p
        self.history = history
        self.step = step
        self.states = states
        self.derivs = derivs
        self.t_end = step * (states.shape[0] - 1)
        self.times = step * np.arange(states.shape[0])
        self.observed_sup = tuple(float(v) for v in states.max(axis=0))

    def sample(self, t: float):
        """State at time t; history for t < 0, Hermite interpolation else."""
        return tuple(self.sample_many([t])[0].tolist())

    def sample_many(self, ts) -> np.ndarray:
        """State at each time of an array; see :meth:`sample`."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and ts.max() > self.t_end * (1.0 + 1e-12) + 1e-15:
            raise DomainError(f"sample time {float(ts.max())!r} beyond "
                              f"t_end = {self.t_end}")
        return _dense(self.states, self.derivs, self.step, self.history, ts)

    def to_csv(self, path, stride: int = 1):
        """Write every ``stride``-th node as ``t,x,y,z`` rows (CRLF, %.17g)."""
        n = self.states.shape[0]
        span = stride * _CSV_CHUNK
        with open(path, "w", newline="") as fh:
            fh.write("t,x,y,z\r\n")
            for start in range(0, n, span):
                sl = slice(start, min(start + span, n), stride)
                rows = np.column_stack((self.times[sl], self.states[sl]))
                fh.write("%.17g,%.17g,%.17g,%.17g\r\n" * rows.shape[0]
                         % tuple(rows.ravel().tolist()))


def default_step(p: ModelParams, divisor: int = 20) -> float:
    """Step of about (smallest positive delay, capped at 0.01) / divisor.

    When both delays are positive the step divides the smaller one exactly.
    """
    base = min(v for v in (p.tau1, p.tau2, 0.01) if v > 0.0)
    h0 = base / divisor
    if p.tau_min > 0.0:
        return p.tau_min / math.ceil(p.tau_min / h0)
    return h0


def integrate(p: ModelParams, hist: History, t_end: float,
              step: float | None = None) -> Trajectory:
    """Advance the system with fixed-step RK4 and Hermite dense output.

    Block method of steps: with ``B = floor(tau_min/h) - 2`` steps per
    block, every delayed value a block needs lies at least two nodes
    before the block, on nodes already completed.  The delayed coupling
    terms of a whole block are evaluated in one vectorised lookup at the
    three RK4 stage times; a scalar RK4 loop then advances the local
    part.  A zero delay's coupling term is local and is evaluated in the
    loop from the stage state.
    """
    if t_end <= 0.0:
        raise DomainError("t_end must be positive")
    h_target = default_step(p) if step is None else float(step)
    if h_target <= 0.0:
        raise DomainError("step must be positive")
    pos_taus = [tau for tau in (p.tau1, p.tau2) if tau > 0.0]
    if pos_taus and h_target > min(pos_taus) / 20.0 * (1.0 + 1e-12):
        raise DomainError(f"step {h_target} exceeds smallest positive "
                          f"delay / 20 = {min(pos_taus) / 20.0}")
    n = math.ceil(t_end / h_target - 1e-12)
    h = t_end / n
    block = math.floor(min(pos_taus) / h) - 2 if pos_taus else n + 1

    r, K, c1, c2 = p.r, p.K, p.c1, p.c2
    md1, md2 = -p.d1, -p.d2
    tau1, tau2 = p.tau1, p.tau2
    ec1, ec2 = p.e1 * c1, p.e2 * c2
    hh, h6 = 0.5 * h, h / 6.0
    states = np.zeros((n + 1, 3))
    derivs = np.zeros((n + 1, 3))
    states[0] = hist(0.0)
    x, y, z = states[0].tolist()

    def f(x, y, z, f1, f2):
        # right-hand side; f1, f2 are the delayed coupling terms
        return (r * x * (1.0 - x / K) - c1 * x * y,
                md1 * y + (f1 if tau1 else ec1 * x * y) - c2 * y * z,
                md2 * z + (f2 if tau2 else ec2 * y * z))

    def coupling(t, tau, ec, a, b):
        # ec * u_a * u_b at t - tau, t + h/2 - tau, t + h - tau; one row each
        if tau == 0.0:
            return [[None] * t.size] * 3
        s = np.concatenate((t - tau, (t + hh) - tau, (t + h) - tau))
        with np.errstate(over="ignore", invalid="ignore"):
            u = _dense(states, derivs, h, hist, s)
            return (ec * u[:, a] * u[:, b]).reshape(3, t.size).tolist()

    # Indices run to n inclusive so that the last block also yields
    # derivs[n]; the state it computes past t_end is discarded.
    for i0 in range(0, n + 1, block):
        i1 = min(i0 + block, n + 1)
        t = np.arange(i0, i1) * h
        g1, g1h, g11 = coupling(t, tau1, ec1, 0, 1)
        g2, g2h, g21 = coupling(t, tau2, ec2, 1, 2)
        ks, nodes = [], []
        for f1, f1h, f11, f2, f2h, f21 in zip(g1, g1h, g11, g2, g2h, g21):
            k1 = f(x, y, z, f1, f2)
            k2 = f(x + hh * k1[0], y + hh * k1[1], z + hh * k1[2], f1h, f2h)
            k3 = f(x + hh * k2[0], y + hh * k2[1], z + hh * k2[2], f1h, f2h)
            k4 = f(x + h * k3[0], y + h * k3[1], z + h * k3[2], f11, f21)
            ks.append(k1)
            x = x + h6 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            y = y + h6 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            z = z + h6 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            nodes.append((x, y, z))
        derivs[i0:i1] = ks
        m = min(i1, n) - i0
        states[i0 + 1:i0 + 1 + m] = nodes[:m]
        bad = ~np.isfinite(states[i0 + 1:i0 + 1 + m]).all(axis=1)
        if bad.any():
            i = i0 + int(np.argmax(bad))
            raise IntegrationError(f"non-finite state at t = {i * h + h:g}")
    return Trajectory(p, hist, h, states, derivs)


def check_positivity_boundedness(traj: Trajectory,
                                 p: ModelParams) -> PositivityReport:
    """Empirical check of non-negativity and the logistic bound on x."""
    observed_min = float(traj.states.min())
    sup_phi = max(traj.history.component(0, float(t))
                  for t in np.linspace(-p.tau1, 0.0, _GRID))
    x_bound = max(sup_phi, p.K)
    messages = []
    ok = True
    if observed_min < -POSITIVITY_TOL:
        ok = False
        messages.append(f"component dips to {observed_min:g}")
    x_max = float(traj.states[:, 0].max())
    if x_max > x_bound + 1e-6:
        ok = False
        messages.append(f"x exceeds logistic bound: {x_max:g} > {x_bound:g}")
    return PositivityReport(passed=ok, observed_sup=traj.observed_sup,
                            observed_min=observed_min, x_bound=x_bound,
                            messages=messages)
