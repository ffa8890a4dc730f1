"""Method-of-steps integration of the delayed plankton-fish system.

Fixed-step classical 4th-order Runge-Kutta with cubic Hermite dense
output, advanced as a block method of steps (Bellen & Zennaro, Numerical
Methods for Delay Differential Equations, 2003).  The step is at most
the smallest positive delay / 20, so a block of floor(tau_min/h) - 2
steps reads its delayed values only from history or from nodes completed
before the block.  On the uniform mesh t_i = i*h the delayed time of a
stage sits at the same fraction of a step for every node, so each delay
and RK4 stage offset takes one set of Hermite weights per integration: a
block's delayed terms are node slices combined with those weights, read
exactly at the nodes when h divides the delay and at a constant fraction
otherwise.  A scalar RK4 loop then advances the local part.  The loop
writes the four RK4 stages inline, and equal delays share one lookup.

``Trajectory.to_csv`` hands the nodes, with t = step * k, to
``floatcsv.write_float_rows`` in blocks of ``_CSV_CHUNK`` rows; that
writer's numpy kernel gives each value the bytes of ``'%.17g' % v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError
from .floatcsv import write_float_rows
from .model import ModelParams, plankton_only_point

POSITIVITY_TOL = 1e-9
_CSV_CHUNK = 1024  # trajectory rows per block: one writer pass of 4096 values


class History:
    """Initial functions (phi, psi, eta) on the delay windows.

    Built through one of the preset constructors or ``tabulated``.  Each
    gives one array function, thetas -> rows (phi, psi, eta) on
    [-tau_max, 0], and the exact range of a component over a window (see
    :meth:`component_range`); the constant presets are the sine formula
    at zero frequency.  On the per-component windows [-tau1, 0],
    [-tau_max, 0], [-tau2, 0] the components must be finite and
    non-negative, and phi(0) must be positive.
    """

    def __init__(self, p: ModelParams, rows, component_range):
        self.p = p
        self._rows = rows  # thetas (m,) in [-tau_max, 0] -> values (m, 3)
        # (history, i, a, b) -> (min, max) of component_i on [a, b]
        self._range = component_range
        self.windows = ((-p.tau1, 0.0), (-p.tau_max, 0.0), (-p.tau2, 0.0))
        self._validate()

    # -- preset constructors -------------------------------------------------

    @classmethod
    def _analytic(cls, p: ModelParams, eq, amp, w: float,
                  ph: float) -> "History":
        # eq + amp * sin(w theta + ph); w = 0, ph = pi/2 is a constant
        for name, v in (("frequency", w), ("phase", ph)):
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        ax, ay, az = (float(v) for v in amp)
        eq, amp = np.array(eq), np.array([ax, ay, az])

        def component_range(hist, i, a, b):
            if w != 0.0 and b - a >= 2.0 * math.pi / abs(w):
                # a full period: sin takes both 1 and -1 in the window
                return float(eq[i] - abs(amp[i])), float(eq[i] + abs(amp[i]))
            # the window endpoints and the interior extrema of sin(w t + ph)
            thetas = [a, b]
            if w != 0.0:
                lo, hi = sorted((w * a + ph, w * b + ph))  # w may be negative
                k0 = math.floor(lo / math.pi - 0.5)
                k1 = math.ceil(hi / math.pi + 0.5)
                interior = (((k + 0.5) * math.pi - ph) / w
                            for k in range(k0, k1 + 1))
                thetas += [t for t in interior if a <= t <= b]
            return hist._range_at(i, thetas)

        return cls(p, lambda ts: eq + amp * np.sin(w * ts[:, None] + ph),
                   component_range)

    @classmethod
    def constant(cls, p: ModelParams, values) -> "History":
        return cls._analytic(p, (0.0, 0.0, 0.0), values, 0.0, 0.5 * math.pi)

    @classmethod
    def equilibrium_plus_constant(cls, p: ModelParams, offsets) -> "History":
        x0, y0 = plankton_only_point(p)
        return cls._analytic(p, (x0, y0, 0.0), offsets, 0.0, 0.5 * math.pi)

    @classmethod
    def equilibrium_plus_sine(cls, p: ModelParams, amplitudes,
                              frequency: float, phase: float = 0.0) -> "History":
        x0, y0 = plankton_only_point(p)
        return cls._analytic(p, (x0, y0, 0.0), amplitudes, float(frequency),
                             float(phase))

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
        # a component peaks at a window endpoint or at a real root of
        # its spline's derivative inside the window
        roots = [s.derivative().roots(extrapolate=False) for s in splines]

        def component_range(hist, i, a, b):
            inner = roots[i][(roots[i] > a) & (roots[i] < b)]
            return hist._range_at(i, np.concatenate(([a, b], inner)))

        return cls(p, lambda ts: np.column_stack([s(ts) for s in splines]),
                   component_range)

    # -- evaluation ----------------------------------------------------------

    def eval_many(self, thetas) -> np.ndarray:
        """Rows (phi, psi, eta) at each theta of an array, in one call.

        Thetas down to 1e-9 * (1 + tau_max) below -tau_max are evaluated
        as they are, and thetas up to 1e-12 above 0 at 0.
        """
        ts = np.asarray(thetas, dtype=float)
        lo = -self.p.tau_max
        outside = ~((ts >= lo - 1e-9 * (1.0 + self.p.tau_max)) & (ts <= 1e-12))
        if outside.any():
            raise DomainError(f"history evaluated at theta = "
                              f"{float(ts[outside][0])!r} outside [{lo}, 0]")
        return self._rows(np.minimum(ts, 0.0))

    def __call__(self, theta: float):
        return tuple(self.eval_many([theta])[0].tolist())

    def component_range(self, i: int, window) -> tuple[float, float]:
        """Exact (min, max) of component_i(theta) over the window.

        A sine component whose window holds a full period gives
        equilibrium -/+ |amplitude| in closed form.  Otherwise the
        component is evaluated at every theta where it can peak: the
        window endpoints and its formula's interior extrema (for a
        tabulated history, the real roots of the spline's derivative).
        """
        return self._range(self, i, *window)

    def sup_abs_deviation(self, i: int, window, center: float) -> float:
        """Sup of |component_i(theta) - center| over the window, exactly.

        The rounded v - center is monotone in v, so the sup is taken at
        the ends of :meth:`component_range`.
        """
        lo, hi = self.component_range(i, window)
        return max(abs(lo - center), abs(hi - center))

    def _range_at(self, i: int, thetas) -> tuple[float, float]:
        v = self.eval_many(thetas)[:, i]
        return float(v.min()), float(v.max())

    def _validate(self):
        for i, (a, b) in enumerate(self.windows):
            lo, hi = self.component_range(i, (a, b))
            if not (lo >= 0.0 and hi < math.inf):  # a nan fails lo >= 0
                raise DomainError(f"history component {i} has minimum {lo!r} "
                                  f"and maximum {hi!r} on [{a:g}, {b:g}]; "
                                  "components must be finite and non-negative")
        if self.eval_many([0.0])[0, 0] <= 0.0:
            raise DomainError("history requires phi(0) > 0")


@dataclass
class PositivityReport:
    passed: bool
    observed_sup: tuple[float, float, float]
    observed_min: float
    x_bound: float
    messages: list[str] = field(default_factory=list)


def _hermite(u, h: float, states: np.ndarray, derivs: np.ndarray, k0, k1):
    """Cubic Hermite value at fraction ``u`` of the step from node k0 to k1.

    ``k0`` and ``k1`` index the rows of ``states`` and ``derivs`` (index
    arrays or slices); ``u`` is a scalar or an array that broadcasts with
    those rows.  Each row set is gathered only as its term is formed.
    """
    u2, u3 = u * u, u * u * u
    return ((2.0 * u3 - 3.0 * u2 + 1.0) * states[k0]
            + (u3 - 2.0 * u2 + u) * h * derivs[k0]
            + (-2.0 * u3 + 3.0 * u2) * states[k1]
            + (u3 - u2) * h * derivs[k1])


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
    out = _hermite(u, h, states, derivs, k, k + 1)
    neg = ts < 0.0
    if neg.any():
        out[neg] = history.eval_many(ts[neg])
    return out


def _stencil(tau: float, h: float) -> list[tuple[float, int, float]]:
    """(off, j, u) per RK4 stage offset for a delay ``tau`` on the mesh k*h.

    The delayed time (i + off)*h - tau of row i sits at position
    i + off - tau/h, that is node i + j plus the fraction u, the same
    for every row.
    """
    out = []
    for off in (0.0, 0.5, 1.0):  # the RK4 stage times t, t + h/2, t + h
        c = off - tau / h
        j = math.floor(c)
        out.append((off, j, c - j))
    return out


def _delayed(states: np.ndarray, derivs: np.ndarray, h: float,
             history: History, tau: float, stencil, i0: int,
             i1: int) -> np.ndarray:
    """States at the stage times (i + off)*h - tau, shape (3, i1 - i0, 3).

    One plane per stage offset of ``stencil``, one row per i in
    [i0, i1).  Rows whose node i + j is negative read the history at the
    stage time, clamped to 0; the others are node slices, combined with
    the stencil's Hermite weights unless u is 0.
    """
    out = np.empty((3, i1 - i0, 3))
    for plane, (off, j, u) in zip(out, stencil):
        mid = min(max(i0, -j), i1)  # first row on a node >= 0
        if mid > i0:
            t = np.arange(i0, mid) * h
            plane[:mid - i0] = history.eval_many(
                np.minimum((t + off * h) - tau, 0.0))
        a, b = mid + j, i1 + j
        plane[mid - i0:] = states[a:b] if u == 0.0 else _hermite(
            u, h, states, derivs, slice(a, b), slice(a + 1, b + 1))
    return out


class Trajectory:
    """Dense-output numerical solution on [0, t_end].

    A run keeps its nodes and their derivatives, 48 bytes per step; node
    k sits at time ``step * k``.  The per-column maxima and minima and
    max|state| are recorded here, once, and the checks read them instead
    of scanning the states again.
    """

    def __init__(self, p: ModelParams, history: History, step: float,
                 states: np.ndarray, derivs: np.ndarray):
        self.p = p
        self.history = history
        self.step = step
        self.states = states
        self.derivs = derivs
        self.t_end = step * (states.shape[0] - 1)
        self.observed_sup = tuple(float(v) for v in states.max(axis=0))
        self.observed_inf = tuple(float(v) for v in states.min(axis=0))
        # max|state| of finite states, +0.0 when every state is a zero
        self.observed_max_abs = max(0.0, *self.observed_sup,
                                    *(-v for v in self.observed_inf))

    def sample(self, t: float):
        """State at time t; history for t < 0, Hermite interpolation else."""
        return tuple(self.sample_many([t])[0].tolist())

    def sample_many(self, ts) -> np.ndarray:
        """State at each time of an array; see :meth:`sample`."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and not ts.max() <= self.t_end * (1.0 + 1e-12) + 1e-15:
            raise DomainError(f"sample time {float(ts.max())!r} beyond "
                              f"t_end = {self.t_end}")
        return _dense(self.states, self.derivs, self.step, self.history, ts)

    def to_csv(self, path, stride: int = 1):
        """Write every ``stride``-th node as ``t,x,y,z`` rows (CRLF, %.17g)."""
        span, n = stride * _CSV_CHUNK, self.states.shape[0]
        write_float_rows(path, ("t", "x", "y", "z"), (np.column_stack(
            (self.step * np.arange(s, min(s + span, n), stride),
             self.states[s:s + span:stride]))
            for s in range(0, n, span)))


def default_step(p: ModelParams, divisor: int = 20) -> float:
    """Step min(tau_min, 0.01) / divisor, shortened to divide tau_min.

    With both delays 0 (tau_min = 0) the step is 0.01 / divisor.  A
    divisor that is not positive, a step of 0, or one that tau_min / step
    overflows raises DomainError.
    """
    if not divisor > 0:
        raise DomainError(f"step divisor must be positive, got {divisor!r}")
    base = min(p.tau_min, 0.01) or 0.01
    h0 = base / divisor
    if not (h0 > 0.0 and p.tau_min / h0 < math.inf):
        raise DomainError(f"step {base!r} / {divisor} = {h0!r} is too short "
                          f"for tau_min = {p.tau_min!r}")
    return p.tau_min / math.ceil(p.tau_min / h0) if p.tau_min else h0


def integrate(p: ModelParams, hist: History, t_end: float,
              step: float | None = None) -> Trajectory:
    """Advance the system with fixed-step RK4 and Hermite dense output.

    Block method of steps: with ``B = floor(tau_min/h) - 2`` steps per
    block, every delayed value a block needs lies at least two nodes
    before the block, on nodes already completed.  For each distinct
    positive delay and each stage offset off in (0, 1/2, 1), the delayed
    time of row i sits at node i + j plus a fraction u that is the same
    for every row; j and u are computed once per call, so every block
    combines its nodes with the same Hermite weights.  A block's delayed
    coupling terms are then node slices: the nodes themselves when u is
    0 (h divides the delay), else the slices combined with those
    weights, and the history at the stage time for rows before node 0.
    A scalar RK4 loop with inline stages then advances the local part
    and collects the block's derivatives and nodes in flat lists.  A
    zero delay's coupling term is local and is evaluated in the loop
    from the stage state.

    It takes n = ceil(t_end / step) steps of length t_end / n: a horizon
    shorter than one step runs one step of that length, and a step count
    t_end / step or a delay / step that overflows raises DomainError.
    """
    h_target = default_step(p) if step is None else float(step)
    if not (t_end > 0.0 and h_target > 0.0):
        raise DomainError(f"horizon {t_end!r} and step {h_target!r} must be positive")
    if p.tau_min and h_target > p.tau_min / 20.0 * (1.0 + 1e-12):
        raise DomainError(f"step {h_target} exceeds smallest positive "
                          f"delay / 20 = {p.tau_min / 20.0}")
    steps = t_end / h_target - 1e-12
    if math.isinf(steps):
        raise DomainError(f"horizon {t_end!r} / step {h_target!r} overflows "
                          f"the step count")
    n = max(1, math.ceil(steps))
    h = t_end / n
    if math.isinf(p.tau_max / h):
        raise DomainError(f"step {h!r} is too short for the delay "
                          f"{p.tau_max!r} (delay / step overflows)")
    block = math.floor(p.tau_min / h) - 2 if p.tau_min else n + 1

    r, K, c1, c2 = p.r, p.K, p.c1, p.c2
    md1, md2 = -p.d1, -p.d2
    tau1, tau2 = p.tau1, p.tau2
    ec1, ec2 = p.e1 * c1, p.e2 * c2
    hh, h6 = 0.5 * h, h / 6.0
    try:
        states = np.zeros((n + 1, 3))
        derivs = np.zeros((n + 1, 3))
    except (MemoryError, ValueError) as exc:
        raise DomainError(f"{n:.6g} steps of size {h:g} cannot be "
                          f"stored ({exc})") from None
    flat_states, flat_derivs = states.reshape(-1), derivs.reshape(-1)
    states[0] = hist(0.0)
    x, y, z = states[0].tolist()
    stencils = {tau: _stencil(tau, h) for tau in {p.tau_min, p.tau_max} if tau}

    # Indices run to n inclusive so that the last block also yields
    # derivs[n]; the state it computes past t_end is discarded.
    for i0 in range(0, n + 1, block):
        i1 = min(i0 + block, n + 1)
        # delayed coupling terms e1*c1*x*y and e2*c2*y*z at t - tau,
        # t + h/2 - tau and t + h - tau, one plane each; equal delays
        # share one lookup, and a zero delay's rows are placeholders
        none = [[None] * (i1 - i0)] * 3
        with np.errstate(over="ignore", invalid="ignore"):
            u = {tau: _delayed(states, derivs, h, hist, tau, st, i0, i1)
                 for tau, st in stencils.items()}
            u1, u2 = u.get(tau1), u.get(tau2)
            w1 = (ec1 * u1[..., 0] * u1[..., 1]).tolist() if tau1 else none
            w2 = (ec2 * u2[..., 1] * u2[..., 2]).tolist() if tau2 else none
        ks, nodes = [], []
        put_k, put_node = ks.extend, nodes.extend
        for f1, f1h, f11, f2, f2h, f21 in zip(*w1, *w2):
            a1 = r * x * (1.0 - x / K) - c1 * x * y
            b1 = md1 * y + (f1 if tau1 else ec1 * x * y) - c2 * y * z
            g1 = md2 * z + (f2 if tau2 else ec2 * y * z)
            xs, ys, zs = x + hh * a1, y + hh * b1, z + hh * g1
            a2 = r * xs * (1.0 - xs / K) - c1 * xs * ys
            b2 = md1 * ys + (f1h if tau1 else ec1 * xs * ys) - c2 * ys * zs
            g2 = md2 * zs + (f2h if tau2 else ec2 * ys * zs)
            xs, ys, zs = x + hh * a2, y + hh * b2, z + hh * g2
            a3 = r * xs * (1.0 - xs / K) - c1 * xs * ys
            b3 = md1 * ys + (f1h if tau1 else ec1 * xs * ys) - c2 * ys * zs
            g3 = md2 * zs + (f2h if tau2 else ec2 * ys * zs)
            xs, ys, zs = x + h * a3, y + h * b3, z + h * g3
            a4 = r * xs * (1.0 - xs / K) - c1 * xs * ys
            b4 = md1 * ys + (f11 if tau1 else ec1 * xs * ys) - c2 * ys * zs
            g4 = md2 * zs + (f21 if tau2 else ec2 * ys * zs)
            put_k((a1, b1, g1))
            x = x + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            y = y + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            z = z + h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
            put_node((x, y, z))
        flat_derivs[3 * i0:3 * i1] = ks
        m = min(i1, n) - i0
        flat_states[3 * i0 + 3:3 * (i0 + 1 + m)] = nodes[:3 * m]
        bad = ~np.isfinite(states[i0 + 1:i0 + 1 + m]).all(axis=1)
        if bad.any():
            i = i0 + int(np.argmax(bad))
            raise IntegrationError(f"non-finite state at t = {i * h + h:g}")
    return Trajectory(p, hist, h, states, derivs)


def check_positivity_boundedness(traj: Trajectory,
                                 p: ModelParams) -> PositivityReport:
    """Empirical check of non-negativity and the logistic bound on x.

    Reads the extrema the trajectory recorded.  x may exceed its bound
    max(sup phi, K) by 1e-6 of the bound.
    """
    observed_min = min(traj.observed_inf)
    sup_phi = traj.history.sup_abs_deviation(0, (-p.tau1, 0.0), 0.0)
    x_bound = max(sup_phi, p.K)
    messages = []
    ok = True
    if observed_min < -POSITIVITY_TOL:
        ok = False
        messages.append(f"component dips to {observed_min:g}")
    x_max = traj.observed_sup[0]
    if x_max > x_bound * (1.0 + 1e-6):
        ok = False
        messages.append(f"x exceeds logistic bound: {x_max:g} > {x_bound:g}")
    return PositivityReport(passed=ok, observed_sup=traj.observed_sup,
                            observed_min=observed_min, x_bound=x_bound,
                            messages=messages)
