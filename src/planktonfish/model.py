"""Plankton-fish predator-prey model with two maturation delays.

State is (x, y, z) = (phytoplankton, zooplankton, fish).  The dynamics are

    x' = r x (1 - x/K) - c1 x y
    y' = -d1 y + e1 c1 x(t-tau1) y(t-tau1) - c2 y z
    z' = -d2 z + e2 c2 y(t-tau2) z(t-tau2)

with conversion efficiencies e1 = b1 exp(-c1 tau1), e2 = b2 exp(-c2 tau2).
This module holds the parameter container, the right-hand side, equilibrium
classification, and the linearization about the plankton-only equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

State = tuple[float, float, float]


@dataclass(frozen=True)
class ModelParams:
    """Validated model parameters plus derived quantities.

    Do not construct directly; use :func:`derive_params` so that the
    derived fields stay consistent with the raw rates.  ``tau_min`` is
    the smallest positive delay (0.0 only when both delays are 0).
    """

    r: float
    K: float
    c1: float
    c2: float
    d1: float
    d2: float
    b1: float
    b2: float
    tau1: float
    tau2: float
    e1: float
    e2: float
    tau_max: float
    tau_min: float


@dataclass(frozen=True)
class EquilibriumSet:
    """Classified non-negative equilibrium points for one parameter set.

    ``case_id`` is 1, 2 or 3; ``points`` is a list of (label, (x, y, z))
    pairs.  Labels are 'extinction', 'phyto-only', 'plankton-only',
    'coexistence'.
    """

    case_id: int
    points: list[tuple[str, State]]

    @property
    def labels(self) -> list[str]:
        return [lab for lab, _ in self.points]


@dataclass(frozen=True)
class LinearizedSystem:
    """Matrices of the linearization about the plankton-only point.

    The shifted system reads y'(t) = A y(t) + B1 y(t-tau1) + B2 y(t-tau2)
    plus quadratic remainders (see :func:`eval_nonlinear`).
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    x0: float
    y0: float


_POSITIVE = ("r", "K", "d1", "d2")  # the other rates and the delays are >= 0


def derive_params(r, K, c1, c2, d1, d2, b1, b2, tau1, tau2) -> ModelParams:
    """Validate raw rates, each read with float(), and derive the rest."""
    raw = dict(r=r, K=K, c1=c1, c2=c2, d1=d1, d2=d2,
               b1=b1, b2=b2, tau1=tau1, tau2=tau2)
    for name, value in raw.items():
        try:
            v = raw[name] = float(value)
        except (TypeError, ValueError, OverflowError):
            v = math.nan
        positive = name in _POSITIVE  # a nan fails both comparisons
        if not (0 < v < math.inf if positive else 0 <= v < math.inf):
            raise ParameterError(f"parameter {name!r} must be a finite number "
                                 f"{'>' if positive else '>='} 0, got {value!r}")
    lo, hi = sorted((raw["tau1"], raw["tau2"]))
    return ModelParams(**raw, e1=raw["b1"] * math.exp(-raw["c1"] * raw["tau1"]),
                       e2=raw["b2"] * math.exp(-raw["c2"] * raw["tau2"]),
                       tau_max=hi, tau_min=lo or hi)


def rhs(current: State, delayed1: State, delayed2: State, p: ModelParams) -> State:
    """Right-hand side of the model in original coordinates."""
    x, y, z = current
    x1, y1, _ = delayed1
    _, y2, z2 = delayed2
    dx = p.r * x * (1.0 - x / p.K) - p.c1 * x * y
    dy = -p.d1 * y + p.e1 * p.c1 * x1 * y1 - p.c2 * y * z
    dz = -p.d2 * z + p.e2 * p.c2 * y2 * z2
    return (dx, dy, dz)


def coexistence_threshold(p: ModelParams) -> float:
    """Threshold on d1 below which the coexistence point exists.

    Collapses to -inf when its divisor e2*c2*r is 0 (or underflows).
    """
    u = p.e1 * p.c1 * p.K
    if p.e2 * p.c2 * p.r == 0.0:
        return -math.inf
    return u * (1.0 - p.c1 * p.d2 / (p.e2 * p.c2 * p.r))


def plankton_only_point(p: ModelParams) -> tuple[float, float]:
    """The (x0, y0) equilibrium with phytoplankton and zooplankton only.

    It exists iff d1 < e1*c1*K (so not where e1*c1 = 0); else DomainError.
    """
    u = p.e1 * p.c1 * p.K
    if not p.d1 < u:
        raise DomainError(f"plankton-only point requires d1 < e1*c1*K "
                          f"({p.d1} >= {u})")
    x0 = p.d1 / (p.e1 * p.c1)
    y0 = (p.r / p.c1) * (1.0 - p.d1 / u)
    return x0, y0


def classify_equilibria(p: ModelParams) -> EquilibriumSet:
    """Enumerate the non-negative equilibria and identify the case."""
    t = coexistence_threshold(p)
    points: list[tuple[str, State]] = [
        ("extinction", (0.0, 0.0, 0.0)),
        ("phyto-only", (p.K, 0.0, 0.0)),
    ]
    try:
        x0, y0 = plankton_only_point(p)
    except DomainError:
        return EquilibriumSet(case_id=1, points=points)
    points.append(("plankton-only", (x0, y0, 0.0)))
    if p.d1 < t:
        xs = p.K * (1.0 - p.c1 * p.d2 / (p.e2 * p.c2 * p.r))
        ys = p.d2 / (p.e2 * p.c2)
        zs = (t - p.d1) / p.c2
        points.append(("coexistence", (xs, ys, zs)))
        return EquilibriumSet(case_id=3, points=points)
    return EquilibriumSet(case_id=2, points=points)


def linearize(p: ModelParams) -> LinearizedSystem:
    """Linearization matrices A, B1, B2 about the plankton-only point."""
    x0, y0 = plankton_only_point(p)
    a = p.r * x0 / p.K
    A = np.array([
        [-a, -p.d1 / p.e1, 0.0],
        [0.0, -p.d1, -p.c2 * y0],
        [0.0, 0.0, -p.d2],
    ])
    B1 = np.zeros((3, 3))
    B1[1, 0] = p.e1 * p.c1 * y0
    B1[1, 1] = p.d1
    B2 = np.zeros((3, 3))
    B2[2, 2] = p.e2 * p.c2 * y0
    return LinearizedSystem(A=A, B1=B1, B2=B2, x0=x0, y0=y0)


def eval_nonlinear(current: State, delayed1: State, delayed2: State,
                   p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic remainders (F, G1, G2) of the shifted system.

    Inputs are shifted coordinates (x - x0, y - y0, z).  Adding the linear
    part A v + B1 v1 + B2 v2 to F + G1 + G2 reproduces the shifted
    right-hand side.
    """
    x, y, z = current
    x1, y1, _ = delayed1
    _, y2, z2 = delayed2
    F = np.array([-p.r / p.K * x * x - p.c1 * x * y, -p.c2 * y * z, 0.0])
    G1 = np.array([0.0, p.e1 * p.c1 * x1 * y1, 0.0])
    G2 = np.array([0.0, 0.0, p.e2 * p.c2 * y2 * z2])
    return F, G1, G2
