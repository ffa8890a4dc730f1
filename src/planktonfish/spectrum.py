"""Characteristic quasi-polynomial of the linearized model.

Evaluates Q(lambda) = det(lambda*E - A - exp(-lambda*tau1) B1
- exp(-lambda*tau2) B2), applies the delay-independent stability
classification, and locates roots numerically with the argument
principle plus Newton polishing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import (LinearizedSystem, ModelParams, coexistence_threshold,
                    plankton_only_point)

Rect = tuple[float, float, float, float]  # (re_min, re_max, im_min, im_max)

ROOT_RESIDUAL_TOL = 1e-9
_MAX_DEPTH = 12
# boundary samples per evaluation of Q: a complex temporary then takes
# 64 KB, under glibc's 128 KB mmap threshold, and a block's arrays are all
# released before the next block, so the heap reuses the same memory instead
# of mapping it, or growing back a trimmed top, and faulting it in anew
SAMPLE_BUDGET = 4096


@dataclass(frozen=True)
class StabilityVerdict:
    """Delay-independent classification of the plankton-only point."""

    kind: str  # AsymptoticallyStable | Unstable | DelayDependent
    witness: str


@dataclass
class RootReport:
    roots: list[complex]
    residuals: list[float]
    rightmost_real_part: float
    counts: list[tuple[Rect, int]] = field(default_factory=list)


def eval_Q(lam: complex, lin: LinearizedSystem, p: ModelParams) -> complex:
    """Direct 3x3 complex determinant of the characteristic matrix."""
    m = (lam * np.eye(3) - lin.A
         - cmath.exp(-lam * p.tau1) * lin.B1
         - cmath.exp(-lam * p.tau2) * lin.B2)
    return complex(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def _factors(lam, e1t, e2t, lin: LinearizedSystem, p: ModelParams):
    """q1, q2 with Q = q1*q2, given e1t = exp(-lam*tau1), e2t = exp(-lam*tau2).

    Operators only, so it serves complex scalars and numpy arrays alike.
    """
    a = p.r * lin.x0 / p.K
    q1 = (lam + a) * (lam + p.d1 - p.d1 * e1t) + p.c1 * p.d1 * lin.y0 * e1t
    q2 = lam + p.d2 - p.e2 * p.c2 * lin.y0 * e2t
    return q1, q2


def eval_factors(lam: complex, lin: LinearizedSystem,
                 p: ModelParams) -> tuple[complex, complex]:
    """The two factors whose product is Q."""
    return _factors(lam, cmath.exp(-lam * p.tau1), cmath.exp(-lam * p.tau2),
                    lin, p)


def _q_vec(lam: np.ndarray, lin: LinearizedSystem, p: ModelParams) -> np.ndarray:
    # vectorized Q via the factorization (identity with eval_Q is tested)
    q1, q2 = _factors(lam, np.exp(-lam * p.tau1), np.exp(-lam * p.tau2),
                      lin, p)
    return q1 * q2


def lemma_classify(p: ModelParams) -> StabilityVerdict:
    """Delay-independent verdict for the plankton-only equilibrium.

    Raises DomainError where the point does not exist.  Strict inequalities
    on both sides; a d1 between the two thresholds is delay dependent.
    """
    plankton_only_point(p)
    u = p.e1 * p.c1 * p.K
    t = coexistence_threshold(p)
    lower = u * max(1.0 / 3.0, t / u)
    if lower < p.d1:
        return StabilityVerdict(
            "AsymptoticallyStable",
            f"e1*c1*K*max(1/3, 1 - c1*d2/(e2*c2*r)) = {lower:.17g} "
            f"< d1 = {p.d1:.17g} < e1*c1*K = {u:.17g}")
    if p.d1 < t:
        return StabilityVerdict(
            "Unstable",
            f"d1 = {p.d1:.17g} < e1*c1*K*(1 - c1*d2/(e2*c2*r)) = {t:.17g}")
    return StabilityVerdict(
        "DelayDependent",
        f"d1 = {p.d1:.17g} in the gap [{t:.17g}, {lower:.17g}]")


def default_region(p: ModelParams) -> Rect:
    scale = 10.0 * max(p.r, p.d1, p.d2)
    return (-scale, 1.0, -50.0, 50.0)


# rects' columns holding each edge's start, stop and fixed coordinate, for
# the edges bottom, right, top, left; the bottom and top edges are flat
_EDGE_COLUMNS = np.array([[0, 2, 1, 3], [1, 3, 0, 2], [2, 1, 3, 0]])
_FLAT = np.array([True, False, True, False])[:, None]


def _boundary(rects: np.ndarray, n: int, e0: int, e1: int, k: np.ndarray):
    """Samples k of edges e0..e1-1 of each rectangle, n per edge.

    The edges run counter-clockwise, bottom, right, top, left (0..3), and
    sample k of an edge is its start + k*step.  Returns the samples, shape
    (rects, e1 - e0, len(k)), and each edge's complex step, shape
    (rects, e1 - e0, 1).
    """
    start, stop, fixed = rects[:, _EDGE_COLUMNS[:, e0:e1], None].transpose(
        1, 0, 2, 3)
    step = (stop - start) / n
    # np.linspace(start, stop, n, endpoint=False)[k] per edge, same arithmetic
    along = k * step + start
    flat = _FLAT[e0:e1]
    z = np.empty(along.shape, dtype=complex)
    z.real, z.imag = np.where(flat, along, fixed), np.where(flat, fixed, along)
    return z, np.where(flat, step, step * 1j)


def _exp_grid(w0: np.ndarray, dw: np.ndarray, m: int, k0: int,
              length: int) -> list[np.ndarray]:
    """exp(w0[i] + k*dw[i]) for k = k0..k0+length-1, one array per i.

    k runs along the last axis of w0 and dw, and k = j*m + l comes out at
    [..., j, l], so the factors exp(w0 + j*m*dw) and exp(l*dw) take
    length/m + m complex exps per row instead of length.  k0 and length
    are multiples of m, so a run of an edge gets the bits the whole edge
    would.
    """
    coarse = np.exp(w0 + np.arange(k0, k0 + length, m) * dw)[..., :, None]
    fine = np.exp(np.arange(m) * dw)[..., None, :]
    return [coarse[i] * fine[i] for i in range(len(coarse))]


def _q_block(rects: np.ndarray, n: int, s0: int, span: int, lin,
             p) -> np.ndarray:
    """Q at boundary samples s0..s0+span-1 of each rectangle, shape (rects, span).

    Sample e*n + k is sample k of edge e (see ``_boundary``).  A block is
    whole rectangles (s0 = 0, span = 4n), whole edges, or a run of one
    edge; n and span are powers of two.  exp(-tau*lambda) comes from
    ``_exp_grid`` with m about sqrt(n) and w0 from the edge's first sample,
    so every sample's value does not depend on the block it lies in.
    """
    e0, k0 = divmod(s0, n)
    length = min(span, n)
    e1 = e0 + span // length
    k = np.arange(k0, k0 + length)
    z, dz = _boundary(rects, n, e0, e1, k)
    z0 = z[:, :, :1] if k0 == 0 else _boundary(rects, n, e0, e1,
                                               np.arange(1))[0]
    m = 1 << (n.bit_length() - 1) // 2
    # -tau, one row per distinct delay
    taus = (p.tau1,) if p.tau1 == p.tau2 else (p.tau1, p.tau2)
    neg = -np.array(taus)[:, None, None, None]
    e = _exp_grid(neg * z0, neg * dz, m, k0, length)
    q1, q2 = _factors(z.reshape(e[0].shape), e[0], e[-1], lin, p)
    return np.multiply(q1, q2, out=q1).reshape(len(rects), span)


def _blocks(rects: np.ndarray, n: int, lin, p):
    """Yield (r, s0, ext): Q along the boundaries of rects, block by block.

    Each block evaluates Q (``_q_block``) at ``SAMPLE_BUDGET`` boundary
    samples at most: whole rectangles while 4n fits the budget, otherwise
    one rectangle's boundary in runs of the budget, in order.  ext holds
    the block's samples s0..s0+span-1 of rectangles r.., preceded by the
    previous block's last sample of the same boundary and, after the
    boundary's last block, followed by its sample 0 again: every pair of
    consecutive boundary samples is a pair of columns of one ext.
    """
    span = min(4 * n, SAMPLE_BUDGET)
    rows = max(1, SAMPLE_BUDGET // (4 * n))
    for r in range(0, len(rects), rows):
        seq = []
        for s0 in range(0, 4 * n, span):
            q = _q_block(rects[r:r + rows], n, s0, span, lin, p)
            if s0 == 0:
                first = q[:, :1].copy()
            seq.append(q)
            if s0 + span == 4 * n:
                seq.append(first)
            ext, seq = np.concatenate(seq, axis=1), [q[:, -1:].copy()]
            del q  # no block's arrays outlive it, so the next reuses them
            yield r, s0, ext
            del ext


def _phase_counts(rects: np.ndarray, n: int, lin, p):
    """Row-wise argument-principle test on n samples per edge.

    Returns the rounded winding sums, a mask of rectangles whose boundary
    meets a root (jitter), and a mask of rectangles whose phase steps all
    stay within pi/2 (count accepted); n is a power of two.

    Q is evaluated block by block (``_blocks``), so no temporary grows
    with the number of rectangles or with n.  A rectangle whose boundary
    spans several blocks carries across them its min and max |Q|, its
    phase sum and its largest phase step; each block's samples come with
    the step across the block boundary before them (which the real-axis
    sign test also reads) and, in the last block, the wrap-around step.
    Per-block phase sums may round differently from one sum, but a count
    is used only when every step is within pi/2, where the sum lies within
    about 4n*eps*pi of 2*pi*k, so no count moves.  The median of |Q| is
    needed only where min |Q| is below 1e-12 of the max; only those
    rectangles are evaluated again, to take it.
    """
    parts = []  # per row block: min and max |Q|, phase sum, largest step
    hit = np.zeros(len(rects), dtype=bool)
    on_axis = rects[:, 2:] == 0.0  # bottom edge, top edge at im = 0
    axis = on_axis.any()
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, s0, ext in _blocks(rects, n, lin, p):
            rows = slice(r, r + len(ext))
            aq = np.abs(ext)
            ratio = ext[:, 1:] / ext[:, :-1]  # a zero sample is hit
            dphi = np.arctan2(ratio.imag, ratio.real)
            part = (aq.min(axis=1), aq.max(axis=1), dphi.sum(axis=1),
                    np.abs(dphi).max(axis=1))
            if s0:  # a later block of one rectangle's boundary
                low, high, total, worst = parts.pop()
                part = (np.minimum(low, part[0]), np.maximum(high, part[1]),
                        total + part[2], np.maximum(worst, part[3]))
            parts.append(part)
            # Q has real coefficients, so it is real on the real axis: a
            # sign change between two consecutive real samples is a root on
            # the edge.  Such pairs start on a bottom (0) or top (2) edge at
            # im = 0 and end at most on the next edge's first sample;
            # ext[:, i] is boundary sample b + i.
            b = s0 - 1 if s0 else 0
            for c, edge in enumerate((0, 2) if axis else ()):
                lo = max(edge * n - b, 0)
                hi = min((edge + 1) * n - b, ext.shape[1] - 1)
                sel = on_axis[rows, c].nonzero()[0] if lo < hi else ()
                if len(sel):
                    seg = ext[sel, lo:hi + 1].real
                    hit[r + sel] |= (seg[:, :-1] * seg[:, 1:] < 0).any(axis=1)
            del ext, aq, ratio, dphi  # before ``_blocks`` takes the next
    low, high, total, worst = (parts[0] if len(parts) == 1 else
                               map(np.concatenate, zip(*parts)))
    # a root on the boundary: min|Q| below 1e-12 of the median, which is
    # at most the max, so the median is taken only where the max allows it
    near = low < 1e-12 * np.maximum(high, 1e-300)
    if near.any():
        rows = np.flatnonzero(near)
        aq = np.empty((rows.size, 4 * n))
        span = min(4 * n, SAMPLE_BUDGET)
        for r, s0, ext in _blocks(rects[rows], n, lin, p):
            j = 1 if s0 else 0  # ext's first sample of the block
            aq[r:r + len(ext), s0:s0 + span] = np.abs(ext[:, j:j + span])
        near[rows] = low[rows] < 1e-12 * np.maximum(
            np.median(aq, axis=1, overwrite_input=True), 1e-300)
    hit |= near
    ok = ~hit & (worst <= 0.5 * np.pi)
    return np.rint(total / (2.0 * np.pi)), hit, ok


def _grown(rect: Rect, depth: int) -> Rect:
    # a root sits on or very near the boundary: enlarge slightly
    size = rect[1] - rect[0] + rect[3] - rect[2]
    pad = size / 1024.0 * 2.0 ** depth
    return (rect[0] - pad, rect[1] + pad, rect[2] - pad, rect[3] + pad)


def _windings(rects: list[Rect], lin, p) -> list[int]:
    """Winding number of Q around each rectangle's boundary.

    Phase increments are tracked on progressively denser samplings,
    n = 64, 128, ..., 8192 per edge, until no step exceeds pi/2.  A
    boundary sample with |Q| ~ 0, or a sign change of Q between two
    consecutive samples on the real axis (where Q is real, so the step is
    exactly pi at every density), means a root sits on the boundary; the
    rectangle is then jittered (slightly enlarged) at once and restarts
    at n = 64, as it does when n = 8192 still fails.

    All rectangles climb their ladders together, breadth first: each
    round groups the pending rectangles by n and hands each group to one
    ``_phase_counts`` call, which evaluates it in blocks of at most
    ``SAMPLE_BUDGET`` boundary samples.
    """
    out = [0] * len(rects)
    pending = [(i, rect, 0, 64) for i, rect in enumerate(rects)]
    while pending:
        by_n: dict[int, list] = {}
        for entry in pending:
            by_n.setdefault(entry[3], []).append(entry)
        pending = []
        for n, group in by_n.items():
            counts, hit, ok = _phase_counts(
                np.array([rect for _, rect, _, _ in group]), n, lin, p)
            for (i, rect, depth, _), c, jitter, accepted in zip(
                    group, counts.tolist(), hit.tolist(), ok.tolist()):
                if accepted:
                    out[i] = int(c)
                elif jitter or n == 8192:
                    if depth >= _MAX_DEPTH:
                        raise RuntimeError(
                            "root scan: contour jitter depth exceeded")
                    pending.append((i, _grown(rect, depth), depth + 1, 64))
                else:
                    pending.append((i, rect, depth, 2 * n))
    return out


def _newton(z0: complex, lin, p, tol: float = 1e-12,
            max_iter: int = 50) -> complex | None:
    a = p.r * lin.x0 / p.K
    z = z0
    for _ in range(max_iter):
        e1t, e2t = cmath.exp(-z * p.tau1), cmath.exp(-z * p.tau2)
        q1, q2 = _factors(z, e1t, e2t, lin, p)
        # product rule over the factorization
        dq1 = ((z + p.d1 - p.d1 * e1t)
               + (z + a) * (1.0 + p.d1 * p.tau1 * e1t)
               - p.c1 * p.d1 * lin.y0 * p.tau1 * e1t)
        dq2 = 1.0 + p.e2 * p.c2 * lin.y0 * p.tau2 * e2t
        dq = dq1 * q2 + q1 * dq2
        if dq == 0:
            return None
        step = q1 * q2 / dq
        z -= step
        if abs(step) <= tol * (1.0 + abs(z)):
            return z
    return None


def _in_rect(z: complex, rect: Rect, slack: float = 1e-9) -> bool:
    re0, re1, im0, im1 = rect
    w = slack * (abs(re1 - re0) + abs(im1 - im0) + 1.0)
    return re0 - w <= z.real <= re1 + w and im0 - w <= z.imag <= im1 + w


def _roots_in_rects(cells: list[tuple[int, Rect, int]], lin,
                    p) -> list[tuple[tuple[int, ...], complex]]:
    """Roots inside rectangles of known winding number, subdivided level by level.

    ``cells`` holds (index, rectangle, winding number) triples.  Newton
    runs from the centre of every rectangle of a level.  A rectangle with
    winding number 1 whose Newton root lies inside it with residual <=
    ``ROOT_RESIDUAL_TOL`` yields that root; one at depth ``_MAX_DEPTH`` or
    below 1e-8 on both sides yields its Newton root if inside; every other
    rectangle splits into quadrants.  The quadrants of the whole level get
    their winding numbers from one ``_windings`` call, and those with
    winding number 0 are dropped.  Each root is returned with its path
    (cell index, then quadrant indices), so sorting by path gives the
    depth-first order.
    """
    found: list[tuple[tuple[int, ...], complex]] = []
    level = [((k,), rect, c) for k, rect, c in cells if c != 0]
    depth = 0
    while level:
        quads: list[tuple[tuple[int, ...], Rect]] = []
        for path, rect, count in level:
            center = complex(0.5 * (rect[0] + rect[1]),
                             0.5 * (rect[2] + rect[3]))
            root = _newton(center, lin, p)
            if (count == 1 and root is not None and _in_rect(root, rect)
                    and abs(_q_vec(np.array([root]), lin, p)[0])
                    <= ROOT_RESIDUAL_TOL):
                found.append((path, root))
                continue
            tiny = (rect[1] - rect[0] < 1e-8) and (rect[3] - rect[2] < 1e-8)
            if depth >= _MAX_DEPTH or tiny:
                if root is not None and _in_rect(root, rect):
                    found.append((path, root))
                continue
            rm = 0.5 * (rect[0] + rect[1])
            im = 0.5 * (rect[2] + rect[3])
            quads += [(path + (j,), quad) for j, quad in enumerate((
                (rect[0], rm, rect[2], im), (rm, rect[1], rect[2], im),
                (rect[0], rm, im, rect[3]), (rm, rect[1], im, rect[3])))]
        windings = _windings([quad for _, quad in quads], lin, p)
        level = [(path, quad, c)
                 for (path, quad), c in zip(quads, windings) if c != 0]
        depth += 1
    return found


def root_scan(lin: LinearizedSystem, p: ModelParams,
              region: Rect | None = None,
              grid: tuple[int, int] = (8, 8)) -> RootReport:
    """Locate roots of Q in a rectangle of the complex plane.

    Argument-principle winding counts over a coarse grid of
    sub-rectangles select candidates, which are then resolved by
    adaptive subdivision and Newton polishing.  Every reported root has
    residual |Q| <= 1e-9.  Each rectangle's winding number is computed
    once and passed down, and quadrants with winding number 0 are not
    entered.  The grid cells, and then the quadrants of each subdivision
    level, go through one breadth-first ``_windings`` call, which batches
    every boundary sampling of their refinement ladders; edges on the
    real axis that straddle a root are jittered at once.

    Q has real coefficients, so Q(conj z) = conj Q(z) and the roots are
    closed under conjugation.  A grid cell below the real axis (im_max <=
    0) whose negated, swapped im edges equal those of the cell above it
    in row ni-1-j bit for bit is therefore not sampled: it takes that
    cell's winding number, and each of its roots conjugated, tagged with
    the mirrored path (quadrant q becomes q ^ 2), so the sort by path and
    the de-duplication keep the full scan's order and its first copy of
    every real root.  The default region with ni = 8 or 10 mirrors
    every lower row; asymmetric regions, a region starting at the real
    axis and the middle row of an odd ni are scanned whole, as is any row
    whose linspace edges do not negate exactly.
    """
    if region is None:
        region = default_region(p)
    re0, re1, im0, im1 = region
    if not all(math.isfinite(v) for v in region) or re0 >= re1 or im0 >= im1:
        raise DomainError(f"invalid search region {region!r}")
    nr, ni = grid
    if nr < 8 or ni < 8:
        raise DomainError("grid resolution must be at least 8x8")
    re_edges = np.linspace(re0, re1, nr + 1)
    im_edges = np.linspace(im0, im1, ni + 1)
    subs = [(float(re_edges[i]), float(re_edges[i + 1]),
             float(im_edges[j]), float(im_edges[j + 1]))
            for i in range(nr) for j in range(ni)]
    # cell k's winding number and roots come from cell source[k]: itself,
    # or for a row below the real axis whose negated edges are bit for bit
    # those of row ni-1-j, that row's cell
    row = [ni - 1 - j if (im_edges[j + 1] <= 0.0
                          and -im_edges[j + 1] == im_edges[ni - 1 - j]
                          and -im_edges[j] == im_edges[ni - j]) else j
           for j in range(ni)]
    source = [i * ni + row[j] for i in range(nr) for j in range(ni)]
    scanned = [k for k, s in enumerate(source) if s == k]
    wound = dict(zip(scanned, _windings([subs[k] for k in scanned], lin, p)))
    counts = [(sub, wound[s]) for sub, s in zip(subs, source)]
    found = _roots_in_rects([(k, subs[k], wound[k]) for k in scanned], lin, p)
    mirror = {s: k for k, s in enumerate(source) if s != k}
    # quadrant q mirrors to q ^ 2 (lower <-> upper), so the mirrored paths
    # sort as the cell's own subdivision would; a real root keeps +0.0
    found += [((mirror[path[0]],) + tuple(q ^ 2 for q in path[1:]),
               z.conjugate() if z.imag != 0.0 else z)
              for path, z in found if path[0] in mirror]
    found.sort(key=lambda item: item[0])
    polished: list[complex] = []
    residuals: list[float] = []
    for _, z in found:
        res = abs(eval_Q(z, lin, p))
        if res > ROOT_RESIDUAL_TOL:
            continue
        if any(abs(z - w) <= 1e-6 * (1.0 + abs(w)) for w in polished):
            continue
        polished.append(z)
        residuals.append(res)
    rightmost = max((z.real for z in polished), default=-math.inf)
    return RootReport(roots=polished, residuals=residuals,
                      rightmost_real_part=rightmost, counts=counts)
