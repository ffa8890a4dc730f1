import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lambertw

from planktonfish import (DomainError, derive_params, eval_Q, eval_factors,
                          lemma_classify, linearize, root_scan)
from planktonfish import spectrum
from planktonfish.spectrum import ROOT_RESIDUAL_TOL, default_region

from conftest import random_stable_params, random_unstable_params


@pytest.fixture
def case2_lin(case2_params):
    return linearize(case2_params), case2_params


class TestEvalQ:
    def test_value_at_origin(self, case2_lin):
        lin, p = case2_lin
        # Q(0) = Q1(0) * Q2(0) with Q1(0) = c1*d1*y0, Q2(0) = d2 - e2*c2*y0
        expected = (p.c1 * p.d1 * lin.y0) * (p.d2 - p.e2 * p.c2 * lin.y0)
        assert eval_Q(0.0, lin, p) == pytest.approx(expected, rel=1e-13)

    def test_conjugate_symmetry(self, case2_lin):
        lin, p = case2_lin
        rng = np.random.default_rng(21)
        for _ in range(50):
            lam = complex(rng.uniform(-5, 1), rng.uniform(-30, 30))
            q = eval_Q(lam, lin, p)
            qc = eval_Q(lam.conjugate(), lin, p)
            assert qc == pytest.approx(q.conjugate(), rel=1e-12, abs=1e-12)

    def test_factorization_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            p = random_stable_params(rng)
            lin = linearize(p)
            for _ in range(250):
                lam = complex(rng.uniform(-8, 2), rng.uniform(-40, 40))
                q = eval_Q(lam, lin, p)
                q1, q2 = eval_factors(lam, lin, p)
                assert abs(q - q1 * q2) <= 1e-10 * (1.0 + abs(q))

    def test_fish_factor_root_is_a_root_of_q(self, case2_lin):
        lin, p = case2_lin
        # real root of the fish factor by bisection, then check Q
        lo, hi = -p.d2, 1.0
        g = lambda s: s + p.d2 - p.e2 * p.c2 * lin.y0 * math.exp(-s * p.tau2)
        assert g(lo) < 0 < g(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(eval_Q(complex(lo, 0.0), lin, p)) <= 1e-10


class TestLemmaClassify:
    def test_stable_example(self, case2_params):
        v = lemma_classify(case2_params)
        assert v.kind == "AsymptoticallyStable"
        assert "d1" in v.witness

    def test_unstable_example(self, case3_params):
        assert lemma_classify(case3_params).kind == "Unstable"

    def test_delay_dependent_gap(self):
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=0.5, d2=1, b1=3, b2=1,
                          tau1=0.1, tau2=0.1)
        assert lemma_classify(p).kind == "DelayDependent"

    def test_requires_plankton_only_point(self):
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=5, d2=1, b1=3, b2=1,
                          tau1=0.1, tau2=0.1)
        with pytest.raises(DomainError):
            lemma_classify(p)

    def test_random_families_classified(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            assert (lemma_classify(random_stable_params(rng)).kind
                    == "AsymptoticallyStable")
            assert lemma_classify(random_unstable_params(rng)).kind == "Unstable"


class TestRootScan:
    def test_zero_delay_roots_match_matrix_eigenvalues(self):
        p = derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1, b1=3, b2=1,
                          tau1=0.0, tau2=0.0)
        lin = linearize(p)
        eigs = np.linalg.eigvals(lin.A + lin.B1 + lin.B2)
        report = root_scan(lin, p, region=(-10.0, 1.0, -5.0, 5.0))
        for lam in eigs:
            assert min(abs(lam - z) for z in report.roots) <= 1e-8

    def test_residuals_within_tolerance(self, case2_lin):
        lin, p = case2_lin
        report = root_scan(lin, p)
        assert report.roots, "expected at least one root in the default region"
        assert all(res <= ROOT_RESIDUAL_TOL for res in report.residuals)
        for z, res in zip(report.roots, report.residuals):
            assert abs(eval_Q(z, lin, p)) == pytest.approx(res, abs=1e-12)

    def test_stable_set_has_negative_rightmost_root(self, case2_lin):
        lin, p = case2_lin
        assert root_scan(lin, p).rightmost_real_part < 0.0

    def test_unstable_set_has_positive_root(self):
        rng = np.random.default_rng(24)
        p = random_unstable_params(rng)
        lin = linearize(p)
        scale = 10.0 * max(p.r, p.d1, p.d2)
        hi = max(1.0, p.e2 * p.c2 * lin.y0 - p.d2 + 0.5)
        report = root_scan(lin, p, region=(-scale, hi, -50.0, 50.0))
        assert any(z.real > 0 for z in report.roots)

    def test_roots_come_in_conjugate_pairs(self, case2_lin):
        lin, p = case2_lin
        report = root_scan(lin, p)
        for z in report.roots:
            if abs(z.imag) > 1e-8:
                assert min(abs(z.conjugate() - w)
                           for w in report.roots) <= 1e-6

    def test_counts_cover_grid(self, case2_lin):
        lin, p = case2_lin
        report = root_scan(lin, p, grid=(8, 8))
        assert len(report.counts) == 64
        assert sum(c for _, c in report.counts) >= len(report.roots)

    def test_region_validation(self, case2_lin):
        lin, p = case2_lin
        with pytest.raises(DomainError):
            root_scan(lin, p, region=(1.0, -1.0, -5.0, 5.0))
        with pytest.raises(DomainError):
            root_scan(lin, p, grid=(4, 8))

    def test_empty_region_reports_no_roots(self, case2_lin):
        lin, p = case2_lin
        report = root_scan(lin, p, region=(30.0, 40.0, 10.0, 20.0))
        assert report.roots == []
        assert report.rightmost_real_part == -math.inf

    def test_default_region_scales_with_rates(self, case2_params):
        region = default_region(case2_params)
        assert region[0] == -15.0 and region[1] == 1.0


# -- reference scan ----------------------------------------------------------
# The scan before the batched first sampling and the real-axis rule: every
# rectangle's winding number by the full refinement ladder, one rectangle
# at a time, and recomputed when the subdivision enters it.

def _reference_boundary(rect, n):
    re0, re1, im0, im1 = rect
    bottom = np.linspace(re0, re1, n, endpoint=False) + 1j * im0
    right = re1 + 1j * np.linspace(im0, im1, n, endpoint=False)
    top = np.linspace(re1, re0, n, endpoint=False) + 1j * im1
    left = re0 + 1j * np.linspace(im1, im0, n, endpoint=False)
    return np.concatenate([bottom, right, top, left])


def _reference_winding(rect, lin, p, depth=0):
    if depth > spectrum._MAX_DEPTH:
        raise RuntimeError("root scan: contour jitter depth exceeded")
    size = rect[1] - rect[0] + rect[3] - rect[2]
    n = 64
    while n <= 8192:
        q = spectrum._q_vec(_reference_boundary(rect, n), lin, p)
        aq = np.abs(q)
        if np.min(aq) < 1e-12 * max(float(np.median(aq)), 1e-300):
            break
        dphi = np.angle(np.roll(q, -1) / q)
        if np.max(np.abs(dphi)) <= 0.5 * np.pi:
            return int(round(np.sum(dphi) / (2.0 * np.pi)))
        n *= 2
    pad = size / 1024.0 * 2.0 ** depth
    grown = (rect[0] - pad, rect[1] + pad, rect[2] - pad, rect[3] + pad)
    return _reference_winding(grown, lin, p, depth + 1)


def _reference_roots_in_rect(rect, lin, p, depth=0):
    count = _reference_winding(rect, lin, p)
    if count == 0:
        return []
    center = complex(0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3]))
    root = spectrum._newton(center, lin, p)
    if (count == 1 and root is not None and spectrum._in_rect(root, rect)
            and abs(spectrum._q_vec(np.array([root]), lin, p)[0])
            <= ROOT_RESIDUAL_TOL):
        return [root]
    tiny = (rect[1] - rect[0] < 1e-8) and (rect[3] - rect[2] < 1e-8)
    if depth >= spectrum._MAX_DEPTH or tiny:
        if root is not None and spectrum._in_rect(root, rect):
            return [root]
        return []
    rm = 0.5 * (rect[0] + rect[1])
    im = 0.5 * (rect[2] + rect[3])
    quads = [(rect[0], rm, rect[2], im), (rm, rect[1], rect[2], im),
             (rect[0], rm, im, rect[3]), (rm, rect[1], im, rect[3])]
    found = []
    for quad in quads:
        found.extend(_reference_roots_in_rect(quad, lin, p, depth + 1))
    return found


def _reference_root_scan(lin, p, region=None, grid=(8, 8)):
    region = default_region(p) if region is None else region
    re0, re1, im0, im1 = region
    nr, ni = grid
    re_edges = np.linspace(re0, re1, nr + 1)
    im_edges = np.linspace(im0, im1, ni + 1)
    counts, roots = [], []
    for i in range(nr):
        for j in range(ni):
            sub = (float(re_edges[i]), float(re_edges[i + 1]),
                   float(im_edges[j]), float(im_edges[j + 1]))
            c = _reference_winding(sub, lin, p)
            counts.append((sub, c))
            if c != 0:
                roots.extend(_reference_roots_in_rect(sub, lin, p))
    polished, residuals = [], []
    for z in roots:
        res = abs(eval_Q(z, lin, p))
        if res > ROOT_RESIDUAL_TOL:
            continue
        if any(abs(z - w) <= 1e-6 * (1.0 + abs(w)) for w in polished):
            continue
        polished.append(z)
        residuals.append(res)
    rightmost = max((z.real for z in polished), default=-math.inf)
    return polished, residuals, rightmost, counts


def _benchmark_pool():
    """The spectrum_certify pool of perfbench/reference.json."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    return json.loads(path.read_text())["spectrum_certify"]["pool"]


def _parity_cases():
    rng = np.random.default_rng(31)
    p2 = derive_params(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
                       b1=3.0, b2=1.0, tau1=0.1, tau2=0.1)
    cases = [("case2", p2, {})]
    cases += [(f"stable_{i}", random_stable_params(rng), {}) for i in range(4)]
    cases += [(f"unstable_{i}", random_unstable_params(rng), {})
              for i in range(3)]
    cases += [
        ("zero_delays", derive_params(r=1, K=1, c1=1, c2=1, d1=1.5, d2=1,
                                      b1=3, b2=1, tau1=0.0, tau2=0.0),
         {"region": (-10.0, 1.0, -5.0, 5.0)}),
        ("custom_region", random_stable_params(rng, (0.2, 0.5)),
         {"region": (-6.0, 2.0, -30.0, 40.0)}),
        ("region_on_real_axis", p2, {"region": (-4.0, 1.0, 0.0, 25.0)}),
        ("grid_12x10", random_stable_params(rng), {"grid": (12, 10)}),
        # rows 0-3 mirror rows 8-5 bit for bit; row 4 straddles the axis
        ("mirror_odd_rows", p2,
         {"region": (-15.0, 1.0, -45.0, 45.0), "grid": (8, 9)}),
        # symmetric region, but of the rows below the axis only row 0's
        # linspace edges are the exact negatives of its mirror's
        ("inexact_mirror", p2, {"grid": (8, 9)}),
    ]
    return [pytest.param(p, kwargs, id=name) for name, p, kwargs in cases]


class TestRootScanParity:
    @pytest.mark.parametrize("p, kwargs", _parity_cases())
    def test_matches_reference_scan(self, p, kwargs):
        lin = linearize(p)
        report = root_scan(lin, p, **kwargs)
        roots, residuals, rightmost, counts = _reference_root_scan(
            lin, p, **kwargs)
        assert report.roots == roots
        assert report.residuals == residuals
        assert report.rightmost_real_part == rightmost
        assert report.counts == counts
        if not kwargs:
            # a real root on the im = 0 grid line of the default region
            assert any(abs(z.imag) < 1e-12 for z in roots)

    def test_real_axis_edge_jitters_after_one_sampling(self, case2_lin,
                                                       monkeypatch):
        lin, p = case2_lin
        # real root of the fish factor, off every n = 64 sample of the edge
        k = p.e2 * p.c2 * lin.y0
        lam = float(lambertw(k * p.tau2 * math.exp(p.d2 * p.tau2)).real
                    / p.tau2 - p.d2)
        rect = (lam - 0.3, lam + 0.7, 0.0, 1.0)

        # the scan samples boundaries in spectrum._phase_counts, the
        # reference in spectrum._q_vec; the grown rectangle is the first
        # boundary below the real axis
        samplings = []
        phase_counts = spectrum._phase_counts

        def counting_rects(rects, n, lin, p):
            samplings.append((np.array(rects), n))
            return phase_counts(rects, n, lin, p)

        monkeypatch.setattr(spectrum, "_phase_counts", counting_rects)
        count = spectrum._windings([rect], lin, p)[0]
        grown = next(i for i, (rects, _) in enumerate(samplings)
                     if rects[:, 2].min() < 0.0)
        rects, n = samplings[0]
        assert grown == 1 and len(rects) * 4 * n == 256

        calls = []
        q_vec = spectrum._q_vec

        def counting(z, lin, p):
            calls.append(np.asarray(z))
            return q_vec(z, lin, p)

        monkeypatch.setattr(spectrum, "_q_vec", counting)
        assert _reference_winding(rect, lin, p) == count
        grown = next(i for i, z in enumerate(calls) if z.imag.min() < 0.0)
        assert grown == 8  # n = 64, 128, ..., 8192

    def test_windings_match_reference_on_random_rectangles(self,
                                                            monkeypatch):
        # 200 rectangles over two parameter sets: free ones, ones with a
        # horizontal edge on the real axis, and ones with an edge 1e-7 to
        # 1e-3 from a root; the near ones climb to rungs whose boundary
        # takes several blocks of the sampler
        rng = np.random.default_rng(73)
        checked = 0
        walked = []  # (n, rectangles) of the multi-block rungs
        phase_counts = spectrum._phase_counts

        def recording(rects, n, lin, p):
            if 4 * n > spectrum.SAMPLE_BUDGET:
                walked.append((n, len(rects)))
            return phase_counts(rects, n, lin, p)

        for p in (random_stable_params(rng), random_unstable_params(rng)):
            lin = linearize(p)
            roots = root_scan(lin, p).roots
            rects = []
            for k in range(100):
                re0 = rng.uniform(-8.0, 0.5)
                im0 = rng.uniform(-30.0, 30.0)
                w, h = rng.uniform(0.05, 4.0, size=2)
                if k % 4 == 1:
                    im0 = 0.0 if rng.random() < 0.5 else -h
                elif k % 4 == 2:
                    z = roots[int(rng.integers(len(roots)))]
                    gap = 10.0 ** rng.uniform(-7.0, -3.0)
                    side = int(rng.integers(4))
                    re0 = (z.real + gap if side == 0 else
                           z.real - gap - w if side == 1 else
                           z.real - rng.uniform(0.0, w))
                    im0 = (z.imag + gap if side == 2 else
                           z.imag - gap - h if side == 3 else
                           z.imag - rng.uniform(0.0, h))
                rects.append((re0, re0 + w, im0, im0 + h))
            with monkeypatch.context() as patched:
                patched.setattr(spectrum, "_phase_counts", recording)
                counts = spectrum._windings(rects, lin, p)
            assert counts == [_reference_winding(r, lin, p) for r in rects]
            checked += sum(c != 0 for c in counts)
        assert checked >= 20
        assert {n for n, _ in walked} == {2048, 4096, 8192}
        assert sum(rows for n, rows in walked if n == 2048) >= 20

    @pytest.mark.parametrize("taus, grid, max_calls", [
        ((0.1, 0.1), (8, 8), 14), ((0.3, 0.05), (8, 8), 12),
        ((0.1, 0.1), (12, 10), 11),
        # pool set 182, whose ladder climbs to n = 8192
        pytest.param(None, (8, 8), 26, id="pool182")])
    def test_batched_ladder_work(self, taus, grid, max_calls, monkeypatch):
        # README rates unless taus is None; the depth-first scan with only
        # the first sampling batched made 27, 25 and 20 calls
        if taus is None:
            p = derive_params(**_benchmark_pool()[182]["params"])
        else:
            p = derive_params(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
                              b1=3.0, b2=1.0, tau1=taus[0], tau2=taus[1])
        lin = linearize(p)
        shapes, blocks = [], []
        phase_counts, q_block = spectrum._phase_counts, spectrum._q_block

        def recording(rects, n, lin, p):
            shapes.append((len(rects), n))
            return phase_counts(rects, n, lin, p)

        def recording_block(rects, n, s0, span, lin, p):
            blocks.append((len(rects), span))
            return q_block(rects, n, s0, span, lin, p)

        monkeypatch.setattr(spectrum, "_phase_counts", recording)
        monkeypatch.setattr(spectrum, "_q_block", recording_block)
        report = root_scan(lin, p, grid=grid)
        assert report.roots
        assert all(rows * span <= spectrum.SAMPLE_BUDGET
                   for rows, span in blocks), blocks
        assert len(shapes) <= max_calls, shapes
        if taus is None:
            assert max(n for _, n in shapes) == 8192


def _unblocked_phase_counts(rects, n, lin, p):
    """``_phase_counts`` on one evaluation of every boundary sample."""
    q = spectrum._q_block(rects, n, 0, 4 * n, lin, p)
    aq = np.abs(q)
    hit = aq.min(axis=1) < 1e-12 * np.maximum(np.median(aq, axis=1), 1e-300)
    for col, first in ((2, 0), (3, 2 * n)):
        seg = q[:, first:first + n + 1].real
        hit |= (rects[:, col] == 0.0) & (seg[:, :-1] * seg[:, 1:] < 0).any(
            axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dphi = np.angle(np.roll(q, -1, axis=1) / q)
    ok = ~hit & (np.abs(dphi).max(axis=1) <= 0.5 * np.pi)
    return np.rint(dphi.sum(axis=1) / (2.0 * np.pi)), hit, ok


def _seam_rects(p, lin):
    """Unit squares with a root at a seam between blocks of the sampler.

    The roots are those of the fish factor on and above the real axis;
    a is 1/8192 of an edge, the sample spacing at the top rung, where a
    boundary is walked in blocks of 4096 samples.
    """
    real, upper = (complex(lambertw(p.e2 * p.c2 * lin.y0 * p.tau2
                                    * math.exp(p.d2 * p.tau2), j))
                   / p.tau2 - p.d2 for j in (0, 1))
    x, a, gap = real.real, 1.0 / 8192, 1e-9
    return np.array([
        # just left of the first sample, below the last one: only the
        # wrap-around step is large, at every rung
        (upper.real + gap, upper.real + gap + 1.0,
         upper.imag - 0.5 * a, upper.imag - 0.5 * a + 1.0),
        # just below the bottom edge, midway between its samples 4095 and
        # 4096, where the top rung starts a new block
        (upper.real - 4095.5 * a, upper.real + 4096.5 * a,
         upper.imag + gap, upper.imag + gap + 1.0),
        # a real root on the real-axis bottom edge at that seam, and one
        # between its last sample and the corner, a seam from n = 4096 up
        (x - 4095.5 * a, x + 4096.5 * a, 0.0, 1.0),
        (x - 1.0 + 0.5 * a, x + 0.5 * a, 0.0, 1.0),
        # min |Q| below 1e-12 of the max, so the median is taken
        (-200.0, 1.0, 3.0, 4.0),
        (-200.0, 1.0, 0.0, 4.0),
    ])


class TestSampleBlocks:
    """The sampler walks a boundary in blocks and changes no result."""

    @pytest.mark.parametrize("n", [64 << k for k in range(8)])
    def test_phase_counts_match_one_unblocked_evaluation(self, case2_lin, n):
        lin, p = case2_lin
        rects = _seam_rects(p, lin)
        counts, hit, ok = spectrum._phase_counts(rects, n, lin, p)
        ref_counts, ref_hit, ref_ok = _unblocked_phase_counts(rects, n, lin, p)
        assert hit.tolist() == ref_hit.tolist()
        assert ok.tolist() == ref_ok.tolist()
        assert counts[ok].tolist() == ref_counts[ref_ok].tolist()

    def test_seams_are_sampled_where_intended(self, case2_lin):
        # the wrap-around and the across-block steps are the only ones
        # above pi/2, and the two real-axis rectangles change sign
        lin, p = case2_lin
        rects = _seam_rects(p, lin)
        n = 8192
        q = spectrum._q_block(rects, n, 0, 4 * n, lin, p)
        big = np.abs(np.angle(np.roll(q, -1, axis=1) / q)) > 0.5 * np.pi
        assert np.flatnonzero(big[0]).tolist() == [4 * n - 1]
        assert np.flatnonzero(big[1]).tolist() == [4095]
        for row, k in ((2, 4095), (3, n - 1)):
            assert q[row, k].real * q[row, k + 1].real < 0.0

    @pytest.mark.parametrize("n", [1024, 2048, 4096, 8192])
    def test_blocks_keep_every_sample_bit_for_bit(self, case2_lin,
                                                  monkeypatch, n):
        lin, p = case2_lin
        rects = _seam_rects(p, lin)[:3]
        blocks = []
        q_block = spectrum._q_block

        def recording(rects, n, s0, span, lin, p):
            q = q_block(rects, n, s0, span, lin, p)
            blocks.append((rects, s0, q))
            return q

        monkeypatch.setattr(spectrum, "_q_block", recording)
        spectrum._phase_counts(rects, n, lin, p)
        whole = q_block(rects, n, 0, 4 * n, lin, p)
        covered = np.zeros(whole.shape, dtype=int)
        for block, s0, q in blocks:
            assert q.size <= spectrum.SAMPLE_BUDGET
            rows = [np.flatnonzero((rects == rect).all(axis=1))[0]
                    for rect in block]
            part = whole[rows, s0:s0 + q.shape[1]]
            assert part.tobytes() == q.tobytes()
            covered[rows, s0:s0 + q.shape[1]] += 1
        assert (covered == 1).all()

    @pytest.mark.parametrize("rows, n", [(1, 8192), (64, 64)])
    def test_peak_stays_within_the_block_budget(self, case2_lin, rows, n):
        # twelve complex temporaries of one block (768 KiB); one call held
        # 4.2 MB (one rectangle at n = 8192) and 2.1 MB (64 at n = 64) when
        # it evaluated the whole group at once
        lin, p = case2_lin
        rects = np.array([(-3.0 + 0.01 * k, -1.0, 2.0, 5.0)
                          for k in range(rows)])
        spectrum._phase_counts(rects, n, lin, p)  # first call's imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            spectrum._phase_counts(rects, n, lin, p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 12 * 16 * spectrum.SAMPLE_BUDGET


class TestMirrorRule:
    # README set, default region (-15, 1, -50, 50) unless given
    @pytest.mark.parametrize("region, grid, scanned, below", [
        (None, (8, 8), 32, 0),
        ((-15.0, 1.0, -45.0, 45.0), (8, 9), 40, 8),
        (None, (8, 9), 64, 32)])
    def test_first_sampling_skips_mirrored_cells(self, case2_lin, monkeypatch,
                                                 region, grid, scanned, below):
        lin, p = case2_lin
        samplings = []
        phase_counts = spectrum._phase_counts

        def recording(rects, n, lin, p):
            samplings.append(np.array(rects))
            return phase_counts(rects, n, lin, p)

        monkeypatch.setattr(spectrum, "_phase_counts", recording)
        report = root_scan(lin, p, region=region, grid=grid)
        first = samplings[0]
        assert len(first) == scanned
        assert int((first[:, 2] < 0.0).sum()) == below
        assert len(report.counts) == grid[0] * grid[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_and_roots_are_mirror_images(self, seed):
        rng = np.random.default_rng(80 + seed)
        p = (random_unstable_params(rng) if seed == 2
             else random_stable_params(rng))
        lin = linearize(p)
        report = root_scan(lin, p)
        ni = 8
        for k, ((re0, re1, im0, im1), count) in enumerate(report.counts):
            i, j = divmod(k, ni)
            mirror, mirror_count = report.counts[i * ni + ni - 1 - j]
            assert mirror == (re0, re1, -im1, -im0)
            assert count == mirror_count
        # a real root may carry a tiny imaginary part; its conjugate is then
        # a duplicate within 1e-6 and dropped
        complex_roots = [z for z in report.roots if abs(z.imag) > 1e-8]
        assert complex_roots
        for z in complex_roots:
            assert z.conjugate() in report.roots
        # a root with imaginary part exactly 0 prints as +0j, as unmirrored
        assert all(math.copysign(1.0, z.imag) == 1.0
                   for z in report.roots if z.imag == 0.0)


def test_benchmark_pool_root_counts():
    # the spectrum_certify pool of perfbench/reference.json, under the
    # rules of perfbench/run.py's compare: n_roots exact, rightmost to 1e-6
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    pool = json.loads(path.read_text())["spectrum_certify"]["pool"]
    assert len(pool) == 288
    bad = []
    for k, item in enumerate(pool):
        p = derive_params(**item["params"])
        report = root_scan(linearize(p), p)
        got = (len(report.roots), report.rightmost_real_part)
        n_roots, ref = item["expected"]["n_roots"], item["expected"]["rightmost"]
        if got[0] != n_roots or (got[1] != -math.inf if ref is None else
                                 abs(got[1] - ref) > 1e-6 * abs(ref)):
            bad.append((k, got, (n_roots, ref)))
    assert not bad, bad


def _fish_factor_roots(p, lin):
    """Roots of q2(lam) = lam + d2 - k exp(-lam tau2) by Lambert W."""
    k = p.e2 * p.c2 * lin.y0
    arg = k * p.tau2 * math.exp(p.d2 * p.tau2)
    branches = math.ceil(50.0 * p.tau2 / math.pi) + 2
    return [complex(lambertw(arg, j)) / p.tau2 - p.d2
            for j in range(-branches, branches + 1)]


class TestLambertOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_fish_factor_roots_found(self, seed):
        rng = np.random.default_rng(40 + seed)
        p = (random_stable_params(rng, (0.05, 0.5)) if seed % 2 == 0
             else random_unstable_params(rng, (0.05, 0.5)))
        lin = linearize(p)
        re0, re1, im0, im1 = region = default_region(p)
        report = root_scan(lin, p)
        inside = [lam for lam in _fish_factor_roots(p, lin)
                  if re0 + 1e-3 < lam.real < re1 - 1e-3
                  and im0 + 1e-3 < lam.imag < im1 - 1e-3]
        assert inside, f"no fish-factor root inside {region}"
        for lam in inside:
            assert abs(eval_factors(lam, lin, p)[1]) <= 1e-9 * (1 + abs(lam))
            assert min(abs(lam - z) for z in report.roots) <= 1e-8


# Pool set 37 of the spectrum_certify benchmark.  Q has two real roots,
# -0.17707 and -0.16151, on the top edge (im = 0) of the grid cell
# (-1.3116, 1.0, -6.25, 0.0), both between the same two n = 64 samples.
# No sign change shows there, so the edge is not jittered, and the cell's
# winding number comes out as 1.  Fixing it changes n_roots and the
# rightmost root, which the benchmark reference pins.
POOL_37 = dict(r=1.9287688359670052, K=1.600209033360406,
               c1=0.9279710648614787, c2=1.742144305737401,
               d1=3.5985813567158553, d2=0.6354240907182847,
               b1=3.903981485947581, b2=1.6145487469748412,
               tau1=0.4141959150532158, tau2=0.0761773441234148)


@pytest.mark.xfail(strict=True, reason="two close real roots between two "
                   "samples of a real-axis edge are missed")
def test_close_real_roots_on_a_grid_edge_are_found():
    p = derive_params(**POOL_37)
    lin = linearize(p)
    root = spectrum._newton(complex(-0.1615, 0.0), lin, p)
    assert abs(root - (-0.16151)) < 1e-5 and abs(eval_Q(root, lin, p)) < 1e-15
    # the smaller region sees both roots
    small = root_scan(lin, p, region=(-1.0, 1.0, -1.0, 1.0))
    assert min(abs(root - z) for z in small.roots) <= 1e-8
    report = root_scan(lin, p)
    assert min(abs(root - z) for z in report.roots) <= 1e-8
    assert report.rightmost_real_part == pytest.approx(root.real, abs=1e-8)
