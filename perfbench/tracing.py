"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces public functions with wrappers at the names through
which the package's own modules (``scenario``, ``verify``, ``certificate``,
``cli``) and the package namespace call them.  Each call records a span
``[name, parent index, start, end, attrs]``.  Spans stay in memory; the
worker writes them out when its pass ends and :func:`summarize` turns them
into per-layer numbers.  The layer of a span is the first component of its
name, which is the module the function lives in.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

# attribute name -> span name
SPANS = {
    "derive_params": "model.derive_params",
    "classify_equilibria": "model.classify_equilibria",
    "linearize": "model.linearize",
    "lemma_classify": "spectrum.lemma_classify",
    "root_scan": "spectrum.root_scan",
    "build_certificate": "certificate.build",
    "choose_rates": "certificate.choose_rates",
    "assemble_C": "certificate.assemble_C",
    "eval_K": "certificate.eval_K",
    "check_generic_certificate": "certificate.check_generic",
    "sym_eigen": "symmat.sym_eigen",
    "is_positive_definite": "symmat.is_positive_definite",
    "inv_sqrt": "symmat.inv_sqrt",
    "integrate": "simulate.integrate",
    "check_positivity_boundedness": "simulate.positivity",
    "extend_history": "verify.extend_history",
    "check_initial_conditions": "verify.initial_conditions",
    "eval_V0": "verify.eval_V0",
    "eval_V_along": "verify.eval_V_along",
    "check_envelope": "verify.envelope",
    "check_differential_inequality": "verify.diff_ineq",
    "write_verification_csv": "verify.verification_csv",
    "load_scenario": "scenario.load",
    "run_scenario": "scenario.run",
    "run_loaded_scenario": "scenario.run",
    "build_history": "scenario.build_history",
    "sweep": "scenario.sweep",
    "main": "cli.main",
}
CALLER_MODULES = ("scenario", "verify", "certificate", "cli")
HISTORY_PRESETS = ("constant", "equilibrium_plus_constant",
                   "equilibrium_plus_sine", "tabulated")
ROOT_SPAN = "bench.op"  # one per timed operation, opened by the worker


def _integrate_attrs(args, kwargs, traj):
    return {"steps": traj.states.shape[0] - 1}


def _to_csv_attrs(args, kwargs, _):
    traj = args[0]
    path = args[1] if len(args) > 1 else kwargs["path"]
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
    return {"rows": len(range(0, traj.states.shape[0], stride)),
            "bytes": os.path.getsize(path)}


def _root_scan_attrs(args, kwargs, report):
    return {"roots": len(report.roots)}


_ATTRS = {"simulate.integrate": _integrate_attrs,
          "simulate.to_csv": _to_csv_attrs,
          "spectrum.root_scan": _root_scan_attrs}


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _enter(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        rec = [name, parent, perf_counter(), None, None]
        self.spans.append(rec)
        return rec

    def _exit(self, rec):
        rec[3] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def wrap(self, name, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[4] = {"failures": 1}
                raise
            finally:
                self._exit(rec)
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the traced functions of ``package``; returns an undo function."""
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        prefix = package.__name__ + "."
        modules = [package] + [importlib.import_module(prefix + name)
                               for name in CALLER_MODULES]
        for module in modules:
            for attr, name in SPANS.items():
                fn = module.__dict__.get(attr)
                if (callable(fn) and not isinstance(fn, type)
                        and fn.__module__.startswith(prefix)):
                    patch(module, attr, self.wrap(name, fn))
        simulate = importlib.import_module(prefix + "simulate")
        for preset in HISTORY_PRESETS:
            fn = simulate.History.__dict__[preset].__func__
            patch(simulate.History, preset,
                  classmethod(self.wrap("simulate.history", fn)))
        patch(simulate.Trajectory, "to_csv",
              self.wrap("simulate.to_csv",
                        simulate.Trajectory.__dict__["to_csv"]))

        def restore():
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

        return restore


def summarize(spans, rows=None) -> dict:
    """Per-layer totals of one traced pass.

    Returns, for every span name and every layer, ``<key>.self_s`` (span
    duration minus the time its child spans cover) and ``<key>.calls``,
    plus the sums of span attributes (``simulate.integrate.steps`` ...).
    ``rows`` is a list of ``(start, admissible)`` per sweep row, in time
    order; with it the integrate calls are attributed to rows.  Raises
    ``ValueError`` unless every span lies inside its parent, siblings do
    not overlap and every top-level span is an operation: then the self
    times within an operation add up to its traced wall time.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for i, (name, parent, t0, t1, attrs) in enumerate(spans):
        self_s = t1 - t0 - child[i]
        outer = spans[parent] if parent >= 0 else None
        if (self_s < -1e-9 or (outer is None and name != ROOT_SPAN)
                or (outer is not None and not outer[2] <= t0 <= t1 <= outer[3])):
            raise ValueError(f"span {i} ({name}) overlaps its parent or "
                             f"siblings, or lies outside an operation")
        layer = name.split(".", 1)[0]
        for key in (layer, name):
            out[f"{key}.self_s"] += self_s
            out[f"{key}.calls"] += 1
        for key, value in (attrs or {}).items():
            out[f"{name}.{key}"] += value

    def inside(i, name):
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][1]
        return False

    integrate = [i for i, s in enumerate(spans) if s[0] == "simulate.integrate"]
    out["scenario.sweep.redundant_integrate_s"] = sum(
        spans[i][3] - spans[i][2] for i in integrate
        if not inside(i, "scenario.run"))
    steps = out["simulate.integrate.steps"]
    out["simulate.integrate.us_per_step"] = (
        1e6 * out["simulate.integrate.self_s"] / steps if steps else 0.0)
    if rows:
        starts = [start for start, _ in rows]
        per_row = [0] * len(rows)
        for i in integrate:
            k = bisect.bisect_right(starts, spans[i][2]) - 1
            if k >= 0 and inside(i, "scenario.sweep"):
                per_row[k] += 1
        out["scenario.sweep.rows"] = len(rows)
        out["scenario.sweep.integrate_per_row"] = sum(per_row) / len(rows)
        for label, flag in (("admissible", True), ("inadmissible", False)):
            counts = [c for c, (_, adm) in zip(per_row, rows)
                      if bool(adm) is flag]
            out[f"scenario.sweep.integrate_per_{label}_row"] = (
                sum(counts) / len(counts) if counts else 0.0)
        out["scenario.sweep.integrate_by_row"] = per_row
    return dict(out)
