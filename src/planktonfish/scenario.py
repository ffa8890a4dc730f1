"""Scenario configuration and the classify/certify/simulate/verify pipeline.

A scenario is a YAML key/value tree; every field has a default except
``params``.  ``run_scenario`` emits the full set of audit files and maps
outcomes onto documented exit codes:

    0  all requested checks passed
    2  certificate or theorem inadmissible (reported, not an error)
    3  envelope, differential-inequality, or positivity violation
    4  input error (malformed config, invalid parameters)
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import verify
from .certificate import (CertificateOptions, LKCertificate, assemble_C,
                          build_certificate)
from .errors import CertificateError, DomainError, IntegrationError, ParameterError
from .model import ModelParams, classify_equilibria, derive_params
from .simulate import (History, check_positivity_boundedness, default_step,
                       integrate)
from .spectrum import lemma_classify
from .verify import EnvelopeReport, TheoremReport

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_VIOLATION = 3
EXIT_INPUT = 4

_REQUIRED = object()  # a history argument without a default
_HISTORY_ARGS = {  # preset -> {argument: default}; analytic: History kwargs
    "constant": {"values": _REQUIRED},
    "equilibrium_plus_constant": {"offsets": (0.0, 0.0, 0.0)},
    "equilibrium_plus_sine": {"amplitudes": _REQUIRED, "frequency": _REQUIRED,
                              "phase": 0.0},
    "tabulated": {"table": _REQUIRED},
}
# output kind -> file name, the one place either is named; ``outputs.files``
# lists kinds, and a run writes each through one gate
_OUTPUT_FILES = {
    "equilibria": "equilibria.txt", "certificate": "certificate.txt",
    "trajectory": "trajectory.csv", "verification": "verification.csv",
    "report": "report.txt"}


class ConfigError(ValueError):
    """Malformed scenario configuration; message names the field."""


@contextlib.contextmanager
def _writing():
    # an output that cannot be made or written is an input error
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


@dataclass
class Scenario:
    params: dict
    history_preset: str
    history_args: dict
    horizon: float
    step_divisor: int
    stride: int
    options: CertificateOptions
    out_dir: str
    files: tuple


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _positive_int(mapping, key, default, where) -> int:
    value = mapping.get(key, default)
    try:
        n = int(value)
        float(n)  # an int beyond float range cannot enter the step arithmetic
    except (TypeError, ValueError, OverflowError):
        n = 0
    if n < 1 or n != value:
        raise ConfigError(f"{where}.{key} must be a positive integer, "
                          f"got {value!r}")
    return n


def _number(value, where) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _check_keys(mapping, known, where):
    # the first key not in ``known``, in file order, is the one reported
    for name in mapping:
        if name not in known:
            raise ConfigError(f"unknown key {name!r} in {where}")


def _section(tree, key, known=None) -> dict:
    # an absent or empty (null) section takes every default; with ``known``
    # given, any other key in the section is an error
    value = tree.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a mapping, got {value!r}")
    if known is not None:
        _check_keys(value, known, repr(key))
    return value


def load_scenario(config_path) -> Scenario:
    """Read a scenario, its history's arguments checked and defaulted."""
    path = Path(config_path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    _check_keys(tree, ("params", "history", "horizon", "solver", "overrides",
                       "outputs"), "the top level")

    params = _require(tree, "params", "config")
    if not isinstance(params, dict):
        raise ConfigError("'params' must be a mapping of rate names to numbers")

    hist = _section(tree, "history")
    preset = hist.get("preset", "equilibrium_plus_constant")
    # ``in`` a tuple compares, where a dict lookup would hash a list preset
    if preset not in tuple(_HISTORY_ARGS):
        raise ConfigError(f"history.preset must be one of "
                          f"{tuple(_HISTORY_ARGS)}, got {preset!r}")
    args = _HISTORY_ARGS[preset]
    _check_keys(hist, ("preset", *args), "'history'")
    history_args = {k: _require(hist, k, "history") if v is _REQUIRED
                    else hist.get(k, v) for k, v in args.items()}

    solver = _section(tree, "solver", ("step_divisor", "stride"))
    overrides = _section(tree, "overrides",
                         [f.name for f in fields(CertificateOptions)])
    outputs = _section(tree, "outputs", ("dir", "files"))
    out_dir = outputs.get("dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"outputs.dir must be a string, got {out_dir!r}")
    files = outputs.get("files", tuple(_OUTPUT_FILES))
    if not isinstance(files, (list, tuple)):
        raise ConfigError(f"outputs.files must be a list of file kinds, "
                          f"got {files!r}")
    for f in files:
        if f not in tuple(_OUTPUT_FILES):  # a dict lookup hashes a list
            raise ConfigError(f"unknown output file kind {f!r}")
    return Scenario(
        params=dict(params),
        history_preset=preset,
        history_args=history_args,
        horizon=_number(tree.get("horizon", 50.0), "horizon"),
        step_divisor=_positive_int(solver, "step_divisor", 20, "solver"),
        stride=_positive_int(solver, "stride", 1, "solver"),
        options=CertificateOptions(**{
            f.name: _number(overrides.get(f.name, f.default),
                            f"overrides.{f.name}")
            for f in fields(CertificateOptions)}),
        out_dir=out_dir,
        files=tuple(files))


def build_history(scenario: Scenario, p: ModelParams) -> History:
    """The preset's ``History`` constructor on the loaded arguments."""
    args = scenario.history_args
    try:
        if scenario.history_preset == "tabulated":
            rows = np.loadtxt(args["table"], delimiter=",", skiprows=1)
            return History.tabulated(p, rows[:, 0], rows[:, 1:4])
        return getattr(History, scenario.history_preset)(p, **args)
    # ValueError covers DomainError, a non-numeric table cell (np.loadtxt)
    # and a theta column that is not strictly increasing (CubicSpline);
    # TypeError a value of the wrong type, such as ``offsets: null``, and
    # OverflowError an integer too large for a float
    except (ValueError, TypeError, OverflowError, OSError, IndexError) as exc:
        raise ConfigError(f"invalid history: {exc}") from exc


@dataclass
class RunResult:
    """What one pipeline run produced; a field is None if not reached.

    ``verdict`` is the lemma's verdict kind, or ``"inapplicable"`` when
    the lemma does not apply; it is None when the run stopped before the
    lemma.  ``error`` holds the message of an input error (exit code 4),
    whether it came before the verdict or after it.
    """
    code: int
    files: dict[str, Path]
    verdict: str | None = None
    cert: LKCertificate | None = None
    theorem: TheoremReport | None = None
    envelope: EnvelopeReport | None = None
    error: str | None = None

    def summary_row(self, value: float) -> list[str]:
        """This run's row of ``sweep_summary.csv``."""
        if self.error is not None:
            return _error_row(value, self.error)
        sigma = epsilon = q = v0 = admissible = worst = ""
        if self.cert is not None:
            sigma, epsilon, q = (f"{v:.17g}" for v in (
                self.cert.sigma, self.cert.epsilon, self.cert.q))
        if self.theorem is not None:
            v0 = f"{self.theorem.V0:.17g}"
            admissible = str(self.theorem.envelopes_valid)
        if self.envelope is not None:
            worst = f"{min(self.envelope.worst_margin):.17g}"
        return [f"{value:.17g}", self.verdict, sigma, epsilon, q, v0,
                admissible, worst, str(self.code)]


def _error_row(value: float, message) -> list[str]:
    return [f"{value:.17g}", f"error: {message}",
            "", "", "", "", "", "", str(EXIT_INPUT)]


def run_scenario(config_path, out_dir=None) -> tuple[int, dict[str, Path]]:
    """Run the full pipeline for one scenario config; returns (exit code, files)."""
    try:
        scenario = load_scenario(config_path)
        result = run_loaded_scenario(scenario, out_dir)
    except ConfigError as exc:
        print(f"input error: {exc}")
        return EXIT_INPUT, {}
    return result.code, result.files


def _text(lines):
    text = "\n".join(lines) + "\n"
    return lambda path: path.write_text(text)


def run_loaded_scenario(scenario: Scenario, out_dir=None) -> RunResult:
    """Run classify -> certify -> simulate -> verify on a loaded scenario.

    Every output passes one gate, ``emit``; every path ends in ``finish``.
    An output that cannot be made or written raises ConfigError.
    """
    out = Path(out_dir) if out_dir is not None else Path(scenario.out_dir)
    with _writing():
        out.mkdir(parents=True, exist_ok=True)
    result = RunResult(EXIT_INPUT, {})

    def emit(kind, write):
        if kind in scenario.files:
            path = out / _OUTPUT_FILES[kind]
            with _writing():
                write(path)
            result.files[kind] = path

    def finish(code, error=None):
        if error is not None:
            print(f"input error: {error}")
            result.error = str(error)
        result.code = code
        return result

    try:
        p = derive_params(**scenario.params)
        step = default_step(p, scenario.step_divisor)
    except (ParameterError, DomainError, TypeError) as exc:
        return finish(EXIT_INPUT, exc)
    if not 0.0 < scenario.horizon < math.inf:
        return finish(EXIT_INPUT, f"horizon must be positive and finite, "
                                  f"got {scenario.horizon!r}")

    eq = classify_equilibria(p)
    lines = [f"case: {eq.case_id}"]
    for label, point in eq.points:
        lines.append(f"{label}: "
                     + "  ".join(f"{v:.17g}" for v in point))
    try:
        verdict = lemma_classify(p)
        result.verdict = verdict.kind
        lines.append(f"verdict: {verdict.kind}")
        lines.append(f"witness: {verdict.witness}")
    except DomainError as exc:
        result.verdict = "inapplicable"
        lines.append(f"verdict: inapplicable ({exc})")
    emit("equilibria", _text(lines))

    cert = inadmissible = None  # why the theorem is inadmissible, if it is
    try:
        cert = result.cert = build_certificate(p, scenario.options)
        creport = assemble_C(cert)
        lines = [cert.report().rstrip(),
                 f"C positive definite on supported subspace: "
                 f"{creport.positive_definite}",
                 f"C min eigenvalue (supported): "
                 f"{creport.min_eig_supported:.17g}"]
    except (CertificateError, DomainError) as exc:
        inadmissible = f"certificate not constructed ({exc})"
        lines = [f"certificate not constructed: {exc}"]
    emit("certificate", _text(lines))

    try:
        hist = build_history(scenario, p)
    except ConfigError as exc:
        return finish(EXIT_INPUT, exc)
    # the admissibility conditions read only the initial data, so they
    # are reported even when the integration fails
    if cert is not None:
        theorem = result.theorem = verify.check_initial_conditions(
            hist, verify.extend_history(hist, p), cert, p)
        if not theorem.envelopes_valid:
            failed = [name for name, c in theorem.conditions.items()
                      if not c.passed]
            inadmissible = f"condition(s) {', '.join(failed)} failed"
    try:
        traj = integrate(p, hist, scenario.horizon, step=step)
    except (DomainError, IntegrationError) as exc:
        return finish(EXIT_INPUT, exc)
    emit("trajectory", lambda path: traj.to_csv(path, stride=scenario.stride))

    positivity = check_positivity_boundedness(traj, p)
    report_lines = [f"positivity/boundedness: "
                    f"{'PASS' if positivity.passed else 'FAIL'}",
                    f"observed suprema: "
                    + "  ".join(f"{v:.17g}" for v in positivity.observed_sup)]
    report_lines += positivity.messages
    if cert is not None:
        report_lines.append(theorem.to_text().rstrip())
    if inadmissible is not None:
        report_lines.append(f"theorem inadmissible: {inadmissible}")
        emit("report", _text(report_lines))
        return finish(EXIT_INADMISSIBLE)

    env = result.envelope = verify.check_envelope(traj, cert, theorem)
    dineq = verify.check_differential_inequality(traj, cert)
    report_lines.append(f"envelope check: {'PASS' if env.passed else 'FAIL'} "
                        f"(worst margins "
                        + "  ".join(f"{m:.17g}" for m in env.worst_margin)
                        + f", tolerance {env.tolerance:.17g})")
    report_lines.append(f"differential inequality: "
                        f"{'PASS' if dineq.passed else 'FAIL'} "
                        f"(worst slack {dineq.worst_slack:.17g}, observed "
                        f"decay ratio {dineq.observed_decay_ratio:.17g})")
    emit("report", _text(report_lines))
    emit("verification", lambda path: verify.write_verification_csv(
        path, cert, env, dineq))
    passed = positivity.passed and env.passed and dineq.passed
    return finish(EXIT_OK if passed else EXIT_VIOLATION)


def _set_scenario_value(scenario: Scenario, key: str, value: float):
    parts = key.split(".")
    if parts[0] == "params" and len(parts) == 2:
        if parts[1] not in scenario.params:
            raise ConfigError(f"unknown parameter {parts[1]!r}")
        scenario.params[parts[1]] = value
    elif parts[0] == "horizon" and len(parts) == 1:
        scenario.horizon = value
    elif parts[0] == "history" and len(parts) in (2, 3):
        args, name = scenario.history_args, parts[1]
        if name not in args:
            raise ConfigError(f"key {key!r} does not address an argument of "
                              f"history preset {scenario.history_preset!r}")
        if len(parts) == 3:
            seq, idx = args[name], parts[2]
            if (not isinstance(seq, (list, tuple)) or not idx.isdecimal()
                    or int(idx) >= len(seq)):
                raise ConfigError(f"key {key!r} does not address an element "
                                  f"of history.{name}")
            value = [*seq[:int(idx)], value, *seq[int(idx) + 1:]]
        args[name] = value
    elif parts[0] == "overrides" and len(parts) == 2:
        if parts[1] not in {f.name for f in fields(CertificateOptions)}:
            raise ConfigError(f"unknown override {parts[1]!r}")
        scenario.options = replace(scenario.options, **{parts[1]: value})
    else:
        raise ConfigError(f"key {key!r} does not address a scalar field")


def sweep(config_path, key: str, values, out_dir=None) -> tuple[int, Path]:
    """Run the scenario once per value of one scalar field; write a summary CSV.

    Each row's summary comes from its own run; nothing is recomputed.  A
    failing row is recorded and does not abort the sweep.
    """
    first = load_scenario(config_path)  # raises ConfigError on bad input
    root = Path(out_dir if out_dir is not None else first.out_dir)
    summary = root / "sweep_summary.csv"
    with _writing():
        root.mkdir(parents=True, exist_ok=True)
        fh = open(summary, "w", newline="")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "verdict", "sigma", "epsilon", "q", "V0",
                         "admissible", "worst_envelope_margin", "exit_code"])
        for i, value in enumerate(values):
            value = float(value)
            scenario = load_scenario(config_path)
            row_dir = root / f"sweep_{i:03d}"
            try:
                _set_scenario_value(scenario, key, value)
                row = run_loaded_scenario(scenario, row_dir).summary_row(value)
            except (ConfigError, DomainError) as exc:
                row = _error_row(value, exc)
            writer.writerow(row)
    return EXIT_OK, summary
