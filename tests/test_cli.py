import csv
import inspect
import math
import re
import warnings

import numpy as np
import pytest
import yaml

from planktonfish import scenario as scenario_mod
from planktonfish import simulate, verify
from planktonfish.certificate import build_certificate
from planktonfish.cli import main
from planktonfish.errors import (CertificateError, DomainError,
                                 IntegrationError, ParameterError)
from planktonfish.model import derive_params
from planktonfish.scenario import (_HISTORY_ARGS, EXIT_INADMISSIBLE,
                                   EXIT_INPUT, EXIT_OK, EXIT_VIOLATION,
                                   ConfigError, _set_scenario_value,
                                   build_history, load_scenario,
                                   run_loaded_scenario, run_scenario, sweep)
from planktonfish.simulate import History, default_step, integrate
from planktonfish.spectrum import lemma_classify

CASE2 = dict(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
             b1=3.0, b2=1.0, tau1=0.1, tau2=0.1)


def _write_config(path, tree):
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def _data_rows(summary):
    return list(csv.reader(summary.read_text().splitlines()))[1:]


@pytest.fixture
def small_config(tmp_path):
    # offsets small enough that all admissibility conditions pass
    tree = {
        "params": CASE2,
        "history": {"preset": "equilibrium_plus_constant",
                    "offsets": [1e-5, 5e-6, 1e-5]},
        "horizon": 10.0,
        "outputs": {"dir": str(tmp_path / "out")},
    }
    return _write_config(tmp_path / "scenario.yaml", tree)


class TestLoadScenario:
    def test_defaults(self, tmp_path):
        cfg = _write_config(tmp_path / "c.yaml", {"params": CASE2})
        scenario = load_scenario(cfg)
        assert scenario.horizon == 50.0
        assert scenario.history_preset == "equilibrium_plus_constant"
        assert scenario.step_divisor == 20

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _write_config(tmp_path / "c.yaml",
                            {"params": CASE2, "horizn": 10})
        with pytest.raises(ConfigError, match="horizn"):
            load_scenario(cfg)

    def test_missing_params_rejected(self, tmp_path):
        cfg = _write_config(tmp_path / "c.yaml", {"horizon": 10})
        with pytest.raises(ConfigError, match="params"):
            load_scenario(cfg)

    def test_bad_preset_rejected(self, tmp_path):
        cfg = _write_config(tmp_path / "c.yaml",
                            {"params": CASE2,
                             "history": {"preset": "nope"}})
        with pytest.raises(ConfigError, match="preset"):
            load_scenario(cfg)

    def test_missing_history_argument_rejected(self, tmp_path):
        cfg = _write_config(tmp_path / "c.yaml",
                            {"params": CASE2,
                             "history": {"preset": "constant"}})
        with pytest.raises(ConfigError,
                           match="^missing key 'values' in history$"):
            load_scenario(cfg)

    def test_history_defaults_filled_in(self, tmp_path):
        cfg = _write_config(tmp_path / "c.yaml",
                            {"params": CASE2,
                             "history": {"preset": "equilibrium_plus_sine",
                                         "amplitudes": [1e-5, 0.0, 0.0],
                                         "frequency": 2.0}})
        assert load_scenario(cfg).history_args == {
            "amplitudes": [1e-5, 0.0, 0.0], "frequency": 2.0, "phase": 0.0}

    @pytest.mark.parametrize("preset", ["constant",
                                        "equilibrium_plus_constant",
                                        "equilibrium_plus_sine"])
    def test_history_args_are_the_constructor_keywords(self, preset):
        # build_history passes the table's names as keywords
        params = list(inspect.signature(getattr(History, preset)).parameters)
        assert params[0] == "p"
        assert list(_HISTORY_ARGS[preset]) == params[1:]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("field", ["step_divisor", "stride"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, "x"])
    def test_solver_fields_must_be_positive_integers(self, tmp_path, field,
                                                     value):
        cfg = _write_config(tmp_path / "c.yaml",
                            {"params": CASE2, "solver": {field: value}})
        with pytest.raises(ConfigError, match=f"solver.{field}"):
            load_scenario(cfg)


class TestRunScenario:
    def test_admissible_run_emits_all_files(self, small_config, tmp_path):
        code, files = run_scenario(small_config)
        assert code == EXIT_OK
        assert set(files) == {"equilibria", "certificate", "trajectory",
                              "verification", "report"}
        report = files["report"].read_text()
        assert "envelope check: PASS" in report
        assert re.search(r"^differential inequality: PASS \(worst slack \S+, "
                         r"observed decay ratio \S+\)$", report, re.M)
        eq = files["equilibria"].read_text()
        assert "case: 2" in eq and "AsymptoticallyStable" in eq
        cert = files["certificate"].read_text()
        assert "sigma = " in cert and "positive definite" in cert

    @pytest.mark.parametrize("offsets, passes", [([1e-5, 5e-6, 1e-5], 1),
                                                 ([0.2, 0.2, 0.2], 0)])
    def test_one_V_pass_over_the_check_times(self, tmp_path, monkeypatch,
                                             offsets, passes):
        # the checks and verification.csv share V; an inadmissible run
        # evaluates V only at t = 0
        sizes, functional = [], verify._functional

        def counting(lookup, cert, ts):
            sizes.append(ts.size)
            return functional(lookup, cert, ts)

        monkeypatch.setattr(verify, "_functional", counting)
        tree = {"params": CASE2,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": offsets},
                "horizon": 5.0}
        scenario = load_scenario(_write_config(tmp_path / "c.yaml", tree))
        result = run_loaded_scenario(scenario, tmp_path / "out")
        assert result.code == (EXIT_OK if passes else EXIT_INADMISSIBLE)
        assert sizes.count(verify.CHECK_TIMES) == passes
        assert len(sizes) == passes + 1  # and V0

    def test_trajectory_csv_is_reproducible(self, small_config, tmp_path):
        _, files_a = run_scenario(small_config, out_dir=tmp_path / "a")
        _, files_b = run_scenario(small_config, out_dir=tmp_path / "b")
        assert (files_a["trajectory"].read_bytes()
                == files_b["trajectory"].read_bytes())
        assert (files_a["verification"].read_bytes()
                == files_b["verification"].read_bytes())

    def test_inadmissible_history_exit_code(self, tmp_path):
        tree = {
            "params": CASE2,
            "history": {"preset": "equilibrium_plus_constant",
                        "offsets": [0.2, 0.2, 0.2]},
            "horizon": 5.0,
            "outputs": {"dir": str(tmp_path / "out")},
        }
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, files = run_scenario(cfg)
        assert code == EXIT_INADMISSIBLE
        assert "theorem inadmissible" in files["report"].read_text()

    def test_history_dip_between_grid_points_is_input_error(self, tmp_path,
                                                            capsys):
        # 2 pi * 25600: a uniform 257-point grid on a 0.1 window steps 10
        # periods at a time and sees only psi = y0 = 0.447, but psi dips
        # to y0 - 0.9 < 0
        tree = {"params": CASE2, "horizon": 1.0,
                "history": {"preset": "equilibrium_plus_sine",
                            "amplitudes": [0.0, 0.9, 0.0], "phase": 0.0,
                            "frequency": 160849.54386379741},
                "outputs": {"dir": str(tmp_path / "out")}}
        code, files = run_scenario(_write_config(tmp_path / "c.yaml", tree))
        assert code == EXIT_INPUT and "trajectory" not in files
        assert re.search(r"component 1 has minimum -0\.452585\d* .* finite "
                         r"and non-negative", capsys.readouterr().out)

    @pytest.mark.xfail(strict=True, reason="V0 is a 128-subinterval Simpson "
                       "sum, and at 2 pi * 1280 every node of the phi window "
                       "sits on a zero of the sine")
    def test_history_resonant_with_the_V0_quadrature_is_inadmissible(
            self, tmp_path):
        # the node spacing tau/128 is one period, so every Simpson node
        # sees x = x0 and V0 reads about 1e-30; the true V0 breaks (47)
        tree = {"params": CASE2, "horizon": 50.0,
                "history": {"preset": "equilibrium_plus_sine",
                            "amplitudes": [0.05, 0.0, 0.0], "phase": 0.0,
                            "frequency": 8042.47719318987},
                "outputs": {"dir": str(tmp_path / "out"),
                            "files": ["report"]}}
        code, _ = run_scenario(_write_config(tmp_path / "c.yaml", tree))
        assert code == EXIT_INADMISSIBLE

    def test_unstable_params_inadmissible(self, tmp_path):
        params = dict(CASE2, r=2.0, b2=2.0, d1=1.0)
        tree = {"params": params, "horizon": 5.0,
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, files = run_scenario(cfg)
        assert code == EXIT_INADMISSIBLE
        assert "certificate not constructed" in \
            files["certificate"].read_text()

    def test_malformed_config_exit_code(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("params: [not, a, mapping]\n")
        code, _ = run_scenario(str(cfg))
        assert code == EXIT_INPUT

    def test_invalid_parameter_exit_code(self, tmp_path):
        tree = {"params": dict(CASE2, r=-1.0),
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, _ = run_scenario(cfg)
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("field", ["step_divisor", "stride"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_solver_field_is_input_error(self, tmp_path, capsys,
                                                      field, value):
        tree = {"params": CASE2, "horizon": 1.0, "solver": {field: value},
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_INPUT
        assert capsys.readouterr().out.startswith(
            f"input error: solver.{field} must be a positive integer")

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"),
                                         float("inf")])
    def test_horizon_below_four_steps_is_input_error(self, tmp_path, capsys,
                                                     horizon):
        tree = {"params": CASE2, "horizon": horizon,
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_INPUT
        assert capsys.readouterr().out == (
            f"input error: horizon must be positive and finite, "
            f"got {horizon!r}\n")
        assert not any((tmp_path / "out").iterdir())

    # 2e303 and 1e23 steps: more than numpy can shape, so nothing is allocated
    @pytest.mark.parametrize("extra, steps", [
        ({"horizon": 1e300}, "2e+303 steps of size 0.0005"),
        ({"horizon": 1.0, "solver": {"step_divisor": 10 ** 21}},
         "1e+23 steps of size 1e-23"),
    ])
    def test_unstorable_step_count_is_input_error(self, tmp_path, capsys,
                                                  extra, steps):
        tree = {"params": CASE2, "outputs": {"dir": str(tmp_path / "out")},
                **extra}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"input error: {steps} cannot be stored" in captured.out
        assert "Traceback" not in captured.out + captured.err

    # CASE2 has step 0.0005: a fifth of a step up to four steps; the zero
    # offsets start at the equilibrium, where V is rounding noise
    @pytest.mark.parametrize("offsets", [[1e-5, 5e-6, 1e-5], [0.0, 0.0, 0.0]],
                             ids=["readme", "zero"])
    @pytest.mark.parametrize("horizon", [0.0001, 0.001, 0.0019999, 0.002])
    def test_short_horizon_runs(self, tmp_path, horizon, offsets):
        tree = {"params": CASE2, "horizon": horizon,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": offsets},
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_OK
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "differential inequality: PASS" in report

    # a horizon below one step runs one step of its length; at 5e-324 the
    # step is too short for tau = 0.1 (delay / step overflows)
    @pytest.mark.parametrize("horizon, code", [(1e-16, EXIT_OK),
                                               (1e-300, EXIT_OK),
                                               (5e-324, EXIT_INPUT)])
    def test_horizon_below_one_step(self, tmp_path, capsys, horizon, code):
        tree = {"params": CASE2, "horizon": horizon,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": [1e-5, 5e-6, 1e-5]},
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if code == EXIT_OK:
            report = (tmp_path / "out" / "report.txt").read_text()
            assert "envelope check: PASS" in report
            assert "differential inequality: PASS" in report
        else:
            assert captured.out == ("input error: step 5e-324 is too short "
                                    "for the delay 0.1 (delay / step "
                                    "overflows)\n")

    # a repeated theta (CubicSpline) and a non-numeric cell (np.loadtxt)
    @pytest.mark.parametrize("bad_row", ["-0.1,0.5,0.3,0.1",
                                         "-0.05,0.5,abc,0.1"])
    def test_bad_history_table_is_input_error(self, tmp_path, capsys,
                                              bad_row):
        table = tmp_path / "history.csv"
        table.write_text("theta,x,y,z\n-0.2,0.5,0.3,0.1\n-0.1,0.5,0.3,0.1\n"
                         f"{bad_row}\n0.0,0.5,0.3,0.1\n")
        tree = {"params": CASE2, "horizon": 1.0,
                "history": {"preset": "tabulated", "table": str(table)},
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out.startswith("input error: invalid history: ")
        assert "Traceback" not in captured.out + captured.err

    def test_non_numeric_history_offset_is_input_error(self, tmp_path, capsys):
        tree = {"params": CASE2, "horizon": 1.0,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": ["abc", 0.0, 0.0]},
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_INPUT
        assert capsys.readouterr().out == (
            "input error: invalid history: could not convert string to "
            "float: 'abc'\n")

    # an infinite frequency holds a full period in every window, so the
    # range check once passed while every row was nan
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, message", [
        ({"frequency": math.inf}, "frequency must be finite, got inf"),
        ({"frequency": 1.0, "phase": math.nan}, "phase must be finite, got nan"),
    ], ids=["inf_frequency", "nan_phase"])
    def test_non_finite_sine_argument_is_input_error(self, tmp_path, capsys,
                                                     args, message):
        tree = {"params": CASE2, "horizon": 1.0,
                "history": {"preset": "equilibrium_plus_sine",
                            "amplitudes": [1e-5, 0.0, 0.0], **args},
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == f"input error: invalid history: {message}\n"
        assert captured.err == ""

    def test_rate_in_exponent_form_is_a_number(self, tmp_path):
        # PyYAML reads 1e-1 (no dot) as the string '1e-1'
        assert yaml.safe_load("tau2: 1e-1") == {"tau2": "1e-1"}
        written = []
        for tau2 in ("0.1", "1e-1"):
            params = ", ".join(f"{k}: {v}" for k, v in
                               dict(CASE2, tau2=tau2).items())
            cfg = tmp_path / f"{tau2}.yaml"
            cfg.write_text(f"params: {{{params}}}\nhorizon: 1.0\n"
                           "history: {offsets: [1.0e-5, 5.0e-6, 1.0e-5]}\n")
            out = tmp_path / f"out_{tau2}"
            assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(written[0]) == 5 and written[0] == written[1]

    @pytest.mark.parametrize("tree, message", [
        ({"params": dict(CASE2, tau2="abc")},
         "parameter 'tau2' must be a finite number >= 0, got 'abc'"),
        ({"params": CASE2, "horizon": "abc"},
         "horizon must be a number, got 'abc'"),
        ({"params": CASE2, "overrides": {"m_fraction": "abc"}},
         "overrides.m_fraction must be a number, got 'abc'"),
    ], ids=["params", "horizon", "overrides"])
    def test_non_number_names_its_key(self, tmp_path, capsys, tree, message):
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().out == f"input error: {message}\n"

    @pytest.mark.parametrize("section, value, message", [
        ("outputs", [1, 2], "'outputs' must be a mapping, got [1, 2]"),
        ("solver", [1], "'solver' must be a mapping, got [1]"),
        ("history", [1], "'history' must be a mapping, got [1]"),
        ("overrides", [1], "'overrides' must be a mapping, got [1]"),
        ("outputs", {"files": 5},
         "outputs.files must be a list of file kinds, got 5"),
    ])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_mapping_section_is_input_error(self, tmp_path, capsys,
                                                command, section, value,
                                                message):
        tree = {"params": CASE2, "horizon": 1.0, section: value}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        out = tmp_path / "out"
        argv = [command, cfg, "--out", str(out)]
        if command == "sweep":
            argv += ["--key", "params.d1", "--values", "1.5"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().out == f"input error: {message}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("section, key", [
        ("solver", "step_divisr"), ("overrides", "mu_fractoin"),
        ("outputs", "fils"), ("solver", 3), (None, 3), (None, "horizn")])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unknown_section_key_is_input_error(self, tmp_path, capsys,
                                                command, section, key):
        # section None puts the key at the top level, followed by a second
        # unknown key of another type; the first one in the file is named
        tree = {"params": CASE2, "horizon": 1.0,
                section: {"stride": 1} if section == "solver" else {}}
        if section is None:
            del tree[None]
            tree[key] = 5
            tree["zzz" if key == 3 else 4] = 5
        else:
            tree[section][key] = 5
        cfg = _write_config(tmp_path / "c.yaml", tree)
        out = tmp_path / "out"
        argv = [command, cfg, "--out", str(out)]
        if command == "sweep":
            argv += ["--key", "params.d1", "--values", "1.5"]
        assert main(argv) == EXIT_INPUT
        where = "the top level" if section is None else repr(section)
        assert capsys.readouterr().out == (
            f"input error: unknown key {key!r} in {where}\n")
        assert not out.exists() or not any(out.iterdir())

    def test_mistyped_history_key_is_input_error(self, tmp_path, capsys):
        tree = {"params": CASE2, "horizon": 1.0,
                "history": {"preset": "equilibrium_plus_constant",
                            "ofsets": [0.5, 0.0, 0.0]}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out) == (EXIT_INPUT, {})
        assert capsys.readouterr().out == (
            "input error: unknown key 'ofsets' in 'history'\n")
        assert not out.exists()

    def test_violated_envelope_exits_3(self, tmp_path, monkeypatch):
        # the README scenario against envelopes half as wide as predicted
        envelope = verify.predicted_envelope
        monkeypatch.setattr(verify, "predicted_envelope",
                            lambda cert, V0, t: tuple(
                                0.5 * b for b in envelope(cert, V0, t)))
        tree = {"params": CASE2,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": [1e-5, 5e-6, 1e-5]},
                "horizon": 5.0}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, files = run_scenario(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_VIOLATION
        assert "envelope check: FAIL" in files["report"].read_text()

    def test_positivity_violation_exits_3(self, tmp_path, monkeypatch):
        # the README scenario with a negative positivity tolerance, which
        # every non-negative trajectory violates
        monkeypatch.setattr(simulate, "POSITIVITY_TOL", -1.0)
        tree = {"params": CASE2,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": [1e-5, 5e-6, 1e-5]},
                "horizon": 5.0}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, files = run_scenario(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_VIOLATION
        report = files["report"].read_text()
        assert "positivity/boundedness: FAIL" in report
        assert "envelope check: PASS" in report

    def test_boundary_mortality_is_inapplicable(self, tmp_path):
        # d1 = e1*c1*K exactly: the plankton-only point does not exist
        tree = {"params": dict(CASE2, d1=3.0 * math.exp(-0.1)),
                "history": {"preset": "constant", "values": [0.5, 0.2, 0.1]},
                "horizon": 1.0}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_INADMISSIBLE
        text = (out / "equilibria.txt").read_text()
        assert text.startswith("case: 1\n")
        assert ("verdict: inapplicable (plankton-only point requires d1 < "
                "e1*c1*K (") in text
        assert "gap" not in text

    def test_boundary_mortality_has_no_preset_history(self, tmp_path,
                                                      capsys):
        tree = {"params": dict(CASE2, d1=3.0 * math.exp(-0.1)),
                "horizon": 1.0, "outputs": {"dir": str(tmp_path / "out")}}
        assert main(["run", _write_config(tmp_path / "c.yaml", tree)]) \
            == EXIT_INPUT
        assert capsys.readouterr().out.startswith(
            "input error: invalid history: plankton-only point requires "
            "d1 < e1*c1*K")

    @pytest.mark.parametrize("rate", ["c2", "b2"])
    def test_set_without_fish_uptake_is_not_certified(self, tmp_path, rate):
        params = dict(CASE2, **{rate: 0.0})
        assert lemma_classify(derive_params(**params)).kind == \
            "AsymptoticallyStable"
        cfg = _write_config(tmp_path / "c.yaml",
                            {"params": params, "horizon": 1.0})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_INADMISSIBLE
        assert (out / "certificate.txt").read_text() == (
            "certificate not constructed: certificate inapplicable: "
            "e2*c2 = 0\n")

    def test_set_the_lemma_calls_unstable_is_not_certified(self, tmp_path):
        # d2 one ulp above e2*c2*y0: the lemma calls the set Unstable
        params = dict(CASE2, d2=0.4048374180359596)
        assert lemma_classify(derive_params(**params)).kind == "Unstable"
        cfg = _write_config(tmp_path / "c.yaml",
                            {"params": params, "horizon": 1.0})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_INADMISSIBLE
        assert (out / "certificate.txt").read_text().startswith(
            "certificate not constructed: certificate inapplicable: verdict "
            "Unstable")

    def test_sweep_loads_the_scenario_once_per_row(self, small_config,
                                                   tmp_path, monkeypatch):
        calls = []
        load = scenario_mod.load_scenario
        monkeypatch.setattr(scenario_mod, "load_scenario",
                            lambda path: calls.append(path) or load(path))
        argv = ["sweep", small_config, "--key", "horizon",
                "--values", "0.5,0.6,0.7", "--out", str(tmp_path / "sw")]
        assert main(argv) == EXIT_OK
        assert calls == [small_config] * 4

    @pytest.mark.parametrize("key", ["params.r", "horizon", "history.offsets",
                                     "solver.step_divisor", "overrides.alpha"])
    def test_integer_beyond_float_range_is_input_error(self, tmp_path, capsys,
                                                       key):
        tree = {"params": dict(CASE2), "horizon": 1.0,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": [0.0, 0.0, 0.0]},
                "solver": {}, "overrides": {}}
        *parents, name = key.split(".")
        node = tree
        for part in parents:
            node = node[part]
        huge = 10 ** 400
        node[name] = [huge, 0, 0] if name == "offsets" else huge
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().out.startswith("input error: ")

    @pytest.mark.parametrize("factor", [".nan", ".inf", "-1.0", "0.0"])
    def test_bad_h33_factor_is_inadmissible(self, tmp_path, factor):
        # rejected as alpha is, before det L or H^(-1/2) see it
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump({"params": CASE2, "horizon": 1.0})
                       + f"overrides: {{h33_factor: {factor}}}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(out)]) == EXIT_INADMISSIBLE
        assert ("certificate not constructed (h33_factor must be positive "
                "and finite)") in (out / "report.txt").read_text()

    def test_output_selection(self, tmp_path):
        tree = {
            "params": CASE2,
            "history": {"preset": "equilibrium_plus_constant",
                        "offsets": [1e-5, 5e-6, 1e-5]},
            "horizon": 5.0,
            "outputs": {"dir": str(tmp_path / "out"),
                        "files": ["equilibria", "report"]},
        }
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, files = run_scenario(cfg)
        assert code == EXIT_OK
        assert set(files) == {"equilibria", "report"}


FILE_NAMES = {"equilibria": "equilibria.txt", "certificate": "certificate.txt",
              "trajectory": "trajectory.csv",
              "verification": "verification.csv", "report": "report.txt"}
NOT_VERIFICATION = ("equilibria", "certificate", "trajectory", "report")
# exit path -> (scenario changes, exit code, the files the path writes)
EXIT_PATHS = {
    "checks pass": ({}, EXIT_OK, tuple(FILE_NAMES)),
    "envelope halved": ({}, EXIT_VIOLATION, tuple(FILE_NAMES)),
    "no certificate": ({"params": dict(CASE2, d1=0.5)}, EXIT_INADMISSIBLE,
                       NOT_VERIFICATION),
    "condition fails": ({"history": {"preset": "equilibrium_plus_constant",
                                     "offsets": [0.3, 0.2, 0.2]}},
                        EXIT_INADMISSIBLE, NOT_VERIFICATION),
    "history": ({"history": {"preset": "equilibrium_plus_constant",
                             "offsets": [-5.0, 0.0, 0.0]}},
                EXIT_INPUT, ("equilibria", "certificate")),
    "integration": ({"history": {"preset": "equilibrium_plus_constant",
                                 "offsets": [1e200, 0.0, 0.0]}},
                    EXIT_INPUT, ("equilibria", "certificate")),
    "parameters": ({"params": dict(CASE2, r=-1.0)}, EXIT_INPUT, ()),
    "horizon": ({"horizon": 0.0}, EXIT_INPUT, ()),
}


class TestOutputGate:
    @pytest.mark.parametrize("files", [
        tuple(FILE_NAMES), (), ("report", "verification"),
        ("equilibria", "trajectory")], ids=lambda files: ",".join(files))
    @pytest.mark.parametrize("exit_path", list(EXIT_PATHS))
    def test_files_on_each_exit_path(self, tmp_path, monkeypatch, exit_path,
                                     files):
        # the directory holds exactly the files that the exit path writes
        # and the scenario asks for, and RunResult.files names them
        changes, code, written = EXIT_PATHS[exit_path]
        if exit_path == "envelope halved":
            envelope = verify.predicted_envelope
            monkeypatch.setattr(verify, "predicted_envelope",
                                lambda cert, V0, t: tuple(
                                    0.5 * b for b in envelope(cert, V0, t)))
        tree = {"params": CASE2,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": [1e-5, 5e-6, 1e-5]},
                "horizon": 1.0, **changes,
                "outputs": {"files": list(files)}}
        scenario = load_scenario(_write_config(tmp_path / "c.yaml", tree))
        out = tmp_path / "out"
        result = run_loaded_scenario(scenario, out)
        expected = [kind for kind in written if kind in files]
        assert result.code == code
        assert (sorted(path.name for path in out.iterdir())
                == sorted(FILE_NAMES[kind] for kind in expected))
        assert result.files == {kind: out / FILE_NAMES[kind]
                                for kind in expected}


class TestUnwritableOutput:
    """An output that cannot be made or written is an input error."""

    @pytest.fixture
    def config(self, tmp_path):
        tree = {"params": CASE2,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": [1e-5, 5e-6, 1e-5]},
                "horizon": 1.0}
        return _write_config(tmp_path / "c.yaml", tree)

    @staticmethod
    def _input_error(capsys, path):
        out, err = capsys.readouterr()
        assert out.startswith("input error: cannot write output: ")
        assert str(path) in out
        assert "Traceback" not in out + err

    def test_output_dir_under_a_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        tree = {"params": CASE2, "horizon": 1.0,
                "outputs": {"dir": str(tmp_path / "f" / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_INPUT
        self._input_error(capsys, tmp_path / "f" / "out")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_is_a_file(self, config, tmp_path, capsys, command):
        out = tmp_path / "f"
        out.write_text("")
        argv = [command, config, "--out", str(out)]
        if command == "sweep":
            argv += ["--key", "horizon", "--values", "1"]
        assert main(argv) == EXIT_INPUT
        self._input_error(capsys, out)

    @pytest.mark.parametrize("name", ["trajectory.csv", "report.txt"])
    def test_directory_in_place_of_an_output(self, config, tmp_path, capsys,
                                             name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["run", config, "--out", str(out)]) == EXIT_INPUT
        self._input_error(capsys, out / name)

    def test_sweep_row_that_cannot_be_written(self, config, tmp_path):
        root = tmp_path / "sw"
        root.mkdir()
        (root / "sweep_000").write_text("")
        assert main(["sweep", config, "--key", "horizon", "--values", "1,2",
                     "--out", str(root)]) == EXIT_OK
        rows = _data_rows(root / "sweep_summary.csv")
        assert rows[0][1].startswith("error: cannot write output: ")
        assert [row[8] for row in rows] == [str(EXIT_INPUT), str(EXIT_OK)]

    def test_sweep_summary_that_cannot_be_opened(self, config, tmp_path,
                                                 capsys):
        summary = tmp_path / "sw" / "sweep_summary.csv"
        summary.mkdir(parents=True)
        assert main(["sweep", config, "--key", "horizon", "--values", "1",
                     "--out", str(tmp_path / "sw")]) == EXIT_INPUT
        self._input_error(capsys, summary)


class TestSweep:
    def test_mortality_sweep_flips_verdict(self, tmp_path):
        tree = {
            "params": CASE2,
            "history": {"preset": "equilibrium_plus_constant",
                        "offsets": [1e-5, 5e-6, 1e-5]},
            "horizon": 5.0,
            "outputs": {"dir": str(tmp_path / "out")},
        }
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, summary = sweep(cfg, "params.d1", [0.5, 1.5, 5.0])
        assert code == EXIT_OK
        rows = summary.read_text().splitlines()
        assert rows[0].startswith("value,verdict,sigma")
        assert len(rows) == 4
        assert "DelayDependent" in rows[1]
        assert "AsymptoticallyStable" in rows[2]
        # the plankton-only point is gone, and with it the preset history
        assert rows[3].startswith("5,error: invalid history: plankton-only "
                                  "point requires d1 < e1*c1*K")
        assert rows[3].endswith(f",,,,,,,{EXIT_INPUT}")

    def test_inapplicable_row_keeps_its_verdict(self, tmp_path):
        tree = {"params": CASE2,
                "history": {"preset": "constant", "values": [0.5, 0.2, 0.1]},
                "horizon": 3.0,
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        _, summary = sweep(cfg, "params.d1", [5.0])
        assert _data_rows(summary) == [
            ["5", "inapplicable", "", "", "", "", "", "",
             str(EXIT_INADMISSIBLE)]]

    def test_unknown_key_recorded_as_row_error(self, tmp_path):
        tree = {"params": CASE2, "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, summary = sweep(cfg, "params.bogus", [1.0])
        assert code == EXIT_OK
        assert "error" in summary.read_text().splitlines()[1]

    @pytest.mark.parametrize("params", [dict(CASE2, bogus=1.0),
                                        {k: v for k, v in CASE2.items()
                                         if k != "r"}])
    def test_bad_parameter_names_recorded_as_row_errors(self, tmp_path,
                                                        params):
        tree = {"params": params, "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, summary = sweep(cfg, "params.d1", [1.5, 2.0])
        assert code == EXIT_OK
        rows = _data_rows(summary)
        assert len(rows) == 2
        for row in rows:
            assert row[1].startswith("error: ") and "derive_params()" in row[1]
            assert row[2:8] == [""] * 6 and row[8] == str(EXIT_INPUT)

    @pytest.mark.parametrize("key", ["history.offsets.7", "history.offsets.x",
                                     "history.offsets.-1"])
    def test_bad_history_index_recorded_as_row_error(self, tmp_path, key):
        tree = {"params": CASE2, "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        code, summary = sweep(cfg, key, [1e-5, 2e-5])
        assert code == EXIT_OK
        rows = _data_rows(summary)
        assert [row[1] for row in rows] == [
            f"error: key {key!r} does not address an element of "
            "history.offsets"] * 2
        assert all(row[8] == str(EXIT_INPUT) for row in rows)

    @pytest.mark.parametrize("key", ["history.phase", "history.preset",
                                     "history.phase.0"])
    def test_argument_the_preset_lacks_recorded_as_row_error(
            self, small_config, tmp_path, key):
        code, summary = sweep(small_config, key, [0.0, 1.0],
                              out_dir=tmp_path / "sw")
        assert code == EXIT_OK
        assert _data_rows(summary) == [
            [value, f"error: key {key!r} does not address an argument of "
             "history preset 'equilibrium_plus_constant'",
             "", "", "", "", "", "", str(EXIT_INPUT)] for value in ("0", "1")]

    def test_bad_h33_factor_row_is_inadmissible(self, small_config,
                                                tmp_path):
        code = main(["sweep", small_config, "--key", "overrides.h33_factor",
                     "--values=-1.0,2.0", "--out", str(tmp_path / "sw")])
        assert code == EXIT_OK
        rows = _data_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert rows[0] == ["-1", "AsymptoticallyStable", "", "", "", "", "",
                           "", str(EXIT_INADMISSIBLE)]
        assert rows[1][8] == str(EXIT_OK)

    def test_unstorable_horizon_recorded_as_row_error(self, small_config,
                                                      tmp_path):
        code = main(["sweep", small_config, "--key", "horizon",
                     "--values", "1.0,1e300", "--out", str(tmp_path / "sw")])
        assert code == EXIT_OK
        rows = _data_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert [row[8] for row in rows] == [str(EXIT_OK), str(EXIT_INPUT)]
        # the verdict was reached, but the row names the error
        step = default_step(derive_params(**CASE2), 20)
        assert rows[1][:2] == [
            "1.0000000000000001e+300",
            f"error: {1e300 / step:.6g} steps of size {step:g} cannot be "
            f"stored ({rows[1][1].split(' (', 1)[1]}"]
        assert rows[1][2:8] == [""] * 6

    def test_short_horizon_recorded_as_row_error(self, small_config,
                                                 tmp_path):
        code = main(["sweep", small_config, "--key", "horizon",
                     "--values", "0,0.001", "--out", str(tmp_path / "sw")])
        assert code == EXIT_OK
        rows = _data_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert rows[0] == ["0", "error: horizon must be positive and finite, "
                           "got 0.0", "", "", "", "", "", "", str(EXIT_INPUT)]
        assert rows[1][1] == "AsymptoticallyStable"
        assert rows[1][8] == str(EXIT_OK)


def _reference_row(scenario, value, code):
    """Summary row rebuilt independently, with a second integration; an
    input error anywhere gives the error row with exit code 4.

    What ``RunResult.summary_row`` must reproduce from the run alone.
    """
    p = derive_params(**scenario.params)
    try:
        verdict = lemma_classify(p).kind
    except DomainError:
        verdict = "inapplicable"
    sigma = epsilon = q = v0 = ""
    admissible = ""
    worst = ""
    cert = theorem = None
    try:
        cert = build_certificate(p, scenario.options)
        sigma, epsilon, q = (f"{cert.sigma:.17g}", f"{cert.epsilon:.17g}",
                             f"{cert.q:.17g}")
    except (CertificateError, DomainError):
        pass
    try:
        hist = build_history(scenario, p)
        if cert is not None:
            ext = verify.extend_history(hist, p)
            theorem = verify.check_initial_conditions(hist, ext, cert, p)
            v0 = f"{theorem.V0:.17g}"
            admissible = str(theorem.envelopes_valid)
        traj = integrate(p, hist, scenario.horizon,
                         step=default_step(p, scenario.step_divisor))
    except (ConfigError, DomainError, IntegrationError) as exc:
        # an input error after the verdict is an error row all the same
        return _reference_error_row(value, exc)
    if theorem is not None and theorem.envelopes_valid:
        env = verify.check_envelope(traj, cert, theorem)
        worst = f"{min(env.worst_margin):.17g}"
    return [f"{float(value):.17g}", verdict, sigma, epsilon, q, v0,
            admissible, worst, str(code)]


def _reference_error_row(value, exc):
    return [f"{float(value):.17g}", f"error: {exc}",
            "", "", "", "", "", "", str(EXIT_INPUT)]


def _reference_summary(config, key, values, out):
    """``sweep_summary.csv`` bytes with every row from ``_reference_row``."""
    path = out / "reference_summary.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "verdict", "sigma", "epsilon", "q", "V0",
                         "admissible", "worst_envelope_margin", "exit_code"])
        for i, value in enumerate(values):
            scenario = load_scenario(config)
            try:
                _set_scenario_value(scenario, key, float(value))
                code = run_loaded_scenario(scenario, out / f"ref_{i}").code
                row = _reference_row(scenario, value, code)
            except (ConfigError, ParameterError, DomainError) as exc:
                row = _reference_error_row(value, exc)
            writer.writerow(row)
    return path.read_bytes()


# the 1e200 offset overflows V0 to inf on purpose; that must stay silent
@pytest.mark.filterwarnings("error")
class TestSweepSummaryRows:
    @pytest.fixture
    def config(self, tmp_path):
        tree = {"params": CASE2,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": [1e-5, 5e-6, 1e-5]},
                "horizon": 3.0,
                "outputs": {"dir": str(tmp_path / "out")}}
        return _write_config(tmp_path / "c.yaml", tree)

    @pytest.fixture
    def integrate_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(scenario_mod, "integrate", counting)
        return calls

    # d1: admissible, DelayDependent, inapplicable (its preset history
    # fails), derive_params error; offsets.0: admissible, inadmissible,
    # integration failure
    @pytest.mark.parametrize("key, values, verdicts", [
        ("params.d1", [1.5, 0.5, 5.0, -1.0],
         ["AsymptoticallyStable", "DelayDependent", "error", "error"]),
        ("history.offsets.0", [1e-5, 5.0, 1e200],
         ["AsymptoticallyStable"] * 2 + ["error"]),
    ])
    def test_rows_match_reference(self, config, tmp_path, key, values,
                                  verdicts):
        _, summary = sweep(config, key, values, out_dir=tmp_path / "sweep")
        rows = _data_rows(summary)
        assert [row[1].split(":")[0] for row in rows] == verdicts
        assert summary.read_bytes() == _reference_summary(config, key, values,
                                                          tmp_path)

    def test_each_row_integrates_once(self, config, tmp_path,
                                      integrate_calls):
        # admissible, inadmissible, integration failure, DelayDependent
        sweep(config, "history.offsets.0", [1e-5, 5.0, 1e200],
              out_dir=tmp_path / "a")
        sweep(config, "params.d1", [0.5], out_dir=tmp_path / "b")
        assert len(integrate_calls) == 4
        sweep(config, "params.d1", [5.0, -1.0], out_dir=tmp_path / "c")
        assert len(integrate_calls) == 4  # neither row reaches integration


class TestMain:
    def test_run_subcommand(self, small_config):
        assert main(["run", small_config]) == EXIT_OK

    def test_sweep_subcommand(self, small_config, tmp_path):
        code = main(["sweep", small_config, "--key", "horizon",
                     "--values", "2,4", "--out", str(tmp_path / "sw")])
        assert code == EXIT_OK
        assert (tmp_path / "sw" / "sweep_summary.csv").exists()

    def test_sweep_non_numeric_value_is_input_error(self, small_config,
                                                    tmp_path, capsys):
        code = main(["sweep", small_config, "--key", "horizon",
                     "--values", "2,abc", "--out", str(tmp_path / "sw")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().out.startswith("input error: --values")

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_INPUT
        assert "usage" in capsys.readouterr().out

    def test_seed_check(self, capsys):
        assert main(["--seed-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6 and "FAIL" not in out
