import csv

import numpy as np
import pytest
import yaml

from planktonfish import scenario as scenario_mod
from planktonfish import verify
from planktonfish.certificate import build_certificate
from planktonfish.cli import main
from planktonfish.errors import (CertificateError, DomainError,
                                 IntegrationError, ParameterError)
from planktonfish.model import derive_params
from planktonfish.scenario import (EXIT_INADMISSIBLE, EXIT_INPUT, EXIT_OK,
                                   ConfigError, _set_scenario_value,
                                   build_history, load_scenario,
                                   run_loaded_scenario, run_scenario, sweep)
from planktonfish.simulate import default_step, integrate
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
        assert "differential inequality: PASS" in report
        eq = files["equilibria"].read_text()
        assert "case: 2" in eq and "AsymptoticallyStable" in eq
        cert = files["certificate"].read_text()
        assert "sigma = " in cert and "positive definite" in cert

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

    # CASE2 has step 0.01 / 20 = 0.0005, so the shortest horizon is 0.002
    @pytest.mark.parametrize("horizon", [0.001, 0.0019999, 0.0, -1.0,
                                         float("nan"), float("inf")])
    def test_horizon_below_four_steps_is_input_error(self, tmp_path, capsys,
                                                     horizon):
        tree = {"params": CASE2, "horizon": horizon,
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_INPUT
        assert capsys.readouterr().out == (
            f"input error: horizon must be finite and at least 4 x step "
            f"= 0.002, got {horizon!r}\n")
        assert not any((tmp_path / "out").iterdir())

    def test_horizon_of_four_steps_runs(self, tmp_path):
        tree = {"params": CASE2, "horizon": 0.002,
                "history": {"preset": "equilibrium_plus_constant",
                            "offsets": [1e-5, 5e-6, 1e-5]},
                "outputs": {"dir": str(tmp_path / "out")}}
        cfg = _write_config(tmp_path / "c.yaml", tree)
        assert main(["run", cfg]) == EXIT_OK

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
        assert "inapplicable" in rows[3]

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

    def test_short_horizon_recorded_as_row_error(self, small_config,
                                                 tmp_path):
        code = main(["sweep", small_config, "--key", "horizon",
                     "--values", "0.001,0.002", "--out", str(tmp_path / "sw")])
        assert code == EXIT_OK
        rows = _data_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert rows[0] == ["0.001", "error: horizon must be finite and at "
                           "least 4 x step = 0.002, got 0.001",
                           "", "", "", "", "", "", str(EXIT_INPUT)]
        assert rows[1][1] == "AsymptoticallyStable"
        assert rows[1][8] == str(EXIT_OK)


def _reference_row(scenario, value, code):
    """Summary row rebuilt from scratch, with a second integration.

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
    try:
        cert = build_certificate(p, scenario.options)
        sigma, epsilon, q = (f"{cert.sigma:.17g}", f"{cert.epsilon:.17g}",
                             f"{cert.q:.17g}")
        hist = build_history(scenario, p)
        ext = verify.extend_history(hist, p)
        theorem = verify.check_initial_conditions(hist, ext, cert, p)
        v0 = f"{theorem.V0:.17g}"
        admissible = str(theorem.envelopes_valid)
        if theorem.envelopes_valid:
            traj = integrate(p, hist, scenario.horizon,
                             step=default_step(p, scenario.step_divisor))
            env = verify.check_envelope(traj, cert, theorem)
            worst = f"{min(env.worst_margin):.17g}"
    except (CertificateError, DomainError, ConfigError, IntegrationError):
        pass
    return [f"{float(value):.17g}", verdict, sigma, epsilon, q, v0,
            admissible, worst, str(code)]


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
                row = [f"{float(value):.17g}", f"error: {exc}",
                       "", "", "", "", "", "", str(EXIT_INPUT)]
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

    # d1: admissible, DelayDependent, inapplicable, derive_params error;
    # offsets.0: admissible, inadmissible, integration failure
    @pytest.mark.parametrize("key, values, verdicts", [
        ("params.d1", [1.5, 0.5, 5.0, -1.0],
         ["AsymptoticallyStable", "DelayDependent", "inapplicable", "error"]),
        ("history.offsets.0", [1e-5, 5.0, 1e200],
         ["AsymptoticallyStable"] * 3),
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
