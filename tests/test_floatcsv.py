"""The CSV writer's numpy kernel writes exactly the bytes of '%.17g' % v.

Every test compares ``write_float_rows`` with the per-value reference: one
``'%.17g' % v`` per field, "," between fields and CRLF after each row.
The property tests draw from a fixed seed (``derandomize=True``), so the
suite stays deterministic.  ``floatcsv._percent_g`` formats the values the
kernel cannot prove; counting its calls shows which values took it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from planktonfish import floatcsv, simulate, verify
from planktonfish.floatcsv import write_float_rows
from planktonfish.scenario import run_scenario

README_SCENARIO = {
    "params": {"r": 1.0, "K": 1.0, "c1": 1.0, "c2": 1.0, "d1": 1.5,
               "d2": 1.0, "b1": 3.0, "b2": 1.0, "tau1": 0.1, "tau2": 0.1},
    "history": {"preset": "equilibrium_plus_constant",
                "offsets": [1.0e-5, 5.0e-6, 1.0e-5]},
    "horizon": 50.0,
}


def _reference(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row)
                                  for row in np.asarray(rows).tolist()]
    return "".join(line + "\r\n" for line in lines).encode()


def _header(cols):
    return [f"c{j}" for j in range(cols)]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("floatcsv") / "rows.csv"


@pytest.fixture
def fallbacks(monkeypatch):
    """The values that ``_percent_g`` formatted, in order."""
    seen = []
    real = floatcsv._percent_g

    def counting(v):
        seen.append(v)
        return real(v)

    monkeypatch.setattr(floatcsv, "_percent_g", counting)
    return seen


def _assert_written_as_reference(path, rows):
    rows = np.asarray(rows, dtype=float)
    write_float_rows(path, _header(rows.shape[1]), [rows])
    assert path.read_bytes() == _reference(_header(rows.shape[1]), rows)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from([1, 4, 11]).flatmap(
    lambda cols: arrays(np.float64, st.tuples(st.integers(1, 25),
                                              st.just(cols)),
                        elements=st.floats())))
def test_any_block_is_written_as_percent_g(csv_path, rows):
    # st.floats() draws nan, +-inf, +-0 and subnormals too
    _assert_written_as_reference(csv_path, rows)


def _around(x, steps=3):
    below = above = x
    out = [x]
    for _ in range(steps):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        out += [below, above]
    return out


# 1e-14 and 1e98 are below their power of ten, and their 17 digits round up
# across it; no double below 1e-4 or 1e17 does, so the switches between
# notations there are covered by the values around those powers
EDGES = ([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          math.nan, math.inf, -math.inf, 1e-14, 1e98,
          1234567890123456.25, 1234567890123456.75, 0.5, 100.0, 1e16 + 2.0]
         + _around(floatcsv._LIMITS[0]) + _around(floatcsv._LIMITS[1])
         + _around(1e-5) + _around(1e-4) + _around(1e16) + _around(1e17))


def test_the_reference_rounds_an_exact_tie_to_even():
    assert "%.17g" % 1234567890123456.25 == "1234567890123456.2"
    assert "%.17g" % 1e-14 == "1e-14"
    assert "%.17g" % np.nextafter(1e-4, 0.0) == "9.9999999999999991e-05"


@pytest.mark.parametrize("cols", [1, 4, 11])
def test_edge_values_are_written_as_percent_g(csv_path, cols):
    values = np.array(EDGES + [-v for v in EDGES])
    values = np.concatenate([values, np.zeros(-values.size % cols)])
    _assert_written_as_reference(csv_path, values.reshape(-1, cols))


def test_unprovable_values_fall_back(csv_path, fallbacks):
    # nan, a subnormal, a value beyond the table and an exact 18th-digit
    # tie fall back; zero and an ordinary value stay in the kernel
    rows = np.array([[math.nan, 5e-324, 1e300, 1234567890123456.25,
                      -0.0, 0.1]])
    _assert_written_as_reference(csv_path, rows)
    np.testing.assert_array_equal(fallbacks, rows[0, :4])


@pytest.mark.parametrize("budget", [1, 5, 44])
def test_passes_split_blocks_at_any_row(csv_path, monkeypatch, budget):
    # 5 and 44 values per pass leave a short last pass; at 1 a pass is one
    # row even of 11 columns
    monkeypatch.setattr(floatcsv, "_PASS_VALUES", budget)
    rng = np.random.default_rng(3)
    for cols in (1, 4, 11):
        rows = rng.normal(size=(23, cols)) * 10.0 ** rng.integers(-8, 8, cols)
        header = _header(cols)
        write_float_rows(csv_path, header, [rows[:7], rows[7:]])
        assert csv_path.read_bytes() == _reference(header, rows)


def _recorded_run(tmp_path, monkeypatch, scenario):
    """Run ``scenario``; return its output dir and what each CSV received."""
    blocks = {}
    for module in (simulate, verify):
        real = module.write_float_rows

        def record(path, header, rows, real=real):
            rows = [np.array(r) for r in rows]
            blocks[Path(path).name] = (header, np.concatenate(rows))
            real(path, header, rows)

        monkeypatch.setattr(module, "write_float_rows", record)
    config = tmp_path / "scenario.yaml"
    config.write_text(json.dumps(scenario))
    assert run_scenario(config, tmp_path / "out")[0] == 0
    assert sorted(blocks) == ["trajectory.csv", "verification.csv"]
    return tmp_path / "out", blocks


@pytest.mark.parametrize("d1, horizon", [(1.5, 50.0), (0.9778, 20.0)],
                         ids=["readme", "sweep_d1_row"])
def test_pipeline_csvs_never_fall_back(tmp_path, monkeypatch, fallbacks,
                                       d1, horizon):
    # the README run and one row of the d1 sweep: the kernel itself
    # formats every value of trajectory.csv and verification.csv, and
    # both files are the per-value writer's bytes
    scenario = dict(README_SCENARIO, horizon=horizon,
                    params=dict(README_SCENARIO["params"], d1=d1))
    out, blocks = _recorded_run(tmp_path, monkeypatch, scenario)
    assert blocks["trajectory.csv"][1].shape == (int(horizon / 0.0005) + 1, 4)
    assert fallbacks == []
    for name, (header, rows) in blocks.items():
        assert (out / name).read_bytes() == _reference(header, rows), name
