"""Fuzzed scenario files: any malformed input ends in a documented exit code."""

import copy
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planktonfish.scenario import (EXIT_INADMISSIBLE, EXIT_INPUT, EXIT_OK,
                                   EXIT_VIOLATION, load_scenario,
                                   run_scenario)

# the README scenario at a short horizon
README_TREE = {
    "params": dict(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
                   b1=3.0, b2=1.0, tau1=0.1, tau2=0.1),
    "history": {"preset": "equilibrium_plus_constant",
                "offsets": [1e-5, 5e-6, 1e-5]},
    "horizon": 0.5,
    "solver": {"step_divisor": 20, "stride": 1},
    "overrides": {"alpha": 1.0, "m_fraction": 0.5, "mu_fraction": 0.25,
                  "h33_factor": 2.0},
    "outputs": {"files": ["equilibria", "certificate", "trajectory",
                          "verification", "report"]},
}


def _paths(tree, prefix=()):
    """Every section, field and list element of the tree."""
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))
        elif isinstance(value, list):
            yield from (prefix + (key, i) for i in range(len(value)))


PATHS = list(_paths(README_TREE))

# small integers only: a large step_divisor or stride is valid input that
# would make the run long, not malformed
WRONG = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 10 ** 400]),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.sampled_from(["constant", "equilibrium_plus_sine", "tabulated"]),
)
HORIZON = st.one_of(st.floats(-1.0, 0.5), WRONG)


@st.composite
def mutated_trees(draw):
    tree = copy.deepcopy(README_TREE)
    for path in draw(st.lists(st.sampled_from(PATHS), min_size=1,
                              max_size=3)):
        node = tree
        try:
            for key in path[:-1]:
                node = node[key]
            value = draw(HORIZON if path == ("horizon",) else WRONG)
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced a parent of this path
    return tree


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=mutated_trees())
def test_mutated_readme_scenario_exits_cleanly(tree):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "scenario.yaml")
        cfg.write_text(yaml.safe_dump(tree))
        try:
            load_scenario(cfg)
        except ValueError:
            pass  # ConfigError; run_scenario must then exit 4
        code, _ = run_scenario(cfg, out_dir=Path(tmp, "out"))
    assert code in (EXIT_OK, EXIT_INADMISSIBLE, EXIT_VIOLATION, EXIT_INPUT)


# an ``x_`` prefix is never a valid name, so each stray key is an input error
STRAY_KEY = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789",
                    max_size=6).map(lambda name: "x_" + name)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(section=st.sampled_from([None, "params", "history", "solver",
                                "overrides", "outputs"]),
       key=STRAY_KEY, value=st.one_of(st.none(), st.integers(-3, 3),
                                      st.text(max_size=3)))
def test_stray_key_is_input_error(section, key, value):
    tree = copy.deepcopy(README_TREE)
    (tree if section is None else tree[section])[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "scenario.yaml")
        cfg.write_text(yaml.safe_dump(tree))
        code, files = run_scenario(cfg, out_dir=Path(tmp, "out"))
    # a stray rate is rejected by derive_params, before any file is written
    assert (code, files) == (EXIT_INPUT, {})
