"""The README's scenario schema and library example are runnable input."""

import re
from pathlib import Path

from planktonfish.scenario import load_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(language):
    """The one fenced code block of ``language`` in the README."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_schema_block_loads(tmp_path):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(_block("yaml"))
    scenario = load_scenario(cfg)
    assert scenario.history_args == {"offsets": [1.0e-5, 5.0e-6, 1.0e-5]}
    assert scenario.horizon == 50.0


def test_library_example_runs(capsys):
    exec(compile(_block("python"), str(README), "exec"), {})
    assert capsys.readouterr().out == "AsymptoticallyStable\nTrue\n"
