"""Every demo script runs to the end and prints the verdicts its comments
state."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

PRINTED = {
    "channels_and_dilations.py": ("minimal carrier dim equals 4 * rank: True", "n-adjoint profile: (3, 2) -> 2"),
    "no_cloning_witness.py": ("formal term collapses: True", "plain term survives: True"),
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    for line in PRINTED.get(path.name, ()):
        assert line in out
