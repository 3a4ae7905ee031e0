"""The narrative demos run to completion against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# benchmark_profiles.py is left out: it solves a batch and takes seconds
@pytest.mark.parametrize(
    "script", ["build_and_solve.py", "relaxation_and_cut_loop.py", "restriction_heuristic.py"]
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
