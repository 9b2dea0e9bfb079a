"""Each script under ``demos/`` runs to completion in-process, with
``RuntimeWarning`` an error as in the rest of the suite."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
