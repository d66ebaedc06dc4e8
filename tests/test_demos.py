"""Each narrated demo in ``demos/`` runs to completion in-process."""

import contextlib
import io
import pathlib
import runpy
import warnings

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "cosmology_tour.py", "field_tour.py", "geometry_tour.py", "vacuum_energy_tour.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_to_completion(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
