"""Each narrated demo in ``demos/`` runs to completion in-process, and
README's library quick start prints what its comments say."""

import contextlib
import io
import pathlib
import re
import runpy
import warnings

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


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


def test_readme_quick_start_prints_its_documented_values():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    square, pair, zeta, count = out.getvalue().splitlines()
    assert (square, zeta, count) == ("2", "-1/12", "3.26e+123")
    assert pair != "None"
