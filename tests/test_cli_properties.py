"""Every action that ``cli._handle_value`` runs, found by walking the
parser, ends typed, finite and deterministic for flags drawn from the
float and int edges: exit 0, 1 or 2, a JSON report that parses, no
non-finite output on success, and the same bytes twice.

These need the test extras (``pip install -e .[test]``); without Hypothesis
the module is skipped, not the rest of the suite.
"""

import argparse
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from finiverse import cli  # noqa: E402

#: flag values from the float and int edges; None leaves the flag out
EDGES = ["0", "-0", "1e308", "-1e308", "1e-320", str(2**4000), "nan", "inf", None]

#: flags every action has that take no number
SHARED = {"help", "format", "config"}


def _actions(parser, path=()):
    """(argv prefix, action parser) for every leaf of the parser tree."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for group in subparsers:
        for name, child in group.choices.items():
            yield from _actions(child, (*path, name))


VALUE_ACTIONS = [
    (path, [a.option_strings[0] for a in parser._actions
            if a.option_strings and a.dest not in SHARED])
    for path, parser in _actions(cli._PARSER)
    if parser.get_default("handler") is cli._handle_value
]


@st.composite
def value_argv(draw):
    path, flags = draw(st.sampled_from(VALUE_ACTIONS))
    values = [draw(st.sampled_from(EDGES)) for _ in flags]
    # --flag=value, so that argparse reads -1e308 as a value, not a flag
    return [*path, *(f"{f}={v}" for f, v in zip(flags, values) if v is not None),
            "--format", "json"]


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_every_value_action_is_found():
    found = {" ".join(path) for path, _ in VALUE_ACTIONS}
    assert {"geometry cardinality", "cosmo point-count", "cosmo count-at",
            "regularize mode-energy"} <= found
    assert "cosmo growth" not in found


@settings(max_examples=300, deadline=None)
@given(argv=value_argv())
def test_value_actions_end_typed_finite_and_deterministic(argv):
    report = cli.dispatch(argv)
    first = cli.render_json(report)
    assert report.exit_code in (0, 1, 2)
    doc = json.loads(first)
    if report.exit_code == 0:
        for output in doc["outputs"].values():
            assert not {"nan", "inf", "-inf"} & set(map(str, _leaves(output["value"])))
    assert cli.render_json(cli.dispatch(argv)) == first
