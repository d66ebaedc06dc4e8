"""Every action, found by walking the parser, ends typed, finite and
deterministic for flags drawn from the float and int edges: exit 0, 1 or
2, a JSON report that parses, no non-finite output on success, and the
same bytes twice.  The actions that ``cli._handle_value`` runs take only
numbers; the hand-written ones also take small field orders and
dimensions, switches, choices and text drawn from a small grammar that
includes malformed input.

These need the test extras (``pip install -e .[test]``); without Hypothesis
the module is skipped, not the rest of the suite.
"""

import argparse
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from finiverse import cli  # noqa: E402

#: flag values from the float and int edges; None leaves the flag out
EDGES = ["0", "-0", "1e308", "-1e308", "1e-320", str(2**4000), "nan", "inf", None]

#: flags every action has that take no number
SHARED = {"help", "format", "config"}

#: the actions that read the constants or the cosmology params
CONFIG_ACTIONS = {
    "cosmo point-count", "cosmo lambda", "cosmo rate", "cosmo growth", "cosmo density",
    "cosmo min-diameter", "cosmo planck-density", "cosmo diameter-at", "cosmo count-at",
    "cosmo accel", "cosmo evolve", "regularize vacuum", "regularize mode-energy",
    "regularize oscillator-energy",
}


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


def _small(*values):
    """The edges plus some small values that reach past argument checks."""
    return st.sampled_from(EDGES + [str(v) for v in values])


#: an element: an index, coefficients joined by ":", or malformed text
ELEMENT = st.one_of(
    _small(-1, 1, 2, 5, 26),
    st.lists(st.sampled_from(["0", "1", "2", "-1", "6", str(2**4000), "9" * 5000, "x", ""]),
             min_size=1, max_size=4).map(":".join),
)
VECTOR = st.lists(ELEMENT.filter(lambda e: e is not None), min_size=1, max_size=3).map(",".join)
COORD = st.sampled_from(["0", "1", "2", "-1", "-1/2", "3/4", "0.5", "1e-3", "1/0", "x", "",
                         "1e5000", "1/7e3", f"1/{7**3500}", f"2/{3**6000}", "-1e99999999"])
POINT = st.tuples(COORD, COORD).map(",".join) | st.sampled_from(["1,2,3", "1", ""])
POINTS = st.lists(POINT, max_size=6).map(";".join)

#: value strategies for the hand-written actions' flags, by spelling
HAND_VALUES = {
    "--q": _small(2, 3, 4, 5, 7, 8, 9, 11, 13, 16),
    "--dim": _small(1, 2, 3),
    "--p": _small(2, 3, 5, 7),
    "--k": _small(1, 2, 3),
    "--ring": _small(1, 2, 6, 7),
    "--element": ELEMENT,
    "--vector": VECTOR,
    "--u": VECTOR,
    "--v": VECTOR,
    "--points": POINTS,
    "--rho0": _small(1e-26),
    "--t-end": _small(1, 10),
    "--step": _small(1, 10),
}


def _strategy(action):
    """The values drawn for one flag of a hand-written action."""
    if action.nargs == 0:  # a switch: present (its spelling alone) or not
        return st.sampled_from(["", None])
    if action.choices:
        return st.sampled_from(EDGES + [str(c) for c in action.choices])
    return HAND_VALUES.get(action.option_strings[0], st.sampled_from(EDGES))


HAND_ACTIONS = [
    (path, [(a.option_strings[0], _strategy(a)) for a in parser._actions
            if a.option_strings and a.dest not in SHARED])
    for path, parser in _actions(cli._PARSER)
    if parser.get_default("handler") is not cli._handle_value
]


@st.composite
def hand_argv(draw):
    path, flags = draw(st.sampled_from(HAND_ACTIONS))
    argv = list(path)
    for flag, values in flags:
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}" if value else flag)
    return [*argv, "--format", "json"]


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


def test_every_action_is_found():
    found = {" ".join(path) for path, _ in VALUE_ACTIONS}
    assert {"geometry cardinality", "cosmo point-count", "cosmo count-at",
            "regularize mode-energy"} <= found
    assert "cosmo growth" not in found
    hand = {" ".join(path) for path, _ in HAND_ACTIONS}
    assert len(hand) == 15 and not hand & found
    assert {"field axioms", "geometry ordinary-line", "hilbert inner", "cosmo evolve"} <= hand


def test_config_is_declared_on_exactly_the_actions_that_read_it():
    declared = {" ".join(path) for path, parser in _actions(cli._PARSER)
                if any(a.dest == "config" for a in parser._actions)}
    assert declared == CONFIG_ACTIONS


def _check(argv):
    report = cli.dispatch(argv)
    first = cli.render_json(report)
    assert report.exit_code in (0, 1, 2)
    doc = json.loads(first)
    if report.exit_code == 0:
        for output in doc["outputs"].values():
            assert not {"nan", "inf", "-inf"} & set(map(str, _leaves(output["value"])))
    assert cli.render_json(cli.dispatch(argv)) == first


@settings(max_examples=300, deadline=None)
@given(argv=value_argv())
def test_value_actions_end_typed_finite_and_deterministic(argv):
    _check(argv)


# the deadline fixture bounds the whole run, every example together
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=hand_argv())
def test_hand_written_actions_end_typed_finite_and_deterministic(argv, deadline):
    _check(argv)
