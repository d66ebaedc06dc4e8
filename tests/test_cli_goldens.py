"""Byte-for-byte guard on CLI output.

``perfbench/cli_goldens.json`` holds the stdout bytes and exit code of
every benchmarked command (the README commands, one command per action,
a usage error and several RK4 evolves).  Each argv runs here through
``finiverse.cli.main`` in-process; any change to a rendered byte fails.
The golden file is only read, never rewritten.
"""

import io
import json
import pathlib
import sys

import pytest

from finiverse import cli

GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cli_goldens.json"
CASES = json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case, monkeypatch):
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    code = cli.main(list(case["argv"]))
    out.flush()
    assert code == case["exit"]
    assert raw.getvalue() == case["stdout"].encode("utf-8")
