"""Command-line dispatch: report shapes, formats, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from finiverse.cli import _field_spec_from_order, dispatch, main, render_json, render_text
from finiverse.errors import InvalidInputError
from finiverse.fields import make_extension_field

REPO = pathlib.Path(__file__).resolve().parents[1]


def run_json(argv):
    report = dispatch(argv + ["--format", "json"])
    return report, json.loads(render_json(report).decode("utf-8"))


def test_point_count_ok():
    report = dispatch(["cosmo", "point-count"])
    assert report.status == "ok"
    assert report.exit_code == 0
    value, unit = report.outputs["point_count"]
    assert value == pytest.approx(3.2604512570325904e123, rel=1e-12)
    assert unit == "points"
    text = render_text(report)
    assert "point_count = 3.26045125703259e+123 [points]" in text
    assert "formula:" in text


def test_json_rendering_is_deterministic():
    a = render_json(dispatch(["cosmo", "lambda", "--format", "json"]))
    b = render_json(dispatch(["cosmo", "lambda", "--format", "json"]))
    assert a == b
    assert a.endswith(b"\n")


def test_json_roundtrip_matches_to_dict():
    report, doc = run_json(["regularize", "partial-sum", "--n", "55"])
    assert doc == report.to_dict()
    assert doc["outputs"]["value"]["value"] == 1540
    assert doc["exit_code"] == 0


def test_zeta_renders_exact_rational():
    _, doc = run_json(["regularize", "zeta", "--s", "1"])
    assert doc["outputs"]["value"]["value"] == {"num": -1, "den": 12}
    report = dispatch(["regularize", "zeta", "--s", "1"])
    assert "value = -1/12" in render_text(report)


def test_bernoulli_value():
    _, doc = run_json(["regularize", "bernoulli", "--n", "12"])
    assert doc["outputs"]["value"]["value"] == {"num": -691, "den": 2730}


def test_degenerate_none_path():
    report = dispatch(["geometry", "degenerate", "--q", "3"])
    assert report.status == "none"
    assert report.exit_code == 0
    assert "result: none" in render_text(report)
    _, doc = run_json(["geometry", "degenerate", "--q", "3"])
    assert doc["status"] == "none"
    assert doc["result"] is None


def test_degenerate_found_for_q5():
    report = dispatch(["geometry", "degenerate", "--q", "5"])
    assert report.status == "ok"
    assert report.outputs["squared_distance"][0] == "0"


def test_gaussian_failure_carries_witness():
    report = dispatch(["field", "gaussian", "--p", "5"])
    assert report.status == "error"
    assert report.exit_code == 1
    assert report.error == "NotAField"
    _, doc = run_json(["field", "gaussian", "--p", "5"])
    assert doc["error"] == "NotAField"
    assert doc["witness"] == [[2, 1], [3, 1]]
    assert doc["exit_code"] == 1


def test_curvature_error_exit_code():
    report = dispatch(["cosmo", "rate", "--kappa", "1"])
    assert report.status == "error"
    assert report.exit_code == 1
    assert report.error == "CurvatureUnsupported"


def test_usage_errors_exit_two():
    for argv in (
        ["frobnicate"],
        ["field", "table"],  # missing --p
        ["cosmo", "point-count", "--bogus"],
        [],
        ["field", "axioms"],  # neither --p nor --ring
        ["field", "axioms", "--gaussian"],
        ["field", "axioms", "--ring", "6", "--p", "5"],  # both
    ):
        report = dispatch(argv)
        assert report.status == "error"
        assert report.exit_code == 2
        assert report.error == "Usage"
    assert dispatch(["field", "axioms"]).message == "one of the arguments --p --ring is required"


@pytest.mark.parametrize("argv", [
    ["field", "gaussian", "--p", "3"],
    ["field", "table", "--p", "3"],
    ["geometry", "cardinality", "--order", "9", "--dim", "3"],
    ["hilbert", "norm", "--p", "3", "--vector", "1,1"],
    ["regularize", "zeta", "--s", "1"],
], ids=" ".join)
def test_config_is_refused_where_nothing_reads_it(argv, tmp_path):
    missing = str(tmp_path / "nope.cfg")
    report = dispatch(argv + ["--config", missing])
    assert (report.exit_code, report.error) == (2, "Usage")
    assert report.message == f"unrecognized arguments: --config {missing}"
    assert dispatch(argv).exit_code == 0


def test_field_table_shows_quartic_structure():
    _, doc = run_json(["field", "table", "--p", "2", "--k", "2"])
    mul = doc["outputs"]["mul_table"]["value"]
    header = mul[0]
    col = header.index("a")
    row = next(r for r in mul[1:] if r[0] == "a")
    assert row[col] == "a+1"  # the generator squares to a+1 in the quartic field
    text = render_text(dispatch(["field", "table", "--p", "2", "--k", "2"]))
    assert "mul_table:" in text and "a+1" in text


def test_field_table_size_cap():
    report = dispatch(["field", "table", "--p", "101"])
    assert report.exit_code == 1
    assert report.error == "SizeLimit"


def test_field_axioms_ring_diagnostic():
    _, doc = run_json(["field", "axioms", "--ring", "6"])
    assert doc["status"] == "ok"
    assert doc["outputs"]["all_pass"]["value"] is False
    assert "FAIL" in doc["outputs"]["inverses"]["value"]
    _, doc = run_json(["field", "axioms", "--p", "7"])
    assert doc["outputs"]["all_pass"]["value"] is True


def test_field_inverse():
    _, doc = run_json(["field", "inverse", "--p", "7", "--element", "3"])
    assert doc["outputs"]["inverse"]["value"] == "5"
    _, doc = run_json(["field", "inverse", "--p", "2", "--k", "2", "--element", "0:1"])
    assert doc["outputs"]["inverse"]["value"] == "a+1"


def test_ordinary_line_paths():
    report = dispatch(["geometry", "ordinary-line", "--points", "0,0;1,1;2,2;3,3"])
    assert report.status == "none"
    report = dispatch(
        ["geometry", "ordinary-line", "--points", "0,0;1,0;2,0;0,1;1,1;2,1;0,2;1,2;2,2"]
    )
    assert report.status == "ok"
    assert len(report.outputs["pair"][0]) == 2


def test_hilbert_norm_isotropic():
    _, doc = run_json(["hilbert", "norm", "--p", "2", "--k", "2", "--vector", "1:0,1:0"])
    assert doc["outputs"]["norm_squared"]["value"] == "0"
    assert doc["outputs"]["isotropic"]["value"] is True


def test_hilbert_inner_and_cardinality():
    _, doc = run_json(
        ["hilbert", "inner", "--p", "3", "--gaussian", "--u", "1:0,0:1", "--v", "1:0,0:1"]
    )
    assert doc["outputs"]["inner_product"]["value"] == "2"
    _, doc = run_json(["hilbert", "cardinality", "--p", "3", "--k", "2", "--dim", "2"])
    assert doc["outputs"]["cardinality"]["value"] == 81


def test_linearity_warning_reported_not_fatal():
    report = dispatch(["cosmo", "diameter-at", "--dt", "1e17"])
    assert report.exit_code == 0
    assert report.warnings and "linear" in report.warnings[0]
    _, doc = run_json(["cosmo", "diameter-at", "--dt", "1e17"])
    assert doc["warnings"]
    quiet = dispatch(["cosmo", "diameter-at", "--dt", "1e15"])
    assert not quiet.warnings


def test_cosmo_evolve_vacuum():
    _, doc = run_json(
        [
            "cosmo", "evolve", "--eos", "vacuum",
            "--rho0", "6.0083103026895395e-27",
            "--t-end", "5.455840416463666e+17",
            "--step", "2.727920208231833e+14",
        ]
    )
    assert doc["status"] == "ok"
    a_end = float(doc["outputs"]["a_end"]["value"])
    assert a_end == pytest.approx(2.718281828, rel=1e-6)
    assert float(doc["outputs"]["halving_rel_diff"]["value"]) <= 1e-6


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("rho_vac = 1.0e-9\nH0 = 2.0e-18\n", encoding="utf-8")
    report = dispatch(["cosmo", "point-count", "--config", str(cfg)])
    assert report.inputs["rho_vac"] == 1.0e-9
    report = dispatch(
        ["cosmo", "point-count", "--config", str(cfg), "--rho-vac", "2.0e-9"]
    )
    assert report.inputs["rho_vac"] == 2.0e-9  # flag beats config
    assert report.inputs["H0"] == 2.0e-18  # config beats default
    bad = dispatch(["cosmo", "point-count", "--config", str(tmp_path / "nope.cfg")])
    assert bad.status == "error"
    assert bad.exit_code == 1
    assert bad.error == "InvalidInput"


def test_growth_outputs():
    _, doc = run_json(["cosmo", "growth", "--dt-gyr", "6"])
    assert float(doc["outputs"]["factor"]["value"]) == pytest.approx(5.252307248673101, rel=1e-12)
    assert float(doc["outputs"]["exponent_per_gyr"]["value"]) == pytest.approx(
        0.276444576, rel=1e-12
    )


def test_main_exit_codes_and_streams(capsys):
    assert main(["regularize", "zeta", "--s", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["value"]["value"] == {"num": -1, "den": 2}

    assert main(["field", "gaussian", "--p", "13"]) == 1
    out = capsys.readouterr().out
    assert "error: NotAField" in out and "witness:" in out

    assert main(["no-such-command"]) == 2
    captured = capsys.readouterr()
    assert "usage error:" in captured.err


def test_cardinality_over_a_large_prime(capsys):
    # primality of a 61-bit p is a Miller-Rabin test, not trial division
    p = 2**61 - 1
    argv = ["hilbert", "cardinality", "--p", str(p), "--k", "1", "--dim", "1"]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["cardinality"]["value"] == p


def test_field_order_is_split_like_factorint():
    # every order in 2..4096 against sympy's factorisation: p^k with
    # k <= 6 is GF(p^k), p^k with k >= 7 has no construction, and
    # anything with two prime factors is no prime power
    factorint = pytest.importorskip("sympy").factorint
    for q in range(2, 4097):
        factors = factorint(q)
        if len(factors) > 1:
            with pytest.raises(InvalidInputError, match=f"^{q} is not a prime power$"):
                _field_spec_from_order(q)
            continue
        [(p, k)] = factors.items()
        if k <= 6:
            assert _field_spec_from_order(q) == make_extension_field(p, k)
        else:
            with pytest.raises(InvalidInputError, match=f"^extension degree .* got {k}$"):
                _field_spec_from_order(q)


def test_large_prime_order_is_not_factored(capsys):
    # --q = 2^61 - 1 hits the enumeration cap before any trial division
    argv = ["geometry", "degenerate", "--q", str(2**61 - 1), "--dim", "2", "--format", "json"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "SizeLimit"


@pytest.mark.parametrize("q", ["1000000000000000000000000000057", "1000000000000"])
def test_order_above_the_point_cap_is_refused_before_primality(q, capsys):
    # a prime above psi_13 is beyond the primality test, and 10^12 is no prime
    # power: both are refused by the point cap first
    argv = ["geometry", "degenerate", "--q", q, "--dim", "2", "--format", "json"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "SizeLimit"
    assert doc["witness"]["cap"] == 2**16


def test_primality_beyond_psi_13_is_refused(deadline, capsys):
    # these once ran trial division up to sqrt(2^89 - 1) and never ended
    p = 2**89 - 1
    for argv in (["hilbert", "cardinality", "--p", str(p), "--dim", "1"],
                 ["field", "inverse", "--p", str(p), "--element", "1"],
                 ["field", "gaussian", "--p", str(p)]):
        assert main(argv + ["--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "SizeLimit"
        assert doc["witness"] == {"requested": p, "cap": 3317044064679887385961980}


def test_step_too_large_witness_in_json():
    # ten steps of one Hubble time: halving the step moves the endpoint
    argv = ["cosmo", "evolve", "--rho0", "6.0083103026895395e-27",
            "--t-end", "5.455840416463666e18", "--step", "5.455840416463666e17"]
    report, doc = run_json(argv)
    assert report.exit_code == 1
    assert doc["error"] == "StepTooLarge"
    assert doc["witness"] == {
        "relative_difference": "0.0326771732483322", "tolerance": "1e-06",
        "step": "5.45584041646367e+17",
    }


def test_size_limit_witness_in_json():
    report, doc = run_json(["field", "axioms", "--ring", "501"])
    assert report.exit_code == 1
    assert doc["error"] == "SizeLimit"
    assert doc["witness"] == {"requested": 501, "cap": 500}
    _, doc = run_json(["field", "table", "--p", "101"])
    assert doc["witness"] == {"requested": 101, "cap": 64}
    _, doc = run_json(["geometry", "degenerate", "--q", "1000000000000", "--dim", "2"])
    assert doc["witness"] == {"requested": 10**12, "cap": 2**16}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-to-str limit")
@pytest.mark.parametrize("argv, digits", [
    (["geometry", "cardinality", "--order", "10", "--dim", "5000"], 5001),
    (["hilbert", "cardinality", "--p", "2", "--dim", "20000"], 6021),
    (["geometry", "cardinality", "--order", "10", "--dim", "4300"], 4301),
    (["geometry", "cardinality", "--order", "10", "--dim", "4299"], None),  # prints
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_integer_too_long_to_print_is_size_limit(argv, digits, capsys):
    # counts the library admits can pass the interpreter's int-to-str limit
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        json_code = main(argv + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        text_code = main(argv)
        text = capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(previous)
    if digits is None:
        assert json_code == text_code == 0
        assert doc["outputs"]["cardinality"]["value"] == 10**4299
        return
    assert json_code == text_code == 1
    assert doc["error"] == "SizeLimit"
    assert doc["witness"] == {"requested": digits, "cap": 4300}
    assert "error: SizeLimit\n" in text
    assert f"witness: {{'requested': {digits}, 'cap': 4300}}\n" in text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-to-str limit")
@pytest.mark.parametrize("argv, error", [
    (["geometry", "degenerate", "--q", "2", "--dim", "20000"], "SizeLimit"),
    (["geometry", "lines", "--q", "2", "--dim", "20000"], "SizeLimit"),
    (["geometry", "hesse", "--q", "2", "--dim", "20000"], "SizeLimit"),
    (["geometry", "degenerate", "--q", "2", "--dim", "10000000"], "Overflow"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_refused_size_too_long_to_print_ends_typed(argv, error, deadline, capsys):
    # 2**20000 points pass the bit estimate but not str(); 2**10**7 fails
    # the estimate; both once ended in a raw ValueError
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        json_code = main(argv + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        text_code = main(argv)
        text = capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(previous)
    assert json_code == text_code == 1
    assert doc["error"] == error
    assert f"error: {error}\n" in text
    if error == "SizeLimit":
        assert doc["message"].startswith("<20001-bit integer> points exceed")
        assert doc["witness"] == {"requested": "<20001-bit integer>", "cap": 2**16}
        assert "witness: {'requested': '<20001-bit integer>', 'cap': 65536}\n" in text
    else:  # the bit estimate of 2**10**7 and the bit cap
        assert doc["witness"] == {"requested": 20_000_000, "cap": 4_000_000}
        assert "witness: {'requested': 20000000, 'cap': 4000000}\n" in text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-to-str limit")
@pytest.mark.parametrize("points, message", [
    # 10**5000 would print; 10**99999999 would take minutes to compute
    ("1e5000,0;0,1;1,1", "point '1e5000,0' has a coordinate of about 5001 digits"),
    ("-1e99999999,0;0,1;1,1", "point '-1e99999999,0' has a coordinate of about 100000001"),
    # each coordinate prints, but the line through the pair holds a longer int
    (f"1/{7**3500},0;0,2/{3**6000};1,1", "line has 5821 decimal digits"),
], ids=["exponent", "huge exponent", "line"])
def test_rational_point_too_long_to_print_ends_typed(points, message, deadline, capsys):
    with_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["geometry", "ordinary-line", f"--points={points}", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
    finally:
        sys.set_int_max_str_digits(with_limit)
    assert code == 1
    assert doc["error"] == "SizeLimit"
    assert doc["message"].startswith(message)
    assert doc["witness"]["cap"] == 4300


# numpy stays unloaded until a field's tables are built: importing the
# package, running commands and library calls that enumerate elements,
# points or vectors (but build no operation or line table) must not load
# it, and geometry lines (which builds tables) still answers its golden
NUMPY_PROBE = textwrap.dedent("""
    import io
    import sys

    def check(step):
        assert "numpy" not in sys.modules, "numpy loaded by " + step

    import finiverse
    check("import finiverse")
    import finiverse.cli as cli
    check("import finiverse.cli")
    for argv in (["cosmo", "rate"], ["regularize", "zeta", "--s", "1"],
                 ["field", "inverse", "--p", "3", "--k", "2", "--element", "1:1"],
                 ["hilbert", "norm", "--p", "2", "--k", "2", "--vector", "1:0,1:0"],
                 ["geometry", "degenerate", "--q", "5"]):
        out, sys.stdout = sys.stdout, io.StringIO()
        try:
            assert cli.main(argv) == 0
        finally:
            sys.stdout = out
        check(" ".join(argv))
    spec = finiverse.make_extension_field(3, 2)
    assert len(finiverse.enumerate_elements(spec)) == 9
    check("enumerate_elements")
    points = finiverse.AffineSpace(spec, 2).points()
    check("AffineSpace.points")
    vectors = finiverse.enumerate_vectors(finiverse.FiniteHilbertSpace(spec, 2))
    check("enumerate_vectors")
    assert any(map(finiverse.is_isotropic, points + vectors))
    check("is_isotropic")
    code = cli.main(["geometry", "lines", "--q", "4", "--format", "json"])
    assert code == 0 and "numpy" in sys.modules
""")


def test_cold_commands_do_not_import_numpy():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    goldens = json.loads((REPO / "perfbench" / "cli_goldens.json").read_text(encoding="utf-8"))
    golden = next(
        c for c in goldens if c["argv"] == ["geometry", "lines", "--q", "4", "--format", "json"]
    )
    assert proc.stdout == golden["stdout"].encode("utf-8")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "finiverse", "regularize", "zeta", "--s", "1", "--format", "json"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout.decode("utf-8"))
    assert doc["outputs"]["value"]["value"] == {"num": -1, "den": 12}


def test_planck_density_command(tmp_path):
    _, doc = run_json(["cosmo", "planck-density"])
    assert float(doc["outputs"]["planck_density"]["value"]) == pytest.approx(
        1.843391011650114e112, rel=1e-12
    )
    assert float(doc["outputs"]["min_diameter_at_planck_density"]["value"]) == pytest.approx(
        1.8294288892041766e-55, rel=1e-12
    )
    # c**4 underflows to 0: the density itself is refused, not the rho_vac it feeds
    cfg = tmp_path / "cosmo.cfg"
    cfg.write_text("c = 1e-100\n", encoding="utf-8")
    report, doc = run_json(["cosmo", "planck-density", "--config", str(cfg)])
    assert report.exit_code == 1
    assert doc["message"] == "Planck vacuum density must be a finite real number > 0, got 0.0"


@pytest.mark.parametrize("argv", [
    ["cosmo", "point-count", "--rho-vac", "nan"],
    ["cosmo", "point-count", "--l-u", "inf"],
    ["cosmo", "growth", "--dt-gyr", "nan"],
    ["cosmo", "diameter-at", "--dt", "inf"],
    ["regularize", "vacuum", "--l", "nan"],
    ["regularize", "vacuum", "--l", "inf"],
    ["regularize", "mode-energy", "--kx", "nan"],
    ["regularize", "mode-energy", "--m0", "inf"],
    ["regularize", "oscillator-energy", "--l", "1e-15", "--count", "nan"],
    ["geometry", "diameter", "--step", "inf", "--order", "7"],
    ["geometry", "diameter", "--step", "nan", "--order", "7"],
    ["cosmo", "evolve", "--rho0", "nan", "--t-end", "1e17", "--step", "1e14"],
    ["cosmo", "evolve", "--rho0", "nan", "--adot0", "1e-18", "--t-end", "1e17", "--step", "1e14"],
    ["cosmo", "evolve", "--a0", "nan", "--adot0", "1e-18", "--rho0", "6e-27", "--t-end", "1e17",
     "--step", "1e14"],
    ["cosmo", "evolve", "--rho0", "6e-27", "--t-end", "inf", "--step", "1e14"],
    # malformed element, vector and point text
    ["field", "inverse", "--p", "5", "--element", "x"],
    ["field", "inverse", "--p", "3", "--k", "2", "--element", "1:x"],
    ["hilbert", "norm", "--p", "3", "--vector", "x"],
    ["hilbert", "norm", "--p", "3", "--vector", "1,"],
    ["hilbert", "inner", "--p", "3", "--u", "1,2", "--v", "1,y"],
    ["geometry", "ordinary-line", "--points", "0,0;1,x;2,2"],
    ["geometry", "ordinary-line", "--points", "0,0;1,1/0;2,2"],
    # finite input whose result a float cannot hold
    ["cosmo", "growth", "--dt-gyr", "1e10"],
    ["cosmo", "growth", "--h0", "1e300", "--dt-gyr", "-1"],  # exponent -inf
    ["cosmo", "growth", "--h0", "1e300", "--dt-gyr", "0"],  # per-Gyr exponent inf
    ["cosmo", "evolve", "--a0", "1e-200", "--rho0", "6e-27", "--t-end", "1e17", "--step", "1e14"],
    ["cosmo", "evolve", "--a0", "1e-170", "--adot0", "0", "--rho0", "6e-27", "--t-end", "1e17",
     "--step", "1e16"],
    ["cosmo", "point-count", "--l-u", "1e300"],
    ["regularize", "mode-energy", "--kx", "1e300"],
    ["cosmo", "density", "--l-u", "1e-300"],
    ["cosmo", "min-diameter", "--rho-vac", "1e-320", "--l-u", "1e-10"],
    ["cosmo", "count-at", "--dt", "1e300"],
    ["cosmo", "diameter-at", "--dt", "1e300"],
    ["cosmo", "evolve", "--a0", "1", "--adot0", "1e200", "--rho0", "6e-27", "--t-end", "1e17",
     "--step", "1e14"],
    ["cosmo", "density", "--l-u", "1e-100"],
    ["cosmo", "point-count", "--l-u", "1e-100"],
    ["cosmo", "min-diameter", "--rho-vac", "1e300", "--l-u", "1e300"],
    ["cosmo", "rate", "--h0", "1e200"],
    ["cosmo", "evolve", "--a0", "1e200", "--rho0", "6e-27", "--t-end", "1e17", "--step", "1e15"],
    # Lambda*c**2 overflows to inf and the scale factor becomes NaN
    ["cosmo", "evolve", "--rho0", "6e-27", "--lambda", "1e295", "--adot0", "0", "--t-end", "1e17",
     "--step", "1e16"],
    ["regularize", "oscillator-energy", "--l", "1e-300", "--count", "1e300"],
    ["geometry", "diameter", "--step", "1e300", "--order", "10000000000"],
    # closed forms that divide by an underflowed c**4, overflow to inf or
    # underflow to 0 (the --config value is the file's text)
    ["cosmo", "lambda", "--rho-vac", "1e300", "--config", "c = 1e-100"],
    ["cosmo", "lambda", "--rho-vac", "1e300", "--config", "G = 1e300"],
    ["cosmo", "accel", "--rho-vac", "1e300", "--config", "G = 1e300"],
    ["cosmo", "accel", "--rho-vac", "1e300", "--config", "c = 1e-100"],
    ["cosmo", "accel", "--rho-vac", "1e-320"],
    ["cosmo", "growth", "--h0", "1", "--dt-gyr", "-1"],
    ["cosmo", "planck-density", "--config", "c = 1e-100"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_input_is_invalid(argv, tmp_path):
    if "--config" in argv:
        i = argv.index("--config") + 1
        cfg = tmp_path / "cosmo.cfg"
        cfg.write_text(argv[i] + "\n", encoding="utf-8")
        argv = argv[:i] + [str(cfg)] + argv[i + 1:]
    report = dispatch(argv)
    assert report.status == "error"
    assert report.error == "InvalidInput"
    assert report.exit_code == 1


# stdout bytes of commands beside perfbench/cli_goldens.json: a prime-field
# inverse (Fermat power, not Euclid) and a space over the line-incidence cap
EXTRA_GOLDENS = {
    ("field", "inverse", "--p", "7", "--element", "3"): (0, (
        "command: field inverse\n"
        "status: ok\n"
        "inputs: p=7 k=1 element=3\n"
        "inverse = 5\n"
        "formula: a^(p-2) mod p (Fermat's little theorem)\n"
    )),
    ("geometry", "lines", "--q", "7", "--dim", "4", "--format", "json"): (1, (
        '{"command": "geometry lines", "status": "error", "outputs": {}, '
        '"message": "137200 lines of 7 points hold 960400 incidences, more than the '
        'line-enumeration cap 524288", "error": "SizeLimit", '
        '"witness": {"requested": 960400, "cap": 524288}, "exit_code": 1}\n'
    )),
}


@pytest.mark.parametrize("argv", sorted(EXTRA_GOLDENS), ids=" ".join)
def test_cli_output_matches_extra_golden(argv, capsys):
    code, stdout = EXTRA_GOLDENS[argv]
    assert main(list(argv)) == code
    assert capsys.readouterr().out == stdout
