"""Command-line surface: `finiverse <subcommand> <action> [--flags]`.

Every report is deterministic: the same argv produces byte-identical
JSON.  Floats render as 15-significant-digit decimal strings, exact
rationals as {"num": ..., "den": ...}; every physical output carries a
unit string.  Exit codes: 0 success, 1 domain error, 2 usage error.

An action whose one output is a library function of its own flags is
declared, not written: ``value_action`` in ``_build_parser`` names its
module, function, flags, output name and unit, formula, and whether the
CosmologyParams lead and the constants follow, and ``_handle_value``
runs it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import cosmology, fields, geometry, hilbert, regularization
from .constants import CODATA2018, GIGAYEAR
from .cosmology import OBSERVED, LinearityWarning
from .errors import (
    FiniverseError,
    InvalidInputError,
    UsageError,
    _at_most,
    _finite,
    _integer,
    _integer_digits,
    _printable,
    _read_rational,
    _str_digits,
    _str_limit,
)

__all__ = ["RunReport", "dispatch", "render_json", "render_text", "main"]


@dataclass
class RunReport:
    command: str = ""  # "<subcommand> <action>", set by dispatch
    status: str = "ok"  # ok | none | error
    inputs: dict = dc_field(default_factory=dict)
    outputs: dict = dc_field(default_factory=dict)  # name -> (value, unit)
    formula: str = ""
    message: str = ""
    error: str | None = None
    witness: object = None
    warnings: list = dc_field(default_factory=list)
    exit_code: int = 0
    fmt: str = "text"

    def to_dict(self) -> dict:
        doc = {"command": self.command, "status": self.status}
        if self.inputs:
            doc["inputs"] = {k: _jsonify(v) for k, v in self.inputs.items()}
        if self.status == "none":
            doc["result"] = None
        doc["outputs"] = {
            name: {"value": _jsonify(value), "unit": unit}
            for name, (value, unit) in self.outputs.items()
        }
        if self.formula:
            doc["formula"] = self.formula
        if self.message:
            doc["message"] = self.message
        if self.error is not None:
            doc["error"] = self.error
            if self.witness is not None:
                doc["witness"] = _jsonify(self.witness)
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        doc["exit_code"] = self.exit_code
        return doc


def _fmt_float(v: float) -> str:
    return format(float(v), ".15g")


def _jsonify(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, int):
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonify(x) for k, x in v.items()}
    return str(v)


def render_json(report: RunReport) -> bytes:
    return (json.dumps(report.to_dict(), ensure_ascii=False) + "\n").encode("utf-8")


def _text_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_text_value(x) for x in v) + ")"
    return str(v)


def _render_grid(rows: list) -> list[str]:
    width = max(len(str(cell)) for row in rows for cell in row)
    return ["  ".join(str(cell).rjust(width) for cell in row) for row in rows]


def render_text(report: RunReport) -> str:
    lines = [f"command: {report.command}", f"status: {report.status}"]
    if report.inputs:
        lines.append(
            "inputs: " + " ".join(f"{k}={_text_value(v)}" for k, v in report.inputs.items())
        )
    for name, (value, unit) in report.outputs.items():
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple)):
            lines.append(f"{name}:")
            lines.extend("  " + row for row in _render_grid(value))
        else:
            suffix = "" if unit in ("", None) else f" [{unit}]"
            lines.append(f"{name} = {_text_value(value)}{suffix}")
    if report.status == "none":
        lines.append("result: none")
    if report.message:
        lines.append(f"message: {report.message}")
    if report.error is not None:
        lines.append(f"error: {report.error}")
        if report.witness is not None:
            lines.append(f"witness: {_text_value(report.witness)}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    if report.formula:
        lines.append(f"formula: {report.formula}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 2
        raise UsageError(message)


def _field_spec_from_order(q: int) -> fields.FieldSpec:
    """GF(q) for a prime power q = p^k: p is the one prime factor of q,
    found by ``fields._prime_factors``, and k its multiplicity.  Every
    caller enumerates at least q points, so q above the point cap is
    refused first, and the trial division stops below 256."""
    _integer(q, "field order", 2)
    _at_most(q, geometry.LINE_CAP, "field order {n} exceeds the point enumeration cap {cap}")
    primes = fields._prime_factors(q)
    if len(primes) != 1:
        raise InvalidInputError(f"{q} is not a prime power")
    [p] = primes
    k = next(k for k in range(1, q.bit_length()) if p**k == q)
    return fields.make_extension_field(p, k)


def _parse_element(spec: fields.FieldSpec, text: str) -> fields.FieldElement:
    try:
        value = [int(c) for c in text.split(":")] if ":" in text else int(text)
    except ValueError:
        digits = [_integer_digits(part) for part in text.split(":")]
        if None not in digits:  # well-formed, so int() refused its length
            n = max(digits)
            _at_most(n, _str_limit() or n, "element {text!r} has an integer of {n} digits, "
                     "more than the {cap} str() converts", text=text)
        raise InvalidInputError(f"element {_printable(text)!r} is not an integer or "
                                "colon-separated integer coefficients") from None
    return spec.element(value)


def _parse_vector(spec: fields.FieldSpec, text: str) -> fields.FieldVector:
    return fields.FieldVector(_parse_element(spec, part) for part in text.split(","))


def _bracketed(vec: fields.FieldVector) -> str:
    """The hilbert commands' rendering of a vector: [a, b]."""
    return "[" + ", ".join(map(str, vec)) + "]"


def _parse_rational_points(text: str) -> list[geometry.RationalPoint]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"point {_printable(chunk)!r} is not x,y")
        # refused before 10**exponent is computed; with no str() limit, by RationalPoint
        for part in parts:
            _, digits = _read_rational(part) or (0, 0)  # malformed: RationalPoint refuses
            _at_most(digits, _str_limit() or digits, "point {chunk!r} has a coordinate of "
                     "about {n} digits, more than the {cap} str() converts", chunk=chunk)
        try:
            points.append(geometry.RationalPoint(*parts))
        except InvalidInputError:
            raise InvalidInputError(
                f"point {_printable(chunk)!r} is not two exact rationals") from None
    return points


def _constants_and_params(args):
    """Constants and params from --config, then the cosmo flags, whose
    dests are the CosmologyParams field names."""
    constants, params = CODATA2018, OBSERVED
    if args.config:
        constants, params = cosmology.load_config(args.config)
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(params)
        if getattr(args, f.name, None) is not None
    }
    return constants, dataclasses.replace(params, **overrides)


# -- handlers ----------------------------------------------------------------


def _axiom_outputs(report) -> dict:
    out = {"order": (report.order, "elements"), "all_pass": (report.all_pass, "")}
    for name, check in report.checks.items():
        out[name] = ("pass" if check.passed else f"FAIL witness {check.witness}", "")
    return out


#: largest field order whose operation tables are rendered
_TABLE_RENDER_CAP = 64


def _handle_field_table(args) -> RunReport:
    spec = fields.make_extension_field(args.p, args.k)
    _at_most(spec.order, _TABLE_RENDER_CAP, "table rendering capped at order {cap}, got {n}")
    elements, add_t, mul_t = fields.operation_tables(spec)
    labels = [str(e) for e in elements]

    def grid(table, symbol):
        rows = [[symbol] + labels]
        for i, lab in enumerate(labels):
            rows.append([lab] + [labels[int(j)] for j in table[i]])
        return rows

    return RunReport(
        inputs={"p": spec.p, "k": spec.k, "modulus": fields._poly_str(spec.modulus_poly, "x")},
        outputs={
            "add_table": (grid(add_t, "+"), ""),
            "mul_table": (grid(mul_t, "*"), ""),
        },
        formula="arithmetic mod p and mod the modulus polynomial",
    )


def _handle_field_gaussian(args) -> RunReport:
    spec = fields.make_gaussian_extension(args.p)
    return RunReport(
        inputs={"p": args.p},
        outputs={
            "order": (spec.order, "elements"),
            "modulus": (fields._poly_str(spec.modulus_poly, "x"), ""),
            "is_field": (True, ""),
        },
        formula="pairs x+iy mod p form a field iff p mod 4 == 3",
    )


def _handle_field_axioms(args) -> RunReport:
    if args.ring is not None:
        report = fields.verify_modular_ring_axioms(args.ring)
        inputs = {"ring": f"Z/{args.ring}"}
    else:
        spec = fields.make_extension_field(args.p, args.k)
        report = fields.verify_field_axioms(spec)
        inputs = {"p": spec.p, "k": spec.k}
    return RunReport(
        inputs=inputs,
        outputs=_axiom_outputs(report),
        formula="exhaustive truth-table check of all field axioms",
    )


def _handle_field_inverse(args) -> RunReport:
    spec = fields.make_extension_field(args.p, args.k)
    element = _parse_element(spec, args.element)
    return RunReport(
        inputs={"p": spec.p, "k": spec.k, "element": str(element)},
        outputs={"inverse": (str(element.inverse()), "")},
        formula=("a^(p-2) mod p (Fermat's little theorem)" if spec.k == 1
                 else "extended Euclidean algorithm on coefficient polynomials"),
    )


def _handle_geometry_degenerate(args) -> RunReport:
    spec = _field_spec_from_order(args.q)
    space = geometry.AffineSpace(spec, args.dim)
    pair = geometry.find_degenerate_pair(space)
    inputs = {"q": args.q, "dim": args.dim}
    if pair is None:
        return RunReport(
            status="none",
            inputs=inputs,
            message="no distinct point pair at squared distance zero",
            formula="d2(x,y) = sum((x_i-y_i)^2) over GF(q)",
        )
    return RunReport(
        inputs=inputs,
        outputs={
            "first": (str(pair[0]), ""),
            "second": (str(pair[1]), ""),
            "squared_distance": (str(geometry.squared_distance(*pair)), ""),
        },
        formula="d2(x,y) = sum((x_i-y_i)^2) over GF(q)",
    )


def _handle_geometry_lines(args) -> RunReport:
    spec = _field_spec_from_order(args.q)
    structure = geometry.incidence_structure(geometry.AffineSpace(spec, args.dim))
    return RunReport(
        inputs={"q": args.q, "dim": args.dim},
        outputs={
            "points": (len(structure.points), ""),
            "lines": (len(structure.lines), ""),
            "points_per_line": (sorted({len(line) for line in structure.lines}), ""),
            "lines_per_point": (sorted(set(structure.point_degrees().values())), ""),
        },
        formula="lines = q^(dim-1)*(q^dim-1)/(q-1), each with q points",
    )


def _handle_geometry_hesse(args) -> RunReport:
    spec = _field_spec_from_order(args.q)
    space = geometry.AffineSpace(spec, args.dim)
    check = geometry.check_hesse_property(geometry.incidence_structure(space))
    outputs = {"holds": (check.holds, "")}
    if not check.holds:
        outputs["witness_pair"] = (check.witness, "")
        outputs["detail"] = (check.detail, "")
    return RunReport(
        inputs={"q": args.q, "dim": args.dim},
        outputs=outputs,
        formula="every line through two points carries a third",
    )


def _handle_geometry_ordinary(args) -> RunReport:
    points = _parse_rational_points(args.points)
    result = geometry.find_ordinary_line(points)
    if result.status == geometry.COLLINEAR:
        return RunReport(
            status="none",
            inputs={"points": args.points},
            message="all points are collinear; no ordinary line exists",
        )
    i, j = result.pair
    return RunReport(
        inputs={"points": args.points},
        outputs={
            "pair": (result.pair, ""),
            "through": (f"{points[i]} and {points[j]}", ""),
            "line": (result.line, "a*x+b*y+c=0"),
        },
        formula="exact rational scan over all point pairs",
    )


def _handle_hilbert_norm(args) -> RunReport:
    spec = fields.make_extension_field(args.p, args.k)
    vec = _parse_vector(spec, args.vector)
    n2 = hilbert.norm_squared(vec)
    return RunReport(
        inputs={"p": spec.p, "k": spec.k, "vector": _bracketed(vec)},
        outputs={
            "norm_squared": (str(n2), ""),
            "isotropic": (hilbert.is_isotropic(vec), ""),
        },
        formula="<v,v> = sum(conj(v_n)*v_n)",
    )


def _handle_hilbert_inner(args) -> RunReport:
    spec = fields.make_extension_field(args.p, args.k)
    u = _parse_vector(spec, args.u)
    v = _parse_vector(spec, args.v)
    return RunReport(
        inputs={"p": spec.p, "k": spec.k, "u": _bracketed(u), "v": _bracketed(v)},
        outputs={"inner_product": (str(hilbert.inner_product(u, v)), "")},
        formula="<u,v> = sum(conj(u_n)*v_n)",
    )


def _handle_reg_vacuum(args) -> RunReport:
    constants, _ = _constants_and_params(args)
    if args.n is not None:
        energy = regularization.vacuum_energy_partial(args.l, args.n, constants)
        return RunReport(
            inputs={"L": args.l, "N": args.n},
            outputs={"energy": (energy, "J")},
            formula="E(L,N) = (sqrt(3)*pi*hbar*c/L)*N*(N+1)/2",
        )
    energy = regularization.vacuum_energy_regularized(args.l, constants)
    return RunReport(
        inputs={"L": args.l},
        outputs={"energy": (energy, "J")},
        formula="E(L) = (sqrt(3)*pi*hbar*c/L)*(-1/12)",
    )


def _handle_value(args) -> RunReport:
    """An action whose one output is a library function of its own flag
    values, passed in declaration order, after the CosmologyParams and
    before the constants when the action declares them (only then is
    --config read); the params' fields lead the report's inputs.  The
    function is looked up by name on each run, so a rebound module
    attribute (a wrapper, a test double) is the one called."""
    inputs = {dest: getattr(args, dest) for dest in args.inputs}
    call = list(inputs.values())
    if args.params or args.constants:
        constants, params = _constants_and_params(args)
        if args.params:
            call.insert(0, params)
            inputs = {**dataclasses.asdict(params), **inputs}
        if args.constants:
            call.append(constants)
    name, unit = args.output
    value = getattr(args.module, args.function)(*call)
    return RunReport(inputs=inputs, outputs={name: (value, unit)}, formula=args.formula)


@_finite("growth exponent")
def _growth_exponent(H0: float, dt: float) -> float:
    return 4 * H0 * dt


def _handle_cosmo_growth(args) -> RunReport:
    constants, params = _constants_and_params(args)
    dt = args.dt_gyr * GIGAYEAR
    return RunReport(
        inputs={"H0": params.H0, "dt_gyr": args.dt_gyr},
        outputs={
            "exponent": (_growth_exponent(params.H0, dt), "dimensionless"),
            "factor": (cosmology.point_count_growth_factor(params.H0, dt), "dimensionless"),
            "exponent_per_gyr": (cosmology.growth_exponent_per_gigayear(params.H0), "1/Gyr"),
        },
        formula="P(dt)/P(0) = exp(4*H0*dt)",
    )


def _handle_cosmo_density(args) -> RunReport:
    constants, params = _constants_and_params(args)
    rho_p = cosmology.pointset_density(params, constants)
    return RunReport(
        inputs=dataclasses.asdict(params),
        outputs={
            "density": (rho_p, "1/m^3"),
            "volume_per_point": (1 / rho_p, "m^3"),
        },
        formula="rho_P = P/L_U^3",
    )


def _handle_cosmo_planck_density(args) -> RunReport:
    constants, params = _constants_and_params(args)
    rho = cosmology.planck_vacuum_density(constants)
    fed = dataclasses.replace(params, rho_vac=rho)
    return RunReport(
        inputs={"l_planck": constants.l_planck, "L_U0": params.L_U0},
        outputs={
            "planck_density": (rho, "J/m^3"),
            "min_diameter_at_planck_density": (
                cosmology.min_metric_diameter(fed, constants),
                "m",
            ),
        },
        formula="rho_vac = c^4/(8*pi*G*l_planck^2)",
    )


def _handle_cosmo_evolve(args) -> RunReport:
    constants, _ = _constants_and_params(args)
    eos = (
        cosmology.vacuum_pressure_law(constants)
        if args.eos == "vacuum"
        else cosmology.dust_pressure_law()
    )
    a_dot0 = args.adot0
    if a_dot0 is None:
        rate = cosmology.friedmann_hubble_rate(
            args.rho0, args.lam, args.kappa_flat, args.a0, constants
        )
        a_dot0 = args.a0 * rate
    initial = cosmology.FluidState(a=args.a0, a_dot=a_dot0, rho=args.rho0, p=eos(args.rho0), t=0.0)
    traj = cosmology.evolve_scale_factor(
        initial, eos, args.lam, args.kappa_flat, args.t_end, args.step, constants
    )
    max_resid = max(abs(r) for r in traj.friedmann_residuals)
    return RunReport(
        inputs={
            "eos": args.eos,
            "a0": args.a0,
            "adot0": a_dot0,
            "rho0": args.rho0,
            "lambda": args.lam,
            "kappa": args.kappa_flat,
            "t_end": args.t_end,
            "step": args.step,
        },
        outputs={
            "a_end": (traj.final.a, "dimensionless"),
            "rho_end": (traj.final.rho, "kg/m^3"),
            "samples": (len(traj.samples), ""),
            "max_friedmann_residual": (max_resid, "1/s^2"),
            "halving_rel_diff": (traj.halving_rel_diff, "dimensionless"),
        },
        formula=(
            "addot/a = -(4*pi*G/3)*(rho+3*p/c^2) + Lambda*c^2/a^2; "
            "rhodot = -3*(adot/a)*(rho+p/c^2)"
        ),
    )


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="finiverse", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    subs = parser.add_subparsers(dest="subcommand", required=True)

    def action(sub, name, handler, config=False, **defaults):
        """An action; --config only on one that calls _constants_and_params."""
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(handler=handler, **defaults)
        if config:
            p.add_argument("--config", default=None, help="key=value constants/params file")
        return p

    def field_action(sub, name, handler):
        """An action on GF(p^k), given by --p and --k."""
        p = action(sub, name, handler)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--k", type=int, default=1)
        return p

    def cosmo_flags(p):
        """The CosmologyParams flags; their dests are its field names."""
        p.add_argument("--rho-vac", dest="rho_vac", type=float, default=None)
        p.add_argument("--l-u", dest="L_U0", type=float, default=None)
        p.add_argument("--h0", dest="H0", type=float, default=None)
        p.add_argument("--kappa", type=int, default=None)
        return p

    def value_action(sub, name, module, function, output, formula, *flags, params=False,
                     constants=False):
        """An action run by _handle_value: ``output`` is (name, unit) of
        module.function([params, ]*flag values[, constants]).  A flag is
        (spelling, dest, type), required, or (spelling, dest, type,
        default); the dests are the report's input names."""
        p = action(sub, name, _handle_value, params or constants, module=module,
                   function=function, output=output, formula=formula, params=params,
                   constants=constants, inputs=[flag[1] for flag in flags])
        if params:
            cosmo_flags(p)
        for spelling, dest, type_, *default in flags:
            p.add_argument(spelling, dest=dest, type=type_, required=not default,
                           default=default[0] if default else None)

    f = subs.add_parser("field").add_subparsers(dest="action", required=True)
    field_action(f, "table", _handle_field_table)
    p = action(f, "gaussian", _handle_field_gaussian)
    p.add_argument("--p", type=int, required=True)
    p = action(f, "axioms", _handle_field_axioms)
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--p", type=int)
    one.add_argument("--ring", type=int, help="check Z/n instead of a field")
    p.add_argument("--k", type=int, default=1)
    p = field_action(f, "inverse", _handle_field_inverse)
    p.add_argument("--element", required=True)

    g = subs.add_parser("geometry").add_subparsers(dest="action", required=True)
    for name, handler in (
        ("degenerate", _handle_geometry_degenerate),
        ("lines", _handle_geometry_lines),
        ("hesse", _handle_geometry_hesse),
    ):
        p = action(g, name, handler)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--dim", type=int, default=2)
    p = action(g, "ordinary-line", _handle_geometry_ordinary)
    p.add_argument("--points", required=True, help='"x1,y1;x2,y2;..." exact rationals')
    value_action(g, "cardinality", geometry, "pointset_cardinality", ("cardinality", "points"),
                 "card = order^dim", ("--order", "order", int), ("--dim", "dim", int))
    value_action(g, "diameter", geometry, "subspace_diameter", ("diameter", "m"),
                 "diam = step*(order-1)", ("--step", "step", float), ("--order", "order", int))

    h = subs.add_parser("hilbert").add_subparsers(dest="action", required=True)
    value_action(h, "cardinality", hilbert, "hilbert_cardinality", ("cardinality", "vectors"),
                 "card = p^(k*dim)", ("--p", "p", int), ("--k", "k", int, 1), ("--dim", "dim", int))
    p = field_action(h, "norm", _handle_hilbert_norm)
    p.add_argument("--vector", required=True, help='coords "c0:c1,c0:c1" or ints')
    p = field_action(h, "inner", _handle_hilbert_inner)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    r = subs.add_parser("regularize").add_subparsers(dest="action", required=True)
    value_action(r, "bernoulli", regularization, "bernoulli", ("value", "dimensionless"),
                 "sum_{j<=n} C(n+1,j)*B_j = n+1 (B_1 = +1/2 convention)", ("--n", "n", int))
    value_action(r, "zeta", regularization, "zeta_negative", ("value", "dimensionless"),
                 "zeta(-s) = -B_(s+1)/(s+1)", ("--s", "s", int))
    value_action(r, "partial-sum", regularization, "partial_sum_linear",
                 ("value", "dimensionless"), "S(N) = N*(N+1)/2", ("--n", "n", int))
    value_action(r, "mode-energy", regularization, "mode_energy", ("omega", "rad/s"),
                 "omega = c*sqrt((m0*c/hbar)^2 + kx^2+ky^2+kz^2)",
                 *((f"--{k}", k, float, 0.0) for k in ("m0", "kx", "ky", "kz")), constants=True)
    p = action(r, "vacuum", _handle_reg_vacuum, config=True)
    p.add_argument("--l", type=float, required=True, help="box edge, m")
    p.add_argument("--n", type=int, default=None, help="cutoff; omit for regularized value")
    value_action(r, "oscillator-energy", regularization, "oscillator_count_energy",
                 ("energy", "J"), "E = pi*hbar*c*P/L", ("--l", "L", float), ("--count", "P", float),
                 constants=True)
    value_action(r, "point-bound", regularization, "point_bound_from_cutoff", ("bound", "points"),
                 "P < (sqrt(3)/2)*K*(K+1)", ("--k", "K", int))

    c = subs.add_parser("cosmo").add_subparsers(dest="action", required=True)

    def cosmo_value(name, function, output, formula, *flags, constants=True):
        """A value action on cosmology.function(params, *flags[, constants])."""
        value_action(c, name, cosmology, function, output, formula, *flags, params=True,
                     constants=constants)

    cosmo_value("point-count", "vacuum_point_count", ("point_count", "points"),
                "P = rho_vac*L_U^4/(pi*hbar*c)")
    cosmo_value("lambda", "lambda_from_density", ("lambda", "1/m^2"),
                "Lambda = 8*pi*G*rho_vac/c^4")
    cosmo_value("rate", "point_count_rate", ("rate", "1/s"), "dP/dt = 4*H0*P")
    p = cosmo_flags(action(c, "growth", _handle_cosmo_growth, config=True))
    p.add_argument("--dt-gyr", dest="dt_gyr", type=float, default=1.0)
    cosmo_flags(action(c, "density", _handle_cosmo_density, config=True))
    cosmo_value("min-diameter", "min_metric_diameter", ("min_diameter", "m"),
                "d_min = (pi*hbar*c/(rho_vac*L_U))^(1/3)")
    cosmo_flags(action(c, "planck-density", _handle_cosmo_planck_density, config=True))
    cosmo_value("diameter-at", "universe_diameter_at", ("diameter", "m"),
                "L_U(dt) = L_U0*(1+H0*dt)", ("--dt", "dt", float), constants=False)
    cosmo_value("count-at", "point_count_at_linear", ("point_count", "points"),
                "P(dt) = (c^3*Lambda/(8*pi^2*hbar*G))*L_U0^4*(1+4*H0*dt)", ("--dt", "dt", float))
    cosmo_value("accel", "acceleration_constant_check", ("accel_ratio", "1/s^2"),
                "addot/a = (8*pi*G/(3*c^2))*rho_vac")
    p = action(c, "evolve", _handle_cosmo_evolve, config=True)
    p.add_argument("--eos", choices=("vacuum", "dust"), default="vacuum")
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--adot0", type=float, default=None, help="default: on the first integral")
    p.add_argument("--rho0", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--kappa", dest="kappa_flat", type=int, default=0, choices=(-1, 0, 1))
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--step", type=float, required=True)

    return parser


_PARSER = _build_parser()


def _scalars(value) -> list:
    """A report value's scalars: the value, its items, a fraction's two terms."""
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _scalars(item)]
    return [value.numerator, value.denominator] if isinstance(value, Fraction) else [value]


def _refuse_unprintable(outputs: dict) -> None:
    """SizeLimitError for an output holding an int with more decimal digits
    than ``str`` converts."""
    for name, (value, _) in outputs.items():
        _at_most(max(map(_str_digits, _scalars(value)), default=0), _str_limit(),
                 "{name} has {n} decimal digits, more than the {cap} str() converts", name=name)


def dispatch(argv: list[str]) -> RunReport:
    """Parse argv, run exactly one operation, and return its report."""
    command = " ".join(argv[:2]) if argv else ""
    fmt = "text"
    try:
        args = _PARSER.parse_args(argv)
        command, fmt = f"{args.subcommand} {args.action}", args.format
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", LinearityWarning)
            report = args.handler(args)
            _refuse_unprintable(report.outputs)
            report.warnings.extend(
                str(w.message) for w in caught if issubclass(w.category, LinearityWarning)
            )
    except FiniverseError as exc:
        witness = exc.witness
        if isinstance(witness, dict):  # a SizeLimit witness may hold an int too long for str
            witness = {key: _printable(value) for key, value in witness.items()}
        report = RunReport(
            status="error",
            error=exc.code,
            message=str(exc),
            witness=witness,
            exit_code=2 if isinstance(exc, UsageError) else 1,
        )
    report.command = command
    report.fmt = fmt
    return report


def main(argv: list[str] | None = None) -> int:
    report = dispatch(sys.argv[1:] if argv is None else argv)
    if report.fmt == "json":
        sys.stdout.buffer.write(render_json(report))
        sys.stdout.flush()
    else:
        sys.stdout.write(render_text(report))
    if report.exit_code == 2:
        print(f"usage error: {report.message}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
