"""End-to-end acceptance checks for the whole package.

Each test prints one PASS/FAIL verdict line (run with ``pytest -s`` to
see them all) and then asserts, so a red run still reports every
criterion it reached.  Together they pin the headline numbers, the
exact algebraic anchors, and the combinatorial facts the package is
built to reproduce.
"""

import itertools
import math
import random
from fractions import Fraction

from geometry_reference import find_degenerate_pair_naive

from finiverse.constants import CODATA2018, GIGAYEAR, Constants
from finiverse.cosmology import (
    OBSERVED,
    CosmologyParams,
    FluidState,
    evolve_scale_factor,
    friedmann_hubble_rate,
    growth_exponent_per_gigayear,
    lambda_from_density,
    min_metric_diameter,
    planck_vacuum_density,
    point_count_at_linear,
    point_count_growth_factor,
    point_count_rate,
    vacuum_point_count,
    vacuum_pressure_law,
)
from finiverse.errors import NotAFieldError
from finiverse.fields import (
    make_extension_field,
    make_gaussian_extension,
    make_prime_field,
    verify_field_axioms,
)
from finiverse.geometry import (
    ORDINARY,
    AffineSpace,
    RationalPoint,
    check_hesse_property,
    find_degenerate_pair,
    find_ordinary_line,
    incidence_structure,
    pointset_cardinality,
    squared_distance,
)
from finiverse.hilbert import FiniteHilbertSpace, enumerate_vectors, hilbert_cardinality
from finiverse.regularization import bernoulli, zeta_negative

C = CODATA2018


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def test_acceptance_01_vacuum_point_count():
    p0 = vacuum_point_count(OBSERVED)
    _verdict(1, "vacuum point count 3.3e123 within 3%", _within(p0, 3.3e123, 0.03))


def test_acceptance_02_min_metric_diameter():
    d = min_metric_diameter(OBSERVED)
    _verdict(2, "minimum metric diameter 5.9e-15 m within 2%", _within(d, 5.9e-15, 0.02))


def test_acceptance_03_planck_comparison():
    consts = Constants(
        hbar=C.hbar, c=C.c, G=C.G, l_planck=1.616e-35, l_strong=C.l_strong
    )
    rho = planck_vacuum_density(consts)
    fed = CosmologyParams(rho_vac=rho, L_U0=OBSERVED.L_U0, H0=OBSERVED.H0)
    d = min_metric_diameter(fed, consts)
    ok = _within(rho, 1.85e112, 0.01) and _within(d, 1.83e-55, 0.02)
    _verdict(3, "Planck-scale density 1.85e112 J/m^3 and diameter 1.83e-55 m", ok)


def test_acceptance_04_growth_factor():
    h0 = 2.19e-18
    per_gyr = growth_exponent_per_gigayear(h0)
    factor6 = point_count_growth_factor(h0, 6 * GIGAYEAR)
    ok = _within(per_gyr, 0.28, 0.02) and _within(factor6, 5.25, 0.01)
    _verdict(4, "growth exponent 0.28/Gyr and 6-Gyr factor 5.25", ok)


def test_acceptance_05_regularization_anchors():
    ok = (
        zeta_negative(0) == Fraction(-1, 2)
        and zeta_negative(1) == Fraction(-1, 12)
        and bernoulli(1) == Fraction(1, 2)
        and bernoulli(2) == Fraction(1, 6)
    )
    _verdict(5, "exact rational anchors -1/2, -1/12, B1=1/2, B2=1/6", ok)


def test_acceptance_06_quartic_field_degeneracy():
    f4 = make_extension_field(2, 2)
    plane4 = AffineSpace(f4, 2)
    alpha = f4.gen
    a = plane4.point((f4.one, f4.one))
    b = plane4.point((alpha, alpha))
    degenerate = a != b and squared_distance(a, b) == f4.zero

    plane3 = AffineSpace(make_prime_field(3), 2)
    none_found = find_degenerate_pair(plane3) is None
    oracle_agrees = find_degenerate_pair_naive(plane3) is None
    # the fast scan must agree with brute force wherever a pair exists too
    fast, naive = find_degenerate_pair(plane4), find_degenerate_pair_naive(plane4)
    consistent = (fast is None) == (naive is None)
    _verdict(
        6,
        "degenerate pair in the 4-element plane, none over GF(3)",
        degenerate and none_found and oracle_agrees and consistent,
    )


def test_acceptance_07_hesse_configuration():
    structure = incidence_structure(AffineSpace(make_prime_field(3), 2))
    degrees = set(structure.point_degrees().values())
    ok = (
        len(structure.points) == 9
        and len(structure.lines) == 12
        and all(len(line) == 3 for line in structure.lines)
        and degrees == {4}
        and check_hesse_property(structure).holds
        and not check_hesse_property(
            incidence_structure(AffineSpace(make_prime_field(2), 2))
        ).holds
    )
    _verdict(7, "9 points, 12 lines, 3 per line, 4 per point, third-point rule", ok)


def test_acceptance_08_ordinary_lines():
    rng = random.Random(20260818)

    def random_set():
        while True:
            n = rng.randint(3, 8)
            pts = set()
            while len(pts) < n:
                den = rng.choice((1, 1, 1, 2, 3, 5))
                pts.add(
                    (
                        Fraction(rng.randint(-10 * den, 10 * den), den),
                        Fraction(rng.randint(-10 * den, 10 * den), den),
                    )
                )
            pts = [RationalPoint(x, y) for x, y in sorted(pts)]
            o, a = pts[0], pts[1]
            collinear = all(
                (a.x - o.x) * (r.y - o.y) == (a.y - o.y) * (r.x - o.x) for r in pts[2:]
            )
            if not collinear:
                return pts

    ok = True
    for _ in range(200):
        pts = random_set()
        result = find_ordinary_line(pts)
        if result.status != ORDINARY:
            ok = False
            break
        a, b, c = result.line
        members = sum(1 for p in pts if a * p.x + b * p.y + c == 0)
        i, j = result.pair
        on_it = a * pts[i].x + b * pts[i].y + c == 0 and a * pts[j].x + b * pts[j].y + c == 0
        if members != 2 or not on_it:
            ok = False
            break
    _verdict(8, "200 random non-collinear rational sets all have an ordinary line", ok)


def test_acceptance_09_field_axiom_suite():
    ok = True
    for spec in (
        make_prime_field(2),
        make_prime_field(3),
        make_prime_field(5),
        make_prime_field(7),
        make_extension_field(2, 2),
        make_gaussian_extension(3),
        make_gaussian_extension(7),
    ):
        ok = ok and verify_field_axioms(spec).all_pass
    witness_ok = False
    try:
        make_gaussian_extension(5)
    except NotAFieldError as exc:
        (x1, y1), (x2, y2) = exc.witness
        # both factors nonzero, product zero in pairwise mod-5 arithmetic
        real = (x1 * x2 - y1 * y2) % 5
        imag = (x1 * y2 + y1 * x2) % 5
        nonzero = (x1, y1) != (0, 0) and (x2, y2) != (0, 0)
        witness_ok = nonzero and real == 0 and imag == 0
    _verdict(9, "axioms hold for 7 small fields; mod-5 pairs fail with zero divisor", ok and witness_ok)


def test_acceptance_10_cardinality_laws():
    ok = True
    for p, k in ((2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)):
        spec = make_extension_field(p, k)
        for dim in range(1, 17):
            if p ** (k * dim) > 2**16:
                break
            space = FiniteHilbertSpace(spec, dim)
            if len(enumerate_vectors(space)) != hilbert_cardinality(p, k, dim):
                ok = False
    for order in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        for dim in range(1, 17):
            if order**dim > 2**16:
                break
            count = sum(1 for _ in itertools.product(range(order), repeat=dim))
            if pointset_cardinality(order, dim) != count:
                ok = False
    _verdict(10, "cardinality formulas match exhaustive enumeration up to 2^16", ok)


def test_acceptance_11_de_sitter_integrator():
    rho = OBSERVED.rho_vac / C.c**2
    hub = friedmann_hubble_rate(rho)
    t_end = 10.0 / hub  # ten e-folds
    initial = FluidState(a=1.0, a_dot=hub, rho=rho, p=-OBSERVED.rho_vac, t=0.0)
    traj = evolve_scale_factor(
        initial, vacuum_pressure_law(), lam=0.0, kappa=0, t_end=t_end, step=t_end / 2000
    )
    a_ok = all(abs(s.a - math.exp(hub * s.t)) / math.exp(hub * s.t) <= 1e-6 for s in traj.samples)
    rho_ok = all(abs(s.rho - rho) / rho <= 1e-10 for s in traj.samples)
    resid_ok = max(abs(r) for r in traj.friedmann_residuals) <= 1e-8 * hub**2
    halving_ok = traj.halving_rel_diff <= 1e-6
    _verdict(
        11,
        "de Sitter run tracks exp(Ht) over 10 e-folds at 1e-6",
        a_ok and rho_ok and resid_ok and halving_ok,
    )


def test_acceptance_12_consistency_web():
    rng = random.Random(987654321)
    ok = True
    for _ in range(100):
        params = CosmologyParams(
            rho_vac=10 ** rng.uniform(-12, -8),
            L_U0=10 ** rng.uniform(24, 28),
            H0=10 ** rng.uniform(-19, -17),
        )
        # constant from density must equal the point-count route
        lam = lambda_from_density(params)
        p0 = vacuum_point_count(params)
        via_count = 8 * math.pi**2 * C.hbar * C.G / C.c**3 * p0 / params.L_U0**4
        if abs(lam - via_count) > 1e-12 * abs(lam):
            ok = False
            break
        # slope of the linear count at dt=0 must equal the closed-form rate
        h = 0.01 / params.H0
        slope = (point_count_at_linear(params, h) - point_count_at_linear(params, -h)) / (2 * h)
        rate = point_count_rate(params)
        if abs(slope - rate) > 1e-6 * abs(rate):
            ok = False
            break
    _verdict(12, "100 random parameter sets close the consistency web", ok)
