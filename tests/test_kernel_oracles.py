"""The index-level geometry and Hilbert kernels against their element-level
references in ``geometry_reference``: equal results, witnesses included.

The spaces are those of the benchmark's ``spaces`` workload, read from
``perfbench/workloads.py`` (standard library only), so that every space the
benchmark runs is also checked here.
"""

import importlib.util
import pathlib
import random
from fractions import Fraction

from geometry_reference import (
    check_hesse_property_naive,
    enumerate_lines_naive,
    find_ordinary_line_naive,
    is_isotropic_naive,
)

from finiverse.fields import FieldVector, make_extension_field, make_prime_field
from finiverse.geometry import (
    AffineSpace,
    IncidenceStructure,
    RationalPoint,
    check_hesse_property,
    enumerate_lines,
    find_ordinary_line,
    incidence_structure,
)
from finiverse.hilbert import FiniteHilbertSpace, enumerate_vectors, is_isotropic

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_spaces(kind):
    """(p, k, dim) of every space of one job kind in the spaces workload."""
    wl = _workloads()
    groups = {"lines": wl._LINE_SPACES, "isotropic": wl._HILBERT_SPACES}[kind]
    spaces = {space for group in groups for space in group}
    spaces |= {(job["p"], job["k"], job["dim"]) for job in wl._TOP if job["kind"] == kind}
    return sorted(spaces)


def _line_data(lines):
    return [(ln.base, ln.direction, ln.points) for ln in lines]


# -- lines and the third-point property -----------------------------------------


def test_lines_and_hesse_match_reference_on_benchmark_spaces():
    spaces = _bench_spaces("lines")
    assert (2, 4, 2) in spaces  # AG(2, 16), the largest
    for p, k, dim in spaces:
        space = AffineSpace(make_extension_field(p, k), dim)
        assert _line_data(enumerate_lines(space)) == _line_data(enumerate_lines_naive(space)), (
            f"AG({dim},{p}^{k})"
        )
        structure = incidence_structure(space)
        assert check_hesse_property(structure) == check_hesse_property_naive(structure)


def _random_structure(rng):
    n = rng.randint(2, 8)
    points = rng.sample(["a", "b", "c", "d", "e", "f", "g", "h", 0, 1, 2, 3], n)
    lines = []
    for _ in range(rng.randint(0, 3 * n)):
        size = rng.choice((2, 2, 3, 3, 4))
        if size <= n:
            lines.append(frozenset(rng.sample(points, size)))
    return IncidenceStructure(points=tuple(points), lines=tuple(lines))


def _shuffled_plane(rng, q):
    """AG(2, q) with its points in a random order, maybe one line dropped
    (a pair on no line) or one two-point line added."""
    plane = incidence_structure(AffineSpace(make_extension_field(*q), 2))
    points = list(plane.points)
    rng.shuffle(points)
    lines = list(plane.lines)
    change = rng.randrange(3)
    if change == 1:
        lines.pop(rng.randrange(len(lines)))
    elif change == 2:
        lines.append(frozenset(rng.sample(points, 2)))
    return IncidenceStructure(points=tuple(points), lines=tuple(lines))


def test_hesse_matches_reference_on_random_structures():
    rng = random.Random(20261018)
    outcomes = {}
    for trial in range(1500):
        if trial % 10:
            structure = _random_structure(rng)
        else:
            structure = _shuffled_plane(rng, rng.choice(((2, 1), (3, 1), (2, 2), (5, 1))))
        result = check_hesse_property(structure)
        assert result == check_hesse_property_naive(structure), structure
        outcomes[result.detail] = outcomes.get(result.detail, 0) + 1
    # holding, and failing with each of the two details
    assert set(outcomes) == {
        "",
        "no line through the pair",
        "every common line has only two points",
    }
    assert min(outcomes.values()) >= 20, outcomes


# -- ordinary lines ---------------------------------------------------------------


def _pt(x, y):
    return RationalPoint(Fraction(x), Fraction(y))


def _random_set(rng):
    """Points on a small lattice, many of them collinear, some not integral."""
    n = rng.randint(3, 14)
    den = rng.choice((1, 1, 2, 3))
    cells = rng.sample([(x, y) for x in range(-3, 4) for y in range(-3, 4)], n)
    return [_pt(Fraction(x, den), Fraction(y, den)) for x, y in cells]


def _near_pencil(rng):
    """n - 1 points on one line and an apex off it, in random order."""
    n = rng.randint(3, 12)
    a, b = rng.choice(((1, 0), (0, 1), (1, 1), (2, -3)))
    pts = [_pt(a * t, b * t) for t in rng.sample(range(-10, 11), n - 1)]
    pts.insert(rng.randrange(n), _pt(-b + Fraction(1, 2), a + 1))
    return pts


def _grid(rng):
    pts = [_pt(x, y) for x in range(rng.randint(2, 5)) for y in range(rng.randint(2, 5))]
    rng.shuffle(pts)
    return pts


def _collinear(rng):
    x0, y0 = Fraction(rng.randint(-5, 5), 7), Fraction(rng.randint(-5, 5), 3)
    dx, dy = rng.choice(((1, 0), (0, 1), (3, -2), (1, 5)))
    return [_pt(x0 + t * dx, y0 + t * dy) for t in rng.sample(range(-20, 21), rng.randint(3, 10))]


def test_ordinary_line_matches_reference():
    rng = random.Random(18102026)
    statuses = {}
    for make in (_random_set, _near_pencil, _grid, _collinear):
        for _ in range(120):
            pts = make(rng)
            result = find_ordinary_line(pts)
            assert result == find_ordinary_line_naive(pts), (make.__name__, pts)
            statuses[make.__name__, result.status] = True
    assert set(statuses) == {("_random_set", "ordinary"), ("_near_pencil", "ordinary"),
                             ("_grid", "ordinary"), ("_collinear", "collinear")}


# -- isotropic vectors ------------------------------------------------------------


def test_isotropic_counts_match_reference_on_benchmark_spaces():
    for p, k, dim in _bench_spaces("isotropic"):
        vectors = enumerate_vectors(FiniteHilbertSpace(make_extension_field(p, k), dim))
        fast = [v for v in vectors if is_isotropic(v)]
        assert fast == [v for v in vectors if is_isotropic_naive(v)], f"GF({p}^{k})^{dim}"


def test_isotropic_on_untabled_fields_matches_reference():
    # a fresh spec is not tabled until enumerated; its elements multiply as
    # polynomials, so this is the path field_sweep takes
    spec = make_extension_field(7, 2)
    vectors = [FieldVector((spec.element(a), spec.element(b))) for a in range(49) for b in range(49)]
    flags = [is_isotropic(v) for v in vectors]
    assert flags == [is_isotropic_naive(v) for v in vectors]
    assert any(flags) and not all(flags)
    assert spec._tables is None

    huge = make_extension_field(65521, 2)  # beyond the enumeration cap
    rng = random.Random(7)
    for _ in range(200):
        v = FieldVector(tuple(huge.element(rng.randrange(huge.order)) for _ in range(3)))
        assert is_isotropic(v) == is_isotropic_naive(v)

    p = 10**9 + 9  # p = 1 mod 4, so -1 has a square root r and (1, r) is isotropic
    r = pow(next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1), (p - 1) // 4, p)
    big = make_prime_field(p)
    v = FieldVector((big.element(1), big.element(r)))
    assert is_isotropic(v) and is_isotropic_naive(v)
    assert big._tables is None and huge._tables is None
