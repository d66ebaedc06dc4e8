"""Affine-geometry checks: degeneracy, lines, incidence, exact plane tools."""

import math
import random
from fractions import Fraction

import pytest
from geometry_reference import euclidean_distance_table, find_degenerate_pair_naive

from finiverse.errors import (
    CapacityOverflowError,
    DimMismatchError,
    InvalidInputError,
    MalformedStructureError,
    MalformedTableError,
    SizeLimitError,
    SpecMismatchError,
    TooFewPointsError,
)
from finiverse.fields import (
    _is_prime,
    element_index,
    make_extension_field,
    make_gaussian_extension,
    make_prime_field,
)
from finiverse.geometry import (
    COLLINEAR,
    ORDINARY,
    AffineSpace,
    IncidenceStructure,
    RationalPoint,
    check_hesse_property,
    check_metric_axioms,
    enumerate_lines,
    find_degenerate_pair,
    find_ordinary_line,
    incidence_structure,
    pointset_cardinality,
    squared_distance,
    squared_distance_table,
    subspace_diameter,
)


def space(q, dim=2):
    if _is_prime(q):
        return AffineSpace(make_prime_field(q), dim)
    for p in (2, 3, 5, 7):
        k = 1
        while p**k < q:
            k += 1
        if p**k == q:
            return AffineSpace(make_extension_field(p, k), dim)
    raise ValueError(q)


# -- squared distance ---------------------------------------------------------


def test_squared_distance_examples():
    ag23 = space(3)
    d2 = squared_distance(ag23.point([0, 0]), ag23.point([1, 1]))
    assert d2 == ag23.spec.element(2)

    ag25 = space(5)
    assert squared_distance(ag25.point([0, 0]), ag25.point([1, 2])).is_zero

    f4 = make_extension_field(2, 2)
    sp = AffineSpace(f4, 2)
    a = sp.point([[1, 0], [1, 0]])  # (1, 1)
    b = sp.point([[0, 1], [0, 1]])  # (alpha, alpha)
    assert a != b
    assert squared_distance(a, b).is_zero


def test_squared_distance_symmetry_and_self():
    for q in (3, 4, 5):
        sp = space(q)
        pts = sp.points()
        for x in pts:
            assert squared_distance(x, x).is_zero
        for x in pts[:6]:
            for y in pts[:6]:
                assert squared_distance(x, y) == squared_distance(y, x)


def test_squared_distance_translation_invariance():
    sp = space(5)
    pts = sp.points()
    rng = random.Random(7)
    for _ in range(100):
        x, y, t = (rng.choice(pts) for _ in range(3))
        assert squared_distance(x, y) == squared_distance(x + t, y + t)


def test_squared_distance_errors():
    sp2 = space(3, 2)
    sp3 = space(3, 3)
    with pytest.raises(DimMismatchError):
        squared_distance(sp2.point([0, 0]), sp3.point([0, 0, 0]))
    other = space(5, 2)
    with pytest.raises(SpecMismatchError):
        squared_distance(sp2.point([0, 0]), other.point([0, 0]))
    with pytest.raises(InvalidInputError):
        squared_distance(sp2.point([0, 0]), "nope")


# -- degenerate pairs ---------------------------------------------------------


def test_degenerate_pair_matches_naive_scan():
    cases = [(2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (9, 2), (13, 2),
             (3, 1), (5, 1), (2, 3), (3, 3)]
    for q, dim in cases:
        sp = space(q, dim)
        fast = find_degenerate_pair(sp)
        slow = find_degenerate_pair_naive(sp)
        assert fast == slow, f"AG({dim},{q})"
        if fast is not None:
            x, y = fast
            assert x != y and squared_distance(x, y).is_zero


def test_degenerate_pair_number_theoretic_pattern():
    # for prime p in the plane: a pair exists iff p == 2 or p % 4 == 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        sp = space(p)
        pair = find_degenerate_pair(sp)
        has_sqrt_minus_one = any((r * r) % p == p - 1 for r in range(p)) or p == 2
        assert (pair is not None) == has_sqrt_minus_one, f"p={p}"


def test_degenerate_pair_specific_results():
    assert find_degenerate_pair(space(3)) is None
    assert find_degenerate_pair(space(7)) is None
    pair5 = find_degenerate_pair(space(5))
    assert [str(pt) for pt in pair5] == ["(0, 0)", "(1, 2)"]
    # char 2: squared distance is (sum of diffs)^2, so any diagonal pair works
    assert find_degenerate_pair(space(4)) is not None
    assert find_degenerate_pair(space(9)) is not None


def test_degenerate_pair_line_is_never_degenerate():
    assert find_degenerate_pair(space(5, 1)) is None
    assert find_degenerate_pair(space(13, 1)) is None


# -- lines and incidence ------------------------------------------------------


def line_count(q, n):
    return q ** (n - 1) * (q**n - 1) // (q - 1)


def test_line_counts_match_formula():
    for q, dim in ((2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (9, 2), (2, 3), (3, 3)):
        sp = space(q, dim)
        lines = enumerate_lines(sp)
        assert len(lines) == line_count(q, dim), f"AG({dim},{q})"
        assert all(len(l.points) == q for l in lines)
        assert all(len(set(l.points)) == q for l in lines)


def test_lines_canonical_form():
    sp = space(5)
    one = sp.spec.one
    for line in enumerate_lines(sp):
        first_nonzero = next(c for c in line.direction.coords if not c.is_zero)
        assert first_nonzero == one
        assert line.base == min(line.points, key=lambda pt: tuple(map(element_index, pt)))
        assert line.base in line.points


def test_every_pair_on_exactly_one_line():
    for q, dim in ((3, 2), (4, 2), (2, 3)):
        sp = space(q, dim)
        lines = enumerate_lines(sp)
        pts = sp.points()
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                containing = [l for l in lines if x in l and y in l]
                assert len(containing) == 1


def test_parallel_classes_partition_points():
    sp = space(3)
    lines = enumerate_lines(sp)
    by_dir = {}
    for l in lines:
        by_dir.setdefault(l.direction, []).append(l)
    assert len(by_dir) == 4  # (q^2-1)/(q-1) directions
    for members in by_dir.values():
        covered = [pt for l in members for pt in l.points]
        assert len(covered) == 9 and len(set(covered)) == 9


def test_line_equality_is_pointset_equality():
    sp = space(3)
    lines = enumerate_lines(sp)
    target = {sp.point([0, 0]), sp.point([0, 1]), sp.point([0, 2])}
    matching = [l for l in lines if set(l.points) == target]
    assert len(matching) == 1
    assert len(set(lines)) == len(lines)


def test_line_enumeration_cap():
    sp = AffineSpace(make_prime_field(17), 4)  # 83521 points > 2**16
    with pytest.raises(SizeLimitError):
        enumerate_lines(sp)


def test_incidence_structure_shape():
    s = incidence_structure(space(3))
    assert s.points == tuple(range(9))
    assert len(s.lines) == 12
    assert all(isinstance(l, frozenset) and len(l) == 3 for l in s.lines)
    assert set(s.point_degrees().values()) == {4}
    uneven = IncidenceStructure(points=("b", "d", "a", "c"),
                                lines=({"a", "b"}, {"a", "b", "c"}, {"a", "c"}))
    degrees = uneven.point_degrees()
    assert list(degrees.items()) == [("b", 2), ("d", 0), ("a", 3), ("c", 2)]
    assert degrees == {p: sum(p in ln for ln in uneven.lines) for p in uneven.points}


def test_incidence_structure_validation():
    with pytest.raises(MalformedStructureError):
        IncidenceStructure(points=(0, 1), lines=(frozenset({0, 5}),))
    with pytest.raises(MalformedStructureError):
        IncidenceStructure(points=(0, 1), lines=(frozenset({0}),))
    with pytest.raises(MalformedStructureError):
        IncidenceStructure(points=(0, 0, 1), lines=())
    # labels of mixed types are named in input order, never sorted
    with pytest.raises(MalformedStructureError, match=r"unknown points \['b', 2\.5\]$"):
        IncidenceStructure(points=(1, 2), lines=[(1, "b", 2.5)])


def test_hesse_property_cases():
    assert check_hesse_property(incidence_structure(space(3))).holds
    for q in (4, 5, 7, 9):
        assert check_hesse_property(incidence_structure(space(q))).holds

    two = check_hesse_property(incidence_structure(space(2)))
    assert not two.holds
    assert two.witness is not None

    # a pair with no common line at all
    broken = IncidenceStructure(points=(0, 1, 2, 3), lines=(frozenset({0, 1, 2}),))
    res = check_hesse_property(broken)
    assert not res.holds and res.witness == (0, 3)


# -- exact rational plane -----------------------------------------------------


def P(x, y):
    return RationalPoint(Fraction(x), Fraction(y))


def test_rational_point_rejects_floats():
    with pytest.raises(InvalidInputError):
        RationalPoint(0.5, Fraction(1))
    assert P("1/2", 3).x == Fraction(1, 2)


def test_ordinary_line_grid():
    pts = [P(x, y) for x in range(3) for y in range(3)]
    result = find_ordinary_line(pts)
    assert result.status == ORDINARY
    i, j = result.pair
    a, b, c = result.line
    on = [k for k, p in enumerate(pts) if a * p.x + b * p.y + c == 0]
    assert on == sorted({i, j}) and len(on) == 2


def test_ordinary_line_collinear_and_errors():
    assert find_ordinary_line([P(0, 0), P(1, 1), P(2, 2), P(5, 5)]).status == COLLINEAR
    with pytest.raises(TooFewPointsError):
        find_ordinary_line([P(0, 0), P(1, 1)])
    with pytest.raises(InvalidInputError):
        find_ordinary_line([P(0, 0), P(0, 0), P(1, 2)])


def test_ordinary_line_near_pencil():
    # n-1 collinear points plus one apex: classic near-pencil has ordinary lines
    pts = [P(k, 0) for k in range(5)] + [P(0, 1)]
    result = find_ordinary_line(pts)
    assert result.status == ORDINARY


def test_ordinary_line_random_sets():
    rng = random.Random(20260818)
    for trial in range(50):
        n = rng.randint(3, 8)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(-10, 10), rng.randint(-10, 10)))
        points = [P(x, y) for x, y in sorted(pts)]
        result = find_ordinary_line(points)
        if result.status == COLLINEAR:
            continue
        a, b, c = result.line
        assert sum(1 for p in points if a * p.x + b * p.y + c == 0) == 2


# -- metric axiom battery -----------------------------------------------------


def test_metric_axioms_euclidean_pass():
    pts = [P(0, 0), P(1, 0), P(0, 1), P(3, 2)]
    labels, table = euclidean_distance_table(pts)
    report = check_metric_axioms(labels, table)
    assert report.all_pass


def test_metric_axioms_failures_carry_witnesses():
    labels = [0, 1]
    base = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1}

    t = {**base, (0, 1): -1, (1, 0): -1}
    r = check_metric_axioms(labels, t)
    assert not r.checks["M1"].passed and r.checks["M1"].witness == (0, 1)

    t = {**base, (1, 0): 2}
    r = check_metric_axioms(labels, t)
    assert not r.checks["M2"].passed

    t = {**base, (0, 1): 0, (1, 0): 0}
    r = check_metric_axioms(labels, t)
    assert not r.checks["M3"].passed and r.checks["M3"].witness == (0, 1)

    labels3 = [0, 1, 2]
    t = {(i, j): 0 if i == j else 1 for i in labels3 for j in labels3}
    t[(0, 2)] = t[(2, 0)] = 5
    r = check_metric_axioms(labels3, t)
    assert not r.checks["M4"].passed and r.checks["M4"].witness == (0, 1, 2)


def test_metric_axioms_infinite_distances_saturate():
    labels = [0, 1, 2]
    inf = math.inf
    t = {(0, 0): 0, (1, 1): 0, (2, 2): 0,
         (0, 1): inf, (1, 0): inf,
         (0, 2): 1, (2, 0): 1,
         (1, 2): inf, (2, 1): inf}
    assert check_metric_axioms(labels, t).all_pass


def test_metric_axioms_malformed_tables():
    with pytest.raises(MalformedTableError):
        check_metric_axioms([0, 1], {(0, 0): 0, (1, 1): 0, (0, 1): 1})  # missing (1,0)
    with pytest.raises(MalformedTableError):
        check_metric_axioms([0, 1], {(i, j): "x" for i in (0, 1) for j in (0, 1)})
    bad = {(i, j): math.nan for i in (0, 1) for j in (0, 1)}
    with pytest.raises(MalformedTableError):
        check_metric_axioms([0, 1], bad)
    with pytest.raises(MalformedTableError):
        check_metric_axioms([0, 0], {})


def test_squared_distance_tables_over_finite_fields():
    labels, table = squared_distance_table(space(3))
    report = check_metric_axioms(labels, table)
    assert report.checks["M2"].passed
    assert report.checks["M3"].passed  # no degenerate pair in AG(2,3)

    labels5, table5 = squared_distance_table(space(5))
    report5 = check_metric_axioms(labels5, table5)
    assert report5.checks["M2"].passed
    assert not report5.checks["M3"].passed  # (0,0)-(1,2) at squared distance 0


# -- cardinality and diameter -------------------------------------------------


def test_pointset_cardinality_examples():
    assert pointset_cardinality(3, 2) == 9
    assert pointset_cardinality(2, 16) == 65536
    assert pointset_cardinality(10, 123) == 10**123


def test_pointset_cardinality_matches_enumeration():
    for q, dim in ((2, 2), (3, 2), (4, 2), (5, 3), (2, 8)):
        sp = space(q, dim)
        assert pointset_cardinality(q, dim) == len(sp.points())


def test_pointset_cardinality_errors():
    with pytest.raises(InvalidInputError):
        pointset_cardinality(1, 2)
    with pytest.raises(InvalidInputError):
        pointset_cardinality(3, 0)
    with pytest.raises(CapacityOverflowError):
        pointset_cardinality(2, 5_000_000)


def test_subspace_diameter():
    assert subspace_diameter(1.0, 11) == 10.0
    assert subspace_diameter(Fraction(1, 2), 5) == 2
    d = subspace_diameter(1.616e-35, 10**40)
    assert d == pytest.approx(1.616e5, rel=1e-9)
    with pytest.raises(InvalidInputError):
        subspace_diameter(0.0, 5)
    with pytest.raises(InvalidInputError):
        subspace_diameter(1.0, 1)


def test_subspace_diameter_beyond_a_float_is_invalid_input():
    with pytest.raises(InvalidInputError):
        subspace_diameter(1e300, 10**10)
