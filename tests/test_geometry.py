"""Affine-geometry checks: degeneracy, lines, incidence, exact plane tools."""

import math
import numbers
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
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
    FieldVector,
    _is_prime,
    enumerate_elements,
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
    scalars = enumerate_elements(sp.spec)
    for line in enumerate_lines(sp):
        base, second = line.points[:2]
        assert list(line.points) == sorted(line.points, key=lambda v: [*map(element_index, v)])
        direction = second - base
        assert next(c for c in direction if not c.is_zero) == one
        assert set(line.points) == {base + FieldVector(t * c for c in direction) for t in scalars}


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
        d = l.points[1] - l.points[0]
        pivot = next(c for c in d if not c.is_zero)
        by_dir.setdefault(FieldVector(c / pivot for c in d), []).append(l)
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


def test_hesse_on_one_wide_line_holds_one_mask():
    # 8,000 masks of 8,000 bits would be about 8 MiB; one shared mask is 1 KiB
    n = 8000
    structure = IncidenceStructure(points=tuple(range(n)), lines=[tuple(range(n))])
    tracemalloc.start()
    try:
        result = check_hesse_property(structure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.holds
    assert peak < 3 * 2**20, peak


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


def _triangle(d12, d13, d23):
    """A symmetric table on labels 1, 2, 3 with a zero diagonal."""
    table = {(x, x): 0 for x in (1, 2, 3)}
    for (x, y), v in {(1, 2): d12, (1, 3): d13, (2, 3): d23}.items():
        table[x, y] = table[y, x] = v
    return table


def test_metric_axioms_sum_huge_ints_and_floats_exactly():
    # 10**400 + 1.0 has no float value, and 10**400 + inf none either
    assert check_metric_axioms([1, 2, 3], _triangle(10**400, 10**400, 1.0)).all_pass
    m4 = check_metric_axioms([1, 2, 3], _triangle(10**400, 1, math.inf)).checks["M4"]
    assert not m4.passed and m4.witness == (2, 1, 3)
    # 0.5 + (0.5 - 2**-54) rounds to 1.0 in floats, but lies below it
    m4 = check_metric_axioms([1, 2, 3], _triangle(0.5, 1.0, 0.5 - 2**-54)).checks["M4"]
    assert not m4.passed and m4.witness == (1, 2, 3)
    # numpy scalars are read as the ints and floats they hold
    for small in (np.float16(1.0), np.float32(1.0), np.float64(1.0), np.int64(1)):
        assert check_metric_axioms([1, 2, 3], _triangle(10**400, 10**400, small)).all_pass
        m4 = check_metric_axioms([1, 2, 3], _triangle(10**400, small, 10**400 + 2)).checks["M4"]
        assert not m4.passed and m4.witness == (2, 1, 3)
    # float32(0.1) and float32(0.2) lie above their float64 namesakes
    assert check_metric_axioms([1, 2, 3], _triangle(np.float32(0.1), 0.2, 0.1)).all_pass
    m4 = check_metric_axioms([1, 2, 3], _triangle(0.1, np.float32(0.2), 0.1)).checks["M4"]
    assert not m4.passed and m4.witness == (1, 2, 3)
    # a real with no as_integer_ratio, such as sympy's Float, is read as float
    Float = pytest.importorskip("sympy").Float
    assert check_metric_axioms([1, 2, 3], _triangle(Float(1), Float("1.5"), Float("0.5"))).all_pass
    m4 = check_metric_axioms([1, 2, 3], _triangle(Float(1), Float("2.6"), 1.5)).checks["M4"]
    assert not m4.passed and m4.witness == (1, 2, 3)


def _exact(v):
    """A finite distance as a Fraction, math.inf (of any float type) as None:
    an integer through ``operator.index``, anything else through its
    ``as_integer_ratio``, so that no value is read through ``float``."""
    if v == math.inf:
        return None
    if isinstance(v, numbers.Integral):
        return Fraction(operator.index(v))
    return Fraction(*v.as_integer_ratio())


def _metric_oracle(labels, table):
    """The witness of each axiom, None when it holds, read off the
    definitions with every finite value a Fraction and math.inf apart as
    None, in the scan orders ``check_metric_axioms`` documents."""
    d = {key: _exact(v) for key, v in table.items()}
    pairs = [(x, y) for i, x in enumerate(labels) for y in labels[i + 1:]]

    def violated(a, b, c):  # a > b + c, an infinite sum above everything
        return b is not None and c is not None and (a is None or a > b + c)

    return {
        "M1": next(((x, y) for x in labels for y in labels
                    if d[x, y] is not None and d[x, y] < 0), None),
        "M2": next(((x, y) for x, y in pairs if d[x, y] != d[y, x]), None),
        "M3": next(((x, x) for x in labels if d[x, x] != 0), None)
        or next(((x, y) for x, y in pairs if d[x, y] == 0), None),
        "M4": next(((x, y, z) for x in labels for y in labels for z in labels
                    if violated(d[x, z], d[x, y], d[y, z])), None),
    }


def test_metric_axioms_match_an_exact_oracle_on_mixed_tables():
    huge = 10**400
    pool = [0, 1, 3, -1, huge, huge + 1, 2 * huge, 2**1024, 0.5, 1.0, 2.5, 1e308,
            0.1, -0.5, Fraction(1, 3), Fraction(huge, 3), Fraction(7, 2), math.inf,
            np.float16(0.1), np.float16(1.5), np.float32(0.1), np.float32(1.0),
            np.float32(-0.5), np.float64(0.1), np.float64(2.5), np.int64(1), np.int64(-2),
            np.int64(2**62), np.float16(np.inf), np.float32(np.inf), np.float64(np.inf)]
    rng = random.Random(20261020)
    m4 = {True: 0, False: 0}
    for _ in range(600):
        labels = rng.sample(["a", "b", "c", "d", 0, 1], rng.randint(2, 4))
        table = {(x, x): rng.choice((0, 0, 0, 0.0, Fraction(0), np.int64(0), np.float32(0), 1))
                 for x in labels}
        for i, x in enumerate(labels):
            for y in labels[i + 1:]:
                table[x, y] = table[y, x] = rng.choice(pool)
                if rng.random() < 0.05:
                    table[y, x] = rng.choice(pool)
        report = check_metric_axioms(labels, table)
        expected = _metric_oracle(labels, table)
        assert {name: c.witness for name, c in report.checks.items()} == expected, table
        assert all(c.passed is (expected[name] is None) for name, c in report.checks.items())
        m4[report.checks["M4"].passed] += 1
    assert min(m4.values()) >= 20, m4
    # long doubles: d(a, c) = 1 + 2^-60 exceeds d(a, b) + d(b, c) = 1 + 2^-70,
    # though float() reads both sides as 1.0
    one, two = np.longdouble(1), np.longdouble(2)
    table = _triangle(one, one + two**-60, two**-70)
    table = {tuple("abc"[i - 1] for i in key): v for key, v in table.items()}
    report = check_metric_axioms(list("abc"), table)
    expected = _metric_oracle(list("abc"), table)
    assert {name: c.witness for name, c in report.checks.items()} == expected
    if np.finfo(np.longdouble).nmant >= 60:  # wider than a float's 52 bits
        assert expected["M4"] == ("a", "b", "c")


def test_metric_axioms_malformed_tables():
    with pytest.raises(MalformedTableError):
        check_metric_axioms([0, 1], {(0, 0): 0, (1, 1): 0, (0, 1): 1})  # missing (1,0)
    with pytest.raises(MalformedTableError):
        check_metric_axioms([0, 1], {(i, j): "x" for i in (0, 1) for j in (0, 1)})
    for nan in (math.nan, np.float16("nan"), np.float32("nan"), np.float64("nan")):
        bad = {(i, j): 0 if i == j else nan for i in (0, 1) for j in (0, 1)}
        with pytest.raises(MalformedTableError, match=r"^NaN distance for \(0, 1\)$"):
            check_metric_axioms([0, 1], bad)
    with pytest.raises(MalformedTableError):
        check_metric_axioms([0, 0], {})


def test_metric_axioms_validate_every_entry_before_any_check():
    """d(a, a) = -1 is the first witness of M1, M3 and M4, so a lazy scan
    would never read the entry (c, c)."""
    labels = ["a", "b", "c"]
    early = {(x, y): 0 if x == y else 1 for x in labels for y in labels}
    early["a", "a"] = -1
    report = check_metric_axioms(labels, early)
    assert {name: check.witness for name, check in report.checks.items()} == {
        "M1": ("a", "a"), "M2": None, "M3": ("a", "a"), "M4": ("a", "a", "a")}
    missing = dict(early)
    del missing["c", "c"]
    for table, message in ((missing, "missing entry for pair ('c', 'c')"),
                           ({**early, ("c", "c"): math.nan}, "NaN distance for ('c', 'c')"),
                           ({**early, ("c", "c"): "x"}, "non-numeric distance 'x' for ('c', 'c')")):
        with pytest.raises(MalformedTableError) as exc:
            check_metric_axioms(labels, table)
        assert str(exc.value) == message
    # row-major label order: (a, c) is met before (b, a)
    del missing["b", "a"]
    with pytest.raises(MalformedTableError, match=r"NaN distance for \('a', 'c'\)"):
        check_metric_axioms(labels, {**missing, ("a", "c"): math.nan})


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
