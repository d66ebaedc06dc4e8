"""Hypothesis properties of affine geometry over random small fields: the
line count of AG(d, q) and translation invariance of the squared distance;
the isotropy test against its element-level reference on
vectors of up to 40 coordinates; the ordinary-line scan against its
O(n^3) reference on rational sets rich in shared lines; and the reader of a
rational coordinate's text against ``Fraction`` itself.

These need the test extras (``pip install -e .[test]``); without Hypothesis
the module is skipped, not the rest of the suite.
"""

import sys

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from geometry_reference import (  # noqa: E402
    PRIMES,
    find_ordinary_line_naive,
    is_isotropic_naive,
)

from finiverse.errors import InvalidInputError  # noqa: E402
from finiverse.fields import FieldVector, enumerate_elements, make_extension_field  # noqa: E402
from finiverse.geometry import (  # noqa: E402
    AffineSpace,
    RationalPoint,
    _read_rational,
    enumerate_lines,
    find_ordinary_line,
    squared_distance,
)
from finiverse.hilbert import is_isotropic  # noqa: E402

#: (p, k, d) for every AG(d, p^k) with at most 256 points (k <= 6, the
#: factory's limit)
SPACES = [(p, k, d) for p in PRIMES for k in range(1, 7) for d in range(1, 9)
          if p ** (k * d) <= 256]


@settings(max_examples=40, deadline=None)
@given(pkd=st.sampled_from(SPACES))
def test_line_count_over_random_spaces(pkd):
    p, k, d = pkd
    q = p**k
    lines = enumerate_lines(AffineSpace(make_extension_field(p, k), d))
    assert len(lines) == q ** (d - 1) * (q**d - 1) // (q - 1)
    assert len({frozenset(line.points) for line in lines}) == len(lines)
    assert all(len(set(line.points)) == q for line in lines)


@settings(max_examples=100, deadline=None)
@given(pkd=st.sampled_from(SPACES), data=st.data())
def test_squared_distance_is_translation_invariant(pkd, data):
    p, k, d = pkd
    space = AffineSpace(make_extension_field(p, k), d)
    coords = st.lists(st.integers(0, p**k - 1), min_size=d, max_size=d)
    x, y, t = (space.point(data.draw(coords)) for _ in range(3))
    assert squared_distance(x + t, y + t) == squared_distance(x, y)


#: the fields of test_space_kernels.test_isotropy_matches_reference_before_and_after_enumeration
ISOTROPY_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 1)]


@settings(max_examples=150, deadline=None)
@given(pk=st.sampled_from(ISOTROPY_FIELDS), data=st.data())
def test_isotropy_matches_reference_on_long_vectors(pk, data):
    spec = make_extension_field(*pk)
    elements = enumerate_elements(spec)
    # p equal coordinates add zero to the norm-square, so runs of p make
    # isotropic vectors common at every length
    run = st.tuples(st.integers(0, spec.order - 1), st.sampled_from((1, spec.p)))
    runs = data.draw(st.lists(run, min_size=1, max_size=40))
    coords = [n for n, length in runs for _ in range(length)][:40]
    v = FieldVector(tuple(elements[n] for n in coords))
    assert is_isotropic(v) == is_isotropic_naive(v)


#: small denominators, so that points share lines, and up to 300 digits
DENOMINATORS = st.one_of(st.integers(1, 6), st.integers(1, 10**300))

#: vertical, horizontal, and (3, 6), whose entries share the factor 3
DIRECTIONS = [(0, 1), (1, 0), (1, 1), (1, -1), (2, -3), (3, 6)]


@st.composite
def rational_sets(draw):
    """A pivot with points on both sides of it along up to three directions,
    each step a common rational multiple, and up to three loose points."""
    small = st.builds(Fraction, st.integers(-9, 9), DENOMINATORS)
    pivot = (Fraction(draw(st.integers(-10**300, 10**300)), draw(DENOMINATORS)), draw(small))
    step = Fraction(draw(st.integers(1, 6)), draw(DENOMINATORS))
    coords = {pivot, *draw(st.lists(st.tuples(small, small), max_size=3))}
    for dx, dy in draw(st.lists(st.sampled_from(DIRECTIONS), min_size=1, max_size=3, unique=True)):
        for t in draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), max_size=3, unique=True)):
            coords.add((pivot[0] + t * step * dx, pivot[1] + t * step * dy))
    assume(len(coords) >= 3)
    return [RationalPoint(x, y) for x, y in draw(st.permutations(sorted(coords)))]


@settings(max_examples=150, deadline=None)
@given(points=rational_sets())
def test_ordinary_line_matches_reference_on_rich_sets(points):
    assert find_ordinary_line(points) == find_ordinary_line_naive(points)


#: near-misses of the grammar ``Fraction`` reads
NEAR_MISSES = ["1__1", "1/2e3", "1._5", "1.d", "nan", "inf"]

#: text of those near-misses, digits (the Arabic-Indic one too), and the
#: characters a rational's text is made of
RATIONAL_TEXT = st.lists(st.sampled_from([*"0123456789_./eE+- ", "\u0661", *NEAR_MISSES]),
                         max_size=8).map("".join)

#: whether this interpreter's ``Fraction`` reads underscores (from 3.11 on)
UNDERSCORES = sys.version_info >= (3, 11)


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(st.sampled_from(NEAR_MISSES), RATIONAL_TEXT))
def test_rational_text_is_read_as_fraction_reads_it(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # only the grammar can refuse
    try:
        try:
            value, read = Fraction(text), True
        except ZeroDivisionError:
            value, read = None, True
        except ValueError:
            value, read = None, False
        if UNDERSCORES or "_" not in text:
            assert (_read_rational(text) is not None) == read
        if value is None:
            with pytest.raises(InvalidInputError):
                RationalPoint(text, 0)
        else:
            assert RationalPoint(text, 0).x == value
    finally:
        sys.set_int_max_str_digits(limit)
