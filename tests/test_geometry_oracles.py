"""Hypothesis properties of affine geometry over random small fields: the
line count of AG(d, q) and translation invariance of the squared distance;
and the isotropy test against its element-level reference on
vectors of up to 40 coordinates.

These need the test extras (``pip install -e .[test]``); without Hypothesis
the module is skipped, not the rest of the suite.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from geometry_reference import is_isotropic_naive  # noqa: E402

from finiverse.fields import FieldVector, enumerate_elements, make_extension_field  # noqa: E402
from finiverse.geometry import AffineSpace, enumerate_lines, squared_distance  # noqa: E402
from finiverse.hilbert import is_isotropic  # noqa: E402

PRIMES = [n for n in range(2, 257) if all(n % r for r in range(2, n))]

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
