"""Field arithmetic, irreducibility and primality against sympy, the
exhaustive reference in ``field_reference`` and Hypothesis field laws.

These oracles need the test extras (``pip install -e .[test]``); without
sympy or Hypothesis the module is skipped, not the rest of the suite.
"""

import random

import field_reference as ref
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import isprime  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem  # noqa: E402

from finiverse import fields as fields_mod  # noqa: E402
from finiverse.fields import enumerate_elements, is_prime, make_extension_field  # noqa: E402


def _sympy_poly(coeffs):
    """finiverse coefficients (constant first) -> galoistools (leading first)."""
    out = [ZZ(c) for c in reversed(coeffs)]
    while out and out[0] == 0:
        out.pop(0)
    return out


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (5, 3), (11, 2), (13, 2), (7, 3)])
def test_products_and_inverses_match_sympy(p, k):
    spec = make_extension_field(p, k)
    elements = enumerate_elements(spec)
    modulus = _sympy_poly(spec.modulus_poly)
    q = spec.order
    for i in range(1, q, max(1, q // 40)):
        a = elements[i]
        for j in (0, 1, p, q - 1, (7 * i + 3) % q):
            b = elements[j]
            expected = gf_rem(gf_mul(_sympy_poly(a.coeffs), _sympy_poly(b.coeffs), p, ZZ),
                              modulus, p, ZZ)
            assert _sympy_poly((a * b).coeffs) == expected
        product = gf_mul(_sympy_poly(a.coeffs), _sympy_poly(a.inverse().coeffs), p, ZZ)
        assert gf_rem(product, modulus, p, ZZ) == [ZZ(1)]


SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 31, 53) for k in range(1, 7) if p**k <= 3000]


@settings(max_examples=60, deadline=None)
@given(pk=st.sampled_from(SMALL_FIELDS), data=st.data())
def test_tabled_field_laws_over_random_fields(pk, data):
    spec = make_extension_field(*pk)
    elements = enumerate_elements(spec)
    pick = st.integers(0, spec.order - 1)
    a, b, c = (elements[data.draw(pick)] for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero:
        assert a * a.inverse() == spec.one


#: most monic candidates of one degree tested against both oracles
CANDIDATE_CAP = 500


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", range(1, 7))
def test_rabin_matches_trial_division_and_sympy(p, k):
    # every candidate while there are at most CANDIDATE_CAP, else a seeded sample
    n = p**k
    picks = range(n) if n <= CANDIDATE_CAP else random.Random(n).sample(range(n), CANDIDATE_CAP)
    found = 0
    for i in picks:
        poly = ref.digits(i, p, k) + (1,)
        expected = ref.is_irreducible(poly, p)
        assert fields_mod._is_irreducible(poly, p) == expected, poly
        assert gf_irreducible_p(_sympy_poly(poly), p, ZZ) == expected, poly
        found += expected
    assert 0 < found < len(picks) or k == 1


@pytest.mark.parametrize(
    "p,k", [(2, 6), (3, 5), (5, 4), (7, 3), (13, 4), (31, 6), (47, 4), (101, 4), (251, 2)]
)
def test_extension_modulus_is_the_reference_smallest_irreducible(p, k):
    assert make_extension_field(p, k).modulus_poly == ref.smallest_irreducible(p, k)


def test_is_prime_matches_sympy():
    windows = (range(20000), range(10**12 - 1000, 10**12 + 2000),
               range(10**18 - 1000, 10**18 + 2000))
    for window in windows:
        assert [n for n in window if is_prime(n)] == [n for n in window if isprime(n)]
