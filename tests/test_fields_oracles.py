"""Field arithmetic against sympy's galoistools and Hypothesis field laws.

These oracles need the test extras (``pip install -e .[test]``); without
sympy or Hypothesis the module is skipped, not the rest of the suite.
"""

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_mul, gf_rem  # noqa: E402

from finiverse.fields import enumerate_elements, make_extension_field  # noqa: E402


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
