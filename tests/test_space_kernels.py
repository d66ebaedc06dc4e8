"""The index-level kernels under the spaces benchmark, against references
that share none of their shortcuts:

* the transversal line builder against ``enumerate_lines_naive`` on
  spaces the benchmark does not run, and its offsets without a single
  ``FieldElement`` product;
* ``is_isotropic`` (one norm memo per spec, one ``sum`` per vector)
  against ``is_isotropic_naive``, before and after the field is
  enumerated and tabled;
* ``find_degenerate_pair`` (the same spread ``sum``) against
  ``find_degenerate_pair_naive``.

The characteristic-2 ``_digitwise`` (the bitwise XOR) is checked against
the digit-by-digit reference in ``test_fields_oracles``.
"""

import copy
import itertools
import pickle

import pytest
from geometry_reference import (
    enumerate_lines_naive,
    find_degenerate_pair_naive,
    is_isotropic_naive,
)

from finiverse.errors import SizeLimitError
from finiverse.fields import (
    FieldElement,
    FieldSpec,
    FieldVector,
    enumerate_elements,
    make_extension_field,
)
from finiverse.geometry import (
    INCIDENCE_CAP,
    AffineSpace,
    enumerate_lines,
    find_degenerate_pair,
    incidence_structure,
)
from finiverse.hilbert import is_isotropic

# -- lines from transversals -------------------------------------------------------


def _line_data(lines):
    return [ln.points for ln in lines]


@pytest.mark.parametrize("p,k,dim", [(2, 1, 4), (3, 1, 3), (3, 2, 2), (2, 3, 2)],
                         ids=["AG(4,2)", "AG(3,3)", "AG(2,9)", "AG(2,8)"])
def test_transversal_lines_match_reference(p, k, dim):
    space = AffineSpace(make_extension_field(p, k), dim)
    lines = enumerate_lines(space)
    assert _line_data(lines) == _line_data(enumerate_lines_naive(space))
    points = space.points()
    for ln in lines:
        assert ln._ids == tuple(sorted(ln._ids))
        assert tuple(points[n] for n in ln._ids) == ln.points
    structure = incidence_structure(space)
    assert structure.lines == tuple(frozenset(ln._ids) for ln in lines)


@pytest.mark.parametrize("p,k,dim,count", [(3, 2, 2, 90), (2, 2, 3, 336), (7, 1, 2, 56)],
                         ids=["AG(2,9)", "AG(3,4)", "AG(2,7)"])
def test_lines_make_no_element_products(p, k, dim, count, monkeypatch):
    # the offsets t*d are index products on the tables, not FieldElement.__mul__
    space = AffineSpace(make_extension_field(p, k), dim)
    space.spec._tabled()  # building the tables multiplies elements; the lines must not
    calls = []
    multiply = FieldElement.__mul__

    def counted(a, b):
        calls.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    assert len(enumerate_lines(space)) == count
    assert calls == []
    one = space.spec.one
    assert one * one == one and calls == [(one, one)]  # the count sees products


def test_line_incidence_cap_is_checked_before_enumeration():
    # AG(2, 81): 6,642 lines of 81 points, 538,002 incidences
    spec = make_extension_field(3, 4)
    with pytest.raises(SizeLimitError) as exc:
        enumerate_lines(AffineSpace(spec, 2))
    assert exc.value.witness == {"requested": 81 * 6642, "cap": INCIDENCE_CAP}
    assert spec._tables is None  # refused before the points were built


# -- isotropy by the norm memo ------------------------------------------------------


@pytest.mark.parametrize("p,k,dim", [(2, 2, 3), (2, 3, 2), (3, 2, 3), (5, 2, 2), (3, 3, 2),
                                     (7, 1, 3)])
def test_isotropy_matches_reference_before_and_after_enumeration(p, k, dim):
    spec = make_extension_field(p, k)
    coords = list(itertools.product(range(spec.order), repeat=dim))
    before = [is_isotropic(FieldVector(map(spec.element, c))) for c in coords]
    elements = enumerate_elements(spec)
    vectors = [FieldVector(elements[n] for n in c) for c in coords]
    after = [is_isotropic(v) for v in vectors]
    assert before == after == [is_isotropic_naive(v) for v in vectors]
    assert spec._tables is None  # neither isotropy nor enumeration builds tables
    assert not after[0]  # the zero vector is not isotropic


def test_isotropy_flags_do_not_depend_on_the_tables():
    tabled = make_extension_field(3, 2)
    enumerate_lines(AffineSpace(tabled, 2))  # builds the tables
    untabled = copy.deepcopy(tabled)  # copies carry the definition, not the tables
    assert tabled._tables is not None and untabled._tables is None
    for dim in (1, 2, 3):
        coords = list(itertools.product(range(9), repeat=dim))
        flags = [is_isotropic(FieldVector(map(tabled.element, c))) for c in coords]
        assert flags == [is_isotropic(FieldVector(map(untabled.element, c))) for c in coords]
    assert any(flags) and not all(flags)


def test_long_vectors_stay_exact_in_the_slots():
    # GF(9) is GF(3)[a]/(a^2 + 1), so conj(a) * a = -a^2 = 1 and the
    # norm-square of n copies of a is n mod 3.  Slots of 16 bits would
    # carry 300,000 into the next slot and read the sum as nonzero.
    spec = make_extension_field(3, 2)
    assert spec.modulus_poly == (1, 0, 1)
    c = spec.gen
    for n, expected in ((300_000, True), (200_000, False)):
        v = FieldVector((c,) * n)
        assert is_isotropic(v) is expected
        assert is_isotropic_naive(v) is expected


def test_wide_primes_stay_exact_in_the_slots():
    # a digit of p above 2^64 would not fit a 64-bit slot; the slots hold
    # 128 bits.  In GF(p)[i]/(i^2 + 1) the norm of a + b*i is a^2 + b^2,
    # so (1, c) is isotropic for the c of norm -1 and (c, c) is not.
    p = 2**80 + 235  # the least prime above 2^80 that is 3 mod 4
    spec = make_extension_field(p, 2)
    assert spec.modulus_poly == (1, 0, 1)
    b = next(b for b in range(1, 100) if pow(-1 - b * b, (p - 1) // 2, p) == 1)
    c = spec.element([pow(-1 - b * b, (p + 1) // 4, p), b])
    for v, expected in ((FieldVector((spec.one, c)), True), (FieldVector((c, c)), False)):
        assert is_isotropic(v) is expected
        assert is_isotropic_naive(v) is expected


def test_norm_memo_holds_only_the_indices_met():
    spec = make_extension_field(5, 2)
    met = range(0, spec.order, 2)
    pairs = [FieldVector((spec.one, spec.element(n))) for n in met]
    flags = [is_isotropic(v) for v in pairs]
    assert flags == [is_isotropic_naive(v) for v in pairs]
    assert any(flags) and not all(flags)
    memo = spec._norm_memo
    assert sorted(memo) == sorted({1, *met}) and memo[0] == 0
    assert spec._tables is None  # isotropy never builds tables
    # a vector of indices already met leaves the memo as it was
    assert [is_isotropic(v) for v in pairs] == flags
    assert spec._norm_memo is memo and sorted(memo) == sorted({1, *met})
    is_isotropic(FieldVector((spec.element(3), spec.element(3))))
    assert spec._norm_memo is memo and 3 in memo
    for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        spec2 = clone(spec)
        assert spec2 == spec and spec2._norm_memo is None  # the memo is not copied
        v = FieldVector((spec2.one, spec2.element(flags.index(True) * 2)))
        assert is_isotropic(v) and sorted(spec2._norm_memo) == sorted({1, v[1]._index})


def test_isotropy_on_a_large_directly_built_field(deadline):
    # GF(2^20) from x^20 + x^3 + 1, beyond the factory's k <= 6: a short
    # vector's isotropy reads the norms of its own coordinates only
    spec = FieldSpec(2, 20, (1, 0, 0, 1) + (0,) * 16 + (1,))
    a, b = spec.element(2**19 + 5), spec.element(3)
    for v in (FieldVector((a, b, a + b)), FieldVector((a, b, spec.gen))):
        assert is_isotropic(v) is is_isotropic_naive(v)
    assert is_isotropic(FieldVector((a, b, a + b)))
    assert spec._tables is None and len(spec._norm_memo) == 4


@pytest.mark.parametrize("p,k,dim", [(2, 1, 3), (2, 2, 2), (2, 3, 2), (3, 1, 3), (3, 2, 2),
                                     (5, 1, 2), (7, 1, 2), (13, 1, 2), (5, 2, 2)])
def test_degenerate_pair_matches_reference(p, k, dim):
    space = AffineSpace(make_extension_field(p, k), dim)
    assert find_degenerate_pair(space) == find_degenerate_pair_naive(space)
