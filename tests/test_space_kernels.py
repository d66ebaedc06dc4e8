"""The index-level kernels under the spaces benchmark, against references
that share none of their shortcuts:

* the transversal line builder against ``enumerate_lines_naive`` on
  spaces the benchmark does not run, and its offsets without a single
  ``FieldElement`` product;
* ``is_isotropic`` (one loop of norm-memo reads per vector, a miss
  filled where it is met) against ``is_isotropic_naive``, on a cold memo,
  before and after the field is enumerated, and its count of
  ``conjugate`` calls, one per index the memo meets;
* ``find_degenerate_pair`` (a packed ``sum``, over the vectors
  whose first nonzero coordinate is one) against
  ``find_degenerate_pair_naive``, and whether a pair exists against a
  closed form that no scan enters.

The characteristic-2 ``_digitwise`` (the bitwise XOR) is checked against
the digit-by-digit reference in ``test_fields_oracles``.
"""

import copy
import itertools
import pickle

import pytest
from geometry_reference import (
    PRIMES,
    enumerate_lines_naive,
    find_degenerate_pair_naive,
    is_isotropic_naive,
)

from finiverse import hilbert
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
from finiverse.hilbert import FiniteHilbertSpace, enumerate_vectors, is_isotropic

# -- lines from transversals -------------------------------------------------------


def _line_data(lines):
    return [ln.points for ln in lines]


#: (field, dim); GF(9) from x^2 + 2x + 2, not the factory's x^2 + 1, because
#: the offsets read the reduction rows of whichever modulus the spec has
TRANSVERSAL_SPACES = {
    "AG(4,2)": ((2, 1), 4),
    "AG(3,3)": ((3, 1), 3),
    "AG(2,9)": ((3, 2), 2),
    "AG(2,8)": ((2, 3), 2),
    "AG(2,9) mod x^2+2x+2": ((3, 2, (2, 2, 1)), 2),
}


@pytest.mark.parametrize("name", TRANSVERSAL_SPACES)
def test_transversal_lines_match_reference(name):
    field, dim = TRANSVERSAL_SPACES[name]
    spec = FieldSpec(*field) if len(field) == 3 else make_extension_field(*field)
    space = AffineSpace(spec, dim)
    lines = enumerate_lines(space)
    assert _line_data(lines) == _line_data(enumerate_lines_naive(space))
    points = space.points()
    position = {point: n for n, point in enumerate(points)}
    ids = [[position[point] for point in ln.points] for ln in lines]
    for ln, line_ids in zip(lines, ids):
        assert line_ids == sorted(line_ids)
        assert tuple(points[n] for n in line_ids) == ln.points
    structure = incidence_structure(space)
    assert structure.lines == tuple(map(frozenset, ids))


@pytest.mark.parametrize("p,k,dim,count", [(3, 2, 2, 90), (2, 2, 3, 336), (7, 1, 2, 56)],
                         ids=["AG(2,9)", "AG(3,4)", "AG(2,7)"])
def test_lines_make_no_element_products(p, k, dim, count, monkeypatch):
    # the offsets t*d are index products on digits, not FieldElement.__mul__,
    # from the first call on a fresh spec
    space = AffineSpace(make_extension_field(p, k), dim)
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


# -- isotropy by the norm memo ------------------------------------------------------


@pytest.mark.parametrize("p,k,dim", [(2, 2, 3), (2, 3, 2), (3, 2, 3), (5, 2, 2), (3, 3, 2),
                                     (7, 1, 3)])
def test_isotropy_matches_reference_before_and_after_enumeration(p, k, dim):
    spec = make_extension_field(p, k)
    coords = list(itertools.product(range(spec.order), repeat=dim))
    # each vector on a cold memo (a copy of the spec starts its own, empty), so
    # that every norm is read where it is first met; then all on one memo
    cold = [is_isotropic(FieldVector(map(copy.copy(spec).element, c))) for c in coords]
    before = [is_isotropic(FieldVector(map(spec.element, c))) for c in coords]
    elements = enumerate_elements(spec)
    vectors = [FieldVector(elements[n] for n in c) for c in coords]
    after = [is_isotropic(v) for v in vectors]
    assert cold == before == after == [is_isotropic_naive(v) for v in vectors]
    assert not after[0] and any(after)  # the zero vector is not isotropic; some others are


def test_isotropy_conjugates_each_index_once(monkeypatch):
    # what the traced hilbert.conjugate.calls counts: one call per index the
    # memo meets, none for an index met before, as the products test counts *
    calls = []
    conjugate = hilbert.conjugate

    def counted(a):
        calls.append(a._index)
        return conjugate(a)

    monkeypatch.setattr(hilbert, "conjugate", counted)
    vectors = enumerate_vectors(FiniteHilbertSpace(make_extension_field(3, 2), 2))
    flags = [is_isotropic(v) for v in vectors]
    assert sorted(calls) == list(range(9))
    assert [is_isotropic(v) for v in vectors] == flags and len(calls) == 9
    a = make_extension_field(3, 2).gen  # a fresh spec: a cold memo
    assert not is_isotropic(FieldVector((a, a))) and calls[9:] == [a._index]


def test_isotropy_flags_do_not_depend_on_the_history_of_the_spec():
    used = make_extension_field(3, 2)
    enumerate_lines(AffineSpace(used, 2))  # runs the bulk products
    fresh = copy.deepcopy(used)  # copies carry the definition, not the kernel
    for dim in (1, 2, 3):
        coords = list(itertools.product(range(9), repeat=dim))
        flags = [is_isotropic(FieldVector(map(used.element, c))) for c in coords]
        assert flags == [is_isotropic(FieldVector(map(fresh.element, c))) for c in coords]
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
    # a digit of p above 2^64 would not fit a 64-bit slot; the slots hold at
    # least 128 bits.  In GF(p)[i]/(i^2 + 1) the norm of a + b*i is a^2 + b^2,
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
    # a vector of indices already met leaves the memo as it was
    assert [is_isotropic(v) for v in pairs] == flags
    assert spec._norm_memo is memo and sorted(memo) == sorted({1, *met})
    is_isotropic(FieldVector((spec.element(3), spec.element(3))))
    assert spec._norm_memo is memo and 3 in memo
    for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        spec2 = clone(spec)
        # the copy starts a new, empty memo rather than copying this one
        assert spec2 == spec and spec2._norm_memo == {} and spec2._norm_memo is not memo
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
    assert len(spec._norm_memo) == 4


#: every AG(dim, p^k) with at most 4096 points (k <= 6, the factory's limit)
DEGENERATE_SPACES = [(p, k, dim) for p in PRIMES for k in range(1, 7) for dim in range(1, 13)
                     if p ** (k * dim) <= 4096]

#: the naive scan tries every pair of a space without a degenerate pair, so
#: it runs on those only up to this many points
NAIVE_WITHOUT_PAIR = 128


@pytest.mark.parametrize("p,k,dim", DEGENERATE_SPACES)
def test_degenerate_pair_matches_reference(p, k, dim):
    # a pair is a nonzero y with y_1^2 + ... + y_dim^2 = 0.  dim 1 has none.
    # dim 2 has one iff -1 is a square: p = 2, or q = 1 mod 4.  For dim >= 3
    # every element is a sum of two squares (Lidl & Niederreiter, Finite
    # Fields, Thm 6.26), so -1 = a^2 + b^2 and y = (1, a, b, 0, ...).
    q = p**k
    exists = dim >= 3 or dim == 2 and (p == 2 or q % 4 == 1)
    space = AffineSpace(make_extension_field(p, k), dim)
    pair = find_degenerate_pair(space)
    assert (pair is not None) == exists
    if exists or q**dim <= NAIVE_WITHOUT_PAIR:
        assert pair == find_degenerate_pair_naive(space)

