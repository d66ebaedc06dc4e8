"""The index-level kernels under the spaces benchmark, against references
that share none of their shortcuts:

* the transversal line builder against ``enumerate_lines_naive`` on
  spaces the benchmark does not run, and its offsets without a single
  ``FieldElement`` product;
* ``is_isotropic`` on a tabled spec (one norm table, one ``sum`` per
  vector) against the same spec untabled (element products) and against
  ``is_isotropic_naive``;
* ``find_degenerate_pair`` (the same spread ``sum``) against
  ``find_degenerate_pair_naive``.

The characteristic-2 ``_digitwise`` (the bitwise XOR) is checked against
the digit-by-digit reference in ``test_fields_oracles``.
"""

import copy
import itertools

import pytest
from geometry_reference import (
    enumerate_lines_naive,
    find_degenerate_pair_naive,
    is_isotropic_naive,
)

from finiverse.errors import SizeLimitError
from finiverse.fields import FieldElement, FieldVector, enumerate_elements, make_extension_field
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
    return [(ln.base, ln.direction, ln.points) for ln in lines]


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
    space.points()  # building the tables multiplies elements; the lines must not
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


# -- isotropy on tables and on products -------------------------------------------


@pytest.mark.parametrize("p,k,dim", [(2, 2, 3), (2, 3, 2), (3, 2, 3), (5, 2, 2), (3, 3, 2),
                                     (7, 1, 3)])
def test_isotropy_agrees_tabled_and_untabled(p, k, dim):
    tabled = make_extension_field(p, k)
    untabled = copy.deepcopy(tabled)  # copies carry the definition, not the tables
    elements = enumerate_elements(tabled)
    assert tabled._tables is not None
    flags = []
    for coords in itertools.product(range(tabled.order), repeat=dim):
        flag = is_isotropic(FieldVector(tuple(elements[n] for n in coords)))
        assert flag == is_isotropic(FieldVector(tuple(untabled.element(n) for n in coords)))
        flags.append(flag)
    assert untabled._tables is None
    assert not flags[0]  # the zero vector is not isotropic


def test_long_vectors_stay_exact_in_the_slots():
    # GF(9) is GF(3)[a]/(a^2 + 1), so conj(a) * a = -a^2 = 1 and the
    # norm-square of n copies of a is n mod 3.  Slots of 16 bits would
    # carry 300,000 into the next slot and read the sum as nonzero.
    spec = make_extension_field(3, 2)
    assert spec.modulus_poly == (1, 0, 1)
    enumerate_elements(spec)
    c = spec.gen
    for n, expected in ((300_000, True), (200_000, False)):
        v = FieldVector((c,) * n)
        assert is_isotropic(v) is expected
        assert is_isotropic_naive(v) is expected


def test_norm_table_is_built_once_and_only_when_tabled():
    spec = make_extension_field(5, 2)
    pairs = [FieldVector((spec.one, spec.element(n))) for n in range(spec.order)]
    flags = [is_isotropic(v) for v in pairs]
    assert flags == [is_isotropic_naive(v) for v in pairs]
    assert any(flags) and not all(flags)
    assert spec._tables is None

    elements = enumerate_elements(spec)
    assert spec._tables.norms is None  # enumerating alone builds no norm table
    assert [is_isotropic(FieldVector((elements[1], c))) for c in elements] == flags
    norms = spec._tables.norms
    assert len(norms) == spec.order and norms[0] == 0
    assert is_isotropic(FieldVector((elements[1], elements[flags.index(True)])))
    assert spec._tables.norms is norms


@pytest.mark.parametrize("p,k,dim", [(2, 1, 3), (2, 2, 2), (2, 3, 2), (3, 1, 3), (3, 2, 2),
                                     (5, 1, 2), (7, 1, 2), (13, 1, 2), (5, 2, 2)])
def test_degenerate_pair_matches_reference(p, k, dim):
    space = AffineSpace(make_extension_field(p, k), dim)
    assert find_degenerate_pair(space) == find_degenerate_pair_naive(space)
