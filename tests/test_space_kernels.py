"""The index-level kernels under the spaces benchmark, against references
that share none of their shortcuts:

* the transversal line builder against ``enumerate_lines_naive`` on
  spaces the benchmark does not run;
* ``is_isotropic`` on a tabled spec (log/antilog lookups) against the
  same spec untabled (element products).

The characteristic-2 ``_digitwise`` (the bitwise XOR) is checked against
the digit-by-digit reference in ``test_fields_oracles``.
"""

import copy
import itertools

import pytest
from geometry_reference import enumerate_lines_naive

from finiverse.errors import SizeLimitError
from finiverse.fields import FieldVector, enumerate_elements, make_extension_field
from finiverse.geometry import (
    INCIDENCE_CAP,
    AffineSpace,
    enumerate_lines,
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
