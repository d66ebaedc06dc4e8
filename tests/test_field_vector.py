"""One coordinate-vector type carries both forms: the squared distance of
AG(n, q) and the sesquilinear form of the finite Hilbert space."""

import copy
import pickle

import pytest

from finiverse.errors import InvalidInputError, SpecMismatchError
from finiverse.fields import (
    FieldElement,
    FieldSpec,
    FieldVector,
    make_gaussian_extension,
    make_prime_field,
)
from finiverse.geometry import AffineSpace, squared_distance
from finiverse.hilbert import FiniteHilbertSpace, enumerate_vectors, inner_product

R3 = make_gaussian_extension(3)


def test_points_and_vectors_are_one_type_under_both_forms():
    plane, states = AffineSpace(R3, 2), FiniteHilbertSpace(R3, 2)
    point = plane.point([[1, 0], [0, 1]])  # (1, i)
    vector = states.vector([[1, 0], [0, 1]])
    origin = states.vector([0, 0])
    assert type(point) is type(vector) is FieldVector
    assert point == vector and hash(point) == hash(vector)
    # 1^2 + i^2 = 0, while conj(1)*1 + conj(i)*i = 1 + 1 = 2
    assert inner_product(point, point) == R3.element([2, 0])
    assert squared_distance(vector, origin) == R3.zero
    assert squared_distance(point, plane.point([0, 0])) == squared_distance(vector, origin)
    assert str(point) == str(vector) == "(1, a)"
    assert plane.points() == enumerate_vectors(states)


def test_a_vector_is_the_tuple_of_its_coordinates():
    one, i = R3.one, R3.gen
    v = FieldVector([one, i])
    assert isinstance(v, tuple) and v.coords is v
    assert v == (one, i) and hash(v) == hash((one, i))
    assert len(v) == v.dim == 2 and v[1] is i
    assert type(v[:1]) is tuple and v[:1] == (one,)


def test_tuple_concatenation_and_repetition_are_refused():
    v = FieldVector([R3.one, R3.gen])
    with pytest.raises(TypeError):
        v * 2
    with pytest.raises(TypeError):
        2 * v
    with pytest.raises(TypeError):
        (R3.one,) + v


def test_coordinates_of_two_fields_are_refused():
    twin = make_gaussian_extension(3)  # an equal spec, another object
    assert twin is not R3 and FieldVector([R3.one, twin.gen]).spec is R3
    with pytest.raises(SpecMismatchError):
        FieldVector([R3.one, make_prime_field(3).one])
    with pytest.raises(InvalidInputError):
        FieldVector([])


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["deepcopy", "pickle"])
def test_copies_are_rebuilt_by_the_checked_constructor(clone, monkeypatch):
    v = FieldVector([R3.one, R3.gen])
    w = clone(v)
    assert type(w) is FieldVector and w == v
    # the copy is rebuilt by FieldVector(coords): coordinates that come
    # back over two fields are refused there
    reduce, f5 = FieldElement.__reduce__, make_prime_field(5)
    monkeypatch.setattr(FieldElement, "__reduce__",
                        lambda e: (f5.element, (1,)) if e.is_zero else reduce(e))
    with pytest.raises(SpecMismatchError):
        clone(FieldVector([R3.zero, R3.gen]))


def test_one_spec_object_is_not_compared(monkeypatch):
    calls = []
    eq = FieldSpec.__eq__

    def counted(a, b):
        calls.append(1)
        return eq(a, b)

    elements = [R3.element(n) for n in range(9)] * 50
    monkeypatch.setattr(FieldSpec, "__eq__", counted)
    FieldVector(elements)
    assert calls == []
