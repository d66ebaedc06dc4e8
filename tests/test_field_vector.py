"""One coordinate-vector type carries both forms: the squared distance of
AG(n, q) and the sesquilinear form of the finite Hilbert space."""

from finiverse.fields import FieldVector, make_gaussian_extension
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
