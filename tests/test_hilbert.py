"""Finite inner-product spaces: cardinality, conjugation, sesquilinear form."""

import random

import pytest

from finiverse.errors import (
    DimMismatchError,
    InvalidInputError,
    NotPrimeError,
    SizeLimitError,
    SpecMismatchError,
)
from finiverse.fields import (
    FieldVector,
    enumerate_elements,
    make_extension_field,
    make_gaussian_extension,
    make_prime_field,
)
from finiverse.hilbert import (
    FiniteHilbertSpace,
    conjugate,
    enumerate_vectors,
    hilbert_cardinality,
    inner_product,
    is_isotropic,
    norm_squared,
)

E3 = make_prime_field(3)
F4 = make_extension_field(2, 2)
R3 = make_gaussian_extension(3)


def test_cardinality_examples():
    assert hilbert_cardinality(2, 1, 1) == 2
    assert hilbert_cardinality(3, 2, 2) == 81
    assert hilbert_cardinality(2, 2, 4) == 256
    assert hilbert_cardinality(5, 1, 3) == 125


def test_cardinality_errors():
    with pytest.raises(NotPrimeError):
        hilbert_cardinality(6, 1, 2)
    with pytest.raises(InvalidInputError):
        hilbert_cardinality(3, 0, 2)
    with pytest.raises(InvalidInputError):
        hilbert_cardinality(3, 1, 0)


def test_cardinality_matches_enumeration():
    cases = [(2, 1, 4), (2, 1, 8), (3, 1, 3), (2, 2, 3), (5, 1, 2), (3, 2, 2), (7, 1, 2)]
    for p, k, dim in cases:
        spec = make_extension_field(p, k)
        space = FiniteHilbertSpace(spec, dim)
        vectors = enumerate_vectors(space)
        assert len(vectors) == hilbert_cardinality(p, k, dim)
        assert len(set(vectors)) == len(vectors)
        assert all(c.is_zero for c in vectors[0].coords)


def test_enumeration_cap():
    space = FiniteHilbertSpace(make_prime_field(2), 21)  # 2**21 > 2**20
    assert space.cardinality == 2**21
    with pytest.raises(SizeLimitError):
        enumerate_vectors(space)


# -- conjugation ---------------------------------------------------------------


def test_conjugate_gaussian():
    one_plus_i = R3.element([1, 1])
    assert conjugate(one_plus_i) == R3.element([1, 2])  # 1 - i
    i = R3.element([0, 1])
    assert conjugate(i) == -i


def test_conjugate_is_involution_fixing_constants():
    for spec in (E3, F4, R3, make_extension_field(3, 3)):
        for e in enumerate_elements(spec):
            assert conjugate(conjugate(e)) == e
        for c in range(spec.p):
            const = spec.element([c] + [0] * (spec.k - 1))
            assert conjugate(const) == const


def test_conjugate_multiplicative_on_gaussian():
    # over the two-square extension, conjugation is a field automorphism
    elems = enumerate_elements(R3)
    for a in elems:
        for b in elems:
            assert conjugate(a * b) == conjugate(a) * conjugate(b)
            assert conjugate(a + b) == conjugate(a) + conjugate(b)


# -- inner product --------------------------------------------------------------


def test_inner_product_frozen_example():
    space = FiniteHilbertSpace(R3, 2)
    v = space.vector([[1, 0], [0, 1]])  # (1, i)
    # <v,v> = conj(1)*1 + conj(i)*i = 1 + (-i)(i) = 1 + 1 = 2
    assert norm_squared(v) == R3.element([2, 0])
    assert not is_isotropic(v)


def test_inner_product_conjugate_symmetry():
    space = FiniteHilbertSpace(R3, 2)
    vectors = enumerate_vectors(space)
    rng = random.Random(11)
    for _ in range(400):
        u, v = rng.choice(vectors), rng.choice(vectors)
        assert inner_product(u, v) == conjugate(inner_product(v, u))


def test_inner_product_additive_exhaustive_dim1():
    space = FiniteHilbertSpace(R3, 1)
    vectors = enumerate_vectors(space)
    for u in vectors:
        for v in vectors:
            for w in vectors:
                assert inner_product(u, v + w) == inner_product(u, v) + inner_product(u, w)


def test_inner_product_sesquilinear_sampled():
    space = FiniteHilbertSpace(R3, 2)
    vectors = enumerate_vectors(space)
    scalars = enumerate_elements(R3)
    rng = random.Random(13)
    for _ in range(300):
        u, v = rng.choice(vectors), rng.choice(vectors)
        t = rng.choice(scalars)
        tu, tv = (FieldVector(t * c for c in x) for x in (u, v))
        assert inner_product(u, tv) == t * inner_product(u, v)
        assert inner_product(tu, v) == conjugate(t) * inner_product(u, v)
        w = rng.choice(vectors)
        assert inner_product(u, v + w) == inner_product(u, v) + inner_product(u, w)


def test_isotropic_vectors_reported():
    f4_space = FiniteHilbertSpace(F4, 2)
    v = f4_space.vector([[1, 0], [1, 0]])  # (1, 1) in characteristic 2
    assert norm_squared(v).is_zero
    assert is_isotropic(v)

    r3_space = FiniteHilbertSpace(R3, 2)
    w = r3_space.vector([[1, 0], [1, 1]])  # (1, 1+i): norms 1 and 2 sum to 0
    assert is_isotropic(w)
    assert not is_isotropic(r3_space.vector([[0, 0], [0, 0]]))


def test_isotropic_census_gaussian_plane():
    # nonzero isotropic vectors exist in dim 2 but never in dim 1 over R3
    dim1 = FiniteHilbertSpace(R3, 1)
    assert not any(is_isotropic(v) for v in enumerate_vectors(dim1))
    dim2 = FiniteHilbertSpace(R3, 2)
    isotropic = [v for v in enumerate_vectors(dim2) if is_isotropic(v)]
    assert isotropic
    for v in isotropic:
        assert norm_squared(v).is_zero


def test_zero_vector_norm():
    space = FiniteHilbertSpace(E3, 3)
    assert norm_squared(space.vector([0, 0, 0])).is_zero


def test_vector_errors():
    space2 = FiniteHilbertSpace(R3, 2)
    space3 = FiniteHilbertSpace(R3, 3)
    with pytest.raises(DimMismatchError):
        inner_product(space2.vector([[1, 0], [0, 1]]), space3.vector([[1, 0], [0, 1], [0, 0]]))
    other = FiniteHilbertSpace(make_gaussian_extension(7), 2)
    with pytest.raises(SpecMismatchError):
        inner_product(space2.vector([[1, 0], [0, 1]]), other.vector([[1, 0], [0, 1]]))
    with pytest.raises(InvalidInputError):
        FiniteHilbertSpace(R3, 0)
    with pytest.raises(InvalidInputError):
        inner_product("u", "v")
    for plain in ("v", (R3.one, R3.gen), tuple(enumerate_elements(E3)[1:3])):
        with pytest.raises(InvalidInputError):
            is_isotropic(plain)
    with pytest.raises(DimMismatchError):
        space2.vector([[1, 0]])


def test_vector_hash_and_immutability():
    space = FiniteHilbertSpace(E3, 2)
    a = space.vector([1, 2])
    b = space.vector([1, 2])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.coords = ()
