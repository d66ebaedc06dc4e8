"""Inner-product spaces of tuples over finite fields.

A state space of dimension d over GF(p^k) holds exactly p**(k*d)
vectors, each a ``fields.FieldVector``, the type that is also a point
of the affine space in ``geometry``.  Conjugation negates every
coefficient of the adjoined root (for the two-square extension this
sends x + i*y to x - i*y) and the sesquilinear form is
sum(conj(u_n) * v_n).  Unlike the complex case the
form is not definite: nonzero isotropic vectors with <v, v> = 0 can
exist and are reported rather than forbidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import (
    CapacityOverflowError,
    DimMismatchError,
    InvalidInputError,
    NotPrimeError,
    SizeLimitError,
    _integer,
)
from .fields import ENUMERATION_CAP, FieldElement, FieldSpec, FieldVector, _digitwise, is_prime
from .geometry import CAPACITY_BITS

__all__ = [
    "FiniteHilbertSpace",
    "hilbert_cardinality",
    "conjugate",
    "inner_product",
    "norm_squared",
    "is_isotropic",
    "enumerate_vectors",
]


def hilbert_cardinality(p: int, k: int, dim: int) -> int:
    """Exact number of state vectors: p**(k*dim)."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    _integer(k, "extension degree", 1)
    _integer(dim, "dimension", 1)
    if k * dim * p.bit_length() > CAPACITY_BITS:
        raise CapacityOverflowError(f"{p}**{k * dim} would exceed {CAPACITY_BITS} bits")
    return p ** (k * dim)


def conjugate(a: FieldElement) -> FieldElement:
    """Field conjugation: negate every coefficient of the adjoined root.

    Constants are fixed; in the two-square extension conj(x + i*y) is
    x - i*y.  Applying it twice is the identity.
    """
    spec, n = a.spec, a._index
    constant = n % spec.p
    return spec.element(constant + _digitwise(0, n - constant, -1, spec.p, spec.k))


@dataclass(frozen=True)
class FiniteHilbertSpace:
    """Dimension-d coordinate space over GF(p^k) with the conjugate form."""

    spec: FieldSpec
    dim: int

    def __post_init__(self):
        _integer(self.dim, "dimension", 1)

    @property
    def cardinality(self) -> int:
        return hilbert_cardinality(self.spec.p, self.spec.k, self.dim)

    def vector(self, values: Sequence) -> FieldVector:
        if len(values) != self.dim:
            raise DimMismatchError(f"expected {self.dim} coordinates, got {len(values)}")
        return FieldVector(tuple(self.spec.element(v) for v in values))


def inner_product(u: FieldVector, v: FieldVector) -> FieldElement:
    """Sesquilinear form sum(conj(u_n) * v_n), conjugate in the first slot."""
    if not isinstance(u, FieldVector) or not isinstance(v, FieldVector):
        raise InvalidInputError("inner_product expects two vectors")
    u._check(v)
    total = u.spec.zero
    for a, b in zip(u.coords, v.coords):
        total = total + conjugate(a) * b
    return total


def norm_squared(v: FieldVector) -> FieldElement:
    """<v, v>; may be zero for nonzero v (isotropic vectors exist)."""
    return inner_product(v, v)


def is_isotropic(v: FieldVector) -> bool:
    """True for a nonzero vector whose norm-square vanishes."""
    return any(not c.is_zero for c in v.coords) and norm_squared(v).is_zero


def enumerate_vectors(space: FiniteHilbertSpace) -> list[FieldVector]:
    """All vectors in coordinate-enumeration order (first coordinate
    varies slowest); capped at ENUMERATION_CAP vectors."""
    if space.cardinality > ENUMERATION_CAP:
        raise SizeLimitError(
            f"{space.cardinality} vectors exceed the enumeration cap {ENUMERATION_CAP}"
        )
    elems = space.spec.elements()
    return [FieldVector(c) for c in product(elems, repeat=space.dim)]
