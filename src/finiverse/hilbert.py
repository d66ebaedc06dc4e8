"""Inner-product spaces of tuples over finite fields.

A state space of dimension d over GF(p^k) holds exactly p**(k*d)
vectors, each a ``fields.FieldVector``, the type that is also a point
of the affine space in ``geometry``.  Conjugation negates every
coefficient of the adjoined root (for the two-square extension this
sends x + i*y to x - i*y); it is defined once, on element indices, by
``_conjugate_index``, which both ``conjugate`` and ``is_isotropic`` use.
The sesquilinear form is sum(conj(u_n) * v_n).  Unlike the complex case
the form is not definite: nonzero isotropic vectors with <v, v> = 0 can
exist and are reported rather than forbidden.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidInputError, _at_most, _integer, _within_capacity
from .fields import (
    ENUMERATION_CAP,
    FieldElement,
    FieldSpec,
    FieldVector,
    _Space,
    _digitwise,
    _prime,
    _vectors,
)

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
    _prime(p)
    _integer(k, "extension degree", 1)
    _integer(dim, "dimension", 1)
    _within_capacity(k * dim * p.bit_length(), "{p}**{e}", p=p, e=k * dim)
    return p ** (k * dim)


def _conjugate_index(spec: FieldSpec, n: int) -> int:
    """Index of the conjugate of element n: its constant digit kept, every
    other digit negated mod p."""
    constant = n % spec.p
    return constant + _digitwise(0, n - constant, -1, spec.p, spec.k)


def conjugate(a: FieldElement) -> FieldElement:
    """Field conjugation: negate every coefficient of the adjoined root.

    Constants are fixed; in the two-square extension conj(x + i*y) is
    x - i*y.  Applying it twice is the identity.
    """
    return a.spec._at(_conjugate_index(a.spec, a._index))


class FiniteHilbertSpace(_Space):
    """Dimension-d coordinate space over GF(p^k) with the conjugate form."""

    @property
    def cardinality(self) -> int:
        return hilbert_cardinality(self.spec.p, self.spec.k, self.dim)

    def vector(self, values: Sequence) -> FieldVector:
        return self._coordinates(values)


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
    """True for a nonzero vector whose norm-square vanishes.

    The norm-square sum(conj(c) * c) is summed on indices.  On a tabled
    spec each term is one table lookup, ``exp[(log conj + log c) mod
    (q-1)]`` (both factors are nonzero); on an untabled one it is the
    element product.  The terms are added digit-wise mod p."""
    spec = v.spec
    p, k, t = spec.p, spec.k, spec._tables
    nonzero, total = False, 0
    for c in v.coords:
        n = c._index
        if n:
            nonzero = True
            conj = _conjugate_index(spec, n)
            if t is None:
                term = (spec._at(conj) * c)._index
            else:
                term = t.exp[(t.log[conj] + t.log[n]) % t.period]
            total = _digitwise(total, term, 1, p, k)
    return nonzero and total == 0


def enumerate_vectors(space: FiniteHilbertSpace) -> list[FieldVector]:
    """All vectors in coordinate-enumeration order (first coordinate
    varies slowest); capped at ENUMERATION_CAP vectors."""
    _at_most(space.cardinality, ENUMERATION_CAP, "{n} vectors exceed the enumeration cap {cap}")
    return _vectors(space.spec, space.dim)
