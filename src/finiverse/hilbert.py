"""Inner-product spaces of tuples over finite fields.

A state space of dimension d over GF(p^k) holds exactly p**(k*d)
vectors, each a ``fields.FieldVector``, the type that is also a point
of the affine space in ``geometry``.  Conjugation negates every
coefficient of the adjoined root (for the two-square extension this
sends x + i*y to x - i*y); it is defined once, on element indices, by
``_conjugate_index``, which ``conjugate`` and so ``is_isotropic`` use.
The sesquilinear form is sum(conj(u_n) * v_n).  Unlike the complex case
the form is not definite: nonzero isotropic vectors with <v, v> = 0 can
exist and are reported rather than forbidden.  ``is_isotropic`` reads
each coordinate's norm conj(c) * c from a memo kept on the field spec,
filled one element at a time as coordinates are met, so a vector's
norm-square is one builtin ``sum``.
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
    _is_zero_sum,
    _new,
    _prime,
    _spread,
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


def _conjugate_index(spec: FieldSpec, n):
    """Index of the conjugate of element n: its constant digit kept, every
    other digit negated mod p."""
    constant = n % spec.p
    return constant + _digitwise(0, n - constant, -1, spec.p, spec.k)


def conjugate(a: FieldElement) -> FieldElement:
    """Field conjugation: negate every coefficient of the adjoined root.

    Constants are fixed; in the two-square extension conj(x + i*y) is
    x - i*y.  Applying it twice is the identity.
    """
    return _new(a.spec, _conjugate_index(a.spec, a._index))


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
    for a, b in zip(u, v):
        total = total + conjugate(a) * b
    return total


def norm_squared(v: FieldVector) -> FieldElement:
    """<v, v>; may be zero for nonzero v (isotropic vectors exist)."""
    return inner_product(v, v)


def is_isotropic(v: FieldVector) -> bool:
    """True for a nonzero vector whose norm-square vanishes.

    The norm-square sum(conj(c) * c) is the builtin ``sum`` of one memo
    read per coordinate.  The memo, a dict kept on the spec (copies and
    pickles do not carry it), maps each element index met so far to its
    norm with its k base-p digits spread into 128-bit slots
    (``fields._spread``), and the sum is zero when every slot is 0 mod p.
    Below 2^46 coordinates no slot overflows, whatever the prime p."""
    if not isinstance(v, FieldVector):
        raise InvalidInputError("is_isotropic expects a vector")
    spec = v[0].spec
    norms = spec._norm_memo
    if norms is None:
        norms = {}
        object.__setattr__(spec, "_norm_memo", norms)
    try:
        total = sum([norms[c._index] for c in v])
    except KeyError:
        for c in v:
            if c._index not in norms:
                norms[c._index] = _spread((conjugate(c) * c)._index, spec.p, spec.k)
        total = sum([norms[c._index] for c in v])
    return _is_zero_sum(total, spec.p) and any(c._index for c in v)


def enumerate_vectors(space: FiniteHilbertSpace) -> list[FieldVector]:
    """All vectors in coordinate-enumeration order (first coordinate
    varies slowest); capped at ENUMERATION_CAP vectors."""
    _at_most(space.cardinality, ENUMERATION_CAP, "{n} vectors exceed the enumeration cap {cap}")
    return _vectors(space.spec, space.dim)
