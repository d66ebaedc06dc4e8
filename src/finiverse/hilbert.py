"""Inner-product spaces of tuples over finite fields.

A state space of dimension d over GF(p^k) holds exactly p**(k*d)
vectors, each a ``fields.FieldVector``, the type that is also a point
of the affine space in ``geometry``.  Conjugation negates every
coefficient of the adjoined root (for the two-square extension this
sends x + i*y to x - i*y); it is defined once, on element indices, by
``_conjugate_index``, which both ``conjugate`` and ``is_isotropic`` use.
The sesquilinear form is sum(conj(u_n) * v_n).  Unlike the complex case
the form is not definite: nonzero isotropic vectors with <v, v> = 0 can
exist and are reported rather than forbidden.  On a tabled field
``is_isotropic`` reads each coordinate's norm conj(c) * c from a table
built once per field, so a vector's norm-square is one builtin ``sum``.
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
    _TABLE_BLOCK,
    _Tables,
    _digitwise,
    _is_zero_sum,
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
    other digit negated mod p.  Also elementwise on a numpy index array."""
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
    for a, b in zip(u, v):
        total = total + conjugate(a) * b
    return total


def norm_squared(v: FieldVector) -> FieldElement:
    """<v, v>; may be zero for nonzero v (isotropic vectors exist)."""
    return inner_product(v, v)


def _norms(spec: FieldSpec, t: _Tables) -> list[int]:
    """``norms[n]``, the norm conj(n) * n of every element n of a tabled
    spec as a spread index (see ``fields._spread``), computed with
    ``_Tables.mul`` one block of indices at a time.  Elements of one norm
    share one int."""
    import numpy as np

    q = spec.order
    norm = np.empty(q, dtype=np.int64)
    for start in range(0, q, _TABLE_BLOCK):
        n = np.arange(start, min(start + _TABLE_BLOCK, q))
        norm[start:start + len(n)] = t.mul(_conjugate_index(spec, n), n)
    values = np.flatnonzero(np.bincount(norm, minlength=q))
    spread = np.empty(q, dtype=object)
    spread[values] = _spread(values, spec.p, spec.k)
    return spread[norm].tolist()


def is_isotropic(v: FieldVector) -> bool:
    """True for a nonzero vector whose norm-square vanishes.

    On a tabled spec the norm-square sum(conj(c) * c) is the builtin
    ``sum`` of one table read per coordinate: the table, built on the
    first call and kept with the spec's tables, holds each element's
    norm with its k base-p digits spread into 64-bit slots, and the sum
    is zero when every slot is 0 mod p.  A slot of a sum over N
    coordinates holds at most N(p-1), and a tabled field has p <= 2^20,
    so it cannot overflow below 2^44 coordinates.  On an untabled spec
    the norm-square is ``norm_squared``."""
    if not isinstance(v, FieldVector):
        raise InvalidInputError("is_isotropic expects a vector")
    spec = v[0].spec
    t = spec._tables
    if t is None:
        return any(c._index for c in v) and norm_squared(v).is_zero
    norms = t.norms
    if norms is None:
        norms = t.norms = _norms(spec, t)
    return _is_zero_sum(sum([norms[c._index] for c in v]), spec.p) and any(c._index for c in v)


def enumerate_vectors(space: FiniteHilbertSpace) -> list[FieldVector]:
    """All vectors in coordinate-enumeration order (first coordinate
    varies slowest); capped at ENUMERATION_CAP vectors."""
    _at_most(space.cardinality, ENUMERATION_CAP, "{n} vectors exceed the enumeration cap {cap}")
    return _vectors(space.spec, space.dim)
