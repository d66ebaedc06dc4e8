"""Exact arithmetic in finite fields GF(p^k).

Three constructions are exposed:

* ``make_prime_field(p)`` -- integers mod a prime p,
* ``make_gaussian_extension(p)`` -- pairs x + i*y with i**2 = -1, which
  form a field exactly when p = 2 is excluded and p mod 4 == 3,
* ``make_extension_field(p, k)`` -- quotient by the smallest monic
  irreducible polynomial of degree k over GF(p).

An element is its *index*: the base-p digit value of its reduced
coefficients mod p (constant term least significant), which is also its
position in enumeration order.  The index and the spec are all an
element stores; its coefficients are derived from the index when asked
for.  Equality and hashing compare indices, ``+`` and ``-`` add and
subtract indices digit by digit mod p (for k = 1 just ``(a +- b) % p``,
for p = 2 the bitwise XOR ``a ^ b``), and every operation is exact.

Each operator has one path, chosen by k: for k = 1 ``*`` and ``**`` are
int arithmetic mod p and ``inverse`` is ``pow(a, -1, p)``; for k >= 2 ``*``
and ``**`` run on the spec's packed kernel ``_Packed``, one int product
per ``*``, and ``inverse`` runs the extended Euclidean algorithm on the
coefficients.  A kernel belongs to one modulus: it holds the slot
layout and the reduction rows of that modulus.  A spec builds its
kernel, and a second one with wide slots for exact index sums, when it
is built; Rabin's irreducibility test builds one for each candidate it
tries.  ``a ** n`` takes n mod q-1, which the order of every nonzero
element divides.

Every operator, ``enumerate_elements`` included, builds a new element
from its index, whatever the process computed before.  Two bulk
builders, the multiplication table of ``operation_tables`` and the line
offsets of ``geometry.enumerate_lines``, multiply whole numpy index
arrays at once with ``_products``: the same rule as ``*``, on base-p
digits, with the reduction rows of the packed kernel.  numpy is
imported by those builders (and the Z/n axiom battery), so a process
that calls none of them does not load it at all.

``FieldVector`` is the point type of ``geometry.AffineSpace`` and the
vector type of ``hilbert.FiniteHilbertSpace``: a ``tuple`` subclass,
one object per vector, equal to the plain tuple of its coordinates.
Its constructor checks that they share one field; ``+`` adds vectors.

``verify_field_axioms`` checks the full field axiom list by exhaustive
truth tables (associativity and distributivity by Light's test over
generating sets) and returns explicit witnesses on failure;
``verify_modular_ring_axioms`` runs the same battery on Z/n as a
diagnostic for composite moduli.  The battery proves commutativity
first: on a commutative table each right-hand check is its left-hand
check transposed, so it is not made again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import product, repeat
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import (
    DimMismatchError,
    DivisionByZeroError,
    InvalidInputError,
    NotAFieldError,
    NotPrimeError,
    SpecMismatchError,
    _at_most,
    _integer,
    _printable,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ENUMERATION_CAP",
    "AXIOM_CHECK_CAP",
    "FieldSpec",
    "FieldElement",
    "FieldVector",
    "make_prime_field",
    "make_gaussian_extension",
    "make_extension_field",
    "enumerate_elements",
    "element_index",
    "operation_tables",
    "AxiomReport",
    "verify_field_axioms",
    "verify_modular_ring_axioms",
]

#: largest field order that enumerate_elements will materialize
ENUMERATION_CAP = 2**20

#: largest field order accepted by the exhaustive axiom checker
AXIOM_CHECK_CAP = 500


#: the first thirteen primes, the Miller-Rabin bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_13, the smallest strong pseudoprime to all of _MR_BASES (Sorenson &
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_MR_BOUND = 3317044064679887385961981
#: _is_prime's refusal, a template formatted only when it raises
_MR_REFUSAL = f"primality is decided only below psi_13 = {_MR_BOUND}, got {{n}}"


def _is_prime(n: int) -> bool:
    """Exact primality of an int (False for anything else).

    This is Miller-Rabin with the prime bases 2..41, which is
    deterministic below psi_13 = 3,317,044,064,679,887,385,961,981
    (Sorenson & Webster, Math. Comp. 86, 2017).  An n from psi_13 on that
    no base divides raises SizeLimitError, whose witness is
    ``{"requested": n, "cap": psi_13 - 1}``.
    """
    if not isinstance(n, int) or n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    _at_most(n, _MR_BOUND - 1, _MR_REFUSAL)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(p) -> None:
    """NotPrimeError unless ``p`` is a prime int."""
    if not _is_prime(p):
        raise NotPrimeError(f"{_printable(p)} is not prime")


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z_p: packed products, one-term Euclid
# ---------------------------------------------------------------------------


class _Packed:
    """The packed kernel of one monic modulus f of degree k over GF(p):
    polynomials of degree < k packed into one int, W bits per coefficient
    (Kronecker substitution; von zur Gathen & Gerhard, *Modern Computer
    Algebra*, section 8.4).

    Coefficient i sits in bits [i*W, (i+1)*W), so the product of two
    polynomials is one int product.  W is ``width`` or, if larger, the
    bit length B of (2k-1)(p-1)^2: a low slot of a product of reduced
    operands holds at most k(p-1)^2, and folding the k-1 high slots back
    in, each taken mod p, through the rows x^(k+j) mod f adds at most
    (k-1)(p-1)^2 more.  A packed int is *reduced* when every slot lies in
    0..p-1.  ``rows`` holds those k-1 reduction rows, packed, computed
    once with the layout.  Reduced packed ints add without carry while no
    slot reaches 2^W: every digit is below p < psi_13 < 2^82 (``_is_prime``
    decides no larger p), so at W >= 128 a sum of fewer than 2^46 of them
    is exact, and ``is_zero`` reads it.
    """

    __slots__ = ("p", "width", "mask", "shifts", "high", "low", "rows")

    def __init__(self, p: int, f: Sequence[int], width: int = 0):
        k = len(f) - 1
        self.p = p
        width = self.width = max(width, ((2 * k - 1) * (p - 1) ** 2).bit_length())
        self.mask = (1 << width) - 1
        self.shifts = tuple(range(0, k * width, width))
        self.high = k * width  # the shift of the first high slot
        self.low = (1 << self.high) - 1
        # each row is x times the one before: a shift by one slot, whose
        # top slot is folded back in through x^k mod f
        base = sum(-c % p << s for c, s in zip(f, self.shifts))  # x^k mod f
        row, rows = base, []
        for _ in range(k - 1):
            rows.append(row)
            row <<= width
            row = self.reduce((row & self.low) + (row >> self.high) * base)
        self.rows = tuple(rows)

    def pack(self, n: int) -> int:
        """The reduced packed int of the element index n."""
        p, out = self.p, 0
        for s in self.shifts:
            out |= n % p << s
            n //= p
        return out

    def fold(self, c: int) -> int:
        """The product c of two reduced packed ints, with its high slots
        taken mod p and added back through ``rows``: slots not yet mod p."""
        p, width, mask = self.p, self.width, self.mask
        top = c >> self.high
        c &= self.low
        for row in self.rows:
            c += (top & mask) % p * row
            top >>= width
        return c

    def reduce(self, c: int) -> int:
        """The reduced packed int of a folded product: each slot taken mod p."""
        p, mask, out = self.p, self.mask, 0
        for s in self.shifts:
            out |= (c >> s & mask) % p << s
        return out

    def is_zero(self, c: int) -> bool:
        """True when the sum c of reduced packed ints packs zero, every slot
        0 mod p; the walk stops at the first slot that is not."""
        while c:  # the attributes are read in the loop: most sums stop at slot 0
            if (c & self.mask) % self.p:
                return False
            c >>= self.width
        return True

    def index(self, c: int) -> int:
        """The element index of a folded product or a reduced packed int,
        each slot taken mod p."""
        p, mask, n = self.p, self.mask, 0
        for s in reversed(self.shifts):
            n = n * p + (c >> s & mask) % p
        return n

    def power(self, a: int, n: int) -> int:
        """a^n mod f for a reduced packed a and n >= 0, by square-and-multiply
        from the top bit down; the result is reduced."""
        fold, reduce = self.fold, self.reduce
        if not n:
            return 1
        result = a
        for bit in bin(n)[3:]:
            result = reduce(fold(result * result))
            if bit == "1":
                result = reduce(fold(result * a))
        return result


def _ext_gcd(a: Sequence[int], f: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(g, u) with u*a = g mod f over GF(p) and g = gcd(a, f) monic, for
    coefficient sequences a and f, f nonzero with a nonzero leading term.

    This is the extended Euclidean algorithm one leading term at a time.
    Throughout, r0 = u0*a and r1 = u1*a mod f.  Each step cancels the
    leading term of r0 with c*x^s*r1 and subtracts the same c*x^s*u1
    from u0, so no quotient is held and no cofactor product is formed;
    once r0 falls below r1 in degree the pairs swap.  The cofactors are
    left unreduced: each of the at most 2 deg f cancellations multiplies
    their largest coefficient by at most p.  g and u are reduced and made
    monic once, at the end.
    """
    r0, r1 = list(f), list(a)
    u0, u1 = [], [1]
    while r1 and not r1[-1]:
        r1.pop()
    while r1:
        inv = pow(r1[-1], -1, p)
        n = len(r1) - 1
        while len(r0) > n:
            s = len(r0) - 1 - n
            c = r0.pop() * inv % p
            for j in range(n):
                r0[s + j] = (r0[s + j] - c * r1[j]) % p
            while r0 and not r0[-1]:
                r0.pop()
            u0 += [0] * (s + len(u1) - len(u0))
            for j, x in enumerate(u1, s):
                u0[j] -= c * x
        r0, r1, u0, u1 = r1, r0, u1, u0
    scale = pow(r0[-1], -1, p)
    return [c * scale % p for c in r0], [c * scale % p for c in u0]


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic poly f of degree k >= 1 over GF(p) (Rabin,
    "Probabilistic algorithms in finite fields", SIAM J. Comput. 9, 1980):
    f is irreducible iff x^(p^k) = x mod f and gcd(x^(p^(k/r)) - x, f) = 1
    for every prime r dividing k.  Each Frobenius power x^(p^i) mod f is
    the previous one raised to the p-th power on packed ints, and each gcd
    is taken as soon as its power is known: a candidate with a factor of
    degree dividing k/r is rejected before the higher powers are computed.
    """
    k = len(poly) - 1
    if k == 1:
        return True
    gcd_at = {k // r for r in _prime_factors(k)}
    packed = _Packed(p, poly)
    x = h = packed.pack(p)  # x^(p^i) mod f, for i = 0 .. k
    for i in range(1, k + 1):
        h = packed.power(h, p)
        if i in gcd_at:
            h_minus_x = [h >> s & packed.mask for s in packed.shifts]
            h_minus_x[1] = (h_minus_x[1] - 1) % p
            if _ext_gcd(h_minus_x, poly, p)[0] != [1]:
                return False
    return h == x


def _poly_str(coeffs: Sequence[int], var: str) -> str:
    """Coefficients in ``var``, highest power first: (1, 0, 2) in x is
    "2x^2+1"; a constant prints as its value and the zero polynomial as "0"."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            power = var if i == 1 else f"{var}^{i}"
            terms.append(power if c == 1 else f"{c}{power}")
    return "+".join(terms) if terms else "0"


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _digitwise(a, b, sign: int, p: int, k: int):
    """Index of the element whose digits are those of a plus ``sign``
    times those of b, each mod p: index arithmetic for + and -.  Also
    elementwise on numpy index arrays.  In characteristic 2 a digit and
    its negative agree, so both signs are the bitwise XOR."""
    if p == 2:
        return a ^ b
    if k == 1:
        return (a + sign * b) % p
    n, place = 0, 1
    for _ in range(k):
        n = n + (a % p + sign * (b % p)) % p * place
        a = a // p
        b = b // p
        place *= p
    return n


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k, ordering lower-degree
    coefficient vectors as base-p numerals (constant term least
    significant).  No binomial x^k + c, the first p candidates, is irreducible
    unless every prime factor of k divides p - 1, and p = 1 mod 4 when 4 | k
    (Lidl & Niederreiter, Thm 3.75); then the scan starts past them."""
    binomials = all((p - 1) % r == 0 for r in _prime_factors(k)) and (k % 4 or p % 4 == 1)
    for idx in range(0 if binomials else p, p**k):
        candidate = _digits(idx, p, k) + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise NotAFieldError(f"no irreducible polynomial of degree {k} over GF({p})")


def _index_of(coeffs: Sequence[int], p: int) -> int:
    """Base-p digit value of a coefficient tuple (constant term least significant)."""
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 2, in increasing order, by trial
    division up to the square root of what is left of n."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# field specifications and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of a concrete field GF(p^k).

    ``modulus_poly`` is the monic reduction polynomial of degree k with
    coefficients mod p, constant term first; for k == 1 it is (0, 1),
    i.e. the polynomial x.  Two specs are equal when they have the same
    p, k and modulus, whichever factory built them.  A spec built
    directly is validated in full, irreducibility included.  Every spec
    is built whole, with the state ``_derive`` sets.
    """

    p: int
    k: int
    modulus_poly: tuple[int, ...]

    def __post_init__(self):
        _prime(self.p)
        _integer(self.k, "extension degree", 1)
        try:
            m = tuple(self.modulus_poly)
        except TypeError:
            raise InvalidInputError(
                f"modulus {_printable(self.modulus_poly)!r} is not iterable") from None
        object.__setattr__(self, "modulus_poly", m)
        if len(m) != self.k + 1 or m[-1] != 1:
            raise InvalidInputError("modulus must be monic of degree k")
        for c in m:
            _integer(c, "modulus coefficient", 0, self.p - 1)
        if not _is_irreducible(m, self.p):
            raise NotAFieldError(
                f"modulus {m} is reducible over GF({self.p}); quotient is not a field"
            )
        _derive(self)

    def __reduce__(self):
        # copies and pickles carry the definition and derive their own state
        return (FieldSpec, (self.p, self.k, self.modulus_poly))

    @property
    def order(self) -> int:
        return self.p**self.k

    def element(self, value) -> "FieldElement":
        """Coerce an int (reduced mod p for k == 1, otherwise a base-p
        element index) or a sequence of k integer coefficients (whatever
        ``operator.index`` takes, reduced mod p) into a field element.  A
        bool, a float, a string or anything else is InvalidInputError."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise SpecMismatchError("element belongs to a different field")
            return value
        p = self.p
        if isinstance(value, int) and not isinstance(value, bool):
            if self.k == 1:
                return _new(self, value % p)
            if not 0 <= value < self.order:
                raise InvalidInputError(
                    f"element index {_printable(value)} outside 0..{self.order - 1}"
                )
            return _new(self, value)
        return _new(self, _index_of([c % p for c in _coefficients(self, value)], p))

    @property
    def zero(self) -> "FieldElement":
        return _new(self, 0)

    @property
    def one(self) -> "FieldElement":
        return _new(self, 1)

    @property
    def gen(self) -> "FieldElement":
        """The adjoined root (the class of x); only defined for k >= 2."""
        if self.k < 2:
            raise InvalidInputError("prime fields have no adjoined generator")
        return _new(self, self.p)

    def __str__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


def _coefficient(c) -> int:
    """``operator.index(c)``; a bool is a TypeError, like a float."""
    if isinstance(c, bool):
        raise TypeError("a bool is not a coefficient")
    return operator.index(c)


def _coefficients(spec: FieldSpec, value) -> list[int]:
    """The k coefficients of ``value`` as ints, each read by ``_coefficient``:
    InvalidInputError unless ``value`` is a sequence of integers,
    DimMismatchError unless it holds k of them."""
    try:
        coeffs = [_coefficient(c) for c in value]
    except TypeError:
        raise InvalidInputError(f"element {_printable(value)!r} is not an int or a "
                                "sequence of integer coefficients") from None
    if len(coeffs) != spec.k:
        raise DimMismatchError(f"expected {spec.k} coefficients, got {len(coeffs)}",
                               {"expected": spec.k, "got": len(coeffs)})
    return coeffs


def _proven_spec(p: int, k: int, modulus: tuple[int, ...]) -> FieldSpec:
    """A FieldSpec for a factory that has itself proven p prime and the
    modulus irreducible, so that __post_init__ does not repeat the proof."""
    spec = object.__new__(FieldSpec)
    object.__setattr__(spec, "p", p)
    object.__setattr__(spec, "k", k)
    object.__setattr__(spec, "modulus_poly", modulus)
    return _derive(spec)


def _derive(spec: FieldSpec) -> FieldSpec:
    """Set the state a spec derives from its definition: ``_kernel``, the
    packed kernel of its modulus; ``_sums``, the same at 128-bit slots or
    wider, for the index sums of ``hilbert`` and ``geometry``; and
    ``_norm_memo``, the empty memo of ``hilbert.is_isotropic``.  None is a
    dataclass field, so equality, hashing, copies and pickles see only the
    definition: p, k and the modulus."""
    object.__setattr__(spec, "_kernel", _Packed(spec.p, spec.modulus_poly))
    object.__setattr__(spec, "_sums", _Packed(spec.p, spec.modulus_poly, 128))
    object.__setattr__(spec, "_norm_memo", {})
    return spec


class FieldElement:
    """One element of a finite field: its spec and its index, nothing else.

    The constructor takes k coefficients, each read as
    ``FieldSpec.element`` reads one and required to lie in 0..p-1;
    ``coeffs`` derives them back from the index.  Instances are
    immutable, hashable and support +, -, *, /, unary minus and integer
    powers.  Equality, hashing and ``is_zero`` compare indices.  Mixing
    elements of two different field specs raises SpecMismatchError.
    """

    __slots__ = ("spec", "_index")

    def __init__(self, spec: FieldSpec, coeffs: Sequence[int]):
        coeffs = _coefficients(spec, coeffs)
        p = spec.p
        for c in coeffs:
            if not 0 <= c < p:
                raise InvalidInputError(f"coefficient {_printable(c)!r} not reduced mod {p}")
        _set_spec(self, spec)
        _set_index(self, _index_of(coeffs, p))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return (FieldElement, (self.spec, self.coeffs))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Reduced coefficients mod p, constant term first."""
        return tuple(_digits(self._index, self.spec.p, self.spec.k))

    # -- equality by index --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self._index == other._index and (
            self.spec is other.spec or self.spec == other.spec
        )

    def __hash__(self):
        return hash(self._index)

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise SpecMismatchError(f"cannot combine field element with {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise SpecMismatchError("elements belong to different fields")
        return other

    @property
    def is_zero(self) -> bool:
        return self._index == 0

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        spec = self.spec
        return _new(spec, _digitwise(self._index, other._index, 1, spec.p, spec.k))

    def __sub__(self, other):
        other = self._check(other)
        spec = self.spec
        return _new(spec, _digitwise(self._index, other._index, -1, spec.p, spec.k))

    def __neg__(self):
        spec = self.spec
        return _new(spec, _digitwise(0, self._index, -1, spec.p, spec.k))

    def __mul__(self, other):
        other = self._check(other)
        spec = self.spec
        a, b = self._index, other._index
        if spec.k == 1:
            return _new(spec, a * b % spec.p)
        kernel = spec._kernel
        return _new(spec, kernel.index(kernel.fold(kernel.pack(a) * kernel.pack(b))))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: ``pow(a, -1, p)`` on a prime field,
        otherwise the extended Euclidean algorithm on the coefficients."""
        spec = self.spec
        if self._index == 0:
            raise DivisionByZeroError(f"zero has no inverse in {spec}")
        p = spec.p
        if spec.k == 1:
            return _new(spec, pow(self._index, -1, p))
        g, u = _ext_gcd(_digits(self._index, p, spec.k), spec.modulus_poly, p)
        if g != [1]:  # cannot happen for an irreducible modulus
            raise NotAFieldError(f"gcd with modulus is {g}, element not invertible")
        return _new(spec, _index_of(u, p))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        """a**n, n mod q-1: a modular power of the index (k = 1) or
        square-and-multiply on the packed coefficients (k >= 2)."""
        if not isinstance(n, int):
            raise InvalidInputError("exponent must be an integer")
        spec = self.spec
        a = self._index
        if a == 0:
            if n < 0:
                raise DivisionByZeroError(f"zero has no inverse in {spec}")
            return _new(spec, 0 if n else 1)
        n %= spec.order - 1
        if spec.k == 1:
            return _new(spec, pow(a, n, spec.p))
        kernel = spec._kernel
        return _new(spec, kernel.index(kernel.power(kernel.pack(a), n)))

    # -- presentation -------------------------------------------------------

    def __str__(self):
        return _poly_str(self.coeffs, "a")

    def __repr__(self):
        return f"<{self} in {self.spec}>"


# the slot setters, bound once: _new runs once per element an operator returns
_set_spec = FieldElement.spec.__set__
_set_index = FieldElement._index.__set__


def _new(spec: FieldSpec, n: int) -> FieldElement:
    """The element of a trusted index n, built without the constructor's checks."""
    e = object.__new__(FieldElement)
    _set_spec(e, spec)
    _set_index(e, n)
    return e


class FieldVector(tuple):
    """Coordinate n-tuple over one finite field, supporting + and -.

    It is both a point (or displacement) of the affine space AG(n, q),
    measured by ``geometry.squared_distance``, and a state vector of the
    finite Hilbert space, paired by ``hilbert.inner_product``.  It is the
    tuple of its coordinates: it equals, hashes, indexes and iterates as
    that plain tuple, a slice is a plain tuple, and ``coords`` is the
    vector itself.  The constructor requires at least one coordinate and
    one field for all of them.  ``+`` is vector addition; concatenation
    and repetition (``(c,) + v``, ``v * 2``, ``2 * v``) raise TypeError.
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable[FieldElement]):
        self = tuple.__new__(cls, coords)
        if not self:
            raise InvalidInputError("a vector needs at least one coordinate")
        spec = self[0].spec
        if any(c.spec is not spec and c.spec != spec for c in self):
            raise SpecMismatchError("all coordinates must share one field")
        return self

    @property
    def coords(self) -> "FieldVector":
        return self

    @property
    def spec(self) -> FieldSpec:
        return self[0].spec

    @property
    def dim(self) -> int:
        return len(self)

    def _check(self, other: "FieldVector") -> "FieldVector":
        if not isinstance(other, FieldVector):
            raise SpecMismatchError(f"cannot combine vector with {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise SpecMismatchError("vectors live over different fields")
        if len(other) != len(self):
            raise DimMismatchError(f"dimension mismatch: {len(self)} vs {len(other)}",
                                   {"expected": len(self), "got": len(other)})
        return other

    def __add__(self, other):
        return FieldVector(a + b for a, b in zip(self, self._check(other)))

    def __sub__(self, other):
        return FieldVector(a - b for a, b in zip(self, self._check(other)))

    def _not_a_sequence(self, other):
        raise TypeError("a FieldVector is not concatenated or repeated; use +")

    __radd__ = __mul__ = __rmul__ = _not_a_sequence

    def __str__(self):
        return "(" + ", ".join(map(str, self)) + ")"

    def __repr__(self):
        return f"FieldVector{self}"


def _vectors(spec: FieldSpec, dim: int) -> list[FieldVector]:
    """Every dim-tuple over ``enumerate_elements(spec)``, first coordinate
    varying slowest.  The coordinates share one field by construction, so
    the vectors are built with ``tuple.__new__``, without the check."""
    vectors = product(enumerate_elements(spec), repeat=dim)
    return list(map(tuple.__new__, repeat(FieldVector), vectors))


@dataclass(frozen=True)
class _Space:
    """The dim-tuples over a field, which ``geometry.AffineSpace`` and
    ``hilbert.FiniteHilbertSpace`` extend: one dimension and coordinate check."""

    spec: FieldSpec
    dim: int

    def __post_init__(self):
        _integer(self.dim, "dimension", 1)

    def _coordinates(self, values: Sequence) -> FieldVector:
        """``values`` as a vector over ``spec``; InvalidInputError unless it is
        a sequence, DimMismatchError unless it is ``dim`` long."""
        try:
            count = len(values)
        except TypeError:
            raise InvalidInputError(
                f"coordinates {_printable(values)!r} are not a sequence") from None
        if count != self.dim:
            raise DimMismatchError(f"expected {_printable(self.dim)} coordinates, got {count}",
                                   {"expected": self.dim, "got": count})
        return FieldVector(map(self.spec.element, values))


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def make_prime_field(p: int) -> FieldSpec:
    """Field of integers mod a prime p."""
    return make_extension_field(p, 1)


def make_gaussian_extension(p: int) -> FieldSpec:
    """Adjoin a square root of -1 to GF(p): pairs x + i*y mod p.

    The quotient by x^2 + 1 is a field exactly when -1 is a non-square
    mod p, i.e. when p mod 4 == 3, so the factory decides by p mod 4.
    For p == 2 and p mod 4 == 1 the construction collapses to a ring
    with zero divisors and NotAFieldError is raised carrying an explicit
    witness pair (r + i, (p - r) + i) whose product is zero, where r is
    the smaller root of r*r = -1 mod p: r = +-c^((p-1)/4) for the least
    quadratic non-residue c, found by Euler's criterion.
    """
    _prime(p)
    if p == 2:
        # i = 1 already lies in GF(2): x^2 + 1 = (x + 1)^2
        raise NotAFieldError(
            "adjoining i to GF(2) fails: x^2+1 = (x+1)^2, witness (1+i)*(1+i) = 0",
            witness=((1, 1), (1, 1)),
        )
    if p % 4 == 3:
        # no root of x^2 + 1 in GF(p), so the quadratic is irreducible
        return _proven_spec(p, 2, (1, 0, 1))
    # c^((p-1)/2) = -1 for a non-residue c, so c^((p-1)/4) squares to -1
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    r = pow(c, (p - 1) // 4, p)
    root = min(r, p - r)
    # (r + i) * ((p - r) + i) = -(r^2 + 1) + 0*i = 0 although neither
    # factor is zero, so the ring has zero divisors.
    raise NotAFieldError(
        f"adjoining i to GF({p}) fails: {root}^2 = -1 mod {p}, "
        f"witness ({root}+i)*({p - root}+i) = 0",
        witness=((root, 1), (p - root, 1)),
    )


def make_extension_field(p: int, k: int) -> FieldSpec:
    """GF(p^k) via the smallest monic irreducible of degree k (k <= 6)."""
    _prime(p)
    _integer(k, "extension degree", 1, 6)
    if k == 1:
        return _proven_spec(p, 1, (0, 1))
    return _proven_spec(p, k, _smallest_irreducible(p, k))


# ---------------------------------------------------------------------------
# enumeration and truth tables
# ---------------------------------------------------------------------------


def enumerate_elements(spec: FieldSpec) -> list[FieldElement]:
    """All field elements in base-p counting order (constant coefficient
    least significant), so index 0 is zero and index 1 is one."""
    _at_most(spec.order, ENUMERATION_CAP, "field order {n} exceeds enumeration cap {cap}")
    return list(map(_new, repeat(spec), range(spec.order)))


def element_index(a: FieldElement) -> int:
    """Position of an element in enumeration order (base-p digit value)."""
    return a._index


def _products(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The len(a) x len(b) table of the indices of a_i * b_j, for 1-D
    numpy int64 index arrays a and b, on base-p digits.

    Row m of ``powers`` holds the digits of x^m mod f: x^m itself for
    m < k, then the reduction rows that ``*`` folds with.  So
    ``db @ powers[i:i+k]`` is x^i * b, digit by digit before reduction
    mod p; one matmul of the digits of a against the k of them side by
    side sums a_i * x^i * b over i, and a single ``% p`` and a Horner
    combine turn the sums into indices.
    Every digit sum is below k^2 (p-1)^3, which fits int64 for q <= 2^16:
    ``operation_tables`` caps q at 500 and ``enumerate_lines`` caps a
    space at 2^16 points.  Nothing is kept on the spec but its kernel.
    """
    import numpy as np

    p, k = spec.p, spec.k
    kernel = spec._kernel
    powers = np.array([[r >> s & kernel.mask for s in kernel.shifts]
                       for r in [kernel.pack(p**m) for m in range(k)] + list(kernel.rows)],
                      dtype=np.int64)
    places = p ** np.arange(k, dtype=np.int64)
    da, db = a[:, None] // places % p, b[:, None] // places % p
    stacked = np.stack([(db @ powers[i:i + k]).ravel() for i in range(k)])
    digits = (da @ stacked % p).reshape(len(a), len(b), k)
    out = digits[..., k - 1]
    for c in range(k - 2, -1, -1):
        out = out * p + digits[..., c]
    return out


def operation_tables(spec: FieldSpec) -> tuple[list[FieldElement], np.ndarray, np.ndarray]:
    """Elements plus full q x q addition and multiplication index tables."""
    import numpy as np

    q = spec.order
    _at_most(q, AXIOM_CHECK_CAP, "field order {n} exceeds table cap {cap}")
    elements = enumerate_elements(spec)
    idx = np.arange(q, dtype=np.int64)
    add_t = _digitwise(idx[:, None], idx[None, :], 1, spec.p, spec.k)
    return elements, add_t, _products(spec, idx, idx)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom family; ``witness`` names offending elements."""

    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class AxiomReport:
    """Exhaustive axiom battery outcome for one finite structure."""

    order: int
    checks: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _generators(table: np.ndarray, last: tuple = (), symmetric: bool = False) -> list[int]:
    """A generating set of the magma ``table``, chosen greedily.

    The candidates are every index in increasing order, except that the
    indices in ``last`` come after all others, in the order given.  Each
    generator is the first candidate outside the closure of the ones
    before it.  The closure grows semi-naively: each round multiplies
    only the members added last against all members, both ways, and
    scatters the products into a fresh q-long boolean mask, so the whole
    pass makes O(q^2) table lookups and sorts nothing.  On a ``symmetric``
    (commutative) table the products m o n are the products n o m, so a
    round takes one side only; the generators are the same.
    """
    import numpy as np

    q = len(table)
    inside = np.zeros(q, dtype=bool)
    gens = []
    for g in [i for i in range(q) if i not in last] + list(last):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        new = np.array([g])
        while new.size:
            hit = np.zeros(q, dtype=bool)
            hit[table[new][:, inside]] = True
            if not symmetric:
                hit[table[:, new][inside]] = True
            new = np.flatnonzero(hit > inside)
            inside[new] = True
    return gens


def _check_tables(label, add_t: np.ndarray, mul_t: np.ndarray, zero: int, one: int) -> dict:
    """Run the full axiom battery on explicit operation tables.

    ``label`` maps an element index to its name and is called only for
    the indices of a witness; ``zero`` and ``one`` are the candidate
    identity positions.  Returns {axiom name: AxiomCheck}.

    Associativity and distributivity are proved over generating sets
    (Light's test; Clifford & Preston, The Algebraic Theory of Semigroups
    I, section 1.2) in O(|S| q^2) instead of O(q^3).  The elements s with
    (x o s) o y = x o (s o y) for all x, y form a submagma, so checking the
    generators S of the table checks every s; with + associative, the
    elements c for which a*(b+c) = a*b + a*c (or (b+c)*a = b*a + c*a)
    for all a, b are closed under +.  Any generating set serves, so the
    identity candidates are tried last: ``zero`` when closing (M, +),
    ``one`` then ``zero`` when closing (M, *).  In a finite group the
    powers of any element reach the identity, so neither identity costs a
    generator there; zero stays a generator of (M, *), as nonzero products
    in a field are nonzero.  The generators are found by closing the very
    table under test, so the proof is still exhaustive, not a sample.
    When a reduced check fails, the full row scan runs and supplies the
    first witness.

    Commutativity is proved first, and its per-table result is kept: on a
    commutative table each right-hand check is its left-hand check
    transposed.  So the closure of a commutative table multiplies one way
    only, associativity compares (x o s) o y with its own transpose
    instead of gathering x o (s o y), and when * commutes only the left
    distributive law is checked.  The witness scans are not shortened.
    """
    import numpy as np

    q = len(add_t)
    checks: dict[str, AxiomCheck] = {}

    def first_bad(mask_a, mask_b):
        where = np.argwhere(mask_a != mask_b)
        return tuple(int(w) for w in where[0])

    # commutativity of both operations, kept for the one-sided checks below
    add_sym, mul_sym = (np.array_equal(t, t.T) for t in (add_t, mul_t))
    witness = None
    for table, sym in ((add_t, add_sym), (mul_t, mul_sym)):
        if not sym:
            i, j = first_bad(table, table.T)
            witness = (label(i), label(j))
            break
    checks["commutativity"] = AxiomCheck(witness is None, witness)

    # associativity: (x o s) o y == x o (s o y) for each generator s; when
    # o commutes, x o (s o y) = (y o s) o x, the left-hand side transposed
    def associative_at(table, s, sym):
        lhs = table[table[:, s]]
        return np.array_equal(lhs, lhs.T if sym else table[:, table[s]])

    add_gens = _generators(add_t, (zero,), add_sym)
    associative = all(
        associative_at(table, s, sym)
        for table, gens, sym in ((add_t, add_gens, add_sym),
                                 (mul_t, _generators(mul_t, (one, zero), mul_sym), mul_sym))
        for s in gens
    )
    witness = None
    if not associative:  # first witness: (a o b) o c != a o (b o c), per row a
        for table in (add_t, mul_t):
            for a in range(q):
                lhs = table[table[a], :]
                rhs = table[a, table]
                if not np.array_equal(lhs, rhs):
                    b, c = first_bad(lhs, rhs)
                    witness = (label(a), label(b), label(c))
                    break
            if witness:
                break
    checks["associativity"] = AxiomCheck(witness is None, witness)

    # identity elements act trivially
    ident = np.arange(q)
    witness = None
    if not np.array_equal(add_t[zero], ident):
        witness = (label(int(np.argwhere(add_t[zero] != ident)[0][0])), "additive")
    elif not np.array_equal(mul_t[one], ident):
        witness = (label(int(np.argwhere(mul_t[one] != ident)[0][0])), "multiplicative")
    checks["identities"] = AxiomCheck(witness is None, witness)

    # additive inverses everywhere, multiplicative inverses off zero
    witness = None
    has_neg = (add_t == zero).any(axis=1)
    if not has_neg.all():
        witness = (label(int(np.argwhere(~has_neg)[0][0])), "additive")
    else:
        has_inv = (mul_t == one).any(axis=1)
        has_inv[zero] = True
        if not has_inv.all():
            witness = (label(int(np.argwhere(~has_inv)[0][0])), "multiplicative")
    checks["inverses"] = AxiomCheck(witness is None, witness)

    # left and right distributivity for each generator c of (M, +); when *
    # commutes, the right law (b+c)*a = b*a + c*a is the left law transposed
    distributive = associative and all(
        np.array_equal(mul_t[:, add_t[:, c]], add_t[mul_t, mul_t[:, c][:, None]])
        and (mul_sym or np.array_equal(mul_t[add_t[:, c], :], add_t[mul_t, mul_t[c, :][None, :]]))
        for c in add_gens
    )
    witness = None
    if not distributive:  # first witness, both laws per row a
        for a in range(q):
            left = mul_t[a][add_t]  # a*(b+c)
            right = add_t[mul_t[a][:, None], mul_t[a][None, :]]  # a*b + a*c
            if not np.array_equal(left, right):
                b, c = first_bad(left, right)
                witness = (label(a), label(b), label(c), "left")
                break
            left_r = mul_t[add_t, a]  # (b+c)*a
            right_r = add_t[mul_t[:, a][:, None], mul_t[:, a][None, :]]
            if not np.array_equal(left_r, right_r):
                b, c = first_bad(left_r, right_r)
                witness = (label(b), label(c), label(a), "right")
                break
    checks["distributivity"] = AxiomCheck(witness is None, witness)

    return checks


def verify_field_axioms(spec: FieldSpec) -> AxiomReport:
    """Exhaustively verify every field axiom over all of GF(p^k).

    Raises SizeLimitError above order AXIOM_CHECK_CAP; all axioms are
    checked against the full operation tables, not sampled.
    Associativity and distributivity use Light's test over generating
    sets (see ``_check_tables``): the generators come from closing the
    tables themselves, and the laws that hold for every generator hold
    for everything they generate, so any generating set (the identities
    tried last) gives a proof for every triple.  Commutativity is proved
    first, and a commutative table's right-hand checks are its left-hand
    checks transposed, so they are not repeated.  Element names are
    rendered only for the witnesses of a failed check.
    """
    elements, add_t, mul_t = operation_tables(spec)
    checks = _check_tables(lambda i: str(elements[i]), add_t, mul_t, zero=0, one=1)
    return AxiomReport(order=spec.order, checks=checks)


def verify_modular_ring_axioms(n: int) -> AxiomReport:
    """Run the same axiom battery on the ring Z/n (diagnostic mode).

    For composite n the multiplicative-inverse check fails and the
    witness names the smallest residue with no inverse.
    """
    import numpy as np

    _integer(n, "modulus", 2)
    _at_most(n, AXIOM_CHECK_CAP, "modulus must lie in 2..{cap}, got {n}")
    idx = np.arange(n)
    add_t = (idx[:, None] + idx[None, :]) % n
    mul_t = (idx[:, None] * idx[None, :]) % n
    checks = _check_tables(str, add_t, mul_t, zero=0, one=1 % n)
    return AxiomReport(order=n, checks=checks)
