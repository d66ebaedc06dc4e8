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
int arithmetic mod p and ``inverse`` is ``a ** -1``; for k >= 2 ``*``
and ``**`` run on the packed kernel ``_Packed``, one int product per
``*``, which Rabin's irreducibility test shares, and ``inverse`` runs
the extended Euclidean algorithm on the coefficients.  ``a ** n`` takes
n mod q-1, which the order of every nonzero element divides.

Every operator, ``enumerate_elements`` included, builds a new element
from its index, whatever the process computed before.  Two bulk
builders, the multiplication table of ``operation_tables`` and the line
offsets of ``geometry.enumerate_lines``, multiply whole numpy index
arrays at once with ``_Tables.mul`` (``exp[(log a + log b) mod
(q-1)]``) on log/antilog tables over element indices: ``exp[i]`` is the
index of g**i for a primitive element g and ``log`` its inverse.  The
spec builds them on the first such call, vectorised with numpy, and
keeps them for its lifetime (copies and pickles do not carry them).
numpy is imported by that first build (or the Z/n axiom battery), so a
process that calls neither builder does not load it at all.

``FieldVector`` is the point type of ``geometry.AffineSpace`` and the
vector type of ``hilbert.FiniteHilbertSpace``: a ``tuple`` subclass,
one object per vector, equal to the plain tuple of its coordinates.
Its constructor checks that they share one field; ``+`` adds vectors.

``verify_field_axioms`` checks the full field axiom list by exhaustive
truth tables (associativity and distributivity by Light's test over
generating sets) and returns explicit witnesses on failure;
``verify_modular_ring_axioms`` runs the same battery on Z/n as a
diagnostic for composite moduli.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
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
    """Polynomials of degree < k over GF(p) packed into one int, B bits
    per coefficient (Kronecker substitution; von zur Gathen & Gerhard,
    *Modern Computer Algebra*, section 8.4).

    Coefficient i sits in bits [i*B, (i+1)*B), so the product of two
    polynomials is one int product.  B is the bit length of
    (2k-1)(p-1)^2: a low slot of a product of reduced operands holds at
    most k(p-1)^2, and folding the k-1 high slots back in, each taken mod
    p, through the rows x^(k+j) mod f adds at most (k-1)(p-1)^2 more.  A
    packed int is *reduced* when every slot lies in 0..p-1.  One layout
    serves every monic modulus f of degree k; ``rows(f)`` gives f's.
    """

    __slots__ = ("p", "width", "mask", "shifts", "high", "low")

    def __init__(self, p: int, k: int):
        self.p = p
        self.width = ((2 * k - 1) * (p - 1) ** 2).bit_length()
        self.mask = (1 << self.width) - 1
        self.shifts = tuple(range(0, k * self.width, self.width))
        self.high = k * self.width  # the shift of the first high slot
        self.low = (1 << self.high) - 1

    def pack(self, n: int) -> int:
        """The reduced packed int of the element index n."""
        p, out = self.p, 0
        for s in self.shifts:
            out |= n % p << s
            n //= p
        return out

    def rows(self, f: Sequence[int]) -> tuple[int, ...]:
        """x^(k+j) mod the monic f of degree k, packed, for j < k-1.  Each
        row is x times the one before: a shift by one slot, whose top slot
        is folded back in through x^k mod f."""
        p, width = self.p, self.width
        base = sum(-c % p << s for c, s in zip(f, self.shifts))  # x^k mod f
        row, out = base, []
        for _ in range(len(self.shifts) - 1):
            out.append(row)
            row <<= width
            row = self.reduce((row & self.low) + (row >> self.high) * base)
        return tuple(out)

    def fold(self, c: int, rows: tuple[int, ...]) -> int:
        """The product c of two reduced packed ints, with its high slots
        taken mod p and added back through ``rows``: slots not yet mod p."""
        p, width, mask = self.p, self.width, self.mask
        top = c >> self.high
        c &= self.low
        for row in rows:
            c += (top & mask) % p * row
            top >>= width
        return c

    def reduce(self, c: int) -> int:
        """The reduced packed int of a folded product: each slot taken mod p."""
        p, mask, out = self.p, self.mask, 0
        for s in self.shifts:
            out |= (c >> s & mask) % p << s
        return out

    def index(self, c: int) -> int:
        """The element index of a folded product or a reduced packed int,
        each slot taken mod p."""
        p, mask, n = self.p, self.mask, 0
        for s in reversed(self.shifts):
            n = n * p + (c >> s & mask) % p
        return n

    def power(self, a: int, n: int, rows: tuple[int, ...]) -> int:
        """a^n mod f for a reduced packed a and n >= 0, by square-and-multiply
        from the top bit down; the result is reduced."""
        fold, reduce = self.fold, self.reduce
        if not n:
            return 1
        result = a
        for bit in bin(n)[3:]:
            result = reduce(fold(result * result, rows))
            if bit == "1":
                result = reduce(fold(result * a, rows))
        return result


@lru_cache(maxsize=64)
def _packing(p: int, k: int) -> _Packed:
    """The slot layout of GF(p^k), built once per (p, k) while cached: the
    irreducible search tests many candidate moduli on one layout."""
    return _Packed(p, k)


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
    packed = _packing(p, k)
    rows = packed.rows(poly)
    x = h = packed.pack(p)  # x^(p^i) mod f, for i = 0 .. k
    for i in range(1, k + 1):
        h = packed.power(h, p, rows)
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
    significant)."""
    for idx in range(p**k):
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


#: indices per block of the multiply-by-g map in the table build
_TABLE_BLOCK = 2**16


#: the bits of one digit slot of a spread index: every digit is below
#: p < psi_13 < 2^82 (``_is_prime`` decides no larger p), so a sum of
#: fewer than 2^46 digits stays below 2^128
_SLOT_BITS = 128
_SLOT_MASK = 2**_SLOT_BITS - 1


def _spread(n: int, p: int, k: int) -> int:
    """The element index n with its k base-p digits spread into 128-bit
    slots, digit i in bits [128i, 128i + 128).

    Adding spread indices adds their digits slot by slot, with no carry
    from one slot into the next while each slot stays below 2^128: a sum
    of fewer than 2^46 of them is exact.  ``_is_zero_sum`` tells whether
    such a sum is the index of zero.
    """
    out = 0
    for s in range(0, k * _SLOT_BITS, _SLOT_BITS):
        out |= n % p << s
        n //= p
    return out


def _is_zero_sum(total: int, p: int) -> bool:
    """True when a sum of spread indices (see ``_spread``) adds up to the
    element zero: every one of its slots is 0 mod p."""
    while total:
        if (total & _SLOT_MASK) % p:
            return False
        total >>= _SLOT_BITS
    return True


class _Tables:
    """Log/antilog tables of one field over element indices.

    ``exp[i]`` is the index of g**i for the primitive element g (0 <= i
    < q-1) and ``log[n]`` the exponent of the nonzero element n: two
    int64 arrays, 16 bytes per element, read only by ``mul``.  ``log[0]``
    is 0; ``mul`` reads it like any other entry and then masks every
    product with a zero factor.
    """

    __slots__ = ("exp", "log")

    def __init__(self, spec: "FieldSpec"):
        import numpy as np

        p, k = spec.p, spec.k
        q = p**k
        period = q - 1
        # the primitive element of smallest index: g has order q-1 iff
        # g**((q-1)/r) != 1 for every prime r dividing q-1.  For k >= 2
        # the indices below p are the constants, whose order divides p-1.
        one = spec.one
        cofactors = [period // r for r in _prime_factors(period)]
        for g_index in range(p if k > 1 else 1, q):
            g = spec.element(g_index)
            if all(g**e != one for e in cofactors):
                break
        else:
            raise NotAFieldError(f"{spec} has no element of multiplicative order {period}")
        # times_g[n] is the index of g * (element n): row j of the
        # multiply-by-g matrix over GF(p) is g * x^j.  It is applied to
        # the digits of one block of indices at a time, so no q x k digit
        # array is ever held.
        places = p ** np.arange(k, dtype=np.int64)
        rows = np.array([(g * spec.element(p**j)).coeffs for j in range(k)], dtype=np.int64)
        times_g = np.empty(q, dtype=np.int64)
        for start in range(0, q, _TABLE_BLOCK):
            block = np.arange(start, min(start + _TABLE_BLOCK, q), dtype=np.int64)
            times_g[start:start + len(block)] = (block[:, None] // places % p) @ rows % p @ places
        # exp[i] is the index of g**i, filled by doubling: while step maps
        # each index to that of g**done times it, exp[done:2*done] =
        # step[exp[:done]], and step[step] maps by g**(2*done).  Squaring
        # alternates between times_g and one spare buffer.  Every index
        # lies in 0..q-1, so the lookups skip the bounds check.
        exp = np.empty(period, dtype=np.int64)
        exp[0] = 1
        step, spare, done = times_g, np.empty_like(times_g), 1
        while done < period:
            take = min(done, period - done)
            np.take(step, exp[:take], out=exp[done:done + take], mode="clip")
            done += take
            np.take(step, step, out=spare, mode="clip")
            step, spare = spare, step
        del step, spare, times_g
        # in a field the powers are distinct, never zero, and cover every
        # nonzero element: log is then defined everywhere but at 0
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(period)
        if log[0] != -1 or (log[1:] < 0).any():
            seen = {0}
            for i, n in enumerate(exp.tolist()):
                if n in seen:
                    break
                seen.add(n)
            raise NotAFieldError(
                f"powers of {g.coeffs} repeat after {i} of {period} steps; "
                f"{spec} is not a field",
                witness=(g.coeffs, i),
            )
        # g**(q-1) == 1 makes every nonzero g**i invertible
        if (g * spec.element(int(exp[-1])))._index != 1:
            raise NotAFieldError(
                f"powers of {g.coeffs} do not return to 1; {spec} is not a field",
                witness=(g.coeffs, period),
            )
        log[0] = 0
        self.exp = exp
        self.log = log

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The index of a*b, elementwise on broadcast numpy index arrays:
        ``exp[(log a + log b) mod (q-1)]``, then 0 wherever a or b is 0."""
        import numpy as np

        log = self.log
        product = self.exp[(log[a] + log[b]) % len(self.exp)]
        return np.where((a == 0) | (b == 0), 0, product)


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
    directly is validated in full, irreducibility included.
    """

    p: int
    k: int
    modulus_poly: tuple[int, ...]

    #: log/antilog tables, set by ``_tabled``, the packed kernel, set by
    #: ``_packed``, and the norm memo of ``hilbert.is_isotropic`` (none is
    #: a dataclass field)
    _tables = _kernel = _norm_memo = None

    def __post_init__(self):
        _prime(self.p)
        _integer(self.k, "extension degree", 1)
        m = tuple(self.modulus_poly)
        object.__setattr__(self, "modulus_poly", m)
        if len(m) != self.k + 1 or m[-1] != 1:
            raise InvalidInputError("modulus must be monic of degree k")
        for c in m:
            _integer(c, "modulus coefficient", 0, self.p - 1)
        if not _is_irreducible(m, self.p):
            raise NotAFieldError(
                f"modulus {m} is reducible over GF({self.p}); quotient is not a field"
            )

    def __reduce__(self):
        # copies and pickles carry the definition, not the tables or memo
        return (FieldSpec, (self.p, self.k, self.modulus_poly))

    @property
    def order(self) -> int:
        return self.p**self.k

    def _packed(self) -> tuple[_Packed, tuple[int, ...]]:
        """The packed layout and the modulus's reduction rows, built on the
        first product or power of an extension and kept for the spec's
        lifetime.  Both are set with ``object.__setattr__``: reading the
        instance ``__dict__`` (as ``functools.cached_property`` does)
        would slow every later attribute read on the spec."""
        kernel = self._kernel
        if kernel is None:
            packed = _packing(self.p, self.k)
            kernel = packed, packed.rows(self.modulus_poly)
            object.__setattr__(self, "_kernel", kernel)
        return kernel

    def _tabled(self) -> _Tables:
        """The log/antilog tables, built on the first call and kept like
        the kernel; only the bulk builders ``operation_tables`` and
        ``geometry.enumerate_lines`` read them."""
        tables = self._tables
        if tables is None:
            tables = _Tables(self)
            object.__setattr__(self, "_tables", tables)
        return tables

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
        try:
            coeffs = [_coefficient(c) % p for c in value]
        except TypeError:
            raise InvalidInputError(f"element {_printable(value)!r} is not an int or a "
                                    "sequence of integer coefficients") from None
        if len(coeffs) != self.k:
            raise DimMismatchError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return _new(self, _index_of(coeffs, p))

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


def _proven_spec(p: int, k: int, modulus: tuple[int, ...]) -> FieldSpec:
    """A FieldSpec for a factory that has itself proven p prime and the
    modulus irreducible, so that __post_init__ does not repeat the proof."""
    spec = object.__new__(FieldSpec)
    object.__setattr__(spec, "p", p)
    object.__setattr__(spec, "k", k)
    object.__setattr__(spec, "modulus_poly", modulus)
    return spec


class FieldElement:
    """One element of a finite field: its spec and its index, nothing else.

    The constructor takes and validates reduced coefficients; ``coeffs``
    derives them back from the index.  Instances are immutable, hashable
    and support +, -, *, /, unary minus and integer powers.  Equality,
    hashing and ``is_zero`` compare indices.  Mixing elements of two
    different field specs raises SpecMismatchError.
    """

    __slots__ = ("spec", "_index")

    def __init__(self, spec: FieldSpec, coeffs: Sequence[int]):
        coeffs = tuple(coeffs)
        if len(coeffs) != spec.k:
            raise DimMismatchError(f"expected {spec.k} coefficients, got {len(coeffs)}")
        p = spec.p
        for c in coeffs:
            if not (isinstance(c, int) and 0 <= c < p):
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
        packed, rows = spec._packed()
        return _new(spec, packed.index(packed.fold(packed.pack(a) * packed.pack(b), rows)))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: ``self ** -1`` on a prime field,
        otherwise the extended Euclidean algorithm on the coefficients."""
        spec = self.spec
        if spec.k == 1:
            return self ** -1
        if self._index == 0:
            raise DivisionByZeroError(f"zero has no inverse in {spec}")
        p = spec.p
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
        packed, rows = spec._packed()
        return _new(spec, packed.index(packed.power(packed.pack(a), n, rows)))

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
            raise DimMismatchError(f"dimension mismatch: {len(self)} vs {len(other)}")
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
        """``values`` as a vector over ``spec``; DimMismatchError unless ``dim`` long."""
        if len(values) != self.dim:
            raise DimMismatchError(
                f"expected {_printable(self.dim)} coordinates, got {len(values)}"
            )
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
    mod p, i.e. when p mod 4 == 3.  For p == 2 and p mod 4 == 1 the
    construction collapses to a ring with zero divisors and
    NotAFieldError is raised carrying an explicit witness pair
    (r + i, (p - r) + i) whose product is zero, where r*r = -1 mod p.
    """
    _prime(p)
    if p == 2:
        # i = 1 already lies in GF(2): x^2 + 1 = (x + 1)^2
        raise NotAFieldError(
            "adjoining i to GF(2) fails: x^2+1 = (x+1)^2, witness (1+i)*(1+i) = 0",
            witness=((1, 1), (1, 1)),
        )
    root = next((r for r in range(2, p) if (r * r) % p == p - 1), None)
    if root is not None:
        # (r + i) * ((p - r) + i) = -(r^2 + 1) + 0*i = 0 although neither
        # factor is zero, so the ring has zero divisors.
        raise NotAFieldError(
            f"adjoining i to GF({p}) fails: {root}^2 = -1 mod {p}, "
            f"witness ({root}+i)*({p - root}+i) = 0",
            witness=((root, 1), (p - root, 1)),
        )
    # no root of x^2 + 1 in GF(p), so the quadratic is irreducible
    return _proven_spec(p, 2, (1, 0, 1))


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


def operation_tables(spec: FieldSpec) -> tuple[list[FieldElement], np.ndarray, np.ndarray]:
    """Elements plus full q x q addition and multiplication index tables."""
    import numpy as np

    q = spec.order
    _at_most(q, AXIOM_CHECK_CAP, "field order {n} exceeds table cap {cap}")
    elements = enumerate_elements(spec)
    idx = np.arange(q, dtype=np.int64)
    add_t = _digitwise(idx[:, None], idx[None, :], 1, spec.p, spec.k)
    mul_t = spec._tabled().mul(idx[:, None], idx[None, :])
    return elements, add_t, mul_t


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


def _generators(table: np.ndarray) -> list[int]:
    """A generating set of the magma ``table``, chosen greedily in index order.

    Each generator is the least index outside the closure of the ones
    before it.  The closure grows semi-naively: only the members added
    last are multiplied against all members, both ways, so the whole
    pass makes O(q^2) table lookups.
    """
    import numpy as np

    inside = np.zeros(len(table), dtype=bool)
    gens = []
    for g in range(len(table)):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        new = np.array([g])
        while new.size:
            members = np.flatnonzero(inside)
            prods = np.concatenate((table[np.ix_(new, members)].ravel(),
                                    table[np.ix_(members, new)].ravel()))
            new = np.unique(prods[~inside[prods]])
            inside[new] = True
    return gens


def _check_tables(labels, add_t: np.ndarray, mul_t: np.ndarray, zero: int, one: int) -> dict:
    """Run the full axiom battery on explicit operation tables.

    ``labels`` renders witness indices; ``zero`` and ``one`` are the
    candidate identity positions.  Returns {axiom name: AxiomCheck}.

    Associativity and distributivity are proved over generating sets
    (Light's test; Clifford & Preston, The Algebraic Theory of Semigroups
    I, section 1.2) in O(|S| q^2) instead of O(q^3).  The elements s with
    (x o s) o y = x o (s o y) for all x, y form a submagma, so checking the
    generators S of the table checks every s; with + associative, the
    elements c for which a*(b+c) = a*b + a*c (or (b+c)*a = b*a + c*a)
    for all a, b are closed under +.  The generators are found by closing
    the very table under test, so the proof is still exhaustive, not a
    sample.  When a reduced check fails, the full row scan runs and
    supplies the first witness.
    """
    import numpy as np

    q = len(labels)
    checks: dict[str, AxiomCheck] = {}

    def first_bad(mask_a, mask_b):
        where = np.argwhere(mask_a != mask_b)
        return tuple(int(w) for w in where[0])

    # commutativity of both operations
    witness = None
    for table in (add_t, mul_t):
        if not np.array_equal(table, table.T):
            i, j = first_bad(table, table.T)
            witness = (labels[i], labels[j])
            break
    checks["commutativity"] = AxiomCheck(witness is None, witness)

    # associativity: (x o s) o y == x o (s o y) for each generator s
    add_gens = _generators(add_t)
    associative = all(
        np.array_equal(table[table[:, s], :], table[:, table[s, :]])
        for table, gens in ((add_t, add_gens), (mul_t, _generators(mul_t)))
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
                    witness = (labels[a], labels[b], labels[c])
                    break
            if witness:
                break
    checks["associativity"] = AxiomCheck(witness is None, witness)

    # identity elements act trivially
    ident = np.arange(q)
    witness = None
    if not np.array_equal(add_t[zero], ident):
        witness = (labels[int(np.argwhere(add_t[zero] != ident)[0][0])], "additive")
    elif not np.array_equal(mul_t[one], ident):
        witness = (labels[int(np.argwhere(mul_t[one] != ident)[0][0])], "multiplicative")
    checks["identities"] = AxiomCheck(witness is None, witness)

    # additive inverses everywhere, multiplicative inverses off zero
    witness = None
    has_neg = (add_t == zero).any(axis=1)
    if not has_neg.all():
        witness = (labels[int(np.argwhere(~has_neg)[0][0])], "additive")
    else:
        has_inv = (mul_t == one).any(axis=1)
        has_inv[zero] = True
        if not has_inv.all():
            witness = (labels[int(np.argwhere(~has_inv)[0][0])], "multiplicative")
    checks["inverses"] = AxiomCheck(witness is None, witness)

    # left and right distributivity for each generator c of (M, +)
    distributive = associative and all(
        np.array_equal(mul_t[:, add_t[:, c]], add_t[mul_t, mul_t[:, c][:, None]])
        and np.array_equal(mul_t[add_t[:, c], :], add_t[mul_t, mul_t[c, :][None, :]])
        for c in add_gens
    )
    witness = None
    if not distributive:  # first witness, both laws per row a
        for a in range(q):
            left = mul_t[a][add_t]  # a*(b+c)
            right = add_t[mul_t[a][:, None], mul_t[a][None, :]]  # a*b + a*c
            if not np.array_equal(left, right):
                b, c = first_bad(left, right)
                witness = (labels[a], labels[b], labels[c], "left")
                break
            left_r = mul_t[add_t, a]  # (b+c)*a
            right_r = add_t[mul_t[:, a][:, None], mul_t[:, a][None, :]]
            if not np.array_equal(left_r, right_r):
                b, c = first_bad(left_r, right_r)
                witness = (labels[b], labels[c], labels[a], "right")
                break
    checks["distributivity"] = AxiomCheck(witness is None, witness)

    return checks


def verify_field_axioms(spec: FieldSpec) -> AxiomReport:
    """Exhaustively verify every field axiom over all of GF(p^k).

    Raises SizeLimitError above order AXIOM_CHECK_CAP; all axioms are
    checked against the full operation tables, not sampled.
    Associativity and distributivity use Light's test over generating
    sets (see ``_check_tables``): the generators come from closing the
    tables themselves, so the result is still a proof for every triple.
    """
    elements, add_t, mul_t = operation_tables(spec)
    labels = [str(e) for e in elements]
    checks = _check_tables(labels, add_t, mul_t, zero=0, one=1)
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
    labels = [str(i) for i in range(n)]
    checks = _check_tables(labels, add_t, mul_t, zero=0, one=1 % n)
    return AxiomReport(order=n, checks=checks)
