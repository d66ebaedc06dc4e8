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

The first time a field is enumerated (``enumerate_elements`` and,
through it, ``operation_tables``, ``AffineSpace.points`` and
``enumerate_vectors``), the spec builds log/antilog tables over element
indices from a primitive element g: ``exp[i]`` is the index of g**i and
``log`` its inverse.  The build is vectorised over all indices with
numpy, imported by the first table build (or the Z/n axiom battery), so
a process that never enumerates a field does not load numpy at all.
The tables stay with the spec for its lifetime (copies and pickles do
not carry them), together with one cached instance per index: O(q)
memory.  From then on ``*``, ``/``, ``inverse`` and ``**`` are index
arithmetic (``exp[(log a + log b) mod (q-1)]``) and every result is a
cached instance.  A field that is never enumerated builds nothing: ``*``
multiplies the derived coefficients as polynomials and ``inverse`` of an
extension element runs the extended Euclidean algorithm on them, so huge
fields cost no table memory.  On both paths ``a ** n`` takes n mod q-1,
which the order of every nonzero element divides.

``FieldVector`` is an n-tuple over one field: the point type of
``geometry.AffineSpace`` and the vector type of
``hilbert.FiniteHilbertSpace``.

``verify_field_axioms`` checks the full field axiom list by exhaustive
truth tables (associativity and distributivity by Light's test over
generating sets) and returns explicit witnesses on failure;
``verify_modular_ring_axioms`` runs the same battery on Z/n as a
diagnostic for composite moduli.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product, repeat, zip_longest
from typing import TYPE_CHECKING, Optional, Sequence

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
    "is_prime",
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
#: is_prime's refusal, a template formatted only when it raises
_MR_REFUSAL = f"primality is decided only below psi_13 = {_MR_BOUND}, got {{n}}"


def is_prime(n: int) -> bool:
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
    if not is_prime(p):
        raise NotPrimeError(f"{_printable(p)} is not prime")


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists over Z_p, constant term first)
# ---------------------------------------------------------------------------


def _poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over GF(p); b must be nonzero."""
    b = _poly_trim(list(b))
    if not any(b):
        raise DivisionByZeroError("polynomial division by zero")
    a = _poly_trim(list(a))
    db, da = len(b) - 1, len(a) - 1
    lead_inv = pow(b[-1], p - 2, p)
    quot = [0] * max(da - db + 1, 1)
    rem = list(a)
    for shift in range(da - db, -1, -1):
        coef = (rem[shift + db] * lead_inv) % p
        if coef:
            quot[shift] = coef
            for j, bj in enumerate(b):
                rem[shift + j] = (rem[shift + j] - coef * bj) % p
    return _poly_trim(quot), _poly_trim(rem)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a by the monic m of degree k >= 1 over GF(p), reduced
    from the top down with no quotient and no inverse."""
    k = len(m) - 1
    rem = list(a)
    low = m[:-1]
    for top in range(len(rem) - 1, k - 1, -1):
        c = rem[top] % p
        if c:
            base = top - k
            for j, mj in enumerate(low):
                rem[base + j] -= c * mj
    return _poly_trim([c % p for c in rem[:k]])


def _poly_ext_gcd(a: Sequence[int], b: Sequence[int], p: int):
    """Return (g, u) with u*a = g mod b over GF(p), g monic when nonzero."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    u0, u1 = [1], [0]
    while any(r1):
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        qu = _poly_mul(q, u1, p)
        u0, u1 = u1, _poly_trim([(x - y) % p for x, y in zip_longest(u0, qu, fillvalue=0)])
    if any(r0):
        scale = pow(r0[-1], p - 2, p)
        r0 = [(c * scale) % p for c in r0]
        u0 = [(c * scale) % p for c in u0]
    return r0, u0


def _poly_powmod(a: Sequence[int], n: int, m: Sequence[int], p: int) -> list[int]:
    """a^n mod the monic m over GF(p), by square-and-multiply."""
    result = [1]
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, a, p), m, p)
        n >>= 1
        if n:
            a = _poly_mod(_poly_mul(a, a, p), m, p)
    return result


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic poly f of degree k over GF(p) (Rabin,
    "Probabilistic algorithms in finite fields", SIAM J. Comput. 9, 1980):
    f is irreducible iff x^(p^k) = x mod f and gcd(x^(p^(k/r)) - x, f) = 1
    for every prime r dividing k.  Each Frobenius power x^(p^i) mod f is
    the previous one raised to the p-th power, and each gcd is taken as
    soon as its power is known: a candidate with a factor of degree
    dividing k/r is rejected before the higher powers are computed.
    """
    f = _poly_trim(list(poly))
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    gcd_at = {k // r for r in _prime_factors(k)}
    h = [0, 1]  # x^(p^i) mod f, for i = 0 .. k
    for i in range(1, k + 1):
        h = _poly_powmod(h, p, f, p)
        if i in gcd_at:
            h_minus_x = h + [0] * (2 - len(h))
            h_minus_x[1] = (h_minus_x[1] - 1) % p
            if _poly_ext_gcd(h_minus_x, f, p)[0] != [1]:
                return False
    return h == [0, 1]


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


class _Tables:
    """Log/antilog tables of one field over element indices.

    ``elements[n]`` is the cached element of index n, ``exp[i]`` the
    index of g**i for the primitive element g (0 <= i < q-1) and
    ``log[n]`` the exponent of the nonzero element n (``log[0]`` is 0
    and never read as a logarithm).  ``exp`` and ``log`` are memoryviews
    of int64 arrays: 16 bytes per element, and indexing them gives plain
    ints.
    """

    __slots__ = ("elements", "exp", "log", "period")

    def __init__(self, spec: "FieldSpec"):
        import numpy as np

        p, k = spec.p, spec.k
        q = p**k
        period = q - 1
        # the primitive element of smallest index: g has order q-1 iff
        # g**((q-1)/r) != 1 for every prime r dividing q-1; untabled, **
        # is _poly_powmod.  For k >= 2 the indices below p are the
        # constants, whose order divides p-1.
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
        self.exp = memoryview(exp)
        self.log = memoryview(log)
        self.elements = list(map(_new, repeat(spec), range(q)))
        self.period = period


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

    #: log/antilog tables, set on first enumeration (not a dataclass field)
    _tables = None

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
        # copies and pickles carry the definition, not the tables
        return (FieldSpec, (self.p, self.k, self.modulus_poly))

    @property
    def order(self) -> int:
        return self.p**self.k

    def _at(self, n: int) -> "FieldElement":
        """The element of index n: the cached instance once tabled."""
        t = self._tables
        if t is None:
            return _new(self, n)
        return t.elements[n]

    def element(self, value) -> "FieldElement":
        """Coerce an int (reduced mod p for k == 1, otherwise a base-p
        element index) or a coefficient sequence into a field element."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise SpecMismatchError("element belongs to a different field")
            return value
        p = self.p
        if isinstance(value, int):
            if self.k == 1:
                return self._at(value % p)
            if not 0 <= value < self.order:
                raise InvalidInputError(
                    f"element index {_printable(value)} outside 0..{self.order - 1}"
                )
            return self._at(value)
        coeffs = [int(c) % p for c in value]
        if len(coeffs) != self.k:
            raise DimMismatchError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return self._at(_index_of(coeffs, p))

    @property
    def zero(self) -> "FieldElement":
        return self._at(0)

    @property
    def one(self) -> "FieldElement":
        return self._at(1)

    @property
    def gen(self) -> "FieldElement":
        """The adjoined root (the class of x); only defined for k >= 2."""
        if self.k < 2:
            raise InvalidInputError("prime fields have no adjoined generator")
        return self._at(self.p)

    def elements(self) -> list["FieldElement"]:
        return enumerate_elements(self)

    def __str__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


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
        return spec._at(_digitwise(self._index, other._index, 1, spec.p, spec.k))

    def __sub__(self, other):
        other = self._check(other)
        spec = self.spec
        return spec._at(_digitwise(self._index, other._index, -1, spec.p, spec.k))

    def __neg__(self):
        spec = self.spec
        return spec._at(_digitwise(0, self._index, -1, spec.p, spec.k))

    def __mul__(self, other):
        other = self._check(other)
        spec = self.spec
        a, b = self._index, other._index
        t = spec._tables
        if t is not None:
            if a == 0 or b == 0:
                return t.elements[0]
            return t.elements[t.exp[(t.log[a] + t.log[b]) % t.period]]
        p = spec.p
        if spec.k == 1:
            return _new(spec, a * b % p)
        prod = _poly_mul(self.coeffs, other.coeffs, p)
        return _new(spec, _index_of(_poly_mod(prod, spec.modulus_poly, p), p))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: ``self ** -1`` on a tabled spec or a
        prime field, otherwise the extended Euclidean algorithm."""
        spec = self.spec
        if spec.k == 1 or spec._tables is not None:
            return self ** -1
        if self._index == 0:
            raise DivisionByZeroError(f"zero has no inverse in {spec}")
        p = spec.p
        g, u = _poly_ext_gcd(self.coeffs, spec.modulus_poly, p)
        if g != [1]:  # cannot happen for an irreducible modulus
            raise NotAFieldError(f"gcd with modulus is {g}, element not invertible")
        return _new(spec, _index_of(_poly_mod(u, spec.modulus_poly, p), p))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        """a**n, n mod q-1: exp[log a * n] on a tabled spec, otherwise a
        modular power of the index (k = 1) or of the coefficients."""
        if not isinstance(n, int):
            raise InvalidInputError("exponent must be an integer")
        spec = self.spec
        a = self._index
        if a == 0:
            if n < 0:
                raise DivisionByZeroError(f"zero has no inverse in {spec}")
            return spec._at(0 if n else 1)
        n %= spec.order - 1
        t = spec._tables
        if t is not None:
            return t.elements[t.exp[t.log[a] * n % t.period]]
        p = spec.p
        if spec.k == 1:
            return _new(spec, pow(a, n, p))
        return _new(spec, _index_of(_poly_powmod(self.coeffs, n, spec.modulus_poly, p), p))

    # -- presentation -------------------------------------------------------

    def __str__(self):
        return _poly_str(self.coeffs, "a")

    def __repr__(self):
        return f"<{self} in {self.spec}>"


# the slot setters, bound once: _new runs once per element of a tabled field
_set_spec = FieldElement.spec.__set__
_set_index = FieldElement._index.__set__


def _new(spec: FieldSpec, n: int) -> FieldElement:
    """The element of a trusted index n, built without the constructor's checks."""
    e = object.__new__(FieldElement)
    _set_spec(e, spec)
    _set_index(e, n)
    return e


class FieldVector:
    """Coordinate n-tuple over one finite field, supporting +, - and
    scalar multiples.

    It is both a point (or displacement) of the affine space AG(n, q),
    measured by ``geometry.squared_distance``, and a state vector of the
    finite Hilbert space, paired by ``hilbert.inner_product``.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[FieldElement]):
        coords = tuple(coords)
        if not coords:
            raise InvalidInputError("a vector needs at least one coordinate")
        spec = coords[0].spec
        if any(c.spec != spec for c in coords[1:]):
            raise SpecMismatchError("all coordinates must share one field")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FieldVector is immutable")

    @property
    def spec(self) -> FieldSpec:
        return self.coords[0].spec

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check(self, other: "FieldVector") -> "FieldVector":
        if not isinstance(other, FieldVector):
            raise SpecMismatchError(f"cannot combine vector with {type(other).__name__}")
        if other.spec != self.spec:
            raise SpecMismatchError("vectors live over different fields")
        if other.dim != self.dim:
            raise DimMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._check(other)
        return FieldVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, t: FieldElement) -> "FieldVector":
        return FieldVector(tuple(t * c for c in self.coords))

    def __eq__(self, other):
        if not isinstance(other, FieldVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def index_key(self) -> tuple[int, ...]:
        """Sort key matching coordinate enumeration order."""
        return tuple(c._index for c in self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"FieldVector{self}"


_set_coords = FieldVector.coords.__set__


def _vector(coords: tuple) -> FieldVector:
    v = object.__new__(FieldVector)
    _set_coords(v, coords)
    return v


def _vectors(spec: FieldSpec, dim: int) -> list[FieldVector]:
    """Every dim-tuple over ``spec.elements()``, first coordinate varying
    slowest.  The coordinates share one field by construction, so the
    vectors are built without the constructor's check."""
    return list(map(_vector, product(spec.elements(), repeat=dim)))


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
        return FieldVector(tuple(self.spec.element(v) for v in values))


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
    least significant), so index 0 is zero and index 1 is one.

    The first call on a spec builds its log/antilog tables; the list
    holds the spec's cached instances.
    """
    _at_most(spec.order, ENUMERATION_CAP, "field order {n} exceeds enumeration cap {cap}")
    t = spec._tables
    if t is None:
        t = _Tables(spec)
        object.__setattr__(spec, "_tables", t)
    return list(t.elements)


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
    # a*b = exp[(log a + log b) mod (q-1)], with zero absorbing
    t = spec._tables
    log, exp = np.asarray(t.log), np.asarray(t.exp)
    mul_t = exp[(log[:, None] + log[None, :]) % t.period]
    mul_t[0, :] = 0
    mul_t[:, 0] = 0
    return elements, add_t, mul_t


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom family; ``witness`` names offending elements."""

    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class AxiomReport:
    """Exhaustive axiom battery outcome for one finite structure."""

    description: str
    order: int
    checks: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failing(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.passed]


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
    return AxiomReport(description=str(spec), order=spec.order, checks=checks)


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
    return AxiomReport(description=f"Z/{n}", order=n, checks=checks)
