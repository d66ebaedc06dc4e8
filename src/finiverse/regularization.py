"""Divergent mode sums: exact partial sums and zeta-style regularization.

The divergent sum over all nonnegative powers n**s is never evaluated
directly; only two finite stand-ins exist here, and the type system
keeps them apart:

* ``partial_sum_linear(N)`` -- the exact integer N(N+1)/2 for a finite
  cutoff,
* ``zeta_negative(s)`` -- the exact rational -B(s+1)/(s+1) assigned to
  the full sum, so the linear case evaluates to -1/12.

Bernoulli numbers use the B1 = +1/2 sign convention throughout; under
it the defining identity reads sum_{j=0..n} C(n+1, j)*B_j = n + 1.

The vacuum-energy helpers turn those two stand-ins into joules for a
massless field in a cubic box of edge L: the cutoff sum grows as
N(N+1)/2 while the regularized value is a small negative constant
proportional to 1/L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .constants import CODATA2018, Constants
from .errors import CapacityOverflowError, InvalidInputError, RangeLimitError

__all__ = [
    "BERNOULLI_MAX",
    "BernoulliTable",
    "ModeSpec",
    "bernoulli",
    "zeta_negative",
    "partial_sum_linear",
    "mode_energy",
    "vacuum_energy_partial",
    "vacuum_energy_regularized",
    "oscillator_count_energy",
    "point_bound_from_cutoff",
]

#: largest Bernoulli index served by this table
BERNOULLI_MAX = 64

_CAPACITY_BITS = 4_000_000


def _bernoulli_values(n_max: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n_max by the defining recurrence, exact rationals.

    With B1 = +1/2 the identity sum_{j=0}^{n} C(n+1, j) * B_j = n + 1
    holds for every n >= 0, which solves for B_n term by term.
    """
    values: list[Fraction] = []
    for n in range(n_max + 1):
        acc = sum(
            (Fraction(math.comb(n + 1, j)) * values[j] for j in range(n)),
            start=Fraction(0),
        )
        values.append((Fraction(n + 1) - acc) / (n + 1))
    return tuple(values)


@dataclass(frozen=True)
class BernoulliTable:
    """Exact Bernoulli numbers B_0..B_n under the B1 = +1/2 convention."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        v = self.values
        if not v or v[0] != 1:
            raise InvalidInputError("B_0 must be 1")
        if len(v) > 1 and v[1] != Fraction(1, 2):
            raise InvalidInputError("B_1 must be +1/2 in this convention")
        for i in range(3, len(v), 2):
            if v[i] != 0:
                raise InvalidInputError(f"B_{i} must vanish for odd index >= 3")

    @classmethod
    def compute(cls, n_max: int) -> "BernoulliTable":
        if not (isinstance(n_max, int) and 0 <= n_max <= BERNOULLI_MAX):
            raise RangeLimitError(f"table size must lie in 0..{BERNOULLI_MAX}, got {n_max}")
        return cls(values=_bernoulli_values(n_max))

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self):
        return len(self.values)


_TABLE = BernoulliTable.compute(BERNOULLI_MAX)


def bernoulli(n: int) -> Fraction:
    """Exact B_n for 0 <= n <= 64 (B1 = +1/2 convention)."""
    if not (isinstance(n, int) and 0 <= n <= BERNOULLI_MAX):
        raise RangeLimitError(f"index must lie in 0..{BERNOULLI_MAX}, got {n}")
    return _TABLE[n]


def zeta_negative(s: int) -> Fraction:
    """Regularized value of the divergent sum of n**s over n >= 1.

    Exactly -B(s+1)/(s+1): s=0 gives -1/2, s=1 gives -1/12.
    """
    if not (isinstance(s, int) and s >= 0):
        raise InvalidInputError(f"exponent must be a nonnegative integer, got {s}")
    return -bernoulli(s + 1) / (s + 1)


def partial_sum_linear(N: int) -> int:
    """Exact cutoff sum 1 + 2 + ... + N = N(N+1)/2."""
    if not (isinstance(N, int) and N >= 1):
        raise InvalidInputError(f"cutoff must be a positive integer, got {N}")
    if N.bit_length() > _CAPACITY_BITS // 2:
        raise CapacityOverflowError(f"N(N+1)/2 would exceed {_CAPACITY_BITS} bits")
    return N * (N + 1) // 2


@dataclass(frozen=True)
class ModeSpec:
    """One excitation mode of a field in a cubic box of edge L."""

    m0: float  # rest mass, kg
    k: tuple  # wavevector (kx, ky, kz), 1/m
    L: float  # box edge, m
    cutoff: int = 1  # largest mode number retained

    def __post_init__(self):
        if not (isinstance(self.L, Real) and self.L > 0):
            raise InvalidInputError(f"box edge must be positive, got {self.L!r}")
        if not (isinstance(self.m0, Real) and self.m0 >= 0):
            raise InvalidInputError(f"rest mass must be nonnegative, got {self.m0!r}")
        if not (isinstance(self.cutoff, int) and self.cutoff >= 1):
            raise InvalidInputError(f"cutoff must be a positive integer, got {self.cutoff!r}")
        k = tuple(float(x) for x in self.k)
        if len(k) != 3:
            raise InvalidInputError("wavevector needs exactly three components")
        object.__setattr__(self, "k", k)


def mode_energy(m0: float, kx: float, ky: float, kz: float,
                constants: Constants = CODATA2018) -> float:
    """Angular frequency magnitude of one mode, rad/s.

    c * sqrt((m0*c/hbar)**2 + kx**2 + ky**2 + kz**2); the massless
    zero mode has frequency zero and a massive mode at rest oscillates
    at m0*c**2/hbar.
    """
    if not (math.isfinite(m0) and m0 >= 0):
        raise InvalidInputError(f"rest mass must be a nonnegative finite number, got {m0}")
    for name, k in (("kx", kx), ("ky", ky), ("kz", kz)):
        if not math.isfinite(k):
            raise InvalidInputError(f"wavevector component {name} must be finite, got {k}")
    mass_term = m0 * constants.c / constants.hbar
    return constants.c * math.sqrt(mass_term**2 + kx**2 + ky**2 + kz**2)


def _check_box(L) -> float:
    if isinstance(L, bool) or not isinstance(L, Real) or not (math.isfinite(L) and L > 0):
        raise InvalidInputError(f"box edge must be a positive finite number, got {L!r}")
    return float(L)


def vacuum_energy_partial(L: float, N: int,
                          constants: Constants = CODATA2018) -> float:
    """Zero-point energy of the first N diagonal modes in a box of edge L.

    Equals (sqrt(3)*pi*hbar*c/L) * N(N+1)/2, in joules; diverges
    quadratically as the cutoff N grows.
    """
    L = _check_box(L)
    if not (isinstance(N, int) and N >= 1):
        raise InvalidInputError(f"cutoff must be a positive integer, got {N!r}")
    scale = math.sqrt(3) * math.pi * constants.hbar * constants.c / L
    return scale * partial_sum_linear(N)


def vacuum_energy_regularized(L: float,
                              constants: Constants = CODATA2018) -> float:
    """Regularized zero-point energy: (sqrt(3)*pi*hbar*c/L) * (-1/12).

    Finite and negative; exactly -1/12 of the single-mode partial sum.
    """
    L = _check_box(L)
    scale = math.sqrt(3) * math.pi * constants.hbar * constants.c / L
    return scale * float(zeta_negative(1))


def oscillator_count_energy(L: float, P: float,
                            constants: Constants = CODATA2018) -> float:
    """Energy of P ground-state oscillators at frequency 2*pi*c/L.

    (hbar/2) * (2*pi*c/L) * P = pi*hbar*c*P/L, in joules.
    """
    L = _check_box(L)
    if isinstance(P, bool) or not isinstance(P, Real) or not (math.isfinite(P) and P >= 0):
        raise InvalidInputError(f"oscillator count must be a nonnegative finite number, got {P!r}")
    return math.pi * constants.hbar * constants.c * P / L


def point_bound_from_cutoff(K: int) -> float:
    """Upper bound (sqrt(3)/2) * K(K+1) on the oscillator count that a
    mode cutoff K can support."""
    if not (isinstance(K, int) and K >= 1):
        raise InvalidInputError(f"cutoff must be a positive integer, got {K!r}")
    return (math.sqrt(3) / 2) * K * (K + 1)
