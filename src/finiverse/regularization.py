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
from fractions import Fraction
from functools import cache

from .constants import CODATA2018, Constants
from .errors import RangeLimitError
from .errors import _finite, _integer, _printable, _real, _within_capacity

__all__ = [
    "BERNOULLI_MAX",
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


@cache
def _table() -> tuple[Fraction, ...]:
    """B_0 .. B_BERNOULLI_MAX by the defining recurrence, exact rationals,
    built on first use rather than at import.

    With B1 = +1/2 the identity sum_{j=0}^{n} C(n+1, j) * B_j = n + 1
    holds for every n >= 0, which solves for B_n term by term.
    """
    values: list[Fraction] = []
    for n in range(BERNOULLI_MAX + 1):
        acc = sum(
            (Fraction(math.comb(n + 1, j)) * values[j] for j in range(n)),
            start=Fraction(0),
        )
        values.append((Fraction(n + 1) - acc) / (n + 1))
    return tuple(values)


def bernoulli(n: int) -> Fraction:
    """Exact B_n for 0 <= n <= 64 (B1 = +1/2 convention)."""
    if not (isinstance(n, int) and 0 <= n <= BERNOULLI_MAX):
        raise RangeLimitError(f"index must lie in 0..{BERNOULLI_MAX}, got {_printable(n)}")
    return _table()[n]


def zeta_negative(s: int) -> Fraction:
    """Regularized value of the divergent sum of n**s over n >= 1.

    Exactly -B(s+1)/(s+1): s=0 gives -1/2, s=1 gives -1/12.
    """
    _integer(s, "exponent", 0)
    return -bernoulli(s + 1) / (s + 1)


def partial_sum_linear(N: int) -> int:
    """Exact cutoff sum 1 + 2 + ... + N = N(N+1)/2."""
    _integer(N, "cutoff", 1)
    _within_capacity(2 * N.bit_length(), "N(N+1)/2")
    return N * (N + 1) // 2


@_finite("mode frequency")
def mode_energy(m0: float, kx: float, ky: float, kz: float,
                constants: Constants = CODATA2018) -> float:
    """Angular frequency magnitude of one mode, rad/s.

    c * sqrt((m0*c/hbar)**2 + kx**2 + ky**2 + kz**2); the massless
    zero mode has frequency zero and a massive mode at rest oscillates
    at m0*c**2/hbar.
    """
    _real(m0, "rest mass", 0)
    for name, k in (("kx", kx), ("ky", ky), ("kz", kz)):
        _real(k, f"wavevector component {name}")
    mass_term = m0 * constants.c / constants.hbar
    return constants.c * math.sqrt(mass_term**2 + kx**2 + ky**2 + kz**2)


@_finite("vacuum energy")
def vacuum_energy_partial(L: float, N: int,
                          constants: Constants = CODATA2018) -> float:
    """Zero-point energy of the first N diagonal modes in a box of edge L.

    Equals (sqrt(3)*pi*hbar*c/L) * N(N+1)/2, in joules; diverges
    quadratically as the cutoff N grows.
    """
    L = float(_real(L, "box edge", 0, above=True))
    scale = math.sqrt(3) * math.pi * constants.hbar * constants.c / L
    return scale * partial_sum_linear(N)


@_finite("regularized vacuum energy")
def vacuum_energy_regularized(L: float,
                              constants: Constants = CODATA2018) -> float:
    """Regularized zero-point energy: (sqrt(3)*pi*hbar*c/L) * (-1/12).

    Finite and negative; exactly -1/12 of the single-mode partial sum.
    """
    L = float(_real(L, "box edge", 0, above=True))
    scale = math.sqrt(3) * math.pi * constants.hbar * constants.c / L
    return scale * float(zeta_negative(1))


@_finite("oscillator energy")
def oscillator_count_energy(L: float, P: float,
                            constants: Constants = CODATA2018) -> float:
    """Energy of P ground-state oscillators at frequency 2*pi*c/L.

    (hbar/2) * (2*pi*c/L) * P = pi*hbar*c*P/L, in joules.
    """
    L = float(_real(L, "box edge", 0, above=True))
    _real(P, "oscillator count", 0)
    return math.pi * constants.hbar * constants.c * P / L


@_finite("point bound")
def point_bound_from_cutoff(K: int) -> float:
    """Upper bound (sqrt(3)/2) * K(K+1) on the oscillator count that a
    mode cutoff K can support."""
    _integer(K, "cutoff", 1)
    return (math.sqrt(3) / 2) * K * (K + 1)
