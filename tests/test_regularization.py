"""Bernoulli numbers, zeta values at negative integers, vacuum-energy sums."""

import math
from fractions import Fraction

import numpy as np
import pytest

from finiverse.constants import CODATA2018
from finiverse.errors import (
    CapacityOverflowError,
    InvalidInputError,
    RangeLimitError,
)
from finiverse.regularization import (
    BERNOULLI_MAX,
    bernoulli,
    mode_energy,
    oscillator_count_energy,
    partial_sum_linear,
    point_bound_from_cutoff,
    vacuum_energy_partial,
    vacuum_energy_regularized,
    zeta_negative,
)

HBAR = CODATA2018.hbar
C = CODATA2018.c


def akiyama_tanigawa(n_max):
    """Independent Bernoulli generator (B1 = +1/2 convention)."""
    row = [Fraction(0)] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def test_bernoulli_against_independent_generator():
    oracle = akiyama_tanigawa(40)
    for n in range(41):
        assert bernoulli(n) == oracle[n], f"B_{n} mismatch"


def test_bernoulli_frozen_literals():
    expected = {
        0: Fraction(1),
        1: Fraction(1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, value in expected.items():
        assert bernoulli(n) == value


def test_bernoulli_odd_vanish():
    for n in range(3, BERNOULLI_MAX, 2):
        assert bernoulli(n) == 0


def test_bernoulli_binomial_identity():
    # sum_{j=0}^{n} C(n+1, j) B_j == n + 1 under the B1 = +1/2 convention
    for n in range(31):
        total = sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n + 1))
        assert total == n + 1


def test_bernoulli_range_errors():
    with pytest.raises(RangeLimitError):
        bernoulli(BERNOULLI_MAX + 1)
    with pytest.raises(RangeLimitError):
        bernoulli(-1)
    with pytest.raises(RangeLimitError):
        bernoulli(2.0)


def test_bernoulli_refuses_a_bool_as_invalid_input():
    # True == 1 as an int, but a bool is not an index, as zeta_negative(True) is not
    for flag in (True, False):
        with pytest.raises(InvalidInputError):
            bernoulli(flag)
    with pytest.raises(InvalidInputError):
        zeta_negative(True)


def test_zeta_negative_anchors():
    assert zeta_negative(0) == Fraction(-1, 2)
    assert zeta_negative(1) == Fraction(-1, 12)
    assert zeta_negative(2) == 0
    assert zeta_negative(3) == Fraction(1, 120)
    assert isinstance(zeta_negative(1), Fraction)
    assert zeta_negative(BERNOULLI_MAX - 1) != 0


def test_zeta_negative_errors():
    with pytest.raises(RangeLimitError):
        zeta_negative(BERNOULLI_MAX)
    with pytest.raises(InvalidInputError):
        zeta_negative(-1)


# -- partial sums ---------------------------------------------------------------


def test_partial_sum_linear_small():
    assert partial_sum_linear(1) == 1
    assert partial_sum_linear(55) == 1540
    assert partial_sum_linear(10**6) == 500000500000


def test_partial_sum_linear_against_cumsum():
    max_n = 3000
    table = np.cumsum(np.arange(1, max_n + 1, dtype=np.int64))
    rng = np.random.default_rng(20260818)
    for n in rng.integers(1, max_n + 1, size=1000):
        assert partial_sum_linear(int(n)) == int(table[n - 1])


def test_partial_sum_linear_errors():
    with pytest.raises(InvalidInputError):
        partial_sum_linear(0)
    with pytest.raises(InvalidInputError):
        partial_sum_linear(-5)
    with pytest.raises(CapacityOverflowError):
        partial_sum_linear(1 << 2_000_001)


# -- mode energies --------------------------------------------------------------


def test_mode_energy_zero_mode():
    assert mode_energy(0.0, 0.0, 0.0, 0.0) == 0.0


def test_mode_energy_massless_diagonal():
    kappa = 2.0e10
    omega = mode_energy(0.0, kappa, kappa, kappa)
    assert omega == pytest.approx(C * math.sqrt(3.0) * kappa, rel=1e-15)


def test_mode_energy_rest_mass():
    m0 = 9.1093837015e-31
    omega = mode_energy(m0, 0.0, 0.0, 0.0)
    assert omega == pytest.approx(m0 * C**2 / HBAR, rel=1e-15)


def test_mode_energy_negative_mass_rejected():
    with pytest.raises(InvalidInputError):
        mode_energy(-1.0, 0.0, 0.0, 0.0)


# -- box vacuum energy ----------------------------------------------------------


def test_vacuum_energy_partial_frozen():
    # sqrt(3) * pi * hbar * c / L * N(N+1)/2 at L = 1, N = 1
    assert vacuum_energy_partial(1.0, 1) == pytest.approx(1.7203125744792576e-25, rel=1e-13)


def test_vacuum_energy_partial_matches_accumulation():
    n = 10_000
    scale = math.sqrt(3.0) * math.pi * HBAR * C
    direct = scale * sum(range(1, n + 1))
    assert vacuum_energy_partial(1.0, n) == pytest.approx(direct, rel=1e-12)


def test_vacuum_energy_partial_scaling_and_growth():
    e1 = vacuum_energy_partial(1.0, 100)
    assert vacuum_energy_partial(2.0, 100) == pytest.approx(e1 / 2.0, rel=1e-14)
    assert vacuum_energy_partial(1.0, 101) > e1


def test_vacuum_energy_partial_errors():
    with pytest.raises(InvalidInputError):
        vacuum_energy_partial(0.0, 5)
    with pytest.raises(InvalidInputError):
        vacuum_energy_partial(1.0, 0)


def test_vacuum_energy_regularized():
    e_reg = vacuum_energy_regularized(1.0)
    scale = math.sqrt(3.0) * math.pi * HBAR * C
    assert e_reg == pytest.approx(scale * (-1.0 / 12.0), rel=1e-15)
    assert e_reg == pytest.approx(-1.433593812066048e-26, rel=1e-13)
    assert e_reg < 0.0
    with pytest.raises(InvalidInputError):
        vacuum_energy_regularized(-1.0)


# -- oscillator picture ----------------------------------------------------------


def test_oscillator_count_energy():
    assert oscillator_count_energy(1.0, 0) == 0.0
    assert oscillator_count_energy(1.0, 1) == pytest.approx(9.932229279658976e-26, rel=1e-13)
    # energy is linear in the count: E = pi * hbar * c * P / L
    assert oscillator_count_energy(2.0, 10) == pytest.approx(
        5.0 * oscillator_count_energy(1.0, 1), rel=1e-14
    )
    with pytest.raises(InvalidInputError):
        oscillator_count_energy(1.0, -1)
    with pytest.raises(InvalidInputError):
        oscillator_count_energy(0.0, 1)


def test_point_bound_from_cutoff():
    assert point_bound_from_cutoff(1) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert point_bound_from_cutoff(10) == pytest.approx(95.26279441628824, rel=1e-13)
    for k in (1, 2, 7, 31):
        bound = point_bound_from_cutoff(k)
        assert bound == pytest.approx(math.sqrt(3.0) / 2.0 * k * (k + 1), rel=1e-14)
        # every admissible count below the cutoff sits strictly under the bound
        assert k * (k + 1) / 2.0 * math.sqrt(3.0) <= bound * (1.0 + 1e-15)
    with pytest.raises(InvalidInputError):
        point_bound_from_cutoff(0)


def test_results_outside_the_float_range_are_invalid_input():
    with pytest.raises(InvalidInputError):
        mode_energy(0.0, 1e300, 0.0, 0.0)  # kx**2 raises OverflowError
    with pytest.raises(InvalidInputError):
        oscillator_count_energy(1e-300, 1e300)  # the product is inf
    with pytest.raises(InvalidInputError):
        point_bound_from_cutoff(10**400)  # K does not fit a float
    with pytest.raises(InvalidInputError):
        vacuum_energy_partial(1e-15, 10**400)
    with pytest.raises(CapacityOverflowError):  # a typed error inside keeps its type
        vacuum_energy_partial(1e-15, 2**4_000_001)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    for args in ((0.0, bad, 0.0, 0.0), (0.0, 0.0, bad, 0.0), (0.0, 0.0, 0.0, bad), (bad, 0.0, 0.0, 0.0)):
        with pytest.raises(InvalidInputError):
            mode_energy(*args)
    with pytest.raises(InvalidInputError):
        vacuum_energy_regularized(bad)
    with pytest.raises(InvalidInputError):
        vacuum_energy_partial(bad, 10)
    with pytest.raises(InvalidInputError):
        oscillator_count_energy(1e-15, bad)
