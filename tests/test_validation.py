"""Every numeric library boundary rejects bools, non-numbers, NaN and
infinities with InvalidInputError; every size cap refuses with a
SizeLimitError, and every bit-size guard with a CapacityOverflowError,
that names the requested size and the cap; and every refusal of an int
too long for ``str`` is still typed, naming it by its bit length."""

import argparse
import contextlib
import math
import sys

import pytest

from finiverse import cli
from finiverse.constants import Constants
from finiverse.cosmology import (
    OBSERVED,
    CosmologyParams,
    FluidState,
    dust_pressure_law,
    evolve_scale_factor,
    friedmann_hubble_rate,
    growth_exponent_per_gigayear,
    point_count_growth_factor,
    universe_diameter_at,
)
from finiverse.errors import (
    CapacityOverflowError,
    DimMismatchError,
    InvalidInputError,
    MalformedStructureError,
    MalformedTableError,
    NonPositiveScaleFactorError,
    NotPrimeError,
    RangeLimitError,
    SizeLimitError,
)
from finiverse.fields import (
    FieldElement,
    FieldSpec,
    _is_prime,
    enumerate_elements,
    make_extension_field,
    make_gaussian_extension,
    make_prime_field,
    verify_field_axioms,
    verify_modular_ring_axioms,
)
from finiverse.geometry import (
    AffineSpace,
    IncidenceStructure,
    check_metric_axioms,
    enumerate_lines,
    pointset_cardinality,
    subspace_diameter,
)
from finiverse.hilbert import FiniteHilbertSpace, enumerate_vectors, hilbert_cardinality
from finiverse.regularization import (
    bernoulli,
    mode_energy,
    oscillator_count_energy,
    partial_sum_linear,
    point_bound_from_cutoff,
    vacuum_energy_regularized,
    zeta_negative,
)

F3 = make_prime_field(3)
STATE = FluidState(a=1.0, a_dot=0.0, rho=1.0)


def evolve(state=STATE, step=0.1):
    return evolve_scale_factor(state, dust_pressure_law(), 0.0, 0, 1.0, step)


BOUNDARIES = {
    "mode_energy m0": lambda x: mode_energy(x, 0, 0, 0),
    "mode_energy kz": lambda x: mode_energy(0, 0, 0, x),
    "point_count_growth_factor H0": lambda x: point_count_growth_factor(x, 1.0),
    "growth_exponent_per_gigayear H0": growth_exponent_per_gigayear,
    "universe_diameter_at dt": lambda x: universe_diameter_at(OBSERVED, x),
    "friedmann_hubble_rate rho": friedmann_hubble_rate,
    "friedmann_hubble_rate a": lambda x: friedmann_hubble_rate(1e-26, a=x),
    "Constants hbar": lambda x: Constants(hbar=x),
    "CosmologyParams H0": lambda x: CosmologyParams(H0=x),
    "CosmologyParams kappa": lambda x: CosmologyParams(kappa=x),
    # an infinite scale factor is accepted by FluidState and refused by the integrator
    "FluidState a": lambda x: evolve(FluidState(a=x, a_dot=0.0, rho=1.0)),
    "evolve_scale_factor step": lambda x: evolve(step=x),
    "AffineSpace dim": lambda x: AffineSpace(F3, x),
    "FiniteHilbertSpace dim": lambda x: FiniteHilbertSpace(F3, x),
    "pointset_cardinality order": lambda x: pointset_cardinality(x, 2),
    "subspace_diameter step": lambda x: subspace_diameter(x, 5),
    "hilbert_cardinality k": lambda x: hilbert_cardinality(3, x, 2),
    "make_extension_field k": lambda x: make_extension_field(3, x),
    "partial_sum_linear N": partial_sum_linear,
    "zeta_negative s": zeta_negative,
    "point_bound_from_cutoff K": point_bound_from_cutoff,
    "vacuum_energy_regularized L": vacuum_energy_regularized,
    "oscillator_count_energy P": lambda x: oscillator_count_energy(1e-15, x),
}


@pytest.mark.parametrize("bad", [True, "1", math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_rejects_non_numbers_and_non_finite(boundary, bad):
    with pytest.raises(InvalidInputError) as exc:
        BOUNDARIES[boundary](bad)
    assert exc.value.code == "InvalidInput"


def test_nonpositive_scale_factor_keeps_its_type():
    with pytest.raises(NonPositiveScaleFactorError) as exc:
        FluidState(a=0.0, a_dot=1.0, rho=1.0)
    assert exc.value.code == "NonPositiveScaleFactor"


F257_PLANE = AffineSpace(make_prime_field(257), 2)  # 66049 points > 2**16
PSI_13 = 3317044064679887385961981


@contextlib.contextmanager
def int_str_limit(digits=4300):
    """Python's default int-to-str limit, whatever the interpreter was given."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def refuse_unprintable_output():
    with int_str_limit():
        cli._refuse_unprintable({"cardinality": (10**5000, "points")})


SIZE_CAPS = {
    "is_prime": (lambda: _is_prime(PSI_13), PSI_13, PSI_13 - 1,
                 f"primality is decided only below psi_13 = {PSI_13}, got {PSI_13}"),
    "enumerate_elements": (lambda: enumerate_elements(make_extension_field(103, 3)),
                           103**3, 2**20, "field order 1092727 exceeds enumeration cap 1048576"),
    "verify_field_axioms": (lambda: verify_field_axioms(make_extension_field(23, 2)), 529, 500,
                            "field order 529 exceeds table cap 500"),
    "verify_modular_ring_axioms": (lambda: verify_modular_ring_axioms(501), 501, 500,
                                   "modulus must lie in 2..500, got 501"),
    "AffineSpace.points": (F257_PLANE.points, 257**2, 2**16,
                           "66049 points exceed the enumeration cap 65536"),
    "enumerate_lines": (lambda: enumerate_lines(F257_PLANE), 257**2, 2**16,
                        "66049 points exceed the line-enumeration cap 65536"),
    # AG(2, 127): 16129 points, under the point cap, on 16256 lines
    "enumerate_lines incidences": (
        lambda: enumerate_lines(AffineSpace(make_prime_field(127), 2)), 16256 * 127, 2**19,
        "16256 lines of 127 points hold 2064512 incidences, "
        "more than the line-enumeration cap 524288"),
    "enumerate_vectors": (lambda: enumerate_vectors(FiniteHilbertSpace(F3, 13)), 3**13, 2**20,
                          "1594323 vectors exceed the enumeration cap 1048576"),
    "evolve_scale_factor": (lambda: evolve(step=2.0**-30), 2**30, 10**6,
                            "1073741824 steps exceed the limit 1000000"),
    # 1.0 / 5e-324 overflows a float; the step count is still exact
    "evolve_scale_factor tiny step": (lambda: evolve(step=5e-324), 2**1074, 10**6,
                                      f"{2**1074} steps exceed the limit 1000000"),
    "cli field order": (lambda: cli._field_spec_from_order(65537), 65537, 2**16,
                        "field order 65537 exceeds the point enumeration cap 65536"),
    "cli field table": (
        lambda: cli._handle_field_table(argparse.Namespace(p=67, k=1, gaussian=False)), 67, 64,
        "table rendering capped at order 64, got 67"),
    "cli unprintable output": (refuse_unprintable_output, 5001, 4300,
                               "cardinality has 5001 decimal digits, more than the 4300 "
                               "str() converts"),
}


@pytest.mark.parametrize("site", sorted(SIZE_CAPS))
def test_size_limit_carries_requested_and_cap(site):
    call, requested, cap, message = SIZE_CAPS[site]
    with pytest.raises(SizeLimitError) as exc:
        call()
    assert exc.value.code == "SizeLimit"
    assert exc.value.witness == {"requested": requested, "cap": cap}
    assert str(exc.value) == message


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-to-str limit")
def test_size_too_long_to_print_is_named_by_its_bit_length():
    # 2**20000 has 6021 decimal digits, more than str() converts
    space = AffineSpace(make_prime_field(2), 20000)
    with int_str_limit(), pytest.raises(SizeLimitError) as exc:
        space.points()
    assert str(exc.value) == "<20001-bit integer> points exceed the enumeration cap 65536"
    assert exc.value.witness == {"requested": 2**20000, "cap": 2**16}


#: bit-size guards, each refusing before the power is computed (under the deadline)
CAPACITY = {
    "AffineSpace.point_count": (lambda: AffineSpace(make_prime_field(2), 10**7).point_count,
                                2 * 10**7, "2**10000000 would exceed 4000000 bits"),
    # 5 has 3 bits, so 5**(2*10**6) is estimated at 6*10**6 bits
    "hilbert_cardinality": (lambda: hilbert_cardinality(5, 2, 10**6), 3 * 2 * 10**6,
                            "5**2000000 would exceed 4000000 bits"),
    "partial_sum_linear": (lambda: partial_sum_linear(2**2_000_000), 2 * 2_000_001,
                           "N(N+1)/2 would exceed 4000000 bits"),
}


@pytest.mark.parametrize("site", sorted(CAPACITY))
def test_capacity_overflow_carries_requested_and_cap_in_bits(site, deadline):
    call, requested, message = CAPACITY[site]
    with pytest.raises(CapacityOverflowError) as exc:
        call()
    assert exc.value.code == "Overflow"
    assert exc.value.witness == {"requested": requested, "cap": 4_000_000}
    assert str(exc.value) == message


HUGE = 10**5000  # 16610 bits, 5001 decimal digits
F9 = make_extension_field(3, 2)

#: a library call refusing an int too long for str: (call, sign, error type)
TOO_LONG_TO_PRINT = {
    "make_prime_field": (make_prime_field, 1, NotPrimeError),
    "make_gaussian_extension": (make_gaussian_extension, -1, NotPrimeError),
    "make_extension_field p": (lambda x: make_extension_field(x, 2), 1, NotPrimeError),
    "make_extension_field k": (lambda x: make_extension_field(3, x), 1, InvalidInputError),
    "FieldSpec p": (lambda x: FieldSpec(x, 1, (0, 1)), -1, NotPrimeError),
    "FieldSpec.element": (F9.element, 1, InvalidInputError),
    "FieldElement coefficient": (lambda x: FieldElement(F3, [x]), 1, InvalidInputError),
    "verify_modular_ring_axioms": (verify_modular_ring_axioms, 1, SizeLimitError),
    "verify_modular_ring_axioms low": (verify_modular_ring_axioms, -1, InvalidInputError),
    "AffineSpace dim": (lambda x: AffineSpace(F3, x), -1, InvalidInputError),
    "AffineSpace.point": (lambda x: AffineSpace(F3, x).point([0]), 1, DimMismatchError),
    "check_metric_axioms label": (lambda x: check_metric_axioms([x, 1], {}), 1,
                                  MalformedTableError),
    "IncidenceStructure label": (lambda x: IncidenceStructure(points=(1, 2), lines=[(1, x)]),
                                 1, MalformedStructureError),
    "check_metric_axioms tuple label": (lambda x: check_metric_axioms([(x,), 1], {}), 1,
                                        MalformedTableError),
    "IncidenceStructure tuple label": (
        lambda x: IncidenceStructure(points=(1, 2), lines=[(1, (x,))]), 1,
        MalformedStructureError),
    "IncidenceStructure short line": (lambda x: IncidenceStructure(points=(x,), lines=[(x,)]),
                                      1, MalformedStructureError),
    "pointset_cardinality order": (lambda x: pointset_cardinality(x, 2), -1, InvalidInputError),
    "pointset_cardinality dim": (lambda x: pointset_cardinality(3, x), 1, CapacityOverflowError),
    "hilbert_cardinality p": (lambda x: hilbert_cardinality(x, 1, 2), 1, NotPrimeError),
    "hilbert_cardinality dim": (lambda x: hilbert_cardinality(3, 1, x), 1, CapacityOverflowError),
    "FiniteHilbertSpace.vector": (lambda x: FiniteHilbertSpace(F3, x).vector([0]), 1,
                                  DimMismatchError),
    "bernoulli": (bernoulli, 1, RangeLimitError),
    "zeta_negative": (zeta_negative, 1, RangeLimitError),
    "partial_sum_linear": (partial_sum_linear, -1, InvalidInputError),
    "vacuum_energy_regularized L": (vacuum_energy_regularized, -1, InvalidInputError),
    "Constants hbar": (lambda x: Constants(hbar=x), -1, InvalidInputError),
    "CosmologyParams kappa": (lambda x: CosmologyParams(kappa=x), 1, InvalidInputError),
    "FluidState a": (lambda x: FluidState(a=x, a_dot=0.0, rho=1.0), -1,
                     NonPositiveScaleFactorError),
}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-to-str limit")
@pytest.mark.parametrize("site", sorted(TOO_LONG_TO_PRINT))
def test_int_too_long_to_print_is_refused_typed(site):
    call, sign, error = TOO_LONG_TO_PRINT[site]
    with int_str_limit(), pytest.raises(error) as exc:
        call(sign * HUGE)
    assert exc.value.code == error.code
    assert "<16610-bit integer>" in str(exc.value)
