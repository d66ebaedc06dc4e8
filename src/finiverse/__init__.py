"""finiverse: exact finite-field geometry and vacuum-energy cosmology.

The package has five working layers:

* ``fields`` -- GF(p^k) arithmetic with exhaustive axiom verification,
* ``geometry`` -- affine spaces over finite fields, degenerate-distance
  search, line/incidence enumeration, and exact rational-plane tools,
* ``hilbert`` -- finite inner-product spaces with conjugation,
* ``regularization`` -- Bernoulli numbers, regularized divergent sums,
  and vacuum-energy formulas,
* ``cosmology`` -- the pointset-cosmology calculator and a verified
  scale-factor integrator.

``cli`` exposes all of it as the ``finiverse`` command.
"""

from .constants import CODATA2018, GIGAYEAR, Constants
from .cosmology import (
    OBSERVED,
    CosmologyParams,
    FluidState,
    LinearityWarning,
    ScaleFactorTrajectory,
    acceleration_constant_check,
    dust_pressure_law,
    evolve_scale_factor,
    friedmann_hubble_rate,
    growth_exponent_per_gigayear,
    lambda_from_density,
    load_config,
    min_metric_diameter,
    planck_vacuum_density,
    point_count_at_linear,
    point_count_growth_factor,
    point_count_rate,
    pointset_density,
    universe_diameter_at,
    vacuum_point_count,
    vacuum_pressure_law,
)
from .errors import (
    CapacityOverflowError,
    CurvatureUnsupportedError,
    DimMismatchError,
    DivisionByZeroError,
    FiniverseError,
    InvalidInputError,
    MalformedStructureError,
    MalformedTableError,
    NonPositiveScaleFactorError,
    NotAFieldError,
    NotPrimeError,
    RangeLimitError,
    SizeLimitError,
    SpecMismatchError,
    StepTooLargeError,
    TooFewPointsError,
    UsageError,
)
from .fields import (
    AxiomReport,
    FieldElement,
    FieldSpec,
    FieldVector,
    element_index,
    enumerate_elements,
    is_prime,
    make_extension_field,
    make_gaussian_extension,
    make_prime_field,
    operation_tables,
    verify_field_axioms,
    verify_modular_ring_axioms,
)
from .geometry import (
    COLLINEAR,
    ORDINARY,
    AffineSpace,
    HesseCheck,
    IncidenceStructure,
    Line,
    OrdinaryLineResult,
    RationalPoint,
    check_hesse_property,
    check_metric_axioms,
    enumerate_lines,
    find_degenerate_pair,
    find_ordinary_line,
    incidence_structure,
    pointset_cardinality,
    squared_distance,
    squared_distance_table,
    subspace_diameter,
)
from .hilbert import (
    FiniteHilbertSpace,
    conjugate,
    enumerate_vectors,
    hilbert_cardinality,
    inner_product,
    is_isotropic,
    norm_squared,
)
from .regularization import (
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

__version__ = "0.1.0"
