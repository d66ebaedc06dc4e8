"""Vacuum pointset cosmology calculator and scale-factor integrator.

Core quantities, all plain SI floats:

* vacuum point count  P = rho_vac * L_U**4 / (pi*hbar*c)
* cosmological constant  Lambda = 8*pi*G*rho_vac/c**4, equivalently
  (8*pi**2*hbar*G/c**3) * P / L_U**4
* linearized expansion  L_U(dt) = L_U0*(1 + H0*dt) and
  P(dt) = (c**3*Lambda/(8*pi**2*hbar*G)) * L_U0**4 * (1 + 4*H0*dt)
* exact flat-space rate  dP/dt = 4*H0*P0 and growth exp(4*H0*dt)
* pointset density  P/L_U**3 and the minimum resolvable diameter
  (pi*hbar*c/(rho_vac*L_U))**(1/3)

``evolve_scale_factor`` integrates the coupled system

    addot/a = -(4*pi*G/3)*(rho + 3*p/c**2) + Lambda*c**2/a**2
    rhodot  = -3*(adot/a)*(rho + p/c**2)

with classical fixed-step fourth-order Runge-Kutta.  One generator,
``_integrate``, yields each state with its first-stage pressure; every
sample is built by the checked ``FluidState`` constructor and records
the first-integral residual
(adot/a)**2 - (8*pi*G/3)*rho + kappa*c**2/a**2 - Lambda*c**2/a**2, and a
mandatory rerun at half step verifies the endpoint.

Conformance note: the Lambda term is implemented as Lambda*c**2/a**2 in
both the acceleration equation and the first integral, the convention
adopted consistently throughout this package; the textbook form divides
by 3 and omits the scale factor.  For the vacuum equation of state with
Lambda = 0 (the validated regime) the difference is moot.  Expansion is
linearized as L_U0*(1 + H0*dt) where noted, so the linearized forms
carry a documented validity guard |H0*dt| <= 0.1 and emit
LinearityWarning beyond it.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable

from .constants import CODATA2018, GIGAYEAR, Constants
from .errors import (
    CurvatureUnsupportedError,
    InvalidInputError,
    NonPositiveScaleFactorError,
    StepTooLargeError,
    _at_most,
    _finite,
    _integer,
    _long_integers,
    _printable,
    _real,
)

__all__ = [
    "LINEAR_GUARD",
    "LinearityWarning",
    "CosmologyParams",
    "OBSERVED",
    "FluidState",
    "ScaleFactorTrajectory",
    "vacuum_point_count",
    "lambda_from_density",
    "universe_diameter_at",
    "point_count_at_linear",
    "point_count_rate",
    "point_count_growth_factor",
    "growth_exponent_per_gigayear",
    "pointset_density",
    "min_metric_diameter",
    "planck_vacuum_density",
    "acceleration_constant_check",
    "vacuum_pressure_law",
    "dust_pressure_law",
    "friedmann_hubble_rate",
    "evolve_scale_factor",
    "load_config",
]

#: |H0*dt| beyond which the linearized formulas are flagged
LINEAR_GUARD = 0.1

#: integrator refuses runs needing more steps than this
MAX_STEPS = 1_000_000


class LinearityWarning(UserWarning):
    """A linearized expansion formula was evaluated outside |H0*dt| <= 0.1."""


@dataclass(frozen=True)
class CosmologyParams:
    """Observational inputs: vacuum energy density (J/m^3), present
    universe diameter (m), Hubble constant (1/s), curvature sign."""

    rho_vac: float = 5.4e-10
    L_U0: float = 8.8e26
    H0: float = 2.19e-18
    kappa: int = 0

    def __post_init__(self):
        for name in ("rho_vac", "L_U0", "H0"):
            _real(getattr(self, name), name, 0, above=True)
        _integer(self.kappa, "curvature sign", -1, 1)


#: present-day observational defaults
OBSERVED = CosmologyParams()


@_finite("vacuum point count", 0, above=True)
def vacuum_point_count(params: CosmologyParams,
                       constants: Constants = CODATA2018) -> float:
    """Number of vacuum points in the observable universe:
    rho_vac * L_U0**4 / (pi*hbar*c)."""
    return params.rho_vac * params.L_U0**4 / (math.pi * constants.hbar * constants.c)


@_finite("cosmological constant", 0, above=True)
def lambda_from_density(params: CosmologyParams,
                        constants: Constants = CODATA2018) -> float:
    """Cosmological constant 8*pi*G*rho_vac/c**4, in 1/m^2."""
    return 8 * math.pi * constants.G * params.rho_vac / constants.c**4


def _linear_guard(h0dt: float, what: str) -> None:
    if abs(h0dt) > LINEAR_GUARD:
        warnings.warn(
            f"{what} evaluated at H0*dt = {h0dt:.3g}, outside the linear "
            f"validity guard |H0*dt| <= {LINEAR_GUARD}",
            LinearityWarning,
            stacklevel=4,
        )


@_finite("universe diameter")
def universe_diameter_at(params: CosmologyParams, dt: float) -> float:
    """Linear Hubble growth of the diameter: L_U0 * (1 + H0*dt)."""
    _real(dt, "time offset", 0)
    _linear_guard(params.H0 * dt, "universe_diameter_at")
    return params.L_U0 * (1 + params.H0 * dt)


@_finite("point count")
def point_count_at_linear(params: CosmologyParams, dt: float,
                          constants: Constants = CODATA2018) -> float:
    """Linearized point count at time offset dt:
    (c**3*Lambda/(8*pi**2*hbar*G)) * L_U0**4 * (1 + 4*H0*dt).

    At dt = 0 this reduces exactly to vacuum_point_count.
    """
    _real(dt, "time offset")
    _linear_guard(params.H0 * dt, "point_count_at_linear")
    lam = lambda_from_density(params, constants)
    prefactor = constants.c**3 * lam / (8 * math.pi**2 * constants.hbar * constants.G)
    return prefactor * params.L_U0**4 * (1 + 4 * params.H0 * dt)


@_finite("point-count rate", 0, above=True)
def point_count_rate(params: CosmologyParams,
                     constants: Constants = CODATA2018) -> float:
    """Flat-space point-count rate dP/dt = 4 * H0 * P0, in 1/s."""
    if params.kappa != 0:
        raise CurvatureUnsupportedError(
            "the closed-form rate 4*H0*P0 holds only for flat spatial "
            f"sections (kappa = 0), got kappa = {params.kappa}"
        )
    return 4 * params.H0 * vacuum_point_count(params, constants)


@_finite("growth factor", 0, above=True)
def point_count_growth_factor(H0: float, dt: float) -> float:
    """Exponential point-count growth over dt: exp(4*H0*dt)."""
    _real(H0, "H0")
    _real(dt, "dt")
    return math.exp(4 * H0 * dt)


@_finite("growth exponent per gigayear")
def growth_exponent_per_gigayear(H0: float) -> float:
    """The exponent 4*H0*dt accumulated over one gigayear."""
    _real(H0, "H0")
    return 4 * H0 * GIGAYEAR


@_finite("pointset density", 0, above=True)
def pointset_density(params: CosmologyParams,
                     constants: Constants = CODATA2018) -> float:
    """Vacuum points per cubic meter: vacuum_point_count / L_U0**3."""
    return vacuum_point_count(params, constants) / params.L_U0**3


@_finite("minimum metric diameter", 0, above=True)
def min_metric_diameter(params: CosmologyParams,
                        constants: Constants = CODATA2018) -> float:
    """Edge of the smallest vacuum box expected to hold about one point:
    (pi*hbar*c/(rho_vac*L_U0))**(1/3), in meters."""
    return (math.pi * constants.hbar * constants.c / (params.rho_vac * params.L_U0)) ** (1 / 3)


@_finite("Planck vacuum density", 0, above=True)
def planck_vacuum_density(constants: Constants = CODATA2018) -> float:
    """Vacuum energy density set by the Planck length:
    c**4 / (8*pi*G*l_planck**2), in J/m^3."""
    return constants.c**4 / (8 * math.pi * constants.G * constants.l_planck**2)


@_finite("acceleration ratio", 0, above=True)
def acceleration_constant_check(params: CosmologyParams,
                                constants: Constants = CODATA2018) -> float:
    """Constant acceleration ratio addot/a of a vacuum-dominated epoch.

    With rho = rho_vac/c**2 and p = -rho_vac the acceleration equation
    collapses to (8*pi*G/(3*c**2)) * rho_vac > 0.
    """
    return 8 * math.pi * constants.G * params.rho_vac / (3 * constants.c**2)


# ---------------------------------------------------------------------------
# scale-factor integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FluidState:
    """Instantaneous state: scale factor, its rate, mass density (kg/m^3),
    pressure (Pa), and time (s)."""

    a: float
    a_dot: float
    rho: float
    p: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        a = self.a
        # an infinite a is left to evolve_scale_factor, which rejects it
        if a != math.inf:
            _real(a, "scale factor")
        if a <= 0:
            raise NonPositiveScaleFactorError(
                f"scale factor must be positive, got {_printable(a)!r}"
            )


@dataclass(frozen=True)
class ScaleFactorTrajectory:
    """Time-ordered integration output.

    ``friedmann_residuals[i]`` is the first-integral defect at sample i;
    ``halving_rel_diff`` records how much the endpoint moved when the
    run was repeated at half step (always <= 1e-6, enforced).
    """

    samples: tuple
    step: float
    friedmann_residuals: tuple = field(default=())
    halving_rel_diff: float = 0.0

    def __post_init__(self):
        ts = [s.t for s in self.samples]
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise InvalidInputError("sample times must be strictly increasing")
        if any(s.a <= 0 for s in self.samples):
            raise NonPositiveScaleFactorError("trajectory contains a nonpositive scale factor")

    @property
    def final(self) -> FluidState:
        return self.samples[-1]


def vacuum_pressure_law(constants: Constants = CODATA2018) -> Callable[[float], float]:
    """Equation of state p = -c**2 * rho (vacuum-like fluid)."""
    c2 = constants.c**2
    return lambda rho: -c2 * rho


def dust_pressure_law() -> Callable[[float], float]:
    """Pressureless matter: p = 0 for any density."""
    return lambda rho: 0.0


@_finite("expansion rate")
def friedmann_hubble_rate(rho: float, lam: float = 0.0, kappa: int = 0,
                          a: float = 1.0,
                          constants: Constants = CODATA2018) -> float:
    """Expansion rate adot/a satisfying the first integral:
    sqrt((8*pi*G/3)*rho - kappa*c**2/a**2 + lam*c**2/a**2)."""
    _real(rho, "density")
    _real(lam, "lambda")
    _integer(kappa, "curvature sign", -1, 1)
    _real(a, "scale factor", 0, above=True)
    c2 = constants.c**2
    h2 = (8 * math.pi * constants.G / 3) * rho - kappa * c2 / a**2 + lam * c2 / a**2
    if h2 < 0:
        raise InvalidInputError(f"no real expansion rate: H^2 = {h2} < 0")
    return math.sqrt(h2)


def _integrate(initial, eos, lam, t_end, step, constants):
    """Fixed-step classical RK4 from ``initial`` to ``t_end``; the last
    step is cut at t_end.  Yields (t, a, a_dot, rho, p) for the initial
    state and after every step, p being the first stage's pressure at
    that state."""
    c2 = constants.c**2
    g43 = -(4 * math.pi * constants.G / 3)
    lc2 = lam * c2

    def rates(a, a_dot, rho):
        if a <= 0:
            raise NonPositiveScaleFactorError(f"scale factor reached {a} during integration")
        p = eos(rho)
        accel = g43 * (rho + 3 * p / c2) + lc2 / a**2
        return p, a_dot, a * accel, -3 * (a_dot / a) * (rho + p / c2)

    a, a_dot, rho, t = initial.a, initial.a_dot, initial.rho, initial.t
    while True:
        p, a1, v1, r1 = rates(a, a_dot, rho)
        yield t, a, a_dot, rho, p
        if not t < t_end:
            return
        h = min(step, t_end - t)
        _, a2, v2, r2 = rates(a + 0.5 * h * a1, a_dot + 0.5 * h * v1, rho + 0.5 * h * r1)
        _, a3, v3, r3 = rates(a + 0.5 * h * a2, a_dot + 0.5 * h * v2, rho + 0.5 * h * r2)
        _, a4, v4, r4 = rates(a + h * a3, a_dot + h * v3, rho + h * r3)
        a += h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        a_dot += h / 6 * (v1 + 2 * v2 + 2 * v3 + v4)
        rho += h / 6 * (r1 + 2 * r2 + 2 * r3 + r4)
        t += h
        if a <= 0:
            raise NonPositiveScaleFactorError(f"scale factor reached {a} at t = {t}")


def evolve_scale_factor(initial: FluidState, eos: Callable[[float], float],
                        lam: float, kappa: int, t_end: float, step: float,
                        constants: Constants = CODATA2018) -> ScaleFactorTrajectory:
    """Integrate the acceleration + continuity system with fixed-step RK4.

    The run is always repeated at half step; if the endpoint scale
    factor differs by more than 1e-6 relative, StepTooLargeError is
    raised instead of returning an untrustworthy trajectory.  A step not
    above the float spacing of the times would never advance t, so it is
    refused with InvalidInputError before integrating.  Samples
    land on every full step plus the exact endpoint, each carrying the
    monitored Friedmann residual.
    """
    _integer(kappa, "curvature sign", -1, 1)
    for name in ("a", "a_dot", "rho", "p", "t"):
        _real(getattr(initial, name), f"initial {name}")
    _real(step, "step", 0, above=True)
    _real(t_end, "t_end", initial.t, above=True)
    _real(lam, "lambda")
    if not callable(eos):
        raise InvalidInputError("eos must be a callable pressure law p(rho)")
    steps = (Fraction(t_end) - Fraction(initial.t)) / Fraction(step)  # exact, also past 1e308
    _at_most(math.ceil(steps), MAX_STEPS, "{n} steps exceed the limit {cap}")
    # t += h leaves t unchanged once h is at most half the float spacing
    # near t, so the half-step rerun could never end unless step exceeds
    # the spacing at the larger time
    resolution = math.ulp(min(max(abs(initial.t), abs(t_end)), sys.float_info.max))
    if step <= resolution:
        raise InvalidInputError(
            f"step {step} is not above the float resolution {resolution} of the times"
        )

    c2 = constants.c**2
    g83 = 8 * math.pi * constants.G / 3
    lc2 = lam * c2
    samples, residuals = [], []
    try:
        # read lazily, so an error is raised at the step that meets it
        for t, a, a_dot, rho, p in _integrate(initial, eos, lam, t_end, step, constants):
            residuals.append((a_dot / a) ** 2 - g83 * rho + kappa * c2 / a**2 - lc2 / a**2)
            samples.append(FluidState(a=a, a_dot=a_dot, rho=rho, p=p, t=t))
        for _, a_half, _, _, _ in _integrate(initial, eos, lam, t_end, step / 2, constants):
            pass
    except (OverflowError, ZeroDivisionError):
        raise InvalidInputError("the integration leaves the float range") from None
    a_end = samples[-1].a
    rel = abs(a_end - a_half) / max(abs(a_half), abs(a_end))
    if rel > 1e-6:
        raise StepTooLargeError(
            f"halving the step moved the endpoint by relative {rel:.3e} "
            f"(> 1e-6); reduce step below {step}",
            witness={"relative_difference": rel, "tolerance": 1e-6, "step": step},
        )
    return ScaleFactorTrajectory(
        samples=tuple(samples),
        step=float(step),
        friedmann_residuals=tuple(residuals),
        halving_rel_diff=rel,
    )


# ---------------------------------------------------------------------------
# configuration file
# ---------------------------------------------------------------------------


def load_config(path) -> tuple[Constants, CosmologyParams]:
    """Read a flat key=value config file overriding ``CODATA2018`` and
    ``OBSERVED``.

    Recognized keys: hbar, c, G, l_planck, l_strong, rho_vac, L_U0, H0,
    kappa.  Blank lines and lines starting with '#' are skipped; any
    other key raises InvalidInputError, and so does a path that is not
    a ``str`` or ``os.PathLike`` (an int would open a file descriptor).
    """
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidInputError(
            f"config path must be a str or os.PathLike, got {type(path).__name__}"
        )
    consts, pars = asdict(CODATA2018), asdict(OBSERVED)
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected key=value, got {_printable(line)!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            try:
                num = int(value) if key == "kappa" else float(value)
            except ValueError:
                if key == "kappa":  # SizeLimit when int() refused only its length
                    _long_integers([value], "{path}:{line}: kappa has an integer of {n} "
                                   "digits", path=str(path), line=lineno)
                raise InvalidInputError(f"{path}:{lineno}: bad numeric value "
                                        f"{_printable(value)!r} for {_printable(key)}") from None
            if key in consts:
                consts[key] = num
            elif key in pars:
                pars[key] = num
            else:
                raise InvalidInputError(f"{path}:{lineno}: unknown key {_printable(key)!r}")
    return Constants(**consts), CosmologyParams(**pars)
