"""Reference RK4 scale-factor integrator for ``finiverse.cosmology``.

The library integrates with one generator that hoists the constants,
computes each rate from a closure and yields each state with its
first-stage pressure.  ``_derivatives`` and ``_integrate`` below are the
direct version it replaced: every stage calls ``_derivatives``, and
``snap`` computes each sample's pressure and residual again.
``evolve_reference`` is the part of ``evolve_scale_factor`` after its
input checks, on top of them.  The library must agree with it bit for
bit, errors included.
"""

import math

from finiverse.constants import CODATA2018
from finiverse.cosmology import FluidState, ScaleFactorTrajectory
from finiverse.errors import InvalidInputError, NonPositiveScaleFactorError, StepTooLargeError


def _derivatives(a, a_dot, rho, eos, lam, constants):
    if a <= 0:
        raise NonPositiveScaleFactorError(
            f"scale factor reached {a} during integration"
        )
    p = eos(rho)
    c2 = constants.c**2
    accel_ratio = -(4 * math.pi * constants.G / 3) * (rho + 3 * p / c2) + lam * c2 / a**2
    rho_dot = -3 * (a_dot / a) * (rho + p / c2)
    return a_dot, a * accel_ratio, rho_dot


def _integrate(initial, eos, lam, kappa, t_end, step, constants, record):
    """Fixed-step classical RK4 over [initial.t, t_end].

    Returns (samples, residuals) when ``record`` is true, else just the
    endpoint triple (a, a_dot, rho).
    """
    c2 = constants.c**2
    g83 = 8 * math.pi * constants.G / 3
    a, a_dot, rho = initial.a, initial.a_dot, initial.rho
    t = initial.t

    samples = []
    residuals = []

    def snap():
        p = eos(rho)
        residual = (a_dot / a) ** 2 - g83 * rho + kappa * c2 / a**2 - lam * c2 / a**2
        samples.append(FluidState(a=a, a_dot=a_dot, rho=rho, p=p, t=t))
        residuals.append(residual)

    if record:
        snap()
    while t < t_end:
        h = min(step, t_end - t)
        k1 = _derivatives(a, a_dot, rho, eos, lam, constants)
        k2 = _derivatives(a + 0.5 * h * k1[0], a_dot + 0.5 * h * k1[1],
                          rho + 0.5 * h * k1[2], eos, lam, constants)
        k3 = _derivatives(a + 0.5 * h * k2[0], a_dot + 0.5 * h * k2[1],
                          rho + 0.5 * h * k2[2], eos, lam, constants)
        k4 = _derivatives(a + h * k3[0], a_dot + h * k3[1],
                          rho + h * k3[2], eos, lam, constants)
        a += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        a_dot += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        rho += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        t += h
        if a <= 0:
            raise NonPositiveScaleFactorError(f"scale factor reached {a} at t = {t}")
        if record:
            snap()
    if record:
        return samples, residuals
    return a, a_dot, rho


def evolve_reference(initial, eos, lam, kappa, t_end, step, constants=CODATA2018):
    """``evolve_scale_factor`` on arguments that pass its input checks."""
    try:
        samples, residuals = _integrate(
            initial, eos, lam, kappa, t_end, step, constants, record=True
        )
        a_half, _, _ = _integrate(
            initial, eos, lam, kappa, t_end, step / 2, constants, record=False
        )
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
