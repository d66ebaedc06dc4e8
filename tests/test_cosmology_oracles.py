"""The RK4 integrator against its direct reference in ``cosmology_reference``:
bit-equal samples, residuals, acceleration ratios and endpoints, and the
same error where the reference raises one.

Hypothesis draws initial states for both pressure laws, every curvature
sign and a cosmological constant of either sign, on time scales from
milliseconds to the age of the universe; a few draws leave the float
range.  The explicit examples pin each error path of the integrator.
"""

import struct
from collections import deque

import pytest

import cosmology_reference as ref

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from finiverse import cosmology  # noqa: E402
from finiverse.constants import CODATA2018 as C  # noqa: E402
from finiverse.errors import FiniverseError  # noqa: E402

LAWS = {"vacuum": cosmology.vacuum_pressure_law(C), "dust": cosmology.dust_pressure_law()}


@st.composite
def runs(draw):
    """(law, kappa, a0, adot0, rho0, lam, t0, t_end, step): a span of up to
    ten time units T, where G*rho0*T**2 is of order one, cut into at most
    300 steps."""
    T = 10 ** draw(st.floats(-3, 18))
    e = draw(st.floats(-3, 3) | st.floats(-200, 200))
    a0 = 10**e
    lam = draw(st.sampled_from((0.0, 1.0, 1e300))) * draw(st.floats(-3, 3))
    span = T * draw(st.floats(0.01, 10))
    t0 = T * draw(st.floats(-10, 10))
    steps = draw(st.integers(1, 150))
    return (
        draw(st.sampled_from(sorted(LAWS))),
        draw(st.sampled_from((-1, 0, 1))),
        a0,
        a0 / T * draw(st.floats(-3, 3)),
        draw(st.floats(0.01, 100)) / (C.G * T**2),
        lam * 10 ** (2 * min(e, 3)) / (C.c**2 * T**2),
        t0,
        t0 + span,
        span / steps * draw(st.floats(0.5, 2)),
    )


def _bits(values):
    return tuple(struct.pack("<d", v) for v in values)


def _trajectory_bits(traj):
    fields = ("a", "a_dot", "rho", "p", "t")
    return (
        [_bits(getattr(s, f) for f in fields) for s in traj.samples],
        _bits(traj.friedmann_residuals),
        _bits((traj.halving_rel_diff, traj.step)),
    )


def _outcome(run, to_bits):
    try:
        return to_bits(run())
    except (FiniverseError, ArithmeticError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@settings(max_examples=120, deadline=None)
@given(run=runs())
# the last step carries a to a <= 0
@example(run=("dust", 0, 1.0, 0.19296567705689727, 5.717632289601415e-12 / C.G,
              -1.885970716961586e-17, 0.0, 10.0, 1.1329686787052784))
# a stage point reaches a <= 0
@example(run=("dust", 0, 1.0, -0.5, 1e-30, 0.0, 0.0, 10.0, 0.5))
# Lambda*c**2 overflows to inf and the scale factor becomes NaN
@example(run=("vacuum", 0, 1.0, 0.0, 6e-27, 1e295, 0.0, 1e17, 1e16))
# (adot/a)**2 and a**2 leave the float range
@example(run=("vacuum", 0, 1.0, 1e200, 6e-27, 0.0, 0.0, 1e17, 1e14))
@example(run=("dust", 0, 1e-170, 0.0, 6e-27, 0.0, 0.0, 1e17, 1e16))
# halving the step moves the endpoint too far
@example(run=("vacuum", 0, 1.0, 1.8328981855524543e-18, 6.0083103026895395e-27, 0.0, 0.0,
              5.455840416463666e18, 5.455840416463666e17))
def test_integrator_matches_the_reference(run):
    law, kappa, a0, adot0, rho0, lam, t0, t_end, step = run
    eos = LAWS[law]
    initial = cosmology.FluidState(a=a0, a_dot=adot0, rho=rho0, p=eos(rho0), t=t0)
    args = (initial, eos, lam, kappa, t_end, step, C)
    assert _outcome(lambda: cosmology.evolve_scale_factor(*args), _trajectory_bits) == _outcome(
        lambda: ref.evolve_reference(*args), _trajectory_bits
    )
    for h in (step, step / 2):
        assert _outcome(
            lambda: deque(cosmology._integrate(initial, eos, lam, t_end, h, C), maxlen=1)[0][1:4],
            _bits,
        ) == _outcome(
            lambda: ref._integrate(initial, eos, lam, kappa, t_end, h, C, record=False), _bits
        )

