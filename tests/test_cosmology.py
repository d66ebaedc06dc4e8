"""Pointset cosmology: closed-form observables and the RK4 integrator."""

import math
import types
import warnings

import pytest

from finiverse import cosmology
from finiverse.constants import CODATA2018, GIGAYEAR, Constants
from finiverse.cosmology import (
    LINEAR_GUARD,
    MAX_STEPS,
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
from finiverse.errors import (
    CurvatureUnsupportedError,
    InvalidInputError,
    NonPositiveScaleFactorError,
    SizeLimitError,
    StepTooLargeError,
)

C = CODATA2018
C2 = C.c**2


# -- closed-form observables at the observed parameter values --------------------


def test_frozen_regression_values():
    assert vacuum_point_count(OBSERVED) == pytest.approx(3.2604512570325904e123, rel=1e-12)
    assert lambda_from_density(OBSERVED) == pytest.approx(1.1213896191362847e-52, rel=1e-12)
    assert point_count_rate(OBSERVED) == pytest.approx(2.856155301160549e106, rel=1e-12)
    assert min_metric_diameter(OBSERVED) == pytest.approx(5.9345815419896855e-15, rel=1e-12)
    assert planck_vacuum_density() == pytest.approx(1.843391011650114e112, rel=1e-12)
    assert pointset_density(OBSERVED) == pytest.approx(4.7844243887241004e42, rel=1e-12)
    assert acceleration_constant_check(OBSERVED) == pytest.approx(
        3.3595157586014785e-36, rel=1e-12
    )
    assert growth_exponent_per_gigayear(OBSERVED.H0) == pytest.approx(0.276444576, rel=1e-12)
    assert point_count_growth_factor(OBSERVED.H0, 6 * GIGAYEAR) == pytest.approx(
        5.252307248673101, rel=1e-12
    )


def test_lambda_and_point_count_are_equivalent_routes():
    # Lambda computed from the density must match the point-count form
    # Lambda = (8*pi**2*hbar*G/c**3) * P / L_U0**4 at the same inputs.
    p0 = vacuum_point_count(OBSERVED)
    via_count = 8 * math.pi**2 * C.hbar * C.G / C.c**3 * p0 / OBSERVED.L_U0**4
    assert lambda_from_density(OBSERVED) == pytest.approx(via_count, rel=1e-12)


def test_point_count_linear_reduces_to_count_at_zero_offset():
    assert point_count_at_linear(OBSERVED, 0.0) == pytest.approx(
        vacuum_point_count(OBSERVED), rel=1e-12
    )


def test_point_count_rate_matches_central_difference():
    h = 1e15  # H0*h ~ 2e-3, well inside the linear guard
    slope = (point_count_at_linear(OBSERVED, h) - point_count_at_linear(OBSERVED, -h)) / (2 * h)
    assert point_count_rate(OBSERVED) == pytest.approx(slope, rel=1e-9)


def test_point_count_rate_diagnostic_units():
    # with rho_vac = pi*hbar*c, L_U0 = 1, H0 = 1 the count is exactly 1
    # and the rate is exactly 4
    params = CosmologyParams(rho_vac=math.pi * C.hbar * C.c, L_U0=1.0, H0=1.0)
    assert vacuum_point_count(params) == pytest.approx(1.0, rel=1e-14)
    assert point_count_rate(params) == pytest.approx(4.0, rel=1e-14)


def test_point_count_rate_requires_flat_sections():
    for kappa in (-1, 1):
        params = CosmologyParams(kappa=kappa)
        with pytest.raises(CurvatureUnsupportedError):
            point_count_rate(params)


def test_growth_factor_identities():
    assert point_count_growth_factor(OBSERVED.H0, 0.0) == 1.0
    f1 = point_count_growth_factor(OBSERVED.H0, 1.0e17)
    f2 = point_count_growth_factor(OBSERVED.H0, 2.5e17)
    both = point_count_growth_factor(OBSERVED.H0, 3.5e17)
    assert f1 * f2 == pytest.approx(both, rel=1e-12)
    assert point_count_growth_factor(OBSERVED.H0, GIGAYEAR) == pytest.approx(
        math.exp(growth_exponent_per_gigayear(OBSERVED.H0)), rel=1e-12
    )


def test_pointset_density_scaling():
    # P/L**3 = rho_vac*L/(pi*hbar*c), so doubling the diameter doubles it
    doubled = CosmologyParams(
        rho_vac=OBSERVED.rho_vac, L_U0=2 * OBSERVED.L_U0, H0=OBSERVED.H0
    )
    assert pointset_density(doubled) == pytest.approx(2 * pointset_density(OBSERVED), rel=1e-12)


def test_min_diameter_cubed_is_inverse_density():
    d = min_metric_diameter(OBSERVED)
    assert d**3 * pointset_density(OBSERVED) == pytest.approx(1.0, rel=1e-12)


def test_planck_density_scales_as_inverse_square_length():
    stretched = Constants(
        hbar=C.hbar, c=C.c, G=C.G, l_planck=2 * C.l_planck, l_strong=C.l_strong
    )
    assert planck_vacuum_density(stretched) == pytest.approx(
        planck_vacuum_density() / 4, rel=1e-12
    )


def test_planck_density_feeds_min_diameter():
    fed = CosmologyParams(rho_vac=planck_vacuum_density(), L_U0=OBSERVED.L_U0, H0=OBSERVED.H0)
    assert min_metric_diameter(fed) == pytest.approx(1.8294288892041766e-55, rel=1e-12)


def test_acceleration_check_positive_and_consistent():
    acc = acceleration_constant_check(OBSERVED)
    assert acc > 0
    # a vacuum fluid with mass density rho_vac/c**2 expands at H with
    # H**2 equal to that same constant
    h = friedmann_hubble_rate(OBSERVED.rho_vac / C2)
    assert h**2 == pytest.approx(acc, rel=1e-12)


# -- linearized forms and their guard ---------------------------------------------


def test_universe_diameter_linear_growth():
    dt = 1.0e16
    d = universe_diameter_at(OBSERVED, dt)
    assert (d - OBSERVED.L_U0) / dt == pytest.approx(OBSERVED.H0 * OBSERVED.L_U0, rel=1e-9)
    assert universe_diameter_at(OBSERVED, 0.0) == OBSERVED.L_U0
    with pytest.raises(InvalidInputError):
        universe_diameter_at(OBSERVED, -1.0)


def test_linearity_warning_beyond_guard():
    beyond = 2 * LINEAR_GUARD / OBSERVED.H0
    with pytest.warns(LinearityWarning):
        universe_diameter_at(OBSERVED, beyond)
    with pytest.warns(LinearityWarning):
        point_count_at_linear(OBSERVED, beyond)


def test_no_warning_inside_guard():
    inside = 0.5 * LINEAR_GUARD / OBSERVED.H0
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinearityWarning)
        universe_diameter_at(OBSERVED, inside)
        point_count_at_linear(OBSERVED, inside)


def test_params_validation():
    with pytest.raises(InvalidInputError):
        CosmologyParams(rho_vac=0.0)
    with pytest.raises(InvalidInputError):
        CosmologyParams(L_U0=-1.0)
    with pytest.raises(InvalidInputError):
        CosmologyParams(kappa=5)


# -- trajectory integration ---------------------------------------------------------


def de_sitter_setup():
    rho = OBSERVED.rho_vac / C2
    hub = friedmann_hubble_rate(rho)
    initial = FluidState(a=1.0, a_dot=hub, rho=rho, p=-OBSERVED.rho_vac, t=0.0)
    return rho, hub, initial


def test_de_sitter_exponential_expansion():
    rho, hub, initial = de_sitter_setup()
    t_end = 10.0 / hub
    traj = evolve_scale_factor(
        initial, vacuum_pressure_law(), lam=0.0, kappa=0, t_end=t_end, step=t_end / 2000
    )
    for s in traj.samples:
        exact = math.exp(hub * s.t)
        assert abs(s.a - exact) / exact <= 1e-6
        assert abs(s.rho - rho) / rho <= 1e-10  # vacuum density never dilutes
    assert max(abs(r) for r in traj.friedmann_residuals) <= 1e-8 * hub**2
    assert traj.halving_rel_diff <= 1e-6
    assert traj.final.a == pytest.approx(math.exp(10.0), rel=1e-9)


def test_dust_matter_power_law():
    # pressureless matter from an on-shell start follows a = (t/t0)**(2/3)
    # with rho = 1/(6*pi*G*t**2)
    t0 = 1.0e17
    rho0 = 1.0 / (6 * math.pi * C.G * t0**2)
    initial = FluidState(a=1.0, a_dot=2 / (3 * t0), rho=rho0, p=0.0, t=t0)
    t_end = t0 * math.exp(1.5)
    traj = evolve_scale_factor(
        initial, dust_pressure_law(), lam=0.0, kappa=0, t_end=t_end, step=(t_end - t0) / 2000
    )
    for s in traj.samples:
        assert s.a == pytest.approx((s.t / t0) ** (2 / 3), rel=1e-10)
        assert s.rho == pytest.approx(1.0 / (6 * math.pi * C.G * s.t**2), rel=1e-10)
    assert max(abs(r) for r in traj.friedmann_residuals) <= 1e-8 * (initial.a_dot / initial.a) ** 2


def test_radiation_power_law():
    # p = (c**2/3)*rho gives a = (t/t0)**(1/2)
    t0 = 1.0e17
    rho0 = 3.0 / (32 * math.pi * C.G * t0**2)
    initial = FluidState(a=1.0, a_dot=1 / (2 * t0), rho=rho0, p=C2 * rho0 / 3, t=t0)
    traj = evolve_scale_factor(
        initial,
        lambda rho: C2 * rho / 3,
        lam=0.0,
        kappa=0,
        t_end=4 * t0,
        step=3 * t0 / 4000,
    )
    assert traj.final.a == pytest.approx(2.0, rel=1e-10)
    for s in traj.samples:
        assert s.a == pytest.approx((s.t / t0) ** 0.5, rel=1e-10)


def test_trajectory_invariants():
    _, hub, initial = de_sitter_setup()
    t_end = 1.0 / hub
    traj = evolve_scale_factor(
        initial, vacuum_pressure_law(), lam=0.0, kappa=0, t_end=t_end, step=t_end / 500
    )
    assert traj.samples[0].a == initial.a
    assert traj.samples[0].t == initial.t
    assert traj.final.t == pytest.approx(t_end, rel=1e-12)
    times = [s.t for s in traj.samples]
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))
    assert len(traj.friedmann_residuals) == len(traj.samples)
    # vacuum expansion accelerates at every sample: addot/a from rho and p, Lambda = 0
    assert all(-(4 * math.pi * C.G / 3) * (s.rho + 3 * s.p / C2) > 0 for s in traj.samples)


def test_partial_final_step_lands_on_endpoint():
    _, hub, initial = de_sitter_setup()
    t_end = 1.0 / hub
    # step that does not divide the span exactly
    traj = evolve_scale_factor(
        initial, vacuum_pressure_law(), lam=0.0, kappa=0, t_end=t_end, step=t_end / 333.5
    )
    assert traj.final.t == pytest.approx(t_end, rel=1e-12)


def test_step_too_large_raises():
    _, hub, initial = de_sitter_setup()
    with pytest.raises(StepTooLargeError) as exc:
        evolve_scale_factor(
            initial, vacuum_pressure_law(), lam=0.0, kappa=0, t_end=10 / hub, step=1.0 / hub
        )
    witness = exc.value.witness
    assert witness.keys() == {"relative_difference", "tolerance", "step"}
    assert witness["relative_difference"] > witness["tolerance"] == 1e-6
    assert witness["step"] == 1.0 / hub


def test_step_within_the_float_resolution_of_the_times_is_refused(deadline):
    # near t = 1e17 floats are 16 apart: t += 1.0 never moves t, and with
    # step 12 the full run advances but the half-step rerun (6) does not
    initial = FluidState(a=1.0, a_dot=0.0, rho=1e-30, t=1e17)
    for step in (1.0, 12.0, 16.0):
        with pytest.raises(InvalidInputError):
            evolve_scale_factor(initial, dust_pressure_law(), 0.0, 0, 1e17 + 2048, step)
    traj = evolve_scale_factor(initial, dust_pressure_law(), 0.0, 0, 1e17 + 2048, 32.0)
    assert traj.final.t == 1e17 + 2048


def test_collapse_to_zero_scale_factor_raises():
    initial = FluidState(a=1.0, a_dot=-0.5, rho=1e-30, p=0.0, t=0.0)
    with pytest.raises(NonPositiveScaleFactorError):
        evolve_scale_factor(
            initial, dust_pressure_law(), lam=0.0, kappa=0, t_end=10.0, step=0.5
        )


def test_evolve_validation_errors():
    _, hub, initial = de_sitter_setup()
    good = dict(eos=vacuum_pressure_law(), lam=0.0, kappa=0, t_end=1 / hub, step=1 / (500 * hub))
    with pytest.raises(InvalidInputError):
        evolve_scale_factor(initial, **{**good, "kappa": 2})
    with pytest.raises(InvalidInputError):
        evolve_scale_factor(initial, **{**good, "step": 0.0})
    with pytest.raises(InvalidInputError):
        evolve_scale_factor(initial, **{**good, "t_end": -1.0})
    with pytest.raises(InvalidInputError):
        evolve_scale_factor(initial, **{**good, "eos": "dust"})
    with pytest.raises(SizeLimitError):
        evolve_scale_factor(initial, **{**good, "step": 1e-9})
    with pytest.raises(NonPositiveScaleFactorError):
        FluidState(a=0.0, a_dot=1.0, rho=1.0)
    with pytest.raises(NonPositiveScaleFactorError):
        FluidState(a=-2.0, a_dot=1.0, rho=1.0)


def test_trajectory_rejects_unordered_times():
    s0 = FluidState(a=1.0, a_dot=0.0, rho=1.0, p=0.0, t=1.0)
    s1 = FluidState(a=1.0, a_dot=0.0, rho=1.0, p=0.0, t=0.5)
    with pytest.raises(InvalidInputError):
        ScaleFactorTrajectory(samples=(s0, s1), step=0.5)


def test_trajectory_rejects_a_nonpositive_scale_factor():
    # FluidState refuses a <= 0 itself, so only a sample of another type gets here
    s0 = FluidState(a=1.0, a_dot=0.0, rho=1.0, p=0.0, t=0.0)
    for samples in ((types.SimpleNamespace(a=0.0, t=0.0),),
                    (s0, types.SimpleNamespace(a=-1.0, t=1.0))):
        with pytest.raises(NonPositiveScaleFactorError) as exc:
            ScaleFactorTrajectory(samples=samples, step=0.5)
        assert exc.value.code == "NonPositiveScaleFactor"


def test_friedmann_hubble_rate():
    rho = OBSERVED.rho_vac / C2
    assert friedmann_hubble_rate(rho) == pytest.approx(1.8328981855524543e-18, rel=1e-12)
    # closed sections with too little density leave no real expansion rate
    with pytest.raises(InvalidInputError):
        friedmann_hubble_rate(1e-40, lam=0.0, kappa=1, a=1.0)
    # at a fixed large scale factor, closed sections expand slower than open
    big_a = 1.0e30
    assert friedmann_hubble_rate(rho, lam=0.0, kappa=1, a=big_a) < friedmann_hubble_rate(
        rho, lam=0.0, kappa=-1, a=big_a
    )


def test_growth_factor_overflow_is_invalid_input():
    # exp(4*H0*dt) overflows a float long before dt itself does
    with pytest.raises(InvalidInputError):
        point_count_growth_factor(OBSERVED.H0, 1e10 * GIGAYEAR)
    with pytest.raises(InvalidInputError):  # 4*H0*dt is inf although both are finite
        point_count_growth_factor(1e300, 1e300)
    with pytest.raises(InvalidInputError):  # exp underflows to 0, yet the factor is positive
        point_count_growth_factor(-1e300, 1e300)


def test_closed_forms_outside_the_float_range_are_invalid_input():
    # valid arguments whose result a float cannot hold: ** raises, * gives
    # inf, or a divisor underflows to 0.0
    cases = [
        lambda: vacuum_point_count(CosmologyParams(L_U0=1e300)),
        lambda: pointset_density(CosmologyParams(L_U0=1e-300)),
        lambda: vacuum_point_count(CosmologyParams(L_U0=1e-100)),  # positive, yet 0.0
        lambda: pointset_density(CosmologyParams(L_U0=1e-100)),
        lambda: min_metric_diameter(CosmologyParams(rho_vac=1e300, L_U0=1e300)),
        lambda: min_metric_diameter(CosmologyParams(rho_vac=1e-320, L_U0=1e-10)),
        lambda: point_count_rate(CosmologyParams(H0=1e200)),
        lambda: friedmann_hubble_rate(OBSERVED.rho_vac / C2, a=1e200),
        lambda: universe_diameter_at(OBSERVED, 1e300),
        lambda: point_count_at_linear(OBSERVED, 1e300),
        lambda: lambda_from_density(CosmologyParams(rho_vac=1e300), Constants(c=1e-100)),
        lambda: lambda_from_density(CosmologyParams(rho_vac=1e300), Constants(G=1e300)),
        lambda: lambda_from_density(CosmologyParams(rho_vac=1e-320)),  # positive, yet 0.0
        lambda: acceleration_constant_check(CosmologyParams(rho_vac=1e300), Constants(G=1e300)),
        lambda: acceleration_constant_check(CosmologyParams(rho_vac=1e-320)),
        lambda: planck_vacuum_density(Constants(c=1e-100)),
        lambda: planck_vacuum_density(Constants(G=1e300, l_planck=1e300)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinearityWarning)
        for case in cases:
            with pytest.raises(InvalidInputError):
                case()


def test_linearity_warning_points_at_the_caller():
    with pytest.warns(LinearityWarning) as caught:
        universe_diameter_at(OBSERVED, 1e20)
    assert caught[0].filename == __file__


def test_integration_overflow_is_invalid_input():
    rho = OBSERVED.rho_vac / C2
    for state in (FluidState(a=1.0, a_dot=1e200, rho=rho), FluidState(a=1e200, a_dot=1e-18, rho=rho)):
        with pytest.raises(InvalidInputError):
            evolve_scale_factor(state, vacuum_pressure_law(), 0.0, 0, 1e17, 1e14)


def test_step_count_beyond_the_float_range_is_exact():
    # the float span or quotient overflows: the exact step count decides
    def dust(t=0.0):
        return FluidState(a=1.0, a_dot=0.0, rho=1.0, t=t)

    for initial, t_end, steps in ((dust(), 10**400, 10**400),
                                  (dust(10**400), 10**401, 9 * 10**400)):
        with pytest.raises(SizeLimitError) as exc:
            evolve_scale_factor(initial, dust_pressure_law(), 0.0, 0, t_end, 1.0)
        assert exc.value.witness == {"requested": steps, "cap": MAX_STEPS}
    # ten steps, each beyond the float range
    with pytest.raises(InvalidInputError):
        evolve_scale_factor(dust(), dust_pressure_law(), 0.0, 0, 10**400, 10**399)
    # a span of 2e308 overflows, yet 2001 steps of 1e305 s are within the
    # limit; they overshoot the dust collapse
    with pytest.raises(NonPositiveScaleFactorError):
        evolve_scale_factor(dust(-1e308), dust_pressure_law(), 0.0, 0, 1e308, 1e305)


def test_scale_factor_whose_square_underflows_is_invalid_input():
    rho = OBSERVED.rho_vac / C2
    with pytest.raises(InvalidInputError):
        friedmann_hubble_rate(rho, a=1e-200)
    state = FluidState(a=1e-170, a_dot=0.0, rho=rho)
    with pytest.raises(InvalidInputError):
        evolve_scale_factor(state, dust_pressure_law(), 0.0, 0, 1e17, 1e16)
    # a**2 is still a positive float here
    assert friedmann_hubble_rate(rho, a=1e-160) == pytest.approx(friedmann_hubble_rate(rho))


# -- configuration files -------------------------------------------------------------


def test_load_config_full(tmp_path):
    cfg = tmp_path / "cosmo.cfg"
    cfg.write_text(
        "# observational overrides\n"
        "\n"
        "rho_vac = 1.0e-9\n"
        "L_U0 = 1.0e27\n"
        "H0 = 2.0e-18\n"
        "kappa = 0\n"
        "hbar = 1.0e-34\n"
        "c = 3.0e8\n"
        "G = 6.7e-11\n"
        "l_planck = 1.6e-35\n"
        "l_strong = 1.0e-15\n",
        encoding="utf-8",
    )
    constants, params = load_config(cfg)
    assert params.rho_vac == 1.0e-9
    assert params.L_U0 == 1.0e27
    assert params.H0 == 2.0e-18
    assert params.kappa == 0 and isinstance(params.kappa, int)
    assert constants.hbar == 1.0e-34
    assert constants.c == 3.0e8
    assert constants.G == 6.7e-11
    assert constants.l_planck == 1.6e-35
    assert constants.l_strong == 1.0e-15


def test_load_config_partial_keeps_defaults(tmp_path):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("rho_vac = 2.7e-10\n", encoding="utf-8")
    constants, params = load_config(cfg)
    assert params.rho_vac == 2.7e-10
    assert params.L_U0 == OBSERVED.L_U0
    assert params.H0 == OBSERVED.H0
    assert constants.hbar == C.hbar


def test_load_config_errors(tmp_path, monkeypatch):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("hubble = 70\n", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_config(bad_key)
    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("rho_vac = huge\n", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_config(bad_value)
    no_equals = tmp_path / "c.cfg"
    no_equals.write_text("rho_vac 5.4e-10\n", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_config(no_equals)
    bad_kappa = tmp_path / "d.cfg"
    bad_kappa.write_text("kappa = 0.5\n", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_config(bad_kappa)

    # open(0) would read stdin, and open(True) read fd 1 and then close
    # stdout: a path that is not str or os.PathLike is refused unopened
    def no_open(*args, **kwargs):
        raise AssertionError("load_config opened a file")

    monkeypatch.setattr(cosmology, "open", no_open, raising=False)
    for path in (0, True, 2.5, None):
        with pytest.raises(InvalidInputError):
            load_config(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad, tmp_path):
    for name in ("rho_vac", "L_U0", "H0"):
        with pytest.raises(InvalidInputError):
            CosmologyParams(**{name: bad})
    with pytest.raises(InvalidInputError):
        Constants(hbar=bad)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"rho_vac = {bad}\n")
    with pytest.raises(InvalidInputError):
        load_config(cfg)
    with pytest.raises(InvalidInputError):
        friedmann_hubble_rate(bad)
    with pytest.raises(InvalidInputError):
        universe_diameter_at(OBSERVED, bad)
    with pytest.raises(InvalidInputError):
        point_count_at_linear(OBSERVED, bad)
    with pytest.raises(InvalidInputError):
        point_count_growth_factor(OBSERVED.H0, bad)
    _, hub, initial = de_sitter_setup()
    good = dict(eos=vacuum_pressure_law(), lam=0.0, kappa=0, t_end=1 / hub, step=1 / (500 * hub))
    for name in ("lam", "t_end", "step"):
        with pytest.raises(InvalidInputError):
            evolve_scale_factor(initial, **{**good, name: bad})
    if math.isnan(bad):  # a NaN scale factor is invalid input, not a non-positive one
        with pytest.raises(InvalidInputError):
            FluidState(a=bad, a_dot=0.0, rho=1.0)
    for name in ("a_dot", "rho", "p", "t") + (("a",) if bad > 0 else ()):
        state = FluidState(**{"a": 1.0, "a_dot": hub, "rho": initial.rho, name: bad})
        with pytest.raises(InvalidInputError):
            evolve_scale_factor(state, **good)
