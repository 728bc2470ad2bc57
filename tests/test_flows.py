import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdifmp import (
    ModeSet,
    EulerMaruyama,
    ExactGBMFlow,
    GliomaSplitting,
    build_model,
    em_interpolate,
    em_step,
    fork_for_path,
    phi1,
    simulate_coupled_pair,
    simulate_path,
)
from pdifmp.errors import SimulationDivergedError
from pdifmp.flows import _PHI1_SERIES_CUTOFF, GbmEulerMaruyama
from pdifmp.models import GliomaParams

from util import constant_rate_model


def gbm_model(mu, sigma, y0=1.0):
    return constant_rate_model(
        rate=0.0,
        rate_bound=1.0,
        drift=lambda y, v: (mu * y[0],),
        diffusion=lambda y, v: (sigma * y[0],),
        y0=(y0,),
    )


# -- em_step -------------------------------------------------------------------


def test_em_step_gbm_zero_noise():
    model = gbm_model(0.001, 0.002, y0=50.0)
    assert em_step(model, (50.0,), 0, 0.01, 0.0)[0] == pytest.approx(50.0005, rel=1e-15)


def test_em_step_no_dynamics_is_identity():
    model = constant_rate_model(rate=0.0, rate_bound=1.0)
    assert em_step(model, (3.7,), 0, 0.5, 1.3) == (3.7,)


def test_em_step_direct_formula():
    model = constant_rate_model(
        rate=0.0, rate_bound=1.0, drift=lambda y, v: (1.0,), diffusion=lambda y, v: (1.0,)
    )
    assert em_step(model, (1.0,), 0, 0.5, 0.2)[0] == pytest.approx(1.7, rel=1e-15)


def test_em_step_rejects_nonpositive_step():
    model = gbm_model(0.1, 0.1)
    with pytest.raises(ValueError):
        em_step(model, (1.0,), 0, 0.0, 0.0)


def test_generic_em_coefficients_never_see_a_nonfinite_state():
    # the generic kernel stops at its first non-finite row, so a drift that
    # rejects non-finite input is not called on one: the run reports the
    # divergence at that row's cell, at every stride
    def drift(y, v):
        if not math.isfinite(y[0]):
            raise ValueError(f"drift called on {y!r}")
        return (1.5e8 * y[0],)

    model = constant_rate_model(rate=0.0, rate_bound=0.01, drift=drift, horizon=5.0)
    for stride in (1, 7, None):
        with pytest.raises(SimulationDivergedError) as info:
            simulate_path(model, EulerMaruyama(), fork_for_path(2, 0), h=0.01, stride=stride)
        assert (info.value.t, info.value.y) == (0.5, (math.inf,))


# -- em_interpolate -------------------------------------------------------------


def test_em_interpolate_left_endpoint():
    model = gbm_model(0.3, 0.1)
    assert em_interpolate(model, (2.0,), 0, 1.0, 1.0, 0.0, 0.25) == (2.0,)


def test_em_interpolate_right_endpoint_matches_step():
    model = gbm_model(0.3, 0.1, y0=2.0)
    h, dw = 0.25, 0.37
    assert em_interpolate(model, (2.0,), 0, 1.0, 1.0 + h, dw, h) == em_step(
        model, (2.0,), 0, h, dw
    )


def test_em_interpolate_midpoint_hand_value():
    # b = sigma = 1, y = 0, h = 0.2, half-time with half increment
    model = constant_rate_model(
        rate=0.0, rate_bound=1.0, drift=lambda y, v: (1.0,), diffusion=lambda y, v: (1.0,)
    )
    out = em_interpolate(model, (0.0,), 0, 0.0, 0.1, 0.1, 0.2)
    assert out == (0.2,)


def test_em_interpolate_rejects_outside_cell():
    model = gbm_model(0.3, 0.1)
    with pytest.raises(ValueError):
        em_interpolate(model, (1.0,), 0, 0.0, 0.3, 0.0, 0.2)


# -- exact GBM flow --------------------------------------------------------------


def exact_gbm(y0, mu, sigma, t, w_t):
    # one cell of the engine's exact flow over elapsed time t with increment w_t
    return ExactGBMFlow(mu, sigma).step(gbm_model(mu, sigma, y0), (y0,), 0, t, w_t)[0]


def test_exact_gbm_flow_t_zero():
    assert exact_gbm(50.0, 0.001, 0.002, 0.0, 0.0) == 50.0


def test_exact_gbm_flow_deterministic_exponential():
    assert exact_gbm(2.0, 0.5, 0.0, 3.0, 12.34) == pytest.approx(2.0 * math.exp(1.5), rel=1e-15)


def test_exact_gbm_flow_frozen_value():
    # 50 exp((0.001 - 0.000002) + 0.002), high-precision reference
    assert exact_gbm(50.0, 0.001, 0.002, 1.0, 1.0) == pytest.approx(50.150124924818701, rel=1e-14)


def test_gbm_semigroup_property():
    # evolving t then s with matching Wiener increments equals one t+s step
    y0, mu, sigma = 3.0, 0.05, 0.4
    w_t, w_s = 0.3, -0.7
    one = exact_gbm(y0, mu, sigma, 0.9, w_t + w_s)
    two = exact_gbm(exact_gbm(y0, mu, sigma, 0.4, w_t), mu, sigma, 0.5, w_s)
    assert one == pytest.approx(two, rel=1e-14)


# -- phi1 -------------------------------------------------------------------------


def test_phi1_at_zero_and_one():
    assert phi1(0.0) == 1.0
    assert phi1(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_phi1_matches_high_precision_series():
    mpmath.mp.dps = 50

    def reference(x):
        if x == 0:
            return 1.0
        return float(mpmath.expm1(mpmath.mpf(x)) / mpmath.mpf(x))

    assert phi1(1e-8) == pytest.approx(reference(1e-8), rel=1e-13)
    for xi in np.linspace(-10.0, 10.0, 401):
        xi = float(xi)
        assert phi1(xi) == pytest.approx(reference(xi), rel=1e-12)


@given(st.floats(min_value=-10, max_value=10))
def test_phi1_positive_and_increasing_nearby(xi):
    assert phi1(xi) > 0.0
    assert phi1(xi + 1e-3) > phi1(xi)


# -- splitting step ---------------------------------------------------------------


TABLE_PARAMS = GliomaParams(k_plus=0.01, k_minus=0.01, a=0.5, b=0.2, lambda0=0.7, lambda1=0.08)


def splitting_step(state, params, h, dw, velocity):
    # one splitting cell at a given velocity: the integrator reads the
    # velocity from the model's mode set
    model = replace(constant_rate_model(rate=0.0, rate_bound=1.0), modes=ModeSet((velocity,)))
    return GliomaSplitting(params).step(model, state, 0, h, dw)


def test_splitting_step_identity_when_quiet():
    out = splitting_step((0.4, 0.0), TABLE_PARAMS, 1e-3, 0.0, 0.0)
    assert out[0] == 0.4
    assert out[1] == 0.0


def test_splitting_step_pure_ballistic():
    # z = 0 and matched attract/repel rates: x' = x + h * v
    params = GliomaParams(k_plus=0.01, k_minus=0.01, a=0.3, b=0.3, lambda0=0.7, lambda1=0.08)
    alpha = 0.25
    out = splitting_step((0.1, 0.0), params, 1e-2, 0.0, alpha)
    assert out[0] == pytest.approx(0.1 + 1e-2 * alpha, rel=1e-14)


def test_splitting_step_frozen_composition():
    # high-precision hand composition of the three subflows
    out = splitting_step((0.0, 0.5), TABLE_PARAMS, 1e-4, 0.0, 0.00021)
    assert out[0] == pytest.approx(2.1000157500787503e-08, rel=1e-13)
    assert out[1] == pytest.approx(0.49999925233389144, rel=1e-13)


def test_splitting_cell_is_the_phi1_composition():
    # the kernel inlines phi1 for both subflows: one cell equals, bit for
    # bit, the composition written with phi1, on states where xi = h(a-b)z
    # and eta = -h kappa each fall on both sides of the series cutoff
    # (h = 1e-4 puts eta below it, as in tem_vs_tsm; a small z puts xi
    # below it).  x = 0, small z and a large speed let phi1's last bit show.
    p = TABLE_PARAMS
    kp, km = p.k_plus, p.k_minus
    rng = np.random.default_rng(11)
    exp = math.exp
    series = {"xi": set(), "eta": set()}
    for h in (1e-4, 1e-2):
        for z in (0.0, 1e-3, 0.5, *rng.uniform(0.0, 1.0, 3).tolist()):
            for x in (0.0, *rng.normal(0.0, 2.0, 4).tolist()):
                for vel in (p.alpha, -1e3):
                    dw = float(rng.normal(0.0, math.sqrt(h)))
                    xi = h * (p.a - p.b) * z
                    x1 = exp(z * dw) * (exp(xi) * x + phi1(xi) * h * vel)
                    e = exp(-x1)
                    conc = 1.0 / (1.0 + e)
                    kappa = kp * conc + km
                    eta = -h * kappa
                    z1 = exp(eta) * z + phi1(eta) * h * (kp * km / (kappa * kappa)) * vel * (e * conc * conc)
                    assert splitting_step((x, z), p, h, dw, vel) == (x1, z1)
                    series["xi"].add(abs(xi) <= _PHI1_SERIES_CUTOFF)
                    series["eta"].add(abs(eta) <= _PHI1_SERIES_CUTOFF)
    assert series == {"xi": {True, False}, "eta": {True, False}}


def test_specialised_integrators_match_generic_bitwise():
    # the inlined GBM and migration integrators must replay the generic
    # Euler-Maruyama route exactly
    generic = EulerMaruyama()
    for model_id, kw in (("example2", {"as_published": True, "horizon": 3.0}), ("glioma", {"horizon": 3.0})):
        built = build_model(model_id, **kw)
        for pid in range(3):
            a = simulate_coupled_pair(
                built.model, generic, built.em, fork_for_path(17, pid), h=0.01
            )
            assert np.array_equal(a[0].values, a[1].values)
            assert np.array_equal(a[0].jump_times, a[1].jump_times)


def block_cases():
    gbm = build_model("example2", as_published=True)
    glioma = build_model("glioma", lambda0=0.7, x0=0.9)
    return {
        "euler_maruyama": (glioma, EulerMaruyama(), 1e-2),
        "gbm_em": (gbm, gbm.em, 2.0**-6),
        "exact_gbm": (gbm, gbm.exact, 2.0**-6),
        "glioma_em": (glioma, glioma.em, 1e-2),
        "glioma_splitting": (glioma, glioma.splitting, 1e-2),
    }


@pytest.mark.parametrize("case", list(block_cases()))
def test_run_cells_matches_stepping(case):
    # one block of cells gives, bit for bit, the rows and end state of
    # stepping the cells one at a time, appended after what `out` held
    built, integrator, h = block_cases()[case]
    model = built.model
    y0, v = model.initial_state.y, 1
    dws = fork_for_path(3, 0).wiener_block(64, h).tolist()
    y = y0
    rows = []
    for dw in dws:
        y = integrator.step(model, y, v, h, dw)
        rows.extend(y)
    out = [-1.0]
    assert integrator.run_cells(model, y0, v, h, dws, out) == y
    assert out == [-1.0] + rows
    assert len(rows) == 64 * len(y0) and all(type(c) is float for c in rows)


def test_splitting_and_em_converge_together():
    # with shared drivers the two discretisations approach each other as the
    # step shrinks
    built = build_model("glioma", lambda0=0.7, lambda1=0.08, a=0.5, b=0.2, horizon=5.0)
    from pdifmp import sup_difference

    sups = []
    for h in (1e-2, 1e-3):
        pair = simulate_coupled_pair(
            built.model, built.em, built.splitting, fork_for_path(5, 0), h=h
        )
        sups.append(sup_difference(pair))
    assert sups[1] < sups[0]


def test_em_initial_condition_stability():
    # two Euler paths with identical noise started nearby stay
    # boundedly close in mean square
    mu, sigma, T, h = 0.05, 0.3, 1.0, 1.0 / 64
    model = gbm_model(mu, sigma)
    em = GbmEulerMaruyama(mu=mu, sigma=sigma)
    gap0 = 0.1
    ratios = []
    for pid in range(100):
        dws = fork_for_path(23, pid).wiener_block(64, h)
        y1, y2 = (1.0,), (1.0 + gap0,)
        worst = 0.0
        for dw in dws:
            y1 = em.step(model, y1, 0, h, dw)
            y2 = em.step(model, y2, 0, h, dw)
            worst = max(worst, abs(y1[0] - y2[0]))
        ratios.append(worst**2 / gap0**2)
    mean_ratio = sum(ratios) / len(ratios)
    assert math.isfinite(mean_ratio)
    # generous bound: e^{C T} with C ~ 2 mu + sigma^2 stays near e^{0.2}
    assert mean_ratio < 10.0


def test_glioma_em_integrator_requires_d2():
    built = build_model("glioma")
    out = built.em.step(built.model, (0.0, 0.5), 1, 1e-3, 0.0)
    assert len(out) == 2 and all(math.isfinite(c) for c in out)
