import math

import numpy as np
import pytest

from pdifmp import (
    GliomaParams,
    HybridState,
    build_model,
    cumulative_weights,
    fork_for_path,
    list_model_ids,
    sample_mode,
    simulate_path,
)
from pdifmp.errors import ConfigError


def test_catalog_ids():
    assert list_model_ids() == ["example1", "example2", "glioma", "weak_test"]


def test_unknown_model_id():
    with pytest.raises(ConfigError):
        build_model("nope")


def test_unknown_model_parameter():
    with pytest.raises(ConfigError):
        build_model("example1", bogus=3)


@pytest.mark.parametrize(
    "model_id, key",
    [
        ("example1", "jump_scale"),
        ("example1", "y_max"),
        ("example2", "magnitude_rate"),
        ("weak_test", "magnitude_rate"),
        ("weak_test", "y_max"),
    ],
)
def test_parameter_the_model_does_not_read_is_rejected(model_id, key):
    # each model accepts exactly the keys it reads; these belong to another
    # GBM model and used to be accepted and ignored
    with pytest.raises(ConfigError):
        build_model(model_id, **{key: 2.0})


# -- GBM family -------------------------------------------------------------------


def test_example1_defaults_match_published_figure():
    built = build_model("example1")
    p = built.params
    assert (p.mu, p.sigma, p.y0, p.rate_value, p.horizon) == (0.001, 0.002, 50.0, 0.0001, 1.0)
    assert built.model.rate_bound == 0.0001
    assert built.model.rate((123.0,), 0) == 0.0001


def test_example1_degenerates_to_pure_gbm():
    built = build_model("example1", rate_value=0.0)
    assert built.model.rate((50.0,), 0) == 0.0
    assert built.model.rate_bound > 0.0


def test_example1_jump_doubles_y_for_log2_magnitude():
    built = build_model("example1", rate_value=1.0)
    # eta = -log(1 - u) = log 2  =>  u = 0.5
    y_new = built.model.jump_update((7.0,), 1, 0.5)
    assert y_new[0] == pytest.approx(14.0, rel=1e-12)


def test_example2_rate_is_linear_in_y():
    built = build_model("example2")
    r = built.model.rate
    assert r((0.0,), 0) == 0.0
    assert r((2.0,), 0) == 2 * r((1.0,), 0)
    assert r((50.0,), 0) == pytest.approx(0.5)


def test_example2_jump_rescale():
    built = build_model("example2")
    assert built.model.jump_update((10.0,), 1, 0.123) == (9.0,)


def test_example2_corrected_bound_from_y_max():
    built = build_model("example2", y_max=200.0)
    assert built.model.rate_bound == pytest.approx(2.0)
    assert built.model.bound_policy == "error"


def test_example2_published_configuration():
    built = build_model("example2", as_published=True)
    assert built.model.rate_bound == 0.001
    assert built.model.bound_policy == "count"


def test_counter_kernel_increments_mode():
    built = build_model("example1")
    x = HybridState((50.0,), 5, 0.0)
    a = cumulative_weights(built.model.kernel, x)
    assert a[6] == 0.0 and a[7] == 1.0
    for u in (0.01, 0.5, 1.0):
        assert sample_mode(built.model.kernel, x, u) == 6


def test_gbm_params_validation():
    with pytest.raises(ConfigError):
        build_model("example1", mu=0.0, sigma=-0.1, y0=1.0)
    with pytest.raises(ConfigError):
        build_model("example1", mu=0.0, sigma=0.1, y0=0.0)
    with pytest.raises(ConfigError):
        build_model("example2", mu=0.0, sigma=0.1, y0=1.0, rate_value=0.0)


# -- migration drift ----------------------------------------------------------------


def test_sigmoid_values():
    # at z = 0 the concentration c = 1/(1 + e^-x) enters the receptor drift
    # only as vel k+ k- c'(x) / (k+ c + k-)^2: c = 1/2 and c' = 1/4 at x = 0,
    # and c' vanishes far out on either side
    built = build_model("glioma", k_plus=0.02, k_minus=0.01)
    alpha = built.params.alpha
    drift = built.model.drift
    assert drift((0.0, 0.0), 1)[1] == pytest.approx(alpha * 0.02 * 0.01 / 0.02**2 * 0.25, rel=1e-14)
    assert drift((0.0, 0.0), 0)[1] == pytest.approx(-alpha * 0.125, rel=1e-14)
    for x in (-40.0, 40.0):
        assert abs(drift((x, 0.0), 1)[1]) < 1e-16 * alpha


def test_bound_fraction_value():
    # the z-relaxation rate in the drift is kappa = k+ c + k-, the denominator
    # of the equilibrium bound fraction k+ c / kappa = (kappa - k-) / kappa;
    # at x = 0 (c = 1/2) with k+ = k- = 0.01 that fraction is 1/3
    built = build_model("glioma", k_plus=0.01, k_minus=0.01)
    drift = built.model.drift
    kappa = drift((0.0, 0.0), 1)[1] - drift((0.0, 1.0), 1)[1]
    assert (kappa - 0.01) / kappa == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_bound_fraction_derivative_matches_finite_difference():
    # at z = 0 the receptor drift is vel d/dx f(c(x)), with the equilibrium
    # bound fraction f(c) = k+ c / (k+ c + k-) and c = 1/(1 + e^-x); at
    # z != 0 the relaxation -(k+ c + k-) z adds to it
    kp, km = 0.013, 0.008
    built = build_model("glioma", k_plus=kp, k_minus=km)
    alpha = built.params.alpha
    drift = built.model.drift

    def conc(x):
        return 1.0 / (1.0 + math.exp(-x))

    def fraction(x):
        return kp * conc(x) / (kp * conc(x) + km)

    eps = 1e-5
    for x in np.linspace(-4.0, 4.0, 33):
        fd = (fraction(x + eps) - fraction(x - eps)) / (2 * eps)
        for v, vel in enumerate((-alpha, alpha)):
            dz0 = drift((x, 0.0), v)[1]
            assert dz0 == pytest.approx(vel * fd, rel=1e-7)
            for z in (0.3, 0.9):
                assert drift((x, z), v)[1] == pytest.approx(dz0 - (kp * conc(x) + km) * z, rel=1e-12)


def test_sigmoid_derivative_matches_finite_difference():
    # the drift carries the concentration c(x) in its z-relaxation rate
    # kappa = k+ c + k- and its derivative c'(x) in the z = 0 receptor drift
    # vel k+ k- c'(x) / kappa^2; a central difference of the one must match
    # the other
    kp, km = 1.0, 0.5
    built = build_model("glioma", k_plus=kp, k_minus=km)
    alpha = built.params.alpha
    drift = built.model.drift

    def kappa(x):
        return drift((x, 0.0), 1)[1] - drift((x, 1.0), 1)[1]

    def conc(x):
        return (kappa(x) - km) / kp

    eps = 1e-6
    for x in np.linspace(-4, 4, 33):
        fd = (conc(x + eps) - conc(x - eps)) / (2 * eps)
        conc_dx = drift((x, 0.0), 1)[1] * kappa(x) ** 2 / (alpha * kp * km)
        assert conc_dx == pytest.approx(fd, abs=1e-9)


# -- migration model -----------------------------------------------------------------


def test_glioma_params_validation():
    with pytest.raises(ConfigError):
        GliomaParams(k_plus=-0.01)
    with pytest.raises(ConfigError):
        GliomaParams(lambda0=0.2, lambda1=0.3)
    with pytest.raises(ConfigError):
        GliomaParams(lambda0=0.7, lambda_star=0.6)
    with pytest.raises(ConfigError):
        GliomaParams(z0=1.5)


def test_glioma_bound_defaults_to_basal_rate():
    built = build_model("glioma", lambda0=0.7, lambda1=0.08)
    assert built.model.rate_bound == 0.7


def test_glioma_rate_band():
    built = build_model("glioma", lambda0=0.7, lambda1=0.08)
    r = built.model.rate
    assert r((0.0, 0.0), 1) == pytest.approx(0.7)
    assert r((0.0, 1.0), 1) == pytest.approx(0.62)
    # z excursions beyond [0, 1] are clipped inside the rate so the
    # dominating bound stays valid
    assert r((0.0, -0.2), 1) == pytest.approx(0.7)
    assert r((0.0, 1.7), 1) == pytest.approx(0.62)


def test_glioma_quiescent_at_full_binding():
    built = build_model("glioma", lambda0=0.5, lambda1=0.5)
    assert built.model.rate((0.0, 1.0), 0) == pytest.approx(0.0)


def test_glioma_kernel_is_velocity_flip():
    built = build_model("glioma")
    x = HybridState((0.2, 0.5), 1, 0.0)
    assert cumulative_weights(built.model.kernel, x) == pytest.approx([0.0, 1.0, 1.0])
    for u in (0.05, 0.5, 1.0):
        assert sample_mode(built.model.kernel, x, u) == 0
    x0 = HybridState((0.2, 0.5), 0, 0.0)
    assert cumulative_weights(built.model.kernel, x0) == pytest.approx([0.0, 0.0, 1.0])
    for u in (0.05, 0.5, 1.0):
        assert sample_mode(built.model.kernel, x0, u) == 1


def test_glioma_kernel_honours_diffusivity_and_speeds():
    # the kernel weights carry no diffusivity factor (it would cancel when
    # the weights are normalised); a non-default speed still flips to -v
    built = build_model("glioma", alpha=2.0)
    values = built.model.modes.values
    assert values == (-2.0, 2.0)
    a = cumulative_weights(built.model.kernel, HybridState((0.3, 0.5), 0, 0.0))
    assert a == pytest.approx([0.0, 0.0, 1.0])
    assert values[sample_mode(built.model.kernel, HybridState((0.3, 0.5), 1, 0.0), 0.5)] == -2.0


def test_glioma_drift_components():
    built = build_model("glioma", a=0.5, b=0.2)
    alpha = built.params.alpha
    dx, dz = built.model.drift((0.0, 0.5), 1)
    # x = 0 kills every multiplicative term; velocity remains
    assert dx == pytest.approx(alpha)
    # dz = -(kp A + km) z + f'(A) v A' with A = 1/2, A' = 1/4
    kappa = 0.01 * 0.5 + 0.01
    expected = -kappa * 0.5 + (0.01 * 0.01 / kappa**2) * alpha * 0.25
    assert dz == pytest.approx(expected, rel=1e-12)


def test_glioma_diffusion_only_drives_position():
    built = build_model("glioma")
    s = built.model.diffusion((0.3, 0.5), 0)
    assert s == (0.5 * 0.3, 0.0)


def test_glioma_initial_state_and_hint():
    built = build_model("glioma", x0=0.1, z0=0.4, initial_velocity_sign=-1)
    st = built.model.initial_state
    assert st.y == (0.1, 0.4)
    assert built.model.modes.values[st.v] == -built.params.alpha
    assert built.model.state_space_hint == ((-1.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("flow", ["em", "splitting"])
def test_glioma_position_leaves_hint_unclipped(flow):
    # with a > b the x-drift z x (z/2 + a - b) grows |x|, so paths started
    # near the edge leave the [-1, 1] hint; the engine counts the excursions
    # and never clips the state
    built = build_model("glioma", lambda0=0.7, lambda1=0.08, a=0.5, b=0.2, x0=0.9, z0=0.9, horizon=3.0)
    for pid in range(10):
        traj = simulate_path(built.model, getattr(built, flow), fork_for_path(12345, pid), h=1e-2)
        assert np.abs(traj.values[:, 0]).max() > 1.0
        assert traj.stats.hint_excursions[0] > 0
