"""Independent oracles: closed forms, a trusted ODE solver, and grids
rebuilt from numpy's own Philox generator."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pdifmp import (
    DriverStream,
    build_model,
    grow_weak_error_estimate,
    simulate_coupled_pair,
    simulate_path,
    strong_rmse,
)

# the benchmark's reference rebuilds each grid from the draw-order contract
# without importing the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import checks  # noqa: E402


def test_exact_gbm_mean_matches_closed_form():
    # E[Y_T] = y0 exp(mu T) E[0.9^N_T] with N_T ~ Poisson(lambda T)
    built = build_model("weak_test")
    p = built.params
    n = 20_000
    stream = DriverStream(12345, 0)
    terminal = np.empty(n)
    for j in range(n):
        stream.reset(12345, j)
        traj = simulate_path(built.model, built.exact, stream, 1 / 16, stride=None)
        terminal[j] = traj.values[-1, 0]
    T = p.horizon
    expected = p.y0 * math.exp(p.mu * T - p.rate_value * T * (1.0 - p.jump_scale))
    se = terminal.std(ddof=1) / math.sqrt(n)
    assert abs(terminal.mean() - expected) < 3 * se


def test_jump_free_strong_rmse_matches_leading_order():
    # Euler-Maruyama on GBM without jumps: to leading order in h,
    # E|Y_t - Y^h_t|^2 = (h / 2) t y0^2 sigma^4 e^{(2 mu + sigma^2) t}, which
    # is largest at T, so the jump-adapted RMSE (the max over grid indices)
    # is y0 sigma^2 sqrt(T h / 2) e^{(mu + sigma^2 / 2) T}.  The published
    # example2 bound (0.001) leaves this ladder without a jump at this seed.
    # Band: seeds 1-40 read RMSE / leading order in [0.878, 1.152] over
    # their 200 levels (30 of those seeds had a jump somewhere).
    built = build_model("example2", as_published=True)
    p = built.params
    seed, paths = 12345, 200
    stream = DriverStream(seed, 0)
    accepted = []

    def level_pairs(li, h):
        for j in range(paths):
            stream.reset(seed, li * paths + j)
            a, b = simulate_coupled_pair(built.model, built.em, built.exact, stream, h=h)
            accepted.append(a.stats.n_accepted + b.stats.n_accepted)
            yield a, b

    ratios = []
    for li, k in enumerate(range(6, 11)):
        h = 2.0**-k
        leading = p.y0 * p.sigma**2 * math.sqrt(p.horizon * h / 2) * math.exp((p.mu + p.sigma**2 / 2) * p.horizon)
        ratios.append(strong_rmse(level_pairs(li, h)) / leading)
    assert len(accepted) == 5 * paths and not any(accepted)
    assert all(0.8 <= r <= 1.25 for r in ratios), ratios


GLIOMA_ODE = dict(lambda0=0.7, lambda1=0.08, a=0.5, b=0.2, x0=0.3, z0=0.6)


@pytest.mark.parametrize("flow", ["em", "splitting"])
def test_glioma_flows_converge_to_ode_without_noise(flow):
    # with dW = 0 and the mode held, EM integrates the model's drift; the
    # splitting scheme carries the drift's Ito term z^2 x / 2 in its
    # exp(z dW) factor, so at dW = 0 it integrates the drift without it
    built = build_model("glioma", **GLIOMA_ODE)
    model = built.model
    integrator = getattr(built, flow)
    state = model.initial_state
    v = state.v
    ito = 0.5 if flow == "splitting" else 0.0

    def rhs(t, y):
        dx, dz = model.drift((y[0], y[1]), v)
        return [dx - ito * y[1] * y[1] * y[0], dz]

    T = 5.0
    ref = solve_ivp(rhs, (0.0, T), list(state.y), method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
    errors = []
    for n in (500, 1000, 2000, 4000):
        y = state.y
        for _ in range(n):
            y = integrator.step(model, y, v, T / n, 0.0)
        errors.append(math.hypot(y[0] - ref[0], y[1] - ref[1]))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    assert all(1.8 <= r <= 2.2 for r in ratios), ratios


WEAK = dict(mu=1.0, sigma=0.2, y0=1.0, rate_value=1.0, rate_bound=1.0, jump_scale=0.9, horizon=1.0)


@pytest.mark.slow
@pytest.mark.parametrize("seed, h", [(12345, 2.0**-4), (12346, 2.0**-5)])
def test_weak_error_estimate_matches_conditional_bias(seed, h):
    # the common-driver estimate over M pairs against the closed-form bias
    # averaged over the same M grids
    M = 20_000
    built = build_model("weak_test", **WEAK)
    est, se, used = grow_weak_error_estimate(
        built.model, built.exact, lambda y, v: y[0], h, seed, pilot=M, max_paths=M, em=built.em
    )
    ref = checks.weak_bias_reference(seed, h, M, WEAK["mu"], WEAK["y0"], WEAK["jump_scale"], WEAK["horizon"])
    assert used == M
    assert abs(est - ref) < 4 * se, f"z = {(est - ref) / se:+.2f}"
