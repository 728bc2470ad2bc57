"""Independent oracles: closed forms and a trusted ODE solver."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pdifmp import DriverStream, build_model, simulate_path


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
