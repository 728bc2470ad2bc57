"""Flow-map integrators for the continuous component between jumps.

Every integrator is a per-cell step map ``(y, v, h, dW) -> y'``; composing
steps over the jump-adapted grid yields the discrete flow.  Three kinds are
provided: the generic Euler-Maruyama scheme, the closed-form geometric
Brownian motion flow (exact per cell thanks to the semigroup property), and
a Lie-Trotter splitting scheme for the two-component cell-migration system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .core import PDifMPModel
from .errors import SimulationDivergedError

# Below this the closed form (e^x - 1)/x loses digits to cancellation; the
# 5-term series truncation error ~ x^5/720 is below double precision there.
_PHI1_SERIES_CUTOFF = 1e-5


def phi1(xi: float) -> float:
    """(e^xi - 1) / xi with a series branch around the removable singularity."""
    if abs(xi) > _PHI1_SERIES_CUTOFF:
        return math.expm1(xi) / xi
    return 1.0 + xi * (0.5 + xi * (1.0 / 6.0 + xi * (1.0 / 24.0 + xi / 120.0)))


def em_step(model: PDifMPModel, y: tuple, v: int, h: float, dw: float) -> tuple:
    """One Euler-Maruyama cell: y + b(y, v) h + sigma(y, v) dW."""
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    try:
        b = model.drift(y, v)
        s = model.diffusion(y, v)
        if len(y) == 1:
            out = (y[0] + b[0] * h + s[0] * dw,)
        elif len(y) == 2:
            out = (y[0] + b[0] * h + s[0] * dw, y[1] + b[1] * h + s[1] * dw)
        else:
            out = tuple(y[j] + b[j] * h + s[j] * dw for j in range(len(y)))
    except OverflowError:
        raise SimulationDivergedError(math.nan, y, "overflow in Euler-Maruyama step") from None
    for c in out:
        if not math.isfinite(c):
            raise SimulationDivergedError(math.nan, out, "Euler-Maruyama step left the finite range")
    return out


def em_interpolate(
    model: PDifMPModel,
    y_i: tuple,
    v: int,
    t_i: float,
    t: float,
    w_partial: float,
    h: float,
) -> tuple:
    """Continuous-time interpolation inside one cell of width h.

    Coefficients are frozen at the cell's left endpoint:
    ``y_i + b(y_i, v)(t - t_i) + sigma(y_i, v)(W_t - W_{t_i})``.  With the
    cell's full increment at ``t = t_i + h`` this reproduces ``em_step``
    exactly.
    """
    if not t_i <= t <= t_i + h:
        raise ValueError(f"t={t!r} outside the cell [{t_i!r}, {t_i + h!r}]")
    dt = t - t_i
    b = model.drift(y_i, v)
    s = model.diffusion(y_i, v)
    return tuple(y_i[j] + b[j] * dt + s[j] * w_partial for j in range(len(y_i)))


@dataclass(frozen=True)
class EulerMaruyama:
    """Generic drift/diffusion integrator; valid for any model."""

    kind: ClassVar[str] = "euler_maruyama"

    def step(self, model: PDifMPModel, y: tuple, v: int, h: float, dw: float) -> tuple:
        return em_step(model, y, v, h, dw)


@dataclass(frozen=True)
class GbmEulerMaruyama(EulerMaruyama):
    """Euler-Maruyama specialised to drift mu*y, diffusion sigma*y.

    Cell arithmetic is exactly that of the generic integrator on the same
    model (pinned by a test); ``run_cells`` lets the engine skip per-cell
    dispatch on segments whose interior is not recorded.
    """

    mu: float = 0.0
    sigma: float = 0.0

    def step(self, model: PDifMPModel, y: tuple, v: int, h: float, dw: float) -> tuple:
        y0 = y[0]
        out = y0 + self.mu * y0 * h + self.sigma * y0 * dw
        if not math.isfinite(out):
            raise SimulationDivergedError(math.nan, (out,), "Euler-Maruyama step left the finite range")
        return (out,)

    def run_cells(self, model: PDifMPModel, y: tuple, v: int, h: float, dws: list) -> tuple:
        y0 = y[0]
        mu = self.mu
        sigma = self.sigma
        for dw in dws:
            y0 = y0 + mu * y0 * h + sigma * y0 * dw
        if not math.isfinite(y0):
            raise SimulationDivergedError(math.nan, (y0,), "Euler-Maruyama step left the finite range")
        return (y0,)


@dataclass(frozen=True)
class ExactGBMFlow:
    """Exact per-cell flow for models with drift mu*y and diffusion sigma*y.

    Only meaningful for the geometric Brownian motion family; model
    factories pair it with matching coefficients.
    """

    mu: float
    sigma: float
    kind: ClassVar[str] = "exact_gbm"

    def step(self, model: PDifMPModel, y: tuple, v: int, h: float, dw: float) -> tuple:
        try:
            out = y[0] * math.exp((self.mu - 0.5 * self.sigma * self.sigma) * h + self.sigma * dw)
        except OverflowError:
            raise SimulationDivergedError(math.nan, y, "overflow in exact flow") from None
        if not math.isfinite(out):
            raise SimulationDivergedError(math.nan, (out,), "exact flow left the finite range")
        return (out,)

    def run_cells(self, model: PDifMPModel, y: tuple, v: int, h: float, dws: list) -> tuple:
        y0 = y[0]
        c = (self.mu - 0.5 * self.sigma * self.sigma) * h
        sigma = self.sigma
        exp = math.exp
        try:
            for dw in dws:
                y0 = y0 * exp(c + sigma * dw)
        except OverflowError:
            raise SimulationDivergedError(math.nan, (y0,), "overflow in exact flow") from None
        if not math.isfinite(y0):
            raise SimulationDivergedError(math.nan, (y0,), "exact flow left the finite range")
        return (y0,)


@dataclass(frozen=True)
class GliomaEulerMaruyama(EulerMaruyama):
    """Euler-Maruyama with the cell-migration drift/diffusion inlined.

    Cell arithmetic matches the generic integrator on the built model
    expression for expression (pinned by a test); the win is skipping the
    per-cell closure dispatch on the hot loop.
    """

    k_plus: float = 0.0
    k_minus: float = 0.0
    a: float = 0.0
    b: float = 0.0
    mode_values: tuple = ()

    def step(self, model: PDifMPModel, y: tuple, v: int, h: float, dw: float) -> tuple:
        x, z = y
        vel = self.mode_values[v]
        kp = self.k_plus
        km = self.k_minus
        try:
            e = math.exp(-x)
        except OverflowError:
            raise SimulationDivergedError(math.nan, y, "overflow in Euler-Maruyama step") from None
        conc = 1.0 / (1.0 + e)
        kappa = kp * conc + km
        dx = z * x * (0.5 * z + self.a - self.b) + vel
        dz = -kappa * z + (kp * km / (kappa * kappa)) * vel * (e * conc * conc)
        out = (x + dx * h + (z * x) * dw, z + dz * h + 0.0 * dw)
        if not (math.isfinite(out[0]) and math.isfinite(out[1])):
            raise SimulationDivergedError(math.nan, out, "Euler-Maruyama step left the finite range")
        return out


@dataclass(frozen=True)
class GliomaSplitting:
    """Lie-Trotter splitting for the cell-migration system only.

    One cell composes, in order, the position subflows (constant-coefficient
    ballistic/decay ODE, then the exact multiplicative noise factor
    ``exp(z dW)``) and the receptor relaxation with the position frozen at
    its updated value.  The mode is untouched.
    """

    params: object
    kind: ClassVar[str] = "glioma_splitting"

    def step(self, model: PDifMPModel, y: tuple, v: int, h: float, dw: float) -> tuple:
        p = self.params
        x, z = y
        vel = model.modes.values[v]
        kp = p.k_plus
        km = p.k_minus
        # phi1 inlined: this step is on the hot path
        try:
            xi = h * (p.a - p.b) * z
            phi = math.expm1(xi) / xi if abs(xi) > _PHI1_SERIES_CUTOFF else (
                1.0 + xi * (0.5 + xi * (1.0 / 6.0 + xi * (1.0 / 24.0 + xi / 120.0)))
            )
            x_new = math.exp(z * dw) * (math.exp(xi) * x + phi * h * vel)

            e = math.exp(-x_new)
            conc = 1.0 / (1.0 + e)
            kappa = kp * conc + km
            eta = -h * kappa
            phi2 = math.expm1(eta) / eta if abs(eta) > _PHI1_SERIES_CUTOFF else (
                1.0 + eta * (0.5 + eta * (1.0 / 6.0 + eta * (1.0 / 24.0 + eta / 120.0)))
            )
            z_new = math.exp(eta) * z + phi2 * h * (kp * km / (kappa * kappa)) * vel * (e * conc * conc)
        except OverflowError:
            raise SimulationDivergedError(math.nan, y, "overflow in splitting step") from None
        if not (math.isfinite(x_new) and math.isfinite(z_new)):
            raise SimulationDivergedError(math.nan, (x_new, z_new), "splitting step left the finite range")
        return (x_new, z_new)
