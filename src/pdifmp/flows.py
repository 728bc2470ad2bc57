"""Flow-map integrators for the continuous component between jumps.

Every integrator is a per-cell map ``(y, v, h, dW) -> y'`` written once, as
a block kernel ``run_cells`` that steps a run of cells of one segment and
appends each cell's state to a flat list; ``step`` is that kernel over one
cell.  Composing cells over the jump-adapted grid yields the discrete flow.
Kernels are plain formulas: they do not check for overflow or non-finite
states; the engine does, and locates the cell where a path diverged.
Three kinds are provided: the generic Euler-Maruyama scheme, the
closed-form geometric Brownian motion flow (exact per cell thanks to the
semigroup property), and a Lie-Trotter splitting scheme for the
two-component cell-migration system.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from .core import PDifMPModel

if TYPE_CHECKING:
    from .models import GliomaParams

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
    b = model.drift(y, v)
    s = model.diffusion(y, v)
    return tuple(y[j] + b[j] * h + s[j] * dw for j in range(len(y)))


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


class Integrator:
    """A flow map stepped in blocks of cells.

    ``run_cells(model, y, v, h, dws, out)`` steps ``y`` in mode ``v`` over
    one cell of width ``h`` per increment in ``dws``, appends each cell's
    components to the flat list ``out`` and returns the end state.  Kernels
    do not check; the engine does: a cell's arithmetic may raise
    ``OverflowError`` or return a non-finite row, and the engine treats
    either as the path's divergence.  ``step`` is the same kernel over one
    cell.
    """

    def step(self, model: PDifMPModel, y: tuple, v: int, h: float, dw: float) -> tuple:
        return self.run_cells(model, y, v, h, (dw,), [])


@dataclass(frozen=True)
class EulerMaruyama(Integrator):
    """Generic drift/diffusion integrator; valid for any model."""

    kind: ClassVar[str] = "euler_maruyama"

    def run_cells(self, model: PDifMPModel, y: tuple, v: int, h: float, dws: Sequence[float], out: list) -> tuple:
        # stop at the first non-finite row: the model's coefficients only
        # ever see finite states
        for dw in dws:
            y = em_step(model, y, v, h, dw)
            out.extend(y)
            if not all(map(math.isfinite, y)):
                break
        return y


@dataclass(frozen=True)
class GbmEulerMaruyama(EulerMaruyama):
    """Euler-Maruyama specialised to drift mu*y, diffusion sigma*y.

    Cell arithmetic is exactly that of the generic integrator on the same
    model (pinned by a test), without its per-cell coefficient calls.
    """

    mu: float
    sigma: float

    def run_cells(self, model: PDifMPModel, y: tuple, v: int, h: float, dws: Sequence[float], out: list) -> tuple:
        y0 = y[0]
        mu = self.mu
        sigma = self.sigma
        for dw in dws:
            y0 = y0 + mu * y0 * h + sigma * y0 * dw
            out.append(y0)
        return (y0,)


@dataclass(frozen=True)
class ExactGBMFlow(Integrator):
    """Exact per-cell flow for models with drift mu*y and diffusion sigma*y.

    Only meaningful for the geometric Brownian motion family; model
    factories pair it with matching coefficients.
    """

    mu: float
    sigma: float
    kind: ClassVar[str] = "exact_gbm"

    def run_cells(self, model: PDifMPModel, y: tuple, v: int, h: float, dws: Sequence[float], out: list) -> tuple:
        exp = math.exp
        y0 = y[0]
        c = (self.mu - 0.5 * self.sigma * self.sigma) * h
        sigma = self.sigma
        for dw in dws:
            y0 = y0 * exp(c + sigma * dw)
            out.append(y0)
        return (y0,)


@dataclass(frozen=True)
class GliomaEulerMaruyama(EulerMaruyama):
    """Euler-Maruyama with the cell-migration drift/diffusion inlined.

    Cell arithmetic matches the generic integrator on the model built from
    ``params`` expression for expression (pinned by a test), without its
    per-cell closure calls.  The velocity is read from the model's modes.
    """

    params: GliomaParams

    def run_cells(self, model: PDifMPModel, y: tuple, v: int, h: float, dws: Sequence[float], out: list) -> tuple:
        exp = math.exp
        p = self.params
        x, z = y
        vel = model.modes.values[v]
        kp = p.k_plus
        km = p.k_minus
        kpkm = kp * km
        a = p.a
        b = p.b
        for dw in dws:
            e = exp(-x)
            conc = 1.0 / (1.0 + e)
            kappa = kp * conc + km
            dx = z * x * (0.5 * z + a - b) + vel
            dz = -kappa * z + (kpkm / (kappa * kappa)) * vel * (e * conc * conc)
            x, z = x + dx * h + (z * x) * dw, z + dz * h + 0.0 * dw
            out.append(x)
            out.append(z)
        return (x, z)


@dataclass(frozen=True)
class GliomaSplitting(Integrator):
    """Lie-Trotter splitting for the cell-migration system only.

    One cell composes, in order, the position subflows (constant-coefficient
    ballistic/decay ODE, then the exact multiplicative noise factor
    ``exp(z dW)``) and the receptor relaxation with the position frozen at
    its updated value.  The mode is untouched.
    """

    params: GliomaParams
    kind: ClassVar[str] = "glioma_splitting"

    def run_cells(self, model: PDifMPModel, y: tuple, v: int, h: float, dws: Sequence[float], out: list) -> tuple:
        exp = math.exp
        expm1 = math.expm1
        p = self.params
        x, z = y
        vel = model.modes.values[v]
        kp = p.k_plus
        km = p.k_minus
        kpkm = kp * km
        h_ab = h * (p.a - p.b)
        # phi1 inlined: this loop is on the hot path
        for dw in dws:
            xi = h_ab * z
            phi = expm1(xi) / xi if abs(xi) > _PHI1_SERIES_CUTOFF else (
                1.0 + xi * (0.5 + xi * (1.0 / 6.0 + xi * (1.0 / 24.0 + xi / 120.0)))
            )
            x = exp(z * dw) * (exp(xi) * x + phi * h * vel)

            e = exp(-x)
            conc = 1.0 / (1.0 + e)
            kappa = kp * conc + km
            eta = -h * kappa
            phi2 = expm1(eta) / eta if abs(eta) > _PHI1_SERIES_CUTOFF else (
                1.0 + eta * (0.5 + eta * (1.0 / 6.0 + eta * (1.0 / 24.0 + eta / 120.0)))
            )
            z = exp(eta) * z + phi2 * h * (kpkm / (kappa * kappa)) * vel * (e * conc * conc)
            out.append(x)
            out.append(z)
        return (x, z)
