"""Built-in model configurations.

Three families are provided: geometric Brownian motion with constant-rate
jumps and exponential multiplicative magnitudes ("example1"), geometric
Brownian motion with a state-proportional jump rate and a 0.9 rescale at
jumps ("example2", plus a constant-rate variant "weak_test" used for
weak-error studies), and a two-component microscale cell-migration system
whose velocity mode flips through a fiber-distribution kernel ("glioma").
Each builder states its model's rate, jump transform and parameters, and
accepts exactly the parameters its model reads.

The jump-counter mode of the GBM family is capped: the mode set must stay
finite, expected jump counts in the studied configurations are far below
the default capacity of 64, and overflow raises instead of wrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import CumulativeKernel, HybridState, ModeSet, PDifMPModel
from .errors import ConfigError, CounterOverflowError
from .flows import (
    EulerMaruyama,
    ExactGBMFlow,
    GbmEulerMaruyama,
    GliomaEulerMaruyama,
    GliomaSplitting,
)


@dataclass
class BuiltModel:
    """A catalog entry: the model plus the integrators that fit it."""

    model: PDifMPModel
    em: EulerMaruyama
    exact: ExactGBMFlow | None = None
    splitting: GliomaSplitting | None = None
    params: object | None = None


# -- GBM with jumps ----------------------------------------------------------


@dataclass(frozen=True)
class GbmJumpParams:
    """Resolved parameters of a GBM-with-jumps catalog model.  A field the
    model does not read is None: ``magnitude_rate`` is example1's, ``y_max``
    example2's, ``jump_scale`` example2's and weak_test's."""

    mu: float
    sigma: float
    y0: float
    rate_value: float
    rate_bound: float
    counter_capacity: int
    horizon: float
    as_published: bool
    magnitude_rate: float | None = None
    jump_scale: float | None = None
    y_max: float | None = None

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma!r}")
        if not self.y0 > 0.0:
            raise ConfigError(f"y0 must be positive, got {self.y0!r}")
        if self.rate_value < 0.0:
            raise ConfigError(f"rate_value must be nonnegative, got {self.rate_value!r}")
        if not self.rate_bound > 0.0:
            raise ConfigError(f"dominating rate bound must be positive, got {self.rate_bound!r}")
        if self.magnitude_rate is not None and not self.magnitude_rate > 0.0:
            raise ConfigError(f"magnitude_rate must be positive, got {self.magnitude_rate!r}")
        if self.counter_capacity < 1:
            raise ConfigError(f"counter_capacity must be >= 1, got {self.counter_capacity!r}")
        if not self.horizon > 0.0:
            raise ConfigError(f"horizon must be positive, got {self.horizon!r}")


def _gbm_jump(name: str, params: GbmJumpParams, rate, jump_update) -> BuiltModel:
    """The GBM drift, diffusion and jump counter around a model's own rate
    and jump transform, with the Euler-Maruyama and exact flows."""
    mu, sigma = params.mu, params.sigma

    def drift(y: tuple, v: int) -> tuple:
        return (mu * y[0],)

    def diffusion(y: tuple, v: int) -> tuple:
        return (sigma * y[0],)

    capacity = params.counter_capacity

    def counter_weights(y: tuple, v: int) -> list[float]:
        # Mandatory increment: all kernel mass sits on the next counter value.
        if v >= capacity:
            raise CounterOverflowError(f"jump counter reached capacity {capacity}; raise counter_capacity")
        return [0.0] * (v + 2) + [1.0] * (capacity - v)

    model = PDifMPModel(
        modes=ModeSet(tuple(range(capacity + 1))),
        drift=drift,
        diffusion=diffusion,
        rate=rate,
        rate_bound=params.rate_bound,
        kernel=CumulativeKernel(counter_weights),
        horizon=params.horizon,
        initial_state=HybridState((params.y0,), 0, 0.0),
        jump_update=jump_update,
        bound_policy="count" if params.as_published else "error",
        name=name,
    )
    return BuiltModel(
        model=model, em=GbmEulerMaruyama(mu=mu, sigma=sigma), exact=ExactGBMFlow(mu, sigma), params=params
    )


def _build_example1(
    mu=0.001, sigma=0.002, y0=50.0, rate_value=0.0001, rate_bound=None, magnitude_rate=None,
    counter_capacity=64, horizon=1.0, as_published=False,
) -> BuiltModel:
    """Constant jump rate ``rate_value`` (also the default bound); a jump
    multiplies y by e^eta with eta exponential of rate ``magnitude_rate``
    (default: the jump rate)."""
    fallback = rate_value if rate_value > 0.0 else 1.0
    params = GbmJumpParams(
        mu, sigma, y0, rate_value, fallback if rate_bound is None else rate_bound, counter_capacity,
        horizon, as_published, magnitude_rate=fallback if magnitude_rate is None else magnitude_rate,
    )
    lam, mag_rate = params.rate_value, params.magnitude_rate

    def rate(y: tuple, v: int) -> float:
        return lam

    def jump_update(y: tuple, v_new: int, u: float) -> tuple:
        return (y[0] * math.exp(-math.log1p(-u) / mag_rate),)

    return _gbm_jump("example1", params, rate, jump_update)


def _build_example2(
    mu=0.01, sigma=0.2, y0=50.0, rate_value=0.01, rate_bound=None, y_max=None, jump_scale=0.9,
    counter_capacity=64, horizon=1.0, as_published=False,
) -> BuiltModel:
    """State-proportional jump rate ``rate_value * y`` with a rescale by
    ``jump_scale`` at jumps.

    The linear rate is unbounded, so the dominating bound is ``rate_bound``,
    else ``rate_value * y_max`` (y_max defaults to 4 y0), checked at
    runtime.  ``as_published`` keeps the published bound 0.001 and counts
    violations instead of raising (rate(y0) = 0.5 lies above that bound, so
    every proposal is an accepted jump).
    """
    if not rate_value > 0.0:
        raise ConfigError("linear rate needs a positive slope")
    y_max = 4.0 * y0 if y_max is None else y_max
    rate_bound = (0.001 if as_published else rate_value * y_max) if rate_bound is None else rate_bound
    params = GbmJumpParams(
        mu, sigma, y0, rate_value, rate_bound, counter_capacity, horizon, as_published,
        jump_scale=jump_scale, y_max=y_max,
    )
    slope, scale = params.rate_value, params.jump_scale

    def rate(y: tuple, v: int) -> float:
        return slope * y[0]

    def jump_update(y: tuple, v_new: int, u: float) -> tuple:
        return (y[0] * scale,)

    return _gbm_jump("example2", params, rate, jump_update)


def _build_weak_test(
    mu=0.05, sigma=0.2, y0=1.0, rate_value=1.0, rate_bound=1.0, jump_scale=0.9,
    counter_capacity=16, horizon=1.0, as_published=False,
) -> BuiltModel:
    """Constant jump rate ``rate_value`` with a rescale by ``jump_scale`` at
    jumps, for weak-error studies.  Capacity 16 is ample for a unit-rate
    counter over a unit horizon (overflow would still raise, observably)."""
    params = GbmJumpParams(
        mu, sigma, y0, rate_value, rate_bound, counter_capacity, horizon, as_published, jump_scale=jump_scale
    )
    lam, scale = params.rate_value, params.jump_scale

    def rate(y: tuple, v: int) -> float:
        return lam

    def jump_update(y: tuple, v_new: int, u: float) -> tuple:
        return (y[0] * scale,)

    return _gbm_jump("weak_test", params, rate, jump_update)


# -- microscale cell migration ------------------------------------------------


@dataclass(frozen=True)
class GliomaParams:
    """Parameters of the 1D microscale cell-migration system.

    The turning rate is ``lambda0 - lambda1 * z`` with the bound-receptor
    fraction z in [0, 1], so ``lambda1 <= lambda0`` keeps it nonnegative
    and ``lambda0`` itself is the tightest valid dominating bound; a
    user-supplied ``lambda_star`` below ``lambda0`` is rejected.
    """

    k_plus: float = 0.01
    k_minus: float = 0.01
    alpha: float = 0.21e-3
    lambda0: float = 0.2
    lambda1: float = 0.08
    a: float = 0.5
    b: float = 0.2
    lambda_star: float | None = None
    x0: float = 0.0
    z0: float = 0.5
    initial_velocity_sign: int = 1
    horizon: float = 360.0

    def __post_init__(self) -> None:
        for name in ("k_plus", "k_minus", "lambda0", "lambda1", "a", "b"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if not self.alpha > 0.0:
            raise ConfigError(f"alpha must be positive, got {self.alpha!r}")
        if self.lambda1 > self.lambda0:
            raise ConfigError(
                f"lambda1={self.lambda1!r} must not exceed lambda0={self.lambda0!r}; "
                "the turning rate lambda0 - lambda1*z would go negative on z in [0, 1]"
            )
        if self.lambda_star is not None and self.lambda_star < self.lambda0:
            raise ConfigError(
                f"lambda_star={self.lambda_star!r} is below lambda0={self.lambda0!r}; the "
                "turning rate reaches lambda0 at z=0, so any valid dominating bound is >= lambda0"
            )
        if not 0.0 <= self.z0 <= 1.0:
            raise ConfigError(f"z0 must lie in [0, 1], got {self.z0!r}")
        if self.initial_velocity_sign not in (-1, 1):
            raise ConfigError("initial_velocity_sign must be -1 or +1")
        if not self.horizon > 0.0:
            raise ConfigError(f"horizon must be positive, got {self.horizon!r}")

    @property
    def resolved_lambda_star(self) -> float:
        return self.lambda0 if self.lambda_star is None else self.lambda_star


def make_glioma(params: GliomaParams) -> PDifMPModel:
    """Build the microscale migration model.

    Continuous state (position x, bound-receptor fraction z); velocity mode
    in {-alpha, +alpha}.  The turning rate evaluates z clipped to [0, 1]
    so small numerical excursions of z cannot break the dominating bound.
    The fiber-density kernel weights each other velocity by density over
    speed cubed; with a uniform density and the two symmetric speeds it is
    a deterministic velocity flip.

    The state is never clipped.  The x-drift ``z x (z/2 + a - b)`` grows
    |x| whenever ``z (z/2 + a - b) > 0``, which holds for every shipped
    configuration (a > b), so x leaves [-1, 1].  The state-space hint
    ((-1, 1), (0, 1)) is diagnostic only: the engine counts excursions per
    component in ``PathStats.hint_excursions``.
    """
    kp, km = params.k_plus, params.k_minus
    a, b = params.a, params.b
    lam0, lam1 = params.lambda0, params.lambda1
    modes = ModeSet((-params.alpha, params.alpha))
    mode_values = modes.values

    def drift(y: tuple, v: int) -> tuple:
        # conc = 1/(1 + e^-x) is the binding-site concentration, e conc^2 its
        # x-derivative, and kp km / kappa^2 the conc-derivative of the
        # equilibrium bound fraction kp conc / (kp conc + km)
        x, z = y
        vel = mode_values[v]
        e = math.exp(-x)
        conc = 1.0 / (1.0 + e)
        kappa = kp * conc + km
        dx = z * x * (0.5 * z + a - b) + vel
        dz = -kappa * z + (kp * km / (kappa * kappa)) * vel * (e * conc * conc)
        return (dx, dz)

    def diffusion(y: tuple, v: int) -> tuple:
        return (y[1] * y[0], 0.0)

    def rate(y: tuple, v: int) -> float:
        return lam0 - lam1 * min(max(y[1], 0.0), 1.0)

    def flip_weights(y: tuple, v: int) -> list[float]:
        return [0.0, 0.0, 1.0] if v == 0 else [0.0, 1.0, 1.0]

    v0 = modes.index(params.initial_velocity_sign * params.alpha)
    return PDifMPModel(
        modes=modes,
        drift=drift,
        diffusion=diffusion,
        rate=rate,
        rate_bound=params.resolved_lambda_star,
        kernel=CumulativeKernel(flip_weights),
        horizon=params.horizon,
        initial_state=HybridState((params.x0, params.z0), v0, 0.0),
        state_space_hint=((-1.0, 1.0), (0.0, 1.0)),
        name="glioma",
    )


def _build_glioma(**cfg) -> BuiltModel:
    params = GliomaParams(**cfg)
    model = make_glioma(params)
    em = GliomaEulerMaruyama(params.k_plus, params.k_minus, params.a, params.b, model.modes.values)
    return BuiltModel(model=model, em=em, splitting=GliomaSplitting(params), params=params)


# -- catalog -------------------------------------------------------------------


_CATALOG: dict[str, Callable[..., BuiltModel]] = {
    "example1": _build_example1,
    "example2": _build_example2,
    "weak_test": _build_weak_test,
    "glioma": _build_glioma,
}


def list_model_ids() -> list[str]:
    return sorted(_CATALOG)


def build_model(model_id: str, **cfg) -> BuiltModel:
    """Instantiate a catalog model by string id with config overrides.

    Each model accepts exactly the parameters it reads; any other key, or a
    value the model cannot be built from (wrong type, not finite, out of
    range), raises ``ConfigError``.
    """
    try:
        builder = _CATALOG[model_id]
    except KeyError:
        raise ConfigError(f"unknown model id {model_id!r}; known: {list_model_ids()}") from None
    try:
        return builder(**cfg)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for model {model_id!r}: {exc}") from None
