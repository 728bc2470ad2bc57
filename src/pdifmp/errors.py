"""Exception types shared across the package.

Each survives ``pickle`` with its message and attributes, so a study's
worker process can hand its error to the parent."""

from __future__ import annotations


class ModelDefinitionError(ValueError):
    """A model's characteristic triple violates a structural requirement
    (non-normalised kernel weights, self-jump mass, bad parameters)."""


class CounterOverflowError(ModelDefinitionError):
    """A jump-counter mode set ran out of capacity."""


class RateBoundError(RuntimeError):
    """The jump rate exceeded its declared global bound at runtime."""

    def __init__(self, rate: float, bound: float, y, v) -> None:
        super().__init__(
            f"jump rate {rate!r} exceeds declared bound {bound!r} at y={y!r}, v={v!r}"
        )
        self.rate = rate
        self.bound = bound
        self.y = y
        self.v = v

    def __reduce__(self):
        return type(self), (self.rate, self.bound, self.y, self.v)


class SimulationDivergedError(RuntimeError):
    """A path left the finite range: ``y`` is the state reported and ``t``
    the grid time at which it holds.

    For the flow, the engine raises it at the first cell that overflows,
    with that cell's input state at its left end, or that returns a
    non-finite state, with that state at its right end.  A jump transform
    raises it at the jump time.
    """

    def __init__(self, t: float, y, detail: str = "") -> None:
        msg = f"non-finite state at t={t!r}: y={y!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.t = t
        self.y = y
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.t, self.y, self.detail)


class RunawayRateError(RuntimeError):
    """The proposal loop exceeded its cap; the dominating rate is likely
    far larger than the actual jump rate."""


class CouplingBrokenError(ValueError):
    """Two trajectories that should share a grid do not."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""
