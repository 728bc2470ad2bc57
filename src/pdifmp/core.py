"""Domain types for hybrid jump-diffusion processes.

A process is described by a characteristic triple: the flow of an SDE for
the continuous component between jumps, a state-dependent jump rate with a
global dominating bound, and a Markov kernel that resamples the discrete
mode at jump times.  The mode kernel is given by cumulative weights over an
ordered, finite mode set, evaluated at a continuous state ``y`` and mode
index ``v`` (``cumulative_weights``, ``sample_mode``), which enables
inverse-CDF sampling and distribution tests.  ``sample_mode`` evaluates the
weights at every jump but checks each distinct row once per mode, so the
weights must be pure: a row equal to the last one checked at ``v`` is
sampled without being checked again.  A model also fixes its
simulation window: every path starts from ``initial_state`` at time 0 and
runs to ``horizon``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ModelDefinitionError

# Tolerance for cumulative kernel weights summing to one; double-precision
# accumulation over at most a few hundred modes stays well inside this.
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ModeSet:
    """Ordered, finite collection of discrete mode values.

    Indexing is fixed at construction; everything downstream works with
    integer mode indices and looks values up here.
    """

    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 1:
            raise ModelDefinitionError("mode set must contain at least one mode")
        if len(set(self.values)) != len(self.values):
            raise ModelDefinitionError("mode values must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.values)

    def index(self, value) -> int:
        return self.values.index(value)


@dataclass(frozen=True)
class HybridState:
    """Continuous position(s) plus discrete mode index."""

    y: tuple
    v: int

    def __post_init__(self) -> None:
        y = tuple(float(c) for c in self.y)
        object.__setattr__(self, "y", y)
        if not all(math.isfinite(c) for c in y):
            raise ValueError(f"continuous state must be finite, got {y!r}")
        if self.v < 0:
            raise ValueError(f"mode index must be nonnegative, got {self.v!r}")


@dataclass(frozen=True)
class CumulativeKernel:
    """Mode kernel given by cumulative weights.

    ``weights(y, v) -> [a_0, ..., a_n]`` with ``a_0 = 0``, nondecreasing,
    ``a_n = 1`` and a zero increment at the current mode (no self-jumps).
    ``weights`` must be pure.  ``sample_mode`` calls it at every jump and
    keeps, per mode index, a copy of the last row it checked with that
    row's positive-mass modes and their upper cumulative weights; a list
    equal to that copy is sampled without another check.  The cache takes
    no part in equality or hashing.
    """

    weights: Callable[[tuple, int], Sequence[float]]
    # v -> (checked float row, positive-mass modes, their upper weights)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PDifMPModel:
    """A hybrid jump-diffusion model as function values.

    ``drift`` and ``diffusion`` map ``(y, v_index)`` to per-component
    tuples; diffusion is the column for the single Wiener channel.  All
    callables must be pure (same inputs give same outputs) so paths can be
    replayed.
    """

    modes: ModeSet
    drift: Callable[[tuple, int], tuple]
    diffusion: Callable[[tuple, int], tuple]
    rate: Callable[[tuple, int], float]
    rate_bound: float
    kernel: CumulativeKernel
    horizon: float
    initial_state: HybridState
    # Optional transform of the continuous state at an accepted jump:
    # (y, new_mode_index, uniform) -> y'.  None preserves y across jumps,
    # which is the defining behaviour of the process class; test models
    # that rescale y at jumps install a hook here.
    jump_update: Callable[[tuple, int, float], tuple] | None = None
    # Optional per-component (lo, hi) bounds, diagnostic only: the engine
    # counts excursions in PathStats.hint_excursions and never clips.  The
    # migration model's x leaves its [-1, 1] hint: its drift z x (z/2 + a - b)
    # grows |x| whenever z (z/2 + a - b) > 0, as in every shipped config.
    state_space_hint: tuple | None = None
    # "error" raises when rate > rate_bound; "count" records the violation
    # and carries on (used to reproduce published configurations whose
    # stated bound is inconsistent with the rate function).
    bound_policy: str = "error"
    name: str = ""

    def __post_init__(self) -> None:
        if not (self.rate_bound > 0.0 and math.isfinite(self.rate_bound)):
            raise ModelDefinitionError(f"rate_bound must be positive, got {self.rate_bound!r}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ModelDefinitionError(f"horizon must be positive, got {self.horizon!r}")
        if not 0 <= self.initial_state.v < len(self.modes):
            raise ModelDefinitionError(f"initial mode index {self.initial_state.v} out of range")
        if self.bound_policy not in ("error", "count"):
            raise ModelDefinitionError(f"unknown bound_policy {self.bound_policy!r}")
        if not isinstance(self.kernel, CumulativeKernel):
            raise ModelDefinitionError(f"kernel must be a CumulativeKernel, got {type(self.kernel).__name__}")


def _checked_row(row: Sequence[float], v: int) -> list[float]:
    """Copy ``row`` to a float list and check it as kernel weights at mode ``v``."""
    a = list(map(float, row))
    if len(a) < 2:
        raise ModelDefinitionError(f"weights must cover at least one mode, got {a!r}")
    if a[0] != 0.0:
        raise ModelDefinitionError(f"cumulative weights must start at 0, got {a[0]!r}")
    # a NaN or -inf after a_0 fails this comparison chain, and +inf the end check
    if not all(map(operator.le, a, a[1:])):
        kind = "nondecreasing" if all(map(math.isfinite, a)) else "finite"
        raise ModelDefinitionError(f"cumulative weights must be {kind}, got {a!r}")
    if abs(a[-1] - 1.0) > WEIGHT_TOL:
        raise ModelDefinitionError(f"cumulative weights must end at 1, got {a[-1]!r}")
    if v + 1 >= len(a):
        raise ModelDefinitionError(f"current mode index {v} outside kernel support of size {len(a) - 1}")
    self_mass = a[v + 1] - a[v]
    if abs(self_mass) > WEIGHT_TOL:
        raise ModelDefinitionError(
            f"kernel assigns mass {self_mass!r} to the current mode {v}; self-jumps are forbidden"
        )
    return a


def cumulative_weights(kernel: CumulativeKernel, y: tuple, v: int) -> list[float]:
    """Evaluate and validate the cumulative kernel weights in state ``(y, v)``.

    Checks: finite, a_0 = 0, nondecreasing, a_end = 1 within WEIGHT_TOL,
    and zero increment for the current mode; a violation raises
    ``ModelDefinitionError``.  Every call checks the row again.
    """
    return _checked_row(kernel.weights(y, v), v)


def sample_mode(kernel: CumulativeKernel, y: tuple, v: int, u: float) -> int:
    """Draw the post-jump mode index for uniform ``u`` in [0, 1].

    This is the inverse-CDF walk over the cumulative weights: the first
    mode ``i`` with positive mass and ``u <= a_{i+1}``, else the last mode
    with positive mass.  For ``u`` in ``(0, a_end]`` that is the unique
    ``i`` with ``a_i < u <= a_{i+1}``; ``u = 0`` maps to the first mode with
    positive mass and ``u`` above ``a_end`` (weights ending at 1 - eps pass
    the tolerance check) to the last.

    The weights are evaluated at every call.  A row is checked as in
    ``cumulative_weights`` unless it is a list equal to the last row
    checked at mode ``v``, so each distinct row is checked once per mode;
    a tuple or array row is checked every time.  The weights must be pure.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"kernel uniform must lie in [0, 1], got {u!r}")
    row = kernel.weights(y, v)
    entry = kernel._rows.get(v)
    if entry is None or type(row) is not list or row != entry[0]:
        # the entry keeps its own checked copy, never the kernel's list,
        # which a kernel may rewrite in place before its next return
        a = _checked_row(row, v)
        # checked weights rise from 0 to about 1, so some mode has mass
        modes = [i for i in range(len(a) - 1) if a[i + 1] > a[i]]
        entry = kernel._rows[v] = (a, modes, [a[i + 1] for i in modes])
    _, modes, uppers = entry
    i = bisect_left(uppers, u)
    return modes[i] if i < len(modes) else modes[-1]


@dataclass
class ValidationIssue:
    state: HybridState
    check: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)
    checked_states: int = 0

    @property
    def passed(self) -> bool:
        return not self.issues

    def add(self, state: HybridState, check: str, message: str) -> None:
        self.issues.append(ValidationIssue(state, check, message))


def validate_model(model: PDifMPModel, probe_states: Sequence[HybridState]) -> ValidationReport:
    """Check a model's standing assumptions at a set of probe states.

    Violations are collected into the report rather than raised: rate above
    its bound, malformed cumulative kernel weights, weights over another
    number of modes than the model's, self-jump mass, and impure rate
    evaluations.
    """
    if not probe_states:
        raise ValueError("probe_states must be nonempty")
    report = ValidationReport()
    for state in probe_states:
        report.checked_states += 1
        try:
            rate = float(model.rate(state.y, state.v))
        except Exception as exc:  # report-style: never propagate
            report.add(state, "rate", f"rate evaluation failed: {exc}")
            continue
        if not math.isfinite(rate) or rate < 0.0:
            report.add(state, "rate", f"rate must be finite and nonnegative, got {rate!r}")
        elif rate > model.rate_bound:
            report.add(
                state,
                "rate_bound",
                f"rate {rate!r} exceeds declared bound {model.rate_bound!r}",
            )
        # a NaN never equals itself, and it is already reported as a rate issue
        if not math.isnan(rate) and float(model.rate(state.y, state.v)) != rate:
            report.add(state, "purity", "rate returned different values for identical inputs")
        try:
            a = cumulative_weights(model.kernel, state.y, state.v)
        except ModelDefinitionError as exc:
            report.add(state, "kernel", str(exc))
            continue
        if len(a) != len(model.modes) + 1:
            report.add(state, "kernel", f"weights cover {len(a) - 1} modes; the model has {len(model.modes)}")
    return report


@dataclass
class PathStats:
    """Per-path bookkeeping collected during simulation."""

    n_proposals: int = 0
    n_accepted: int = 0
    n_cells: int = 0
    bound_violations: int = 0
    rate_min: float = math.inf
    rate_max: float = -math.inf
    hint_excursions: tuple = ()


@dataclass
class Trajectory:
    """One simulated path on its jump-adapted grid.

    ``times``/``values`` sample the continuous component; the value stored
    at a jump time is the pre-jump flow endpoint (the continuous component
    is left-continuous there, the mode right-continuous).  ``jump_times``
    starts with 0.0 and ``interval_modes[n]`` is the mode on
    ``[jump_times[n], jump_times[n+1])``.  ``post_jump_values[n]`` is the
    continuous state right after the (n+1)-th jump; it equals the grid
    value at that time unless the model rescales y at jumps.
    """

    times: np.ndarray
    values: np.ndarray
    jump_times: np.ndarray
    interval_modes: np.ndarray
    post_jump_values: np.ndarray
    stats: PathStats

    @property
    def jump_count(self) -> int:
        return len(self.jump_times) - 1

    def mode_per_point(self) -> np.ndarray:
        """Mode index at each grid time (right-continuous in time)."""
        idx = np.searchsorted(self.jump_times[1:], self.times, side="right")
        return self.interval_modes[idx]

    def is_jump_point(self) -> np.ndarray:
        idx = np.searchsorted(self.times, self.jump_times[1:])
        flags = np.zeros(len(self.times), dtype=bool)
        flags[idx] = True
        return flags

    def validate(self, horizon: float | None = None) -> None:
        """Assert the structural invariants; used by tests and debugging."""
        t = self.times
        if len(t) == 0 or t[0] != 0.0:
            raise AssertionError("grid must start at t=0")
        if not np.all(np.diff(t) > 0.0):
            raise AssertionError("grid times must strictly increase")
        if self.jump_times[0] != 0.0:
            raise AssertionError("jump_times must start with 0")
        if not np.all(np.diff(self.jump_times) > 0.0):
            raise AssertionError("jump times must strictly increase")
        for tn in self.jump_times[1:]:
            pos = np.searchsorted(t, tn)
            if pos >= len(t) or t[pos] != tn:
                raise AssertionError(f"jump time {tn!r} is not a grid time")
        if horizon is not None and np.any(self.jump_times > horizon):
            raise AssertionError("jump time beyond the horizon")
        if len(self.interval_modes) != len(self.jump_times):
            raise AssertionError("one mode per inter-jump interval required")
        if not np.all(np.isfinite(self.values)):
            raise AssertionError("non-finite grid values")
