"""Error metrics and convergence diagnostics.

Strong error uses the jump-adapted RMSE: the maximum over grid indices of
the root mean square cross-path difference between coupled trajectories.
Weak error is estimated by common-driver Monte Carlo: exact and discretised
paths share every proposal, uniform and Wiener increment, so the paired
differences isolate the discretisation bias at a variance far below that of
independent sampling.  Observed orders come from ordinary least squares on
(log2 h, log2 metric).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import PDifMPModel, Trajectory
from .drivers import DriverStream
from .errors import CouplingBrokenError
from .jump_engine import simulate_coupled_pair


def _check_pair_grids(pair: tuple[Trajectory, Trajectory]) -> None:
    a, b = pair
    if len(a.times) != len(b.times) or not np.array_equal(a.times, b.times):
        raise CouplingBrokenError(
            f"coupled trajectories disagree on the grid ({len(a.times)} vs {len(b.times)} points)"
        )


def strong_rmse(pairs: Sequence[tuple[Trajectory, Trajectory]]) -> float:
    """Jump-adapted RMSE over a batch of coupled trajectory pairs.

    At each grid index the squared state difference is averaged across
    paths; the metric is the maximum over the indices shared by every pair
    of the square root of that average.  Within a pair the grids must agree
    exactly (they do, by coupled construction); across pairs the common
    index range is used, since jump realisations differ between paths.
    """
    if not pairs:
        raise ValueError("at least one coupled pair is required")
    for pair in pairs:
        _check_pair_grids(pair)
    n_common = min(len(p[0].times) for p in pairs)
    acc = np.zeros(n_common)
    for a, b in pairs:
        d = a.values[:n_common] - b.values[:n_common]
        acc += np.einsum("ij,ij->i", d, d)
    return float(np.sqrt(np.max(acc) / len(pairs)))


def sup_difference(pair: tuple[Trajectory, Trajectory]) -> float:
    """Maximum state distance between two trajectories on their shared grid."""
    _check_pair_grids(pair)
    a, b = pair
    d = a.values - b.values
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d))))


def fit_slope(rows: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope and intercept of log2(metric) against log2(h)."""
    if len(rows) < 2:
        raise ValueError("slope fitting needs at least two (h, metric) rows")
    hs = np.array([r[0] for r in rows], dtype=float)
    vals = np.array([r[1] for r in rows], dtype=float)
    if np.any(hs <= 0.0) or np.any(vals <= 0.0):
        raise ValueError("slope fitting needs positive step sizes and metric values")
    slope, intercept = np.polyfit(np.log2(hs), np.log2(vals), 1)
    return float(slope), float(intercept)


def grow_weak_error_estimate(
    model: PDifMPModel,
    exact_flow,
    F: Callable[[tuple, int], float],
    h: float,
    seed: int,
    rel_se_target: float = 0.18,
    pilot: int = 20_000,
    max_paths: int = 2_500_000,
    *,
    em,
) -> tuple[float, float, int]:
    """Common-driver Monte Carlo estimate of E[F(approx_T)] - E[F(exact_T)].

    Path ``j`` runs one coupled pair (the ``em`` side first) on the stream
    keyed by ``(seed, j)``.  Starting from ``pilot`` pairs, the path count
    grows until the standard error is small relative to the estimate or
    ``max_paths`` is reached; ``pilot = max_paths = M`` gives a fixed-size
    estimate over M pairs.  Returns (estimate, stderr, paths used).  Models
    without a closed-form flow cannot be estimated this way.
    """
    if exact_flow is None:
        raise ValueError(f"model {model.name!r} has no exact flow; weak error needs one")
    if pilot < 1:
        raise ValueError(f"at least one pilot path required, got {pilot!r}")
    stream = DriverStream(seed, 0)
    total = 0.0
    total_sq = 0.0
    n = 0

    def run_upto(m: int) -> None:
        nonlocal total, total_sq, n
        for j in range(n, m):
            stream.reset(seed, j)
            em_traj, exact_traj = simulate_coupled_pair(
                model, em, exact_flow, stream, h=h, stride=None
            )
            # F sees Python floats, as the engine's states are
            d = float(
                F(tuple(em_traj.values[-1].tolist()), int(em_traj.interval_modes[-1]))
                - F(tuple(exact_traj.values[-1].tolist()), int(exact_traj.interval_modes[-1]))
            )
            total += d
            total_sq += d * d
        n = m

    run_upto(min(pilot, max_paths))
    while True:
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
        se = math.sqrt(var / n)
        if mean != 0.0 and se <= rel_se_target * abs(mean):
            return mean, se, n
        if n >= max_paths:
            return mean, se, n
        if mean == 0.0:
            target = 2 * n
        else:
            # project the required count with 10% headroom, but grow at most
            # 2x per round: early means are noisy and would overshoot wildly,
            # and each round re-checks the stopping rule on the way up
            target = int(1.1 * var / (rel_se_target * mean) ** 2) + 1
        run_upto(min(max(min(target, 2 * n), n + pilot), max_paths))
