"""Error metrics and convergence diagnostics.

Strong error uses the jump-adapted RMSE: the maximum over grid indices of
the root mean square cross-path difference between coupled trajectories.
It is a one-pass reduction: each coupled pair becomes one row of squared
distances as it arrives, so a study holds O(paths x cells) floats and no
trajectories.
Weak error is estimated by common-driver Monte Carlo: exact and discretised
paths share every proposal, uniform and Wiener increment, so the paired
differences isolate the discretisation bias at a variance far below that of
independent sampling.  Observed orders come from ordinary least squares on
(log2 h, log2 metric).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import PDifMPModel, Trajectory
from .drivers import DriverStream
from .jump_engine import _squared_distances, simulate_coupled_pair


def strong_error(pairs: Iterable[tuple[Trajectory, Trajectory]]) -> tuple[float, float]:
    """Jump-adapted RMSE over coupled trajectory pairs, and its standard error.

    At each grid index the squared state difference is averaged across
    paths; the RMSE is the maximum over the indices shared by every pair
    of the square root of that average.  Within a pair the grids must agree
    exactly (they do, by coupled construction); across pairs the common
    index range is used, since jump realisations differ between paths.

    ``pairs`` is read once, in order, and may be a generator.  Each pair's
    grids are checked as it arrives, and the pair is reduced to its row of
    per-index squared distances and dropped, so the memory held is one row
    per pair, O(paths x cells) floats, and never a trajectory.  The rows
    are summed in path order.

    The standard error comes from the delta method at the worst index (the
    argmax of the mean row): the standard deviation of that column over
    pairs, divided by sqrt(paths) and by 2 * RMSE.  It is NaN for a single
    pair or a zero RMSE.
    """
    return strong_error_of_rows(_squared_distances(pair) for pair in pairs)


def strong_error_of_rows(rows: Iterable[np.ndarray]) -> tuple[float, float]:
    """``strong_error`` of coupled pairs given as their rows of per-index
    squared distances, in path order, as ``coupled_distance_rows`` returns
    them; the rows are summed in that order."""
    rows = list(rows)
    if not rows:
        raise ValueError("at least one coupled pair is required")
    n = len(rows)
    n_common = min(len(r) for r in rows)
    acc = np.zeros(n_common)
    for r in rows:
        acc += r[:n_common]
    rmse = float(np.sqrt(np.max(acc) / n))
    if n == 1 or rmse == 0.0:
        return rmse, math.nan
    worst = int(np.argmax(acc / n))
    column = np.array([r[worst] for r in rows])
    return rmse, float(column.std(ddof=1) / math.sqrt(n)) / (2.0 * rmse)


def strong_rmse(pairs: Iterable[tuple[Trajectory, Trajectory]]) -> float:
    """The RMSE of ``strong_error``, without its standard error."""
    return strong_error(pairs)[0]


def sup_difference(pair: tuple[Trajectory, Trajectory]) -> float:
    """Maximum state distance between two trajectories on their shared grid."""
    return float(np.sqrt(np.max(_squared_distances(pair))))


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
    estimate over M pairs.  Returns (estimate, stderr, paths used); the
    standard error of one pair is NaN, which never meets the stopping rule,
    so growth goes on past a one-pair pilot.  Models without a closed-form
    flow cannot be estimated this way.
    """
    if exact_flow is None:
        raise ValueError(f"model {model.name!r} has no exact flow; weak error needs one")
    if pilot < 1:
        raise ValueError(f"at least one pilot path required, got {pilot!r}")
    if max_paths < 1:
        raise ValueError(f"max_paths must be at least 1, got {max_paths!r}")
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
        se = math.sqrt(var / n) if n > 1 else math.nan
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
