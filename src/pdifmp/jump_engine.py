"""Thinning-based jump simulation on a jump-adapted grid.

Jump times are generated by acceptance-rejection against a dominating
homogeneous Poisson process with rate ``rate_bound``: proposal ``k`` at
time ``T*_k`` is accepted when ``U_k * rate_bound <= rate(state)``.  Every
proposal time becomes a permanent grid point whether accepted or not; the
flow advanced to test acceptance is kept.  Between consecutive events
(start, proposals, horizon) the segment is subdivided into equal cells by
``JumpAdaptedGrid``, so the segment's right endpoint is hit exactly and two
consumers sharing one driver stream walk identical grids.

The grid never depends on the state, so a path is simulated in two parts:
a plan (``_plan``) that yields each proposal's segment grid and Wiener
block from the stream, and a side loop (``_run_side``) that steps one
integrator over the plan, applies the thinning test and the jumps, and
records the trajectory.  The two sides of a coupled pair run the side loop
one after the other over one materialised plan.

Randomness consumption per path (see drivers): proposal waiting times in
order; the acceptance uniform for proposal ``k`` at index ``k``; kernel
uniforms in per-proposal pairs (mode, magnitude); one Wiener increment per
grid cell in time order.  A path rerun with the same (seed, path_id) is
bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HybridState, PathStats, PDifMPModel, Trajectory, _sample_mode_raw
from .drivers import DriverStream
from .errors import RateBoundError, RunawayRateError, SimulationDivergedError

DEFAULT_PROPOSAL_CAP = 10_000_000


def _count_excursions(values: np.ndarray, hint: tuple) -> list[int]:
    # values[0] is the initial state, not a step output
    return [
        int(np.count_nonzero((values[1:, j] < lo) | (values[1:, j] > hi)))
        for j, (lo, hi) in enumerate(hint)
    ]


# Recorded points are staged in plain lists and flushed to numpy chunks once
# they grow past this; keeping millions of long-lived tuples alive makes the
# cyclic collector rescan them and dominates long-horizon runs.
_FLUSH_THRESHOLD = 4096


class JumpAdaptedGrid:
    """Equal-cell subdivision of one inter-event interval.

    ``n_cells = max(1, floor((right - left) / nominal_h))`` and the local
    step is ``(right - left) / n_cells``; the last point equals ``right``
    exactly.  Cells lie within ``[h/2, 2h]`` on intervals at least ``h``
    long; a shorter interval is one cell of its own length.
    """

    __slots__ = ("left", "right", "n_cells", "h_local")

    def __init__(self, left: float, right: float, nominal_h: float) -> None:
        if not nominal_h > 0.0:
            raise ValueError(f"nominal step must be positive, got {nominal_h!r}")
        if not right > left:
            raise ValueError(f"empty interval [{left!r}, {right!r}]")
        length = right - left
        n = int(length / nominal_h)
        if n < 1:
            n = 1
        self.left = left
        self.right = right
        self.n_cells = n
        self.h_local = length / n

    def points(self) -> np.ndarray:
        pts = self.left + self.h_local * np.arange(self.n_cells + 1)
        pts[-1] = self.right
        return pts


def _recorded_cells(n: int, done: int, stride: int | None) -> list[int]:
    """1-based cells of an ``n``-cell segment whose end values are recorded,
    after ``done`` cells of the path: every ``stride``-th cell of the path
    and the segment's last cell."""
    if stride is None:
        return [n]
    cells = list(range(stride - done % stride, n, stride))
    cells.append(n)
    return cells


def _grid_times(t0: float, grids: list[JumpAdaptedGrid], stride: int | None) -> np.ndarray:
    """Recorded times of a path walked over ``grids``: the start, then the
    recorded cell ends; segment ends are always recorded."""
    if stride is None:
        return np.array([t0] + [g.right for g in grids])
    parts = [np.array([t0])]
    done = 0
    for g in grids:
        pts = g.points()
        parts.append(pts[1:] if stride == 1 else pts[_recorded_cells(g.n_cells, done, stride)])
        done += g.n_cells
    return np.concatenate(parts)


def _apply_jump_transform(jump_update, y: tuple, v_new: int, u_mag: float, t: float) -> tuple:
    try:
        out = jump_update(y, v_new, u_mag)
    except OverflowError:
        raise SimulationDivergedError(t, y, "overflow in the continuous-state jump transform") from None
    for c in out:
        if not math.isfinite(c):
            raise SimulationDivergedError(t, out, "jump transform left the finite range")
    return out


def _check_args(h, T, stride, t0: float = 0.0) -> None:
    if not h > 0.0:
        raise ValueError(f"positive step size required, got {h!r}")
    if not T > t0:
        raise ValueError(f"horizon {T!r} must lie after the start time {t0!r}")
    if stride is not None and stride < 1:
        raise ValueError(f"stride must be a positive integer or None, got {stride!r}")


def _plan(model: PDifMPModel, stream: DriverStream, t0: float, T: float, h: float, proposal_cap: int):
    """Yield ``(k, t, grid, dws, tested)`` for proposals ``k = 1, 2, ...``.

    ``t`` is proposal ``k``'s time ``t0 + T*_k`` capped at the horizon,
    ``grid`` the segment from the previous event to ``t`` with its Wiener
    block ``dws`` (both None for an empty segment), and ``tested`` whether
    the proposal lies within the horizon.  The plan ends at the horizon.
    """
    bound = model.rate_bound
    t_prev = t0
    for k in range(1, proposal_cap + 1):
        t_star = t0 + stream.proposal_time(k, bound)
        t = t_star if t_star < T else T
        if t > t_prev:
            grid = JumpAdaptedGrid(t_prev, t, h)
            yield k, t, grid, stream.wiener_block(grid.n_cells, grid.h_local), t_star <= T
        else:
            yield k, t, None, None, t_star <= T
        if t_star >= T:
            return
        t_prev = t
    raise RunawayRateError(f"proposal cap {proposal_cap} exceeded; rate_bound is likely far above the rate")


def _run_side(
    model: PDifMPModel,
    integrator,
    stream: DriverStream,
    state: HybridState,
    plan,
    stride: int | None,
    times: np.ndarray | None = None,
    first_jump: bool = False,
) -> Trajectory:
    """Step one integrator from ``state`` over ``plan``, thinning and jumping.

    ``stride`` controls interior recording as in ``simulate_path``.  The
    recorded times are built from the grids walked unless ``times`` gives
    them.  With ``first_jump`` the walk stops at the first accepted
    proposal without applying its jump.
    """
    y = state.y
    v = state.v
    t0 = state.t
    bound = model.rate_bound
    strict = model.bound_policy == "error"
    kernel = model.kernel
    jump_update = model.jump_update
    hint = model.state_space_hint
    # at stride 1 every post-step state is recorded, so excursions are
    # counted vectorised afterwards instead of per cell
    exc = [0] * len(hint) if hint is not None and stride != 1 else None
    step = integrator.step
    # Segments whose interior is neither recorded nor inspected can run in
    # one call; run_cells implementations perform cell-identical arithmetic.
    run_cells = None
    if stride is None and hint is None:
        run_cells = getattr(integrator, "run_cells", None)

    chunks: list[np.ndarray] = []
    values: list[tuple] = [y]
    grids: list[JumpAdaptedGrid] = []
    jump_times: list[float] = [t0]
    modes: list[int] = [v]
    post_jumps: list[tuple] = []
    n_prop = 0
    n_acc = 0
    n_cells = 0
    violations = 0
    rmin = math.inf
    rmax = -math.inf

    for k, t, grid, dws, tested in plan:
        if grid is not None:
            h_loc = grid.h_local
            v_ap = values.append
            try:
                if run_cells is not None:
                    y = run_cells(model, y, v, h_loc, dws)
                    v_ap(y)
                elif stride == 1:
                    for dw in dws:
                        y = step(model, y, v, h_loc, dw)
                        v_ap(y)
                else:
                    marks = iter(_recorded_cells(grid.n_cells, n_cells, stride))
                    mark = next(marks)
                    for cell, dw in enumerate(dws, 1):
                        y = step(model, y, v, h_loc, dw)
                        if exc is not None:
                            for j, (lo, hi) in enumerate(hint):
                                c = y[j]
                                if c < lo or c > hi:
                                    exc[j] += 1
                        if cell == mark:
                            v_ap(y)
                            mark = next(marks, 0)
            except SimulationDivergedError as err:
                raise SimulationDivergedError(grid.left, err.y, err.detail) from None
            n_cells += grid.n_cells
            grids.append(grid)
            if len(values) >= _FLUSH_THRESHOLD:
                chunks.append(np.asarray(values))
                values = []
        if not tested:
            break
        n_prop += 1
        lam = model.rate(y, v)
        if lam < rmin:
            rmin = lam
        if lam > rmax:
            rmax = lam
        if lam > bound:
            if strict:
                raise RateBoundError(lam, bound, y, v)
            violations += 1
        if stream.thinning_uniform(k) * bound <= lam:
            n_acc += 1
            if first_jump:
                break
            u_mode, u_mag = stream.kernel_slots(k)
            v = _sample_mode_raw(kernel, y, v, u_mode)
            if jump_update is not None:
                y = _apply_jump_transform(jump_update, y, v, u_mag, t)
            jump_times.append(t)
            modes.append(v)
            post_jumps.append(y)

    if values:
        chunks.append(np.asarray(values))
    values_arr = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if hint is not None and stride == 1:
        exc = _count_excursions(values_arr, hint)
    dim = len(y)
    stats = PathStats(
        n_proposals=n_prop,
        n_accepted=n_acc,
        n_cells=n_cells,
        bound_violations=violations,
        rate_min=rmin if n_prop else math.nan,
        rate_max=rmax if n_prop else math.nan,
        hint_excursions=tuple(exc) if exc is not None else (),
    )
    return Trajectory(
        times=_grid_times(t0, grids, stride) if times is None else times,
        values=values_arr,
        jump_times=np.asarray(jump_times),
        interval_modes=np.asarray(modes, dtype=np.int64),
        post_jump_values=np.asarray(post_jumps).reshape(len(post_jumps), dim),
        stats=stats,
    )


@dataclass
class NextJumpResult:
    time: float
    y: tuple
    accepted: bool
    grid_times: list[float]
    grid_values: list[tuple]
    n_proposals: int


def next_jump(
    model: PDifMPModel,
    integrator,
    stream: DriverStream,
    state: HybridState,
    h: float,
    T: float | None = None,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> NextJumpResult:
    """Advance the flow to the first accepted proposal, or to the horizon.

    Proposal ``k`` lies at ``state.t + T*_k``, where ``T*_k`` are the
    stream's indexed proposal times, and is tested with the stream's
    ``k``-th acceptance uniform; use a fresh stream per call, as for
    ``simulate_path``.  Rejected proposals still advance the flow and appear
    in the returned grid samples.  The jump itself is not applied.
    """
    T = T if T is not None else model.horizon
    _check_args(h, T, 1, state.t)
    plan = _plan(model, stream, state.t, T, h, proposal_cap)
    traj = _run_side(model, integrator, stream, state, plan, 1, first_jump=True)
    return NextJumpResult(
        time=float(traj.times[-1]),
        y=tuple(traj.values[-1].tolist()),
        accepted=traj.stats.n_accepted > 0,
        grid_times=traj.times[1:].tolist(),
        grid_values=[tuple(row) for row in traj.values[1:].tolist()],
        n_proposals=traj.stats.n_proposals,
    )


def simulate_path(
    model: PDifMPModel,
    integrator,
    stream: DriverStream,
    h: float,
    T: float | None = None,
    stride: int | None = 1,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> Trajectory:
    """Simulate one full path on the jump-adapted grid.

    ``stride`` controls interior grid recording: 1 keeps every cell, k
    keeps every k-th cell, None keeps only segment endpoints (proposal and
    jump times, and the horizon); endpoints are always recorded so every
    jump time is a grid time.
    """
    T = T if T is not None else model.horizon
    _check_args(h, T, stride)
    plan = _plan(model, stream, 0.0, T, h, proposal_cap)
    return _run_side(model, integrator, stream, model.initial_state, plan, stride)


def simulate_coupled_pair(
    model: PDifMPModel,
    integrator_a,
    integrator_b,
    stream: DriverStream,
    h: float,
    T: float | None = None,
    stride: int | None = 1,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> tuple[Trajectory, Trajectory]:
    """Two discretisations of one model on identical stochastic drivers.

    Both sides see the same proposal times, acceptance uniforms, kernel
    uniforms and Wiener increments, and walk the same grid; each side tests
    acceptance against its own state, so when the rate and kernel depend
    only on the mode the jump times and mode sequences coincide exactly.
    Each returned trajectory is bitwise identical to a single simulation of
    its integrator with the same stream.  A divergence error names the side
    (``a`` or ``b``) and its integrator's kind.
    """
    T = T if T is not None else model.horizon
    _check_args(h, T, stride)
    plan = list(_plan(model, stream, 0.0, T, h, proposal_cap))
    pair: list[Trajectory] = []
    for side, integrator in (("a", integrator_a), ("b", integrator_b)):
        # recorded times depend only on the plan: side b copies side a's
        times = pair[0].times.copy() if pair else None
        try:
            pair.append(_run_side(model, integrator, stream, model.initial_state, plan, stride, times))
        except SimulationDivergedError as err:
            raise SimulationDivergedError(
                err.t, err.y, f"side {side}, {integrator.kind}: {err.detail}"
            ) from None
    return pair[0], pair[1]


def simulate_batch(
    model: PDifMPModel,
    integrator,
    seed: int,
    n_paths: int,
    h: float,
    T: float | None = None,
    stride: int | None = 1,
    path_offset: int = 0,
) -> list[Trajectory]:
    """Simulate ``n_paths`` independent paths, ordered by path index.

    Path ``i`` uses the stream keyed by ``(seed, path_offset + i)``, re-keyed
    in place per path.
    """
    stream = DriverStream(seed, path_offset)
    paths = []
    for i in range(n_paths):
        stream.reset(seed, path_offset + i)
        paths.append(simulate_path(model, integrator, stream, h=h, T=T, stride=stride))
    return paths
