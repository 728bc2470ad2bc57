"""Thinning-based jump simulation on a jump-adapted grid.

Jump times are generated by acceptance-rejection against a dominating
homogeneous Poisson process with rate ``rate_bound``: proposal ``k`` at
time ``T*_k`` is accepted when ``U_k * rate_bound <= rate(state)``; a rate
that is NaN or negative raises ``ModelDefinitionError``.  Every
proposal time becomes a permanent grid point whether accepted or not; the
flow advanced to test acceptance is kept.  Between consecutive events
(start, proposals, horizon) the segment is subdivided into equal cells by
``JumpAdaptedGrid``, so the segment's right endpoint is hit exactly and two
consumers sharing one driver stream walk identical grids.

Every path runs from the model's initial state at time 0 to the model's
horizon: the model is the only source of the simulation window.  The grid
never depends on the state, so a path is simulated in two parts: a plan
(``_plan``) that yields each proposal's segment grid with its Wiener
increments in blocks of at most ``_BLOCK`` cells, and a side loop
(``_run_side``) that steps one integrator over the plan, applies the
thinning test and the jumps, and records a ``Trajectory``.  A segment of
more than one block draws each block from the stream only when the side
loop reaches it, so a single path holds one block of a long segment, never
the whole segment.  ``simulate_path`` runs the side loop once; the two
sides of a coupled pair run it one after the other over one materialised
plan, which holds every block of a segment; ``next_jump`` runs it until
the first accepted proposal.

A path records its start and, on each segment, the cells that
``_recorded_cells`` names, at the segment's grid points; at any stride but
1 only those cells' times are computed, with the arithmetic of
``JumpAdaptedGrid.points``.  Every block is stepped through the
integrator's ``run_cells`` in one call; its rows become one array that
gives the recorded rows and counts the hint excursions of every cell.  At
stride None a model without a hint keeps only each segment's end state.

Integrators do not check their cells; the engine decides where a path left
the finite range.  A block whose kernel raises ``OverflowError`` or whose
end state is not finite is stepped again from its start state, one cell at
a time, and ``_flow_diverged`` builds the ``SimulationDivergedError`` of the
first cell that overflows (its input state, at the cell's left end) or
returns a non-finite row (that row, at the cell's right end).

Randomness consumption per path (see drivers): proposal waiting times in
order; the acceptance uniform for proposal ``k`` at index ``k``; kernel
uniforms in per-proposal pairs (mode, magnitude); one Wiener increment per
grid cell in time order.  A path rerun with the same (seed, path_id) is
bitwise identical.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PathStats, PDifMPModel, Trajectory, sample_mode
from .drivers import DriverStream
from .errors import ModelDefinitionError, RateBoundError, RunawayRateError, SimulationDivergedError

# Proposals a path may make before the plan raises RunawayRateError.
PROPOSAL_CAP = 10_000_000

# A segment's Wiener increments are drawn, and its cells stepped, in blocks
# of at most this many: a block's increments become a Python list and its
# rows one array at once, so a single path's memory is bounded by one block
# however long its segments are.
_BLOCK = 4096


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


def _apply_jump_transform(jump_update, y: tuple, v_new: int, u_mag: float, t: float) -> tuple:
    try:
        out = jump_update(y, v_new, u_mag)
    except OverflowError:
        raise SimulationDivergedError(t, y, "overflow in the continuous-state jump transform") from None
    if len(out) != len(y):
        raise ModelDefinitionError(f"jump transform returned {out!r} at t={t!r} for the state {y!r}")
    for c in out:
        if not math.isfinite(c):
            raise SimulationDivergedError(t, out, "jump transform left the finite range")
    return out


def _flow_diverged(
    model: PDifMPModel, integrator, y: tuple, v: int, grid: JumpAdaptedGrid, start: int, dws: np.ndarray
) -> SimulationDivergedError:
    """The error of a block that overflowed or ended non-finite.

    The block stepped ``y`` in mode ``v`` from cell ``start`` of ``grid``
    over the increments ``dws``.  Its cells are stepped again one at a time,
    with the same arithmetic: the first that raises ``OverflowError`` is
    reported with the state it started from, at its left end; the first
    that returns a non-finite row with that row, at its right end.
    """
    left, h_loc = grid.left, grid.h_local
    for i, dw in enumerate(dws.tolist(), start):
        try:
            row = integrator.step(model, y, v, h_loc, dw)
        except OverflowError:
            return SimulationDivergedError(left + h_loc * i, y, "overflow in the flow")
        if not all(map(math.isfinite, row)):
            t = grid.right if i + 1 == grid.n_cells else left + h_loc * (i + 1)
            return SimulationDivergedError(t, row, "flow left the finite range")
        y = row
    raise AssertionError("the block diverged, but stepping its cells one at a time did not")


def _check_args(h, stride) -> None:
    if not h > 0.0:
        raise ValueError(f"positive step size required, got {h!r}")
    if stride is not None and (type(stride) is not int or stride < 1):
        raise ValueError(f"stride must be a positive integer or None, got {stride!r}")


def _wiener_blocks(stream: DriverStream, grid: JumpAdaptedGrid):
    """Yield ``(start, dws)`` for the ``_BLOCK``-cell blocks of ``grid``,
    each drawn when it is reached."""
    n = grid.n_cells
    for start in range(0, n, _BLOCK):
        yield start, stream.wiener_block(min(_BLOCK, n - start), grid.h_local)


def _plan(model: PDifMPModel, stream: DriverStream, h: float):
    """Yield ``(k, t, grid, blocks, tested)`` for proposals ``k = 1, 2, ...``.

    ``t`` is proposal ``k``'s time ``T*_k`` capped at the model's horizon,
    ``grid`` the segment from the previous event (0.0 at first) to ``t``
    and ``blocks`` its Wiener increments as ``(start, dws)`` pairs, ``dws``
    the increments of cells ``start`` to ``start + len(dws) - 1`` (both
    None for an empty segment), and ``tested`` whether the proposal lies
    within the horizon.  The plan ends at the horizon.

    ``blocks`` is a tuple of one pair for a segment of at most ``_BLOCK``
    cells, drawn at once.  A longer segment's is a generator that draws
    each block from the stream when it is reached, so a consumer takes every
    block of a segment before it asks the plan for the next one.
    """
    bound = model.rate_bound
    T = model.horizon
    t_prev = 0.0
    for k in range(1, PROPOSAL_CAP + 1):
        t_star = stream.proposal_time(k, bound)
        t = t_star if t_star < T else T
        if t > t_prev:
            grid = JumpAdaptedGrid(t_prev, t, h)
            if grid.n_cells <= _BLOCK:
                blocks = ((0, stream.wiener_block(grid.n_cells, grid.h_local)),)
            else:
                blocks = _wiener_blocks(stream, grid)
            yield k, t, grid, blocks, t_star <= T
        else:
            yield k, t, None, None, t_star <= T
        if t_star >= T:
            return
        t_prev = t
    raise RunawayRateError(f"proposal cap {PROPOSAL_CAP} exceeded; rate_bound is likely far above the rate")


def _run_side(
    model: PDifMPModel,
    integrator,
    stream: DriverStream,
    plan,
    stride: int | None,
    first_jump: bool = False,
) -> Trajectory:
    """Step one integrator from the model's initial state over ``plan``,
    thinning and jumping.

    ``stride`` controls recording as in ``simulate_path``.  With
    ``first_jump`` the walk stops at the first accepted proposal without
    applying its jump.
    """
    y = model.initial_state.y
    v = model.initial_state.v
    bound = model.rate_bound
    strict = model.bound_policy == "error"
    kernel = model.kernel
    n_modes = len(model.modes)
    jump_update = model.jump_update
    hint = model.state_space_hint
    exc = [0] * len(hint) if hint is not None else None
    run_cells = integrator.run_cells
    d = len(y)
    # with nothing inside a segment recorded or inspected, only its end
    # state is kept
    end_only = stride is None and exc is None

    # the start and the end-only segment ends as flat floats, the other
    # segments' recorded cells as array parts
    times: list = [0.0]
    flat: list[float] = list(y)
    time_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    jump_times: list[float] = [0.0]
    modes: list[int] = [v]
    post_jumps: list[float] = []
    n_prop = 0
    n_acc = 0
    n_cells = 0
    violations = 0
    rmin = math.inf
    rmax = -math.inf

    for k, t, grid, blocks, tested in plan:
        if grid is not None:
            n = grid.n_cells
            h_loc = grid.h_local
            if stride == 1:
                # slices keep every cell
                keep = None
                time_parts.append(grid.points()[1:])
            elif not end_only:
                # 0-based recorded cells, at the times grid.points() gives
                keep = np.asarray(_recorded_cells(n, n_cells, stride)) - 1
                ts = grid.left + h_loc * (keep + 1)
                ts[-1] = grid.right
                time_parts.append(ts)
            for start, cells in blocks:
                out: list[float] = []
                try:
                    y_end = run_cells(model, y, v, h_loc, cells.tolist(), out)
                    finite = all(map(math.isfinite, y_end))
                except OverflowError:
                    finite = False
                if not finite:
                    raise _flow_diverged(model, integrator, y, v, grid, start, cells)
                y = y_end
                if end_only:
                    continue
                arr = np.array(out).reshape(-1, d)
                if exc is not None:
                    for j, (lo, hi) in enumerate(hint):
                        exc[j] += int(np.count_nonzero((arr[:, j] < lo) | (arr[:, j] > hi)))
                if keep is not None:
                    arr = arr[keep[(keep >= start) & (keep < start + _BLOCK)] - start]
                value_parts.append(arr)
            if end_only:
                times.append(grid.right)
                flat += y
            n_cells += n
        if not tested:
            break
        n_prop += 1
        lam = model.rate(y, v)
        if not lam >= 0.0:
            raise ModelDefinitionError(f"rate {lam!r} at t={t!r}, y={y!r}, v={v} is not a nonnegative number")
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
            v = sample_mode(kernel, y, v, u_mode)
            if v >= n_modes:
                raise ModelDefinitionError(f"kernel sampled mode {v} at t={t!r}; the model has {n_modes} modes")
            if jump_update is not None:
                y = _apply_jump_transform(jump_update, y, v, u_mag, t)
            jump_times.append(t)
            modes.append(v)
            post_jumps += y

    stats = PathStats(
        n_proposals=n_prop,
        n_accepted=n_acc,
        n_cells=n_cells,
        bound_violations=violations,
        rate_min=rmin if n_prop else math.nan,
        rate_max=rmax if n_prop else math.nan,
        hint_excursions=tuple(exc) if exc is not None else (),
    )
    times_arr, values_arr = np.asarray(times), np.asarray(flat).reshape(-1, d)
    if time_parts:
        times_arr = np.concatenate([times_arr, *time_parts])
        values_arr = np.concatenate([values_arr, *value_parts])
    return Trajectory(
        times=times_arr,
        values=values_arr,
        jump_times=np.asarray(jump_times),
        interval_modes=np.asarray(modes, dtype=np.int64),
        post_jump_values=np.asarray(post_jumps).reshape(-1, d),
        stats=stats,
    )


def next_jump(model: PDifMPModel, integrator, stream: DriverStream, h: float) -> Trajectory:
    """Advance the flow from the model's initial state to its first
    accepted proposal, or to the horizon.

    Proposal ``k`` lies at the stream's ``k``-th indexed proposal time and
    is tested with its ``k``-th acceptance uniform; use a fresh stream per
    call, as for ``simulate_path``.  The trajectory records every cell,
    rejected proposals included, and ends at the first accepted proposal
    with ``stats.n_accepted == 1`` and the jump not applied, or at the
    horizon with ``stats.n_accepted == 0``.
    """
    _check_args(h, 1)
    return _run_side(model, integrator, stream, _plan(model, stream, h), 1, first_jump=True)


def simulate_path(
    model: PDifMPModel,
    integrator,
    stream: DriverStream,
    h: float,
    stride: int | None = 1,
) -> Trajectory:
    """Simulate one path from the model's initial state to its horizon on
    the jump-adapted grid.

    Records the start, every ``stride``-th cell of the path (counting
    cells from the start) and the last cell of every segment; with
    ``stride`` None only the segment ends (proposal and jump times, and the
    horizon).  Segment ends are always recorded, so every jump time is a
    grid time.  ``stats.n_cells`` and ``stats.hint_excursions`` count every
    cell whatever the stride.
    """
    _check_args(h, stride)
    return _run_side(model, integrator, stream, _plan(model, stream, h), stride)


def simulate_coupled_pair(
    model: PDifMPModel,
    integrator_a,
    integrator_b,
    stream: DriverStream,
    h: float,
    stride: int | None = 1,
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
    _check_args(h, stride)
    # both sides read every block, so a segment of more than one block has
    # its blocks drawn into a tuple before the plan draws the next segment's
    plan = [
        step if step[2] is None or step[2].n_cells <= _BLOCK else (*step[:3], tuple(step[3]), step[4])
        for step in _plan(model, stream, h)
    ]
    pair: list[Trajectory] = []
    for side, integrator in (("a", integrator_a), ("b", integrator_b)):
        try:
            pair.append(_run_side(model, integrator, stream, plan, stride))
        except SimulationDivergedError as err:
            raise SimulationDivergedError(
                err.t, err.y, f"side {side}, {integrator.kind}: {err.detail}"
            ) from None
    return pair[0], pair[1]
