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
never depends on the state, so one walk (``_walk``) steps one integrator
or the two sides of a coupled pair over the segments that ``_segments``
lays out from the proposal times.  Per segment it computes the recorded
times once and draws the Wiener increments in blocks of at most ``_BLOCK``
cells, each when it reaches it; every side steps a block before the next
is drawn, so a path or a pair holds one block of a long segment, never the
whole segment or path.  Each side (``_Side``) keeps its own state, mode,
recorded rows and jumps.  ``simulate_path`` and ``simulate_coupled_pair``
walk one and two sides to the horizon; ``next_jump`` walks one side to
its first accepted proposal.  A proposal is two steps, each a function of
its uniforms: ``_thinning_test`` takes the proposal's thinning uniform and
accepts or rejects it; ``_jump`` takes its kernel slots, samples the new
mode and applies the jump transform.  The walk reads a tested proposal's
thinning uniform once; each side tests its own state, and only a side that
accepts reads the kernel slots.  A pair raises the error of the first
block or proposal at which either side fails, side a first at the same one.

``coupled_distance_rows`` runs many coupled pairs of the GBM flows at
stride 1 in lockstep, as numpy lanes, one path per lane, and reduces them
to rows of squared distances as the strong study needs; a call's paths,
a whole level of the study, step as one lane group.  One stream of the
call, re-keyed per path, lays out each lane's grid from its proposal times,
reads the thinning uniforms and kernel slots of the proposals it tests, and
draws its Wiener increments into the level's rows; all lanes step together
between the cell indices where some lane's segment ends, each with its own
local step, and run ``_thinning_test`` and ``_jump`` there on the lane's
uniforms.  A finished lane steps a zero-width final segment, and each lane
has one cursor, its next segment end.  A lane's draws are those of its
scalar pair, so its row is the scalar pair's bit for bit.  A lane that
raises or ends non-finite sends the call to the scalar engine, which meets
the same error in path order.

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
bitwise identical, whether it runs alone, in a pair or as a lane.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PathStats, PDifMPModel, Trajectory, sample_mode
from .drivers import DriverStream
from .errors import (
    CouplingBrokenError,
    ModelDefinitionError,
    RateBoundError,
    RunawayRateError,
    SimulationDivergedError,
)

# Proposals a path may make before the walk raises RunawayRateError.
PROPOSAL_CAP = 10_000_000

# A segment's Wiener increments are drawn, and its cells stepped, in blocks
# of at most this many: a block's increments become a Python list and its
# rows one array at once, so the memory of a path or a pair is bounded by
# one block however long its segments are.
_BLOCK = 4096

# Lockstep lanes step in blocks of at most this many lane-cells: both
# sides' states over a block are arrays of this size, so a level holds its
# rows, which hold its Wiener increments first, and one block: more lanes
# make the blocks narrower.
_LANE_CELLS = 1 << 13


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


def _segments(model: PDifMPModel, stream: DriverStream, h: float):
    """Yield ``(k, t, grid, tested)`` for proposals ``k = 1, 2, ...``.

    ``t`` is proposal ``k``'s time ``T*_k`` capped at the model's horizon,
    ``grid`` the segment from the previous event (0.0 at first) to ``t``,
    None when it is empty, and ``tested`` whether the proposal lies within
    the horizon.  The segments end at the horizon.  Only proposal times are
    drawn: the grid never depends on the state.
    """
    bound = model.rate_bound
    T = model.horizon
    t_prev = 0.0
    for k in range(1, PROPOSAL_CAP + 1):
        t_star = stream.proposal_time(k, bound)
        t = t_star if t_star < T else T
        yield k, t, JumpAdaptedGrid(t_prev, t, h) if t > t_prev else None, t_star <= T
        if t_star >= T:
            return
        t_prev = t
    raise RunawayRateError(f"proposal cap {PROPOSAL_CAP} exceeded; rate_bound is likely far above the rate")


def _thinning_test(model: PDifMPModel, u: float, t: float, y: tuple, v: int) -> tuple[float, bool]:
    """``(rate, accepted)`` of a proposal at time ``t`` against the state
    ``(y, v)``, with its thinning uniform ``u``: accepted when
    ``u * rate_bound <= rate``.

    A rate that is NaN or negative raises ``ModelDefinitionError``, and one
    above the bound ``RateBoundError`` under the bound policy "error".
    """
    lam = model.rate(y, v)
    if not lam >= 0.0:
        raise ModelDefinitionError(f"rate {lam!r} at t={t!r}, y={y!r}, v={v} is not a nonnegative number")
    bound = model.rate_bound
    if lam > bound and model.bound_policy == "error":
        raise RateBoundError(lam, bound, y, v)
    return lam, u * bound <= lam


def _jump(model: PDifMPModel, slots: tuple[float, float], t: float, y: tuple, v: int) -> tuple[tuple, int]:
    """The state ``(y, v)`` after a jump at time ``t``, with the proposal's
    kernel slots ``(mode uniform, magnitude uniform)``: the kernel samples
    the new mode, then the jump transform, if any, rescales ``y``."""
    u_mode, u_mag = slots
    v = sample_mode(model.kernel, y, v, u_mode)
    n_modes = len(model.modes)
    if v >= n_modes:
        raise ModelDefinitionError(f"kernel sampled mode {v} at t={t!r}; the model has {n_modes} modes")
    if model.jump_update is None:
        return y, v
    try:
        out = model.jump_update(y, v, u_mag)
    except OverflowError:
        raise SimulationDivergedError(t, y, "overflow in the continuous-state jump transform") from None
    if len(out) != len(y):
        raise ModelDefinitionError(f"jump transform returned {out!r} at t={t!r} for the state {y!r}")
    for c in out:
        if not math.isfinite(c):
            raise SimulationDivergedError(t, out, "jump transform left the finite range")
    return out, v


class _Side:
    """One integrator's part of a walk: its state and mode, its recorded
    rows, its jumps, hint excursions and rate counts."""

    __slots__ = ("integrator", "y", "v", "flat", "value_parts", "jump_times", "modes", "post_jumps",
                 "exc", "n_acc", "violations", "rmin", "rmax")

    def __init__(self, integrator, y: tuple, v: int, exc: list[int] | None) -> None:
        self.integrator = integrator
        self.y = y
        self.v = v
        self.flat: list[float] = list(y)
        self.value_parts: list[np.ndarray] = []
        self.jump_times: list[float] = [0.0]
        self.modes: list[int] = [v]
        self.post_jumps: list[float] = []
        self.exc = exc
        self.n_acc = 0
        self.violations = 0
        self.rmin = math.inf
        self.rmax = -math.inf


def _walk(
    model: PDifMPModel,
    integrators: tuple,
    stream: DriverStream,
    h: float,
    stride: int | None,
    first_jump: bool = False,
) -> list[Trajectory]:
    """One ``Trajectory`` per integrator, each stepped from the model's
    initial state over the ``_segments`` of ``stream`` as the module
    docstring describes.

    ``stride`` controls recording as in ``simulate_path``.  With
    ``first_jump`` (one side) the walk stops at the first accepted proposal
    without applying its jump.  With two sides a divergence error names the
    side (``a`` or ``b``) that failed first, and the two trajectories share
    one ``times`` array.
    """
    y, v = model.initial_state.y, model.initial_state.v
    hint = model.state_space_hint
    sides = []
    for integrator in integrators:
        sides.append(_Side(integrator, y, v, [0] * len(hint) if hint is not None else None))
    bound = model.rate_bound
    d = len(y)
    # with nothing inside a segment recorded or inspected, only its end
    # state is kept
    end_only = stride is None and hint is None
    # the start and the end-only segment ends as floats, the other
    # segments' recorded times as array parts; each side's flat and
    # value_parts hold the matching values
    times: list = [0.0]
    time_parts: list[np.ndarray] = []
    n_prop = 0
    n_cells = 0
    try:
        for k, t, grid, tested in _segments(model, stream, h):
            if grid is not None:
                n = grid.n_cells
                h_loc = grid.h_local
                # 0-based recorded cells; None keeps every cell, by slices
                keep = None
                if stride == 1:
                    time_parts.append(grid.points()[1:])
                elif not end_only:
                    # at the times grid.points() gives
                    keep = np.asarray(_recorded_cells(n, n_cells, stride)) - 1
                    ts = grid.left + h_loc * (keep + 1)
                    ts[-1] = grid.right
                    time_parts.append(ts)
                for start in range(0, n, _BLOCK):
                    dws = stream.wiener_block(n - start if n - start < _BLOCK else _BLOCK, h_loc)
                    cells = dws.tolist()
                    if keep is not None:
                        rows = keep[(keep >= start) & (keep < start + _BLOCK)] - start
                    for side in sides:
                        out: list[float] = []
                        try:
                            y_end = side.integrator.run_cells(model, side.y, side.v, h_loc, cells, out)
                            finite = all(map(math.isfinite, y_end))
                        except OverflowError:
                            finite = False
                        if not finite:
                            raise _flow_diverged(model, side.integrator, side.y, side.v, grid, start, dws)
                        side.y = y_end
                        if end_only:
                            continue
                        arr = np.array(out).reshape(-1, d)
                        if side.exc is not None:
                            for j, (lo, hi) in enumerate(hint):
                                side.exc[j] += int(np.count_nonzero((arr[:, j] < lo) | (arr[:, j] > hi)))
                        side.value_parts.append(arr if keep is None else arr[rows])
                if end_only:
                    times.append(grid.right)
                    for side in sides:
                        side.flat += side.y
                n_cells += n
            if not tested:
                break
            n_prop += 1
            u = stream.thinning_uniform(k)
            for side in sides:
                lam, accepted = _thinning_test(model, u, t, side.y, side.v)
                if lam < side.rmin:
                    side.rmin = lam
                if lam > side.rmax:
                    side.rmax = lam
                if lam > bound:
                    side.violations += 1
                if accepted:
                    side.n_acc += 1
                    if not first_jump:
                        side.y, side.v = _jump(model, stream.kernel_slots(k), t, side.y, side.v)
                        side.jump_times.append(t)
                        side.modes.append(side.v)
                        side.post_jumps += side.y
            if first_jump and accepted:
                break
    except SimulationDivergedError as err:
        # only a side's block or jump raises it, so ``side`` is the side that failed
        if len(sides) == 1:
            raise
        raise SimulationDivergedError(
            err.t, err.y, f"side {'ab'[sides.index(side)]}, {side.integrator.kind}: {err.detail}"
        ) from None

    times_arr = np.asarray(times)
    if time_parts:
        times_arr = np.concatenate([times_arr, *time_parts])
    trajectories = []
    for side in sides:
        values_arr = np.asarray(side.flat).reshape(-1, d)
        if time_parts:
            values_arr = np.concatenate([values_arr, *side.value_parts])
        stats = PathStats(
            n_proposals=n_prop,
            n_accepted=side.n_acc,
            n_cells=n_cells,
            bound_violations=side.violations,
            rate_min=side.rmin if n_prop else math.nan,
            rate_max=side.rmax if n_prop else math.nan,
            hint_excursions=tuple(side.exc) if side.exc is not None else (),
        )
        trajectories.append(
            Trajectory(
                times=times_arr,
                values=values_arr,
                jump_times=np.asarray(side.jump_times),
                interval_modes=np.asarray(side.modes, dtype=np.int64),
                post_jump_values=np.asarray(side.post_jumps).reshape(-1, d),
                stats=stats,
            )
        )
    return trajectories


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
    return _walk(model, (integrator,), stream, h, 1, first_jump=True)[0]


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
    return _walk(model, (integrator,), stream, h, stride)[0]


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
    a, b = _walk(model, (integrator_a, integrator_b), stream, h, stride)
    return a, b


def _squared_distances(pair: tuple[Trajectory, Trajectory]) -> np.ndarray:
    """Squared state distance at each grid index of a pair whose two sides
    must share one grid."""
    a, b = pair
    if len(a.times) != len(b.times) or not np.array_equal(a.times, b.times):
        raise CouplingBrokenError(
            f"coupled trajectories disagree on the grid ({len(a.times)} vs {len(b.times)} points)"
        )
    d = a.values - b.values
    return np.einsum("ij,ij->i", d, d)


def coupled_distance_rows(
    model: PDifMPModel,
    integrator_a,
    integrator_b,
    seed: int,
    path_ids,
    h: float,
) -> list[np.ndarray]:
    """The rows of squared distances of the coupled pairs on the streams
    ``(seed, path_id)``, one per path id in order.

    Each row is ``_squared_distances`` of ``simulate_coupled_pair`` at
    stride 1 on that stream, bit for bit.  When both integrators have a
    lane form (``run_lanes``), all the paths step together as one group of
    lanes.  A lane whose arithmetic overflows, whose model raises a
    ``ValueError`` or ``RuntimeError`` (a rate, bound, kernel or divergence
    error), or that ends a block non-finite sends the whole call to the
    scalar engine, which runs the pairs in path order and so raises the
    error of the first pair that fails.  Other integrators run on the scalar engine.
    """
    _check_args(h, 1)
    path_ids = list(path_ids)
    if hasattr(integrator_a, "run_lanes") and hasattr(integrator_b, "run_lanes"):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return _lockstep_rows(model, integrator_a, integrator_b, seed, path_ids, h)
        except (ArithmeticError, ValueError, RuntimeError):
            pass  # the scalar engine below meets the error first in path order
    stream = DriverStream(seed, 0)
    rows = []
    for path_id in path_ids:
        stream.reset(seed, path_id)
        rows.append(_squared_distances(simulate_coupled_pair(model, integrator_a, integrator_b, stream, h)))
    return rows


def _lockstep_rows(model: PDifMPModel, integrator_a, integrator_b, seed: int, path_ids: list, h: float):
    """``coupled_distance_rows`` of paths of a scalar state, all stepped
    together.

    One stream, re-keyed to each lane's path in turn, first lays out the
    lane's grid from its proposal times, as events (segment end, proposal,
    local step) closed by a zero-width segment past the level's last cell,
    which the lane steps once finished, and reads the thinning uniforms and
    kernel slots of the proposals the lane tests into two lists.  Re-keyed
    again, it draws each segment's Wiener increments straight into the
    lane's column of the rows, cell ``i``'s in row ``i``; a finished lane's
    cells stay 0.0.  All lanes then step from one cell index to the next at
    which some lane's segment ends, each with its own local step, and the
    stepped rows take the squared distances.  There a lane that tests a proposal runs, on side a and then
    side b, ``_thinning_test`` on its thinning uniform and, if accepted,
    ``_jump`` on its kernel slots, as ``_walk`` does over the stream.  A
    lane's one cursor is its next event.
    """
    n_lanes = len(path_ids)
    stream = DriverStream(seed, 0)
    # per lane, (cell index of the segment's end, k, t, tested, its local step)
    events = []
    # per lane, the thinning uniforms and kernel slots of proposals 1, 2, ...
    thinning = []
    kernel = []
    for path_id in path_ids:
        stream.reset(seed, path_id)
        lane, end = [], 0
        for k, t, grid, tested in _segments(model, stream, h):
            if grid is not None:
                end += grid.n_cells
            lane.append((end, k, t, tested, grid.h_local if grid is not None else 0.0))
        events.append(lane)
        # every proposal but the last is tested
        tested_k = range(1, k + 1 if tested else k)
        thinning.append([stream.thinning_uniform(i) for i in tested_k])
        kernel.append([stream.kernel_slots(i) for i in tested_k])
    n_cells = [lane[-1][0] for lane in events]
    last = max(n_cells)
    rows = np.zeros((last + 1, n_lanes))
    for j, (path_id, lane) in enumerate(zip(path_ids, events)):
        stream.reset(seed, path_id)
        start = 0
        for end, _, _, _, h_loc in lane:
            if end > start:
                rows[start + 1 : end + 1, j] = stream.wiener_block(end - start, h_loc)
                start = end
        lane.append((last + 1, None, None, False, 0.0))
    (y0,) = model.initial_state.y
    ya = np.full(n_lanes, y0)
    yb = np.full(n_lanes, y0)
    va = [model.initial_state.v] * n_lanes
    vb = list(va)
    h_lane = np.zeros(n_lanes)  # local step of each lane's segment
    next_event = [0] * n_lanes  # each lane's cursor into its events
    next_end = np.zeros(n_lanes, dtype=np.int64)  # the cursor's cell index
    width = max(1, _LANE_CELLS // n_lanes)
    c = 0
    while True:
        for j in np.flatnonzero(next_end == c).tolist():
            lane, i = events[j], next_event[j]
            while lane[i][0] == c:
                _, k, t, tested, _ = lane[i]
                if tested:
                    u, slots = thinning[j][k - 1], kernel[j][k - 1]
                    for ys, vs in ((ya, va), (yb, vb)):
                        y, v = (float(ys[j]),), vs[j]
                        if _thinning_test(model, u, t, y, v)[1]:
                            (ys[j],), vs[j] = _jump(model, slots, t, y, v)
                i += 1
            next_event[j] = i
            next_end[j], h_lane[j] = lane[i][0], lane[i][4]
        if c == last:
            break
        e = min(int(next_end.min()), c + width)
        cells = rows[c + 1 : e + 1]
        a = integrator_a.run_lanes(ya, h_lane, cells)
        b = integrator_b.run_lanes(yb, h_lane, cells)
        ya = a[-1].copy()
        yb = b[-1].copy()
        np.subtract(a, b, out=a)
        np.multiply(a, a, out=cells)
        if not (np.isfinite(ya).all() and np.isfinite(yb).all()):
            raise FloatingPointError("a lane left the finite range")
        c = e
    return [rows[: n + 1, j] for j, n in enumerate(n_cells)]
