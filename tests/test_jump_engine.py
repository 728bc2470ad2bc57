import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from pdifmp import (
    DriverStream,
    EulerMaruyama,
    ExactGBMFlow,
    JumpAdaptedGrid,
    build_model,
    fork_for_path,
    next_jump,
    simulate_coupled_pair,
    simulate_path,
)
from pdifmp import GliomaSplitting, ModeSet, jump_engine
from pdifmp.core import sample_mode
from pdifmp.errors import CounterOverflowError, ModelDefinitionError, RateBoundError, RunawayRateError
from pdifmp.flows import GbmEulerMaruyama, GliomaEulerMaruyama
from pdifmp.models import GliomaParams

from util import constant_rate_model, ks_statistic, uniform3_kernel


# -- jump-adapted grid -----------------------------------------------------------


def test_grid_equal_cells_and_exact_endpoint():
    g = JumpAdaptedGrid(0.0, 1.0, 0.3)
    assert g.n_cells == 3
    pts = g.points()
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.allclose(np.diff(pts), g.h_local)


def test_grid_short_interval_single_cell():
    g = JumpAdaptedGrid(2.0, 2.1, 0.5)
    assert g.n_cells == 1
    assert g.h_local == pytest.approx(0.1)


def test_grid_local_step_bounds():
    # cells lie in [h/2, 2h] on segments at least h long; a shorter segment
    # is one cell of its own length
    rng = np.random.default_rng(1)
    short = [(float(rng.uniform(0, 5)), float(rng.uniform(1e-9, 1.0)), 0.0625) for _ in range(100)]
    for _ in range(200):
        left = float(rng.uniform(0, 5))
        length = float(rng.uniform(1e-6, 3.0))
        h = float(rng.uniform(1e-3, 1.0))
        short.append((left, length * 1e-3, h))
        g = JumpAdaptedGrid(left, left + length, h)
        assert g.points()[-1] == left + length
        if length >= h:
            assert h / 2 <= g.h_local <= 2 * h
    for left, fraction, h in short:
        g = JumpAdaptedGrid(left, left + fraction * h, h)
        assert g.n_cells == 1
        assert g.h_local == g.right - g.left < h
        assert g.points()[-1] == g.right


def test_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        JumpAdaptedGrid(0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        JumpAdaptedGrid(0.0, 1.0, 0.0)


# -- thinning test and jump step ---------------------------------------------------


def proposals_within(stream: DriverStream, bound: float, horizon: float) -> list[float]:
    times = []
    while (t := stream.proposal_time(len(times) + 1, bound)) <= horizon:
        times.append(t)
    return times


def test_accept_at_bound_rate_always():
    model = constant_rate_model(rate=1.0, rate_bound=1.0, horizon=20.0)
    for pid in range(5):
        traj = simulate_path(model, EulerMaruyama(), fork_for_path(31, pid), h=0.5, stride=None)
        assert traj.stats.n_proposals > 0
        assert traj.jump_count == traj.stats.n_proposals


def test_accept_zero_rate_never():
    model = constant_rate_model(rate=0.0, rate_bound=1.0, horizon=20.0)
    for pid in range(5):
        traj = simulate_path(model, EulerMaruyama(), fork_for_path(31, pid), h=0.5, stride=None)
        assert traj.stats.n_proposals > 0
        assert traj.jump_count == 0


def test_accept_threshold_arithmetic():
    # the accepted jump times are exactly the proposal times T*_k with
    # U_k * rate_bound <= rate
    model = constant_rate_model(rate=0.5, rate_bound=1.0, horizon=20.0)
    for pid in range(5):
        traj = simulate_path(model, EulerMaruyama(), fork_for_path(37, pid), h=0.5, stride=None)
        fresh = fork_for_path(37, pid)
        times = proposals_within(fresh, 1.0, 20.0)
        accepted = [t for k, t in enumerate(times, 1) if fresh.thinning_uniform(k) * 1.0 <= 0.5]
        assert 0 < len(accepted) < len(times)
        assert traj.jump_times[1:].tolist() == accepted


def test_accept_at_equality():
    # the rule is U_k * rate_bound <= rate: a rate equal to U_1 * rate_bound,
    # with U_1 read from an independently keyed Philox, accepts proposal 1
    seed, path_id, bound = 43, 2, 0.75
    key = np.array([seed, (path_id << 3) | 1], dtype=np.uint64)
    u1 = np.random.Generator(np.random.Philox(key=key)).random()
    model = constant_rate_model(rate=u1 * bound, rate_bound=bound, horizon=20.0)
    traj = next_jump(model, EulerMaruyama(), fork_for_path(seed, path_id), h=0.5)
    assert traj.stats.n_proposals == 1 and traj.stats.n_accepted == 1


def test_accept_raises_on_bound_violation():
    model = constant_rate_model(rate=2.0, rate_bound=1.0)
    with pytest.raises(RateBoundError):
        simulate_path(model, EulerMaruyama(), fork_for_path(1, 0), h=0.125)
    with pytest.raises(RateBoundError):
        next_jump(model, EulerMaruyama(), fork_for_path(1, 0), h=0.125)


@pytest.mark.parametrize("rate", [math.nan, -0.5])
def test_rate_outside_nonnegative_numbers_is_an_error(rate):
    # such a rate would otherwise reject every proposal without a trace
    model = constant_rate_model(rate=rate, rate_bound=1.0, horizon=5.0)
    t = fork_for_path(1, 0).proposal_time(1, 1.0)
    assert t < 5.0
    match = re.escape(f"rate {rate!r} at t={t!r}, y=(1.0,), v=0 is not a nonnegative number")
    with pytest.raises(ModelDefinitionError, match=match):
        simulate_path(model, EulerMaruyama(), fork_for_path(1, 0), h=0.125)
    with pytest.raises(ModelDefinitionError, match=match):
        simulate_coupled_pair(model, EulerMaruyama(), EulerMaruyama(), fork_for_path(1, 0), h=0.125, stride=None)


@pytest.mark.parametrize("stride", [1, None])
def test_jump_transform_must_keep_the_state_size(stride):
    # the GBM kernel reads only y[0], so without the check the extra
    # component would reach the recorded arrays
    model = dataclasses.replace(
        constant_rate_model(rate=1.0, rate_bound=1.0, horizon=5.0), jump_update=lambda y, v, u: (y[0], 0.0)
    )
    with pytest.raises(ModelDefinitionError, match=r"jump transform returned \(.*, 0\.0\) at t=.* for the state"):
        simulate_path(model, GbmEulerMaruyama(mu=0.1, sigma=0.2), fork_for_path(1, 0), h=0.125, stride=stride)


def test_apply_jump_preserves_continuous_state():
    # without a jump transform the state right after a jump is the flow
    # endpoint next_jump stops at, bit for bit, and the mode flips
    model = constant_rate_model(
        rate=0.5,
        rate_bound=1.0,
        drift=lambda y, v: (0.1 * y[0],),
        diffusion=lambda y, v: (0.2 * y[0],),
        horizon=10.0,
    )
    jumped = 0
    for pid in range(5):
        first = next_jump(model, EulerMaruyama(), fork_for_path(43, pid), h=0.125)
        traj = simulate_path(model, EulerMaruyama(), fork_for_path(43, pid), h=0.125)
        assert first.stats.n_accepted == min(traj.jump_count, 1) and first.jump_count == 0
        if first.stats.n_accepted:
            jumped += 1
            assert traj.jump_times[1] == first.times[-1]
            assert np.array_equal(traj.post_jump_values[0], first.values[-1])
            assert traj.interval_modes[1] == 1
    assert jumped > 0


def test_apply_jump_exponential_magnitude():
    # example1 multiplies y by exp(eta), eta = -log1p(-u) / magnitude_rate,
    # with u the magnitude uniform of the accepted proposal's kernel pair
    built = build_model("example1", rate_value=0.5, rate_bound=1.0, magnitude_rate=0.5, horizon=4.0)
    for pid in range(5):
        traj = simulate_path(built.model, built.em, fork_for_path(47, pid), h=0.125)
        fresh = fork_for_path(47, pid)
        times = proposals_within(fresh, 1.0, 4.0)
        assert traj.jump_count > 0
        for n, t in enumerate(traj.jump_times[1:]):
            u = fresh.kernel_slots(times.index(t) + 1)[1]
            pre = traj.values[np.searchsorted(traj.times, t), 0]
            assert traj.post_jump_values[n, 0] == pre * math.exp(-math.log1p(-u) / 0.5)


def test_apply_jump_samples_the_mode_with_the_mode_uniform():
    # the kernel is uniform over the three other modes, and every proposal
    # is accepted: jump k's mode is the one proposal k's mode uniform picks
    model = dataclasses.replace(
        constant_rate_model(rate=1.0, rate_bound=1.0, horizon=20.0),
        modes=ModeSet((0, 1, 2, 3)),
        kernel=uniform3_kernel(),
    )
    traj = simulate_path(model, EulerMaruyama(), fork_for_path(53, 0), h=0.5, stride=None)
    fresh = fork_for_path(53, 0)
    modes = traj.interval_modes.tolist()
    assert len(modes) > 10
    for k in range(1, len(modes)):
        u_mode, _ = fresh.kernel_slots(k)
        assert modes[k] == sample_mode(model.kernel, (1.0,), modes[k - 1], u_mode)


# -- next_jump --------------------------------------------------------------------


def test_next_jump_zero_rate_runs_to_horizon():
    model = constant_rate_model(
        rate=0.0,
        rate_bound=1.0,
        drift=lambda y, v: (0.3 * y[0],),
        horizon=2.0,
    )
    traj = next_jump(model, EulerMaruyama(), fork_for_path(1, 0), h=0.125)
    assert traj.stats.n_accepted == 0 and traj.stats.n_proposals > 0
    assert traj.times[-1] == 2.0
    # every rejected proposal ends a segment; the trajectory equals the pure
    # Euler flow composed over the realised cells
    widths = np.diff(traj.times)
    assert np.all(widths > 0) and np.all(widths <= 2 * 0.125)
    expected = float(np.prod(1.0 + 0.3 * widths))
    assert traj.values[-1, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("rate,bound", [(1.0, 1.0), (0.5, 1.0), (0.3, 2.0)])
def test_first_jump_times_are_exponential(rate, bound):
    model = constant_rate_model(rate=rate, rate_bound=bound, horizon=200.0)
    n = 2000
    samples = []
    for pid in range(n):
        traj = next_jump(model, EulerMaruyama(), fork_for_path(97, pid), h=0.5)
        assert traj.stats.n_accepted == 1
        samples.append(float(traj.times[-1]))
    d = ks_statistic(samples, lambda t: 1.0 - math.exp(-rate * t))
    assert d < 1.36 / math.sqrt(n)


def test_thinning_long_run_rate():
    # accepted-event rate ~ rate over a long horizon
    model = constant_rate_model(rate=1.0, rate_bound=2.0, horizon=1000.0)
    traj = simulate_path(model, EulerMaruyama(), fork_for_path(3, 0), h=0.5, stride=None)
    rate_hat = traj.jump_count / 1000.0
    se = math.sqrt(1000.0) / 1000.0
    assert abs(rate_hat - 1.0) < 3 * se
    assert traj.stats.n_accepted <= traj.stats.n_proposals


def test_extreme_jump_magnitude_aborts_with_structured_error():
    # a tiny magnitude rate makes e^eta overflow; the path must abort with
    # the structured divergence error, not a raw arithmetic one
    from pdifmp.errors import SimulationDivergedError

    built = build_model("example1", rate_value=1.0, magnitude_rate=1e-4)
    with pytest.raises(SimulationDivergedError):
        simulate_path(built.model, built.em, fork_for_path(3, 1), h=0.25)


def test_coupled_divergence_names_side_and_integrator():
    from pdifmp.errors import SimulationDivergedError

    built = build_model("example1", rate_value=1.0, magnitude_rate=1e-4)
    with pytest.raises(SimulationDivergedError, match="side a, euler_maruyama: overflow in the"):
        simulate_coupled_pair(built.model, built.em, built.exact, fork_for_path(3, 1), h=0.25)
    # representable jumps: only the second side's flow overflows, and the
    # pair draws what that flow's single path draws before it fails
    def single_failure(model, flow):
        stream = fork_for_path(3, 1)
        with pytest.raises(SimulationDivergedError) as info:
            simulate_path(model, flow, stream, h=0.25)
        return info.value, stream.counters

    calm = build_model("example1", rate_value=1.0, magnitude_rate=1.0)
    runaway = ExactGBMFlow(mu=1e6, sigma=0.0)
    stream = fork_for_path(3, 1)
    with pytest.raises(SimulationDivergedError, match="side b, exact_gbm: overflow in the flow"):
        simulate_coupled_pair(calm.model, calm.em, runaway, stream, h=0.25)
    assert stream.counters == single_failure(calm.model, runaway)[1]
    # both sides fail, side b in the second segment (block) and side a in
    # the fifth: the pair raises side b's error
    late, early = ExactGBMFlow(mu=1000.0, sigma=0.0), ExactGBMFlow(mu=2000.0, sigma=0.0)
    (err, counters), (late_err, _) = single_failure(calm.model, early), single_failure(calm.model, late)
    assert err.t < late_err.t
    stream = fork_for_path(3, 1)
    with pytest.raises(SimulationDivergedError) as info:
        simulate_coupled_pair(calm.model, late, early, stream, h=0.25)
    assert (info.value.t, info.value.y) == (err.t, err.y)
    assert info.value.detail == f"side b, exact_gbm: {err.detail}"
    assert stream.counters == counters


def divergence_cases():
    # (integrator, constant_rate_model arguments, error kind); every model
    # runs in mode 0, whose velocity is 0 for the migration integrators,
    # over a horizon of 5 unless given
    slow = GliomaParams(a=10.2, b=0.2)
    nonfinite = "left the finite range"
    return {
        "generic_em_nonfinite": (EulerMaruyama(), dict(y0=(1.0,), drift=lambda y, v: (1.5e8 * y[0],)), nonfinite),
        "generic_em_overflow": (EulerMaruyama(), dict(y0=(1.0,), drift=lambda y, v: (math.exp(y[0]),)), "overflow"),
        "gbm_em_nonfinite": (GbmEulerMaruyama(mu=1.5e8, sigma=0.1), dict(y0=(1.0,)), nonfinite),
        "exact_nonfinite": (ExactGBMFlow(1400.0, 0.0), dict(y0=(1.0,)), nonfinite),
        "exact_overflow": (ExactGBMFlow(1.79e7, 6000.0), dict(y0=(1.0,)), "overflow"),
        # one 6000-cell segment that turns non-finite in its second block
        "exact_nonfinite_block2": (ExactGBMFlow(15.0, 0.0), dict(y0=(1.0,), horizon=60.0), nonfinite),
        "glioma_em_nonfinite": (GliomaEulerMaruyama(GliomaParams()), dict(y0=(1.0, 1e3)), nonfinite),
        "glioma_em_overflow": (GliomaEulerMaruyama(slow), dict(y0=(-1.0, 1.0)), "overflow"),
        "splitting_nonfinite": (GliomaSplitting(GliomaParams(a=100.2, b=0.2)), dict(y0=(1.0, 14.0)), nonfinite),
        "splitting_overflow": (GliomaSplitting(slow), dict(y0=(-1.0, 1.0)), "overflow"),
    }


@pytest.mark.parametrize("case", list(divergence_cases()))
def test_block_divergence_matches_stepping(case):
    # a path that turns non-finite, or whose exp overflows, inside a block
    # raises at every stride what the rule gives when its cells are stepped
    # one at a time: the first cell that raises OverflowError is reported
    # with its input state at its left end, the first that returns a
    # non-finite row with that row at its right end
    from pdifmp.errors import SimulationDivergedError

    integrator, spec, kind = divergence_cases()[case]
    model = constant_rate_model(rate=0.0, rate_bound=0.01, **{"horizon": 5.0, **spec})
    h = 0.01
    y, v = model.initial_state.y, 0
    expected = None
    stream = fork_for_path(2, 0)
    for _, _, grid, _ in jump_engine._segments(model, stream, h):
        if grid is None:
            continue
        pts = grid.points()
        dws = stream.wiener_block(grid.n_cells, grid.h_local)
        for i, dw in enumerate(dws.tolist()):
            try:
                row = integrator.step(model, y, v, grid.h_local, dw)
            except OverflowError:
                expected = (float(pts[i]), y, "overflow")
                break
            if not all(map(math.isfinite, row)):
                expected = (float(pts[i + 1]), row, "left the finite range")
                break
            y = row
        if expected is not None:
            break
    assert expected is not None and expected[2] == kind
    assert 0 < i < grid.n_cells - 1
    for stride in (1, 7, None):
        with pytest.raises(SimulationDivergedError) as info:
            simulate_path(model, integrator, fork_for_path(2, 0), h=h, stride=stride)
        assert repr((info.value.t, info.value.y)) == repr(expected[:2])
        assert expected[2] in info.value.detail


def test_divergence_reports_the_time_its_state_holds():
    # a factor e^14 per cell of 0.01: inf first appears at cell 51 of 500
    from pdifmp.errors import SimulationDivergedError

    model = constant_rate_model(rate=0.0, rate_bound=0.01, horizon=5.0, y0=(1.0,))
    with pytest.raises(SimulationDivergedError) as info:
        simulate_path(model, ExactGBMFlow(1400.0, 0.0), DriverStream(2, 0), h=0.01)
    assert (info.value.t, info.value.y) == (0.51, (math.inf,))


def test_runaway_proposals_raise(monkeypatch):
    monkeypatch.setattr(jump_engine, "PROPOSAL_CAP", 50)
    model = constant_rate_model(rate=0.0, rate_bound=1e6, horizon=1.0)
    with pytest.raises(RunawayRateError, match="proposal cap 50 exceeded"):
        simulate_path(model, EulerMaruyama(), fork_for_path(1, 0), h=0.1)


# -- simulate_path ----------------------------------------------------------------


def test_zero_rate_exact_flow_reproduces_exponential():
    built = build_model("example1", rate_value=0.0, sigma=0.0, mu=0.05)
    traj = simulate_path(built.model, built.exact, fork_for_path(2, 0), h=0.125)
    assert traj.jump_count == 0
    expected = 50.0 * np.exp(0.05 * traj.times)
    assert np.allclose(traj.values[:, 0], expected, rtol=1e-12)


@pytest.mark.slow
def test_jump_frequency_matches_tiny_rate():
    # frequency of paths with a jump ~ 1e-4 within 3 binomial se; a unit
    # magnitude rate keeps the multiplicative jumps representable
    built = build_model("example1", magnitude_rate=1.0)  # rate 1e-4, horizon 1
    n = 100_000
    jumps = 0
    stream = fork_for_path(0, 0)
    for pid in range(n):
        stream.reset(2024, pid)
        traj = simulate_path(built.model, built.em, stream, h=0.25, stride=None)
        jumps += traj.jump_count
    p = 1e-4
    se = math.sqrt(p * (1 - p) / n)
    assert abs(jumps / n - p) < 3 * se


def test_grid_contains_proposals_and_jumps():
    model = constant_rate_model(rate=2.0, rate_bound=5.0, horizon=2.0)
    stream = fork_for_path(11, 4)
    traj = simulate_path(model, EulerMaruyama(), stream, h=0.3)
    traj.validate(2.0)
    proposals = [t for t in stream._proposal_times if t <= 2.0]
    for t in proposals:
        i = np.searchsorted(traj.times, t)
        assert traj.times[i] == t
    for t in traj.jump_times[1:]:
        assert t in stream._proposal_times


def test_counting_bound_pathwise():
    model = constant_rate_model(rate=0.7, rate_bound=1.5, horizon=20.0)
    for pid in range(20):
        traj = simulate_path(model, EulerMaruyama(), fork_for_path(29, pid), h=0.25, stride=None)
        assert traj.jump_count == traj.stats.n_accepted <= traj.stats.n_proposals


def test_mode_is_piecewise_constant_and_y_continuous():
    model = constant_rate_model(
        rate=1.0,
        rate_bound=1.0,
        drift=lambda y, v: (0.1 * y[0],),
        diffusion=lambda y, v: (0.2 * y[0],),
        horizon=5.0,
    )
    traj = simulate_path(model, EulerMaruyama(), fork_for_path(5, 1), h=0.125)
    traj.validate(5.0)
    # identity jump transform: the continuous state is identical on both
    # sides of every jump, bit for bit
    for j, t in enumerate(traj.jump_times[1:]):
        i = np.searchsorted(traj.times, t)
        assert np.array_equal(traj.post_jump_values[j], traj.values[i])
    # modes flip 0 -> 1 -> 0 ...
    assert np.array_equal(traj.interval_modes, np.arange(traj.jump_count + 1) % 2)


def test_counter_overflow_raises():
    built = build_model("weak_test", counter_capacity=1, rate_value=50.0, rate_bound=50.0)
    with pytest.raises(CounterOverflowError):
        simulate_path(built.model, built.em, fork_for_path(1, 0), h=0.01)


def test_stride_none_keeps_event_endpoints():
    model = constant_rate_model(rate=1.0, rate_bound=1.0, horizon=5.0)
    full = simulate_path(model, EulerMaruyama(), fork_for_path(8, 0), h=0.125, stride=1)
    sparse = simulate_path(model, EulerMaruyama(), fork_for_path(8, 0), h=0.125, stride=None)
    assert np.array_equal(full.jump_times, sparse.jump_times)
    assert set(np.asarray(sparse.times)) <= set(np.asarray(full.times))
    sparse.validate(5.0)


def test_stride_must_be_positive_or_none():
    # a float or bool stride is refused, not truncated or read as 1
    model = constant_rate_model(rate=0.5, rate_bound=1.0)
    for stride in (0, 2.5, True):
        with pytest.raises(ValueError, match="stride"):
            simulate_path(model, EulerMaruyama(), fork_for_path(1, 0), h=0.25, stride=stride)


def assert_stride_recording(built, other, h):
    """Strides 7, 1000 and None record exactly the stride-1 rows of every
    stride-th cell and every segment's last cell, and the same counts; the
    two sides of a coupled pair with ``other`` record the times and values
    of single runs of each integrator at the same stride."""
    model = built.model
    segments = jump_engine._segments(model, fork_for_path(21, 0), h)
    lengths = [grid.n_cells for _, _, grid, _ in segments if grid is not None]
    assert max(lengths) > 4096
    ends = np.cumsum([0] + lengths)
    full = simulate_path(model, built.em, fork_for_path(21, 0), h=h, stride=1)
    assert full.stats.hint_excursions == tuple(
        int(np.count_nonzero((full.values[1:, j] < lo) | (full.values[1:, j] > hi)))
        for j, (lo, hi) in enumerate(model.state_space_hint or ())
    )
    assert all(type(c) is int for c in full.stats.hint_excursions)
    cells = np.arange(full.stats.n_cells + 1)
    for stride in (7, 1000, None):
        keep = np.isin(cells, ends) | (cells % (stride or len(cells)) == 0)
        sparse = simulate_path(model, built.em, fork_for_path(21, 0), h=h, stride=stride)
        assert np.array_equal(sparse.times, full.times[keep])
        assert np.array_equal(sparse.values, full.values[keep])
        assert sparse.stats.n_cells == full.stats.n_cells
        assert sparse.stats.hint_excursions == full.stats.hint_excursions
        a, b = simulate_coupled_pair(model, built.em, other, fork_for_path(21, 0), h=h, stride=stride)
        other_single = simulate_path(model, other, fork_for_path(21, 0), h=h, stride=stride)
        assert np.array_equal(a.times, sparse.times) and np.array_equal(b.times, sparse.times)
        assert np.array_equal(a.values, sparse.values)
        assert np.array_equal(b.values, other_single.values)
    return lengths, full


def test_stride_recording_preserves_values():
    # segments longer than one block of stepped cells (4096); glioma has two
    # in a row and its x leaves the hint
    example2 = build_model("example2", as_published=True)
    assert_stride_recording(example2, example2.exact, 2.0**-13)
    glioma = build_model("glioma", lambda0=0.7, x0=0.9, horizon=3.0)
    lengths, full = assert_stride_recording(glioma, glioma.splitting, 1e-4)
    assert len(lengths) > 1 and full.stats.hint_excursions[0] > 0


@pytest.mark.slow
def test_long_segment_memory_is_bounded_by_one_block():
    # a single path and a coupled pair draw and step a long segment one
    # 4096-cell block at a time, both sides of the pair stepping each block
    # before the next is drawn, and compute only the recorded times: the
    # traced peak over one proposal-free glioma segment of 10^5 cells stays
    # within 256 KB of that over a 2.5e4-cell segment (a whole-segment
    # Wiener block and time grid would add about 1.6 MB)
    def path(built, stream, stride):
        return (simulate_path(built.model, built.em, stream, h=1e-4, stride=stride),)

    def pair(built, stream, stride):
        return simulate_coupled_pair(built.model, built.em, built.splitting, stream, h=1e-4, stride=stride)

    def traced_peak(run, horizon, stride):
        built = build_model("glioma", lambda0=0.01, lambda1=0.0, horizon=horizon)
        tracemalloc.start()
        try:
            trajs = run(built, fork_for_path(7, 1), stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_cells = trajs[0].stats.n_cells
        for traj in trajs:
            assert traj.stats.n_proposals == 0 and len(traj.times) == (n_cells // stride if stride else 1) + 1
        return peak, n_cells

    for run, stride in ((path, 1000), (pair, 1000), (pair, None)):
        traced_peak(run, 0.1, stride)  # numpy's and the flows' first-call set-up is not a path's
        (short, n_short), (long, n_long) = traced_peak(run, 2.5, stride), traced_peak(run, 10.0, stride)
        assert n_short == 25_000 and n_long == 100_000
        assert long - short < 256 * 1024, (run.__name__, stride, long - short)


# -- coupling ---------------------------------------------------------------------


def test_coupled_identity_when_jumps_mode_only():
    # rate and kernel depend only on the mode: both sides jump identically
    built = build_model("example1", rate_value=0.5, sigma=0.01)
    for pid in range(10):
        a, b = simulate_coupled_pair(
            built.model, built.em, built.exact, fork_for_path(41, pid), h=0.125
        )
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.interval_modes, b.interval_modes)


def test_coupled_pair_matches_single_runs():
    built = build_model("example2", as_published=True)
    for pid in range(5):
        em_single = simulate_path(built.model, built.em, fork_for_path(53, pid), h=1 / 64)
        ex_single = simulate_path(built.model, built.exact, fork_for_path(53, pid), h=1 / 64)
        a, b = simulate_coupled_pair(
            built.model, built.em, built.exact, fork_for_path(53, pid), h=1 / 64
        )
        assert np.array_equal(a.values, em_single.values)
        assert np.array_equal(b.values, ex_single.values)
        assert np.array_equal(a.times, em_single.times)


def coupling_diverged(pair) -> bool:
    # the two sides disagree on jump times or mode sequences
    a, b = pair
    return not (
        np.array_equal(a.jump_times, b.jump_times) and np.array_equal(a.interval_modes, b.interval_modes)
    )


def test_state_dependent_divergence_rate_does_not_grow_when_h_shrinks():
    # corrected bound for the state-proportional rate: acceptance decisions
    # can differ between the two sides, with probability vanishing in h
    built = build_model("example2", y_max=300.0)
    counts = {}
    n = 2000
    for h in (2.0**-2, 2.0**-6):
        diverged = 0
        stream = fork_for_path(0, 0)
        for pid in range(n):
            stream.reset(67, pid)
            pair = simulate_coupled_pair(built.model, built.em, built.exact, stream, h=h)
            diverged += coupling_diverged(pair)
        counts[h] = diverged
    se = math.sqrt(max(counts[2.0**-2], 1.0))
    assert counts[2.0**-6] <= counts[2.0**-2] + 3 * se


def test_zero_noise_coupled_error_scales_linearly():
    # deterministic exponential: Euler error vs exact halves with h
    built = build_model("example1", rate_value=0.0, sigma=0.0, mu=0.5)
    errs = []
    for h in (2.0**-4, 2.0**-5):
        a, b = simulate_coupled_pair(
            built.model, built.em, built.exact, fork_for_path(2, 0), h=h
        )
        errs.append(float(np.max(np.abs(a.values - b.values))))
    ratio = errs[0] / errs[1]
    assert 1.5 < ratio < 3.0


def test_rate_bound_violation_raises_in_strict_mode():
    # rate(y0) = 0.5 >> declared bound 0.01: the first proposal must raise
    built = build_model("example2", rate_bound=0.01, sigma=0.0, horizon=2000.0)
    with pytest.raises(RateBoundError):
        simulate_path(built.model, built.em, fork_for_path(1, 0), h=50.0)


def test_rate_bound_violation_counted_when_published_config():
    # published bound 0.001 sits far below rate(y0) = 0.5: every proposal
    # violates the bound (counted, not raised) and is accepted
    built = build_model("example2", as_published=True, sigma=0.0, horizon=5000.0)
    traj = simulate_path(built.model, built.em, fork_for_path(1, 0), h=100.0)
    assert traj.stats.n_proposals > 0
    assert traj.stats.bound_violations == traj.stats.n_proposals
    assert traj.jump_count == traj.stats.n_proposals


def test_first_jump_law_under_thinning_matches_scipy():
    # cross-check the KS oracle itself against scipy on one configuration
    model = constant_rate_model(rate=0.5, rate_bound=1.0, horizon=200.0)
    samples = []
    for pid in range(2000):
        traj = next_jump(model, EulerMaruyama(), fork_for_path(7, pid), h=0.5)
        samples.append(float(traj.times[-1]))
    ours = ks_statistic(samples, lambda t: 1.0 - math.exp(-0.5 * t))
    theirs = scipy_stats.kstest(samples, scipy_stats.expon(scale=2.0).cdf).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


# -- properties -------------------------------------------------------------------


def _trajectory_bytes(traj) -> tuple:
    arrays = (traj.times, traj.values, traj.jump_times, traj.interval_modes, traj.post_jump_values)
    return tuple((str(a.dtype), a.shape, a.tobytes()) for a in arrays) + (repr(traj.stats),)


@settings(max_examples=50, deadline=None)
@given(
    rate_bound=st.floats(min_value=0.1, max_value=8.0),
    rate_share=st.floats(min_value=0.0, max_value=1.0),
    h=st.floats(min_value=1e-3, max_value=0.5),
    horizon=st.floats(min_value=0.05, max_value=3.0),
    stride=st.sampled_from([1, 3, None]),
    path_id=st.integers(min_value=0, max_value=1 << 40),
)
def test_engine_properties(rate_bound, rate_share, h, horizon, stride, path_id):
    model = constant_rate_model(
        rate=rate_share * rate_bound,
        rate_bound=rate_bound,
        drift=lambda y, v: ((0.3 if v == 0 else -0.2) * y[0],),
        diffusion=lambda y, v: (0.4 * y[0],),
        horizon=horizon,
    )
    em = EulerMaruyama()
    traj = simulate_path(model, em, fork_for_path(17, path_id), h, stride=stride)
    traj.validate(horizon)
    assert traj.values.shape == (len(traj.times), 1) and traj.values.dtype == np.float64
    assert traj.post_jump_values.shape == (traj.jump_count, 1) and traj.post_jump_values.dtype == np.float64
    assert traj.times[-1] == horizon
    assert traj.jump_count == traj.stats.n_accepted <= traj.stats.n_proposals

    a, b = simulate_coupled_pair(model, em, em, fork_for_path(17, path_id), h, stride=stride)
    assert _trajectory_bytes(a) == _trajectory_bytes(b) == _trajectory_bytes(traj)

    stream = DriverStream(3, 1)
    simulate_path(model, em, stream, h, stride=stride)
    stream.reset(17, path_id)
    assert _trajectory_bytes(simulate_path(model, em, stream, h, stride=stride)) == _trajectory_bytes(traj)


# -- lockstep lanes -----------------------------------------------------------------


def scalar_rows(built, seed, path_ids, h):
    return [
        jump_engine._squared_distances(
            simulate_coupled_pair(built.model, built.em, built.exact, fork_for_path(seed, pid), h=h)
        )
        for pid in path_ids
    ]


def lockstep_rows(monkeypatch, built, seed, path_ids, h):
    """``coupled_distance_rows`` with the scalar engine out of its reach, so
    the rows come from the lanes."""
    def scalar(*args, **kwargs):
        raise AssertionError("the lanes fell back to the scalar engine")

    with monkeypatch.context() as m:
        m.setattr(jump_engine, "simulate_coupled_pair", scalar)
        return jump_engine.coupled_distance_rows(built.model, built.em, built.exact, seed, path_ids, h)


LOCKSTEP_MODELS = {
    "example1": ("example1", {}),
    "example2-published": ("example2", {"as_published": True}),
    "example2-jumps": ("example2", {"rate_value": 0.02}),
    "weak_test": ("weak_test", {}),
}


@pytest.mark.parametrize("lanes", [1, 100])
@pytest.mark.parametrize("case", sorted(LOCKSTEP_MODELS))
def test_lockstep_rows_match_coupled_pairs(monkeypatch, case, lanes):
    # every lane's row is the scalar pair's, bit for bit and of its length;
    # a small block cap makes segments cross block boundaries, and a block
    # as wide as the first lane's first segment starts the next block at
    # that segment's end
    model_id, overrides = LOCKSTEP_MODELS[case]
    built = build_model(model_id, **overrides)
    path_ids = range(5, 5 + lanes)
    first = next(jump_engine._segments(built.model, fork_for_path(29, 5), 2.0**-6))[2].n_cells
    for h, cap in ((2.0**-5, jump_engine._LANE_CELLS), (2.0**-7, 37 * lanes), (2.0**-6, first * lanes)):
        monkeypatch.setattr(jump_engine, "_LANE_CELLS", cap)
        want = scalar_rows(built, 29, path_ids, h)
        got = lockstep_rows(monkeypatch, built, 29, path_ids, h)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        if case == "example2-jumps" and lanes == 100:
            # the pairs jump, so the lanes' grids are ragged
            assert len({len(w) for w in want}) > 2


def test_lockstep_wide_level_and_strong_error_match(monkeypatch):
    # a level of 300 paths steps as one group of lanes; the rows reduce to
    # the bits strong_error gives over the scalar pairs, summed in path
    # order over the indices every path has
    from pdifmp.analysis import strong_error, strong_error_of_rows

    built = build_model("example2", rate_value=0.02)
    path_ids = range(40, 340)
    h = 2.0**-7
    rows = lockstep_rows(monkeypatch, built, 3, path_ids, h)
    want = scalar_rows(built, 3, path_ids, h)
    assert [r.tobytes() for r in rows] == [r.tobytes() for r in want]
    pairs = (
        simulate_coupled_pair(built.model, built.em, built.exact, fork_for_path(3, pid), h=h)
        for pid in path_ids
    )
    rmse, se = strong_error_of_rows(rows)
    assert repr((rmse, se)) == repr(strong_error(pairs))
    common = min(len(r) for r in want)
    assert len({len(r) for r in want}) > 1
    acc = np.zeros(common)
    for r in want:
        acc += r[:common]
    assert rmse == float(np.sqrt(np.max(acc) / len(want)))


def test_lockstep_lanes_are_reentrant(monkeypatch):
    # two threads step levels at once, and nothing serialises them: each
    # thread's rows equal the serial rows byte for byte
    import threading

    built = build_model("example2", rate_value=0.02)
    monkeypatch.setattr(jump_engine, "simulate_coupled_pair", None)  # the lanes may not fall back

    def rows(seed):
        got = jump_engine.coupled_distance_rows(built.model, built.em, built.exact, seed, range(150), 2.0**-7)
        return [r.tobytes() for r in got]

    want = {seed: rows(seed) for seed in (29, 31)}
    got = {seed: [] for seed in want}
    start = threading.Barrier(len(want))

    def run(seed):
        start.wait()
        for _ in range(3):
            got[seed].append(rows(seed))

    threads = [threading.Thread(target=run, args=(seed,)) for seed in want]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == {seed: [w] * 3 for seed, w in want.items()}


def test_integrators_without_lane_form_run_on_the_scalar_engine():
    built = build_model("glioma", lambda0=0.7, horizon=0.5)
    got = jump_engine.coupled_distance_rows(built.model, built.em, built.splitting, 2, range(3), 0.01)
    want = [
        jump_engine._squared_distances(
            simulate_coupled_pair(built.model, built.em, built.splitting, fork_for_path(2, pid), h=0.01)
        )
        for pid in range(3)
    ]
    assert [r.tobytes() for r in got] == [r.tobytes() for r in want]


def scalar_error(built, seed, path_ids, h) -> str:
    with pytest.raises(Exception) as info:
        scalar_rows(built, seed, path_ids, h)
    return f"{type(info.value).__name__}: {info.value}"


@pytest.mark.parametrize("lanes", [1, 100])
@pytest.mark.parametrize(
    "overrides",
    [
        # sigma y dW overflows numpy's product in a few cells on every lane
        {"sigma": 1e100},
        # a jump factor e^eta, eta of mean 1000, overflows the jump transform
        # at the first accepted jump; lanes jump at different times, and the
        # error is that of the first path in path order
        {"rate_value": 50.0, "magnitude_rate": 1e-3},
    ],
    ids=["flow", "jump"],
)
def test_lockstep_failure_raises_the_scalar_error(overrides, lanes):
    import warnings

    built = build_model("example1", **overrides)
    path_ids = list(range(lanes, 0, -1))
    expected = scalar_error(built, 8, path_ids, 2.0**-5)
    assert "SimulationDivergedError" in expected
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(Exception) as info:
            jump_engine.coupled_distance_rows(built.model, built.em, built.exact, 8, path_ids, 2.0**-5)
    assert f"{type(info.value).__name__}: {info.value}" == expected
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def test_lockstep_level_memory_is_its_rows_and_one_block():
    # one 100-lane level at h = 2^-12 holds its rows, 4097 x 100 floats, and
    # at most one capped block of lane-cells (at about 100 bytes each); a
    # warm-up level first makes what numpy and the drivers keep across calls
    built = build_model("example2", as_published=True)
    lockstep = jump_engine.coupled_distance_rows
    lockstep(built.model, built.em, built.exact, 5, range(100), 2.0**-6)
    tracemalloc.start()
    try:
        rows = lockstep(built.model, built.em, built.exact, 5, range(100, 200), 2.0**-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(r) for r in rows] == [4097] * 100
    assert peak - 4097 * 100 * 8 < 128 * jump_engine._LANE_CELLS
