import math

import numpy as np
import pytest

from pdifmp import (
    ConvergenceReport,
    Trajectory,
    build_model,
    fit_slope,
    fork_for_path,
    grow_weak_error_estimate,
    simulate_coupled_pair,
    strong_rmse,
    sup_difference,
)
from pdifmp.core import PathStats
from pdifmp.errors import CouplingBrokenError

from util import ks_statistic


def make_traj(times, values):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return Trajectory(
        times=np.asarray(times, dtype=float),
        values=values,
        jump_times=np.array([0.0]),
        interval_modes=np.array([0]),
        post_jump_values=np.empty((0, values.shape[1])),
        stats=PathStats(),
    )


# -- strong_rmse -----------------------------------------------------------------


def test_strong_rmse_identical_pairs():
    t = make_traj([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    assert strong_rmse([(t, t)]) == 0.0


def test_strong_rmse_constant_offset_single_path():
    a = make_traj([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    b = make_traj([0.0, 0.5, 1.0], [1.3, 2.3, 3.3])
    assert strong_rmse([(a, b)]) == pytest.approx(0.3, rel=1e-12)


def test_strong_rmse_two_paths_hand_value():
    # offsets 0.3 and 0.4 at one index, zero elsewhere:
    # sqrt((0.09 + 0.16) / 2) = sqrt(0.125)
    a1 = make_traj([0.0, 1.0], [1.0, 1.3])
    b1 = make_traj([0.0, 1.0], [1.0, 1.0])
    a2 = make_traj([0.0, 1.0], [2.0, 2.4])
    b2 = make_traj([0.0, 1.0], [2.0, 2.0])
    assert strong_rmse([(a1, b1), (a2, b2)]) == pytest.approx(0.3535533905932738, rel=1e-12)


def test_strong_rmse_uses_common_index_range():
    a1 = make_traj([0.0, 0.5, 1.0], [0.0, 0.0, 9.0])
    b1 = make_traj([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    a2 = make_traj([0.0, 1.0], [0.0, 0.0])
    b2 = make_traj([0.0, 1.0], [0.0, 0.2])
    # the third index of the first pair is outside the common range
    assert strong_rmse([(a1, b1), (a2, b2)]) == pytest.approx(0.2 / math.sqrt(2), rel=1e-12)


def test_strong_rmse_rejects_mismatched_pair_grids():
    a = make_traj([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    b = make_traj([0.0, 0.6, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(CouplingBrokenError):
        strong_rmse([(a, b)])


def test_strong_rmse_invariant_under_adding_identical_pair():
    a = make_traj([0.0, 1.0], [1.0, 1.5])
    b = make_traj([0.0, 1.0], [1.0, 1.0])
    c = make_traj([0.0, 1.0], [7.0, 7.0])
    base = strong_rmse([(a, b)])
    widened = strong_rmse([(a, b), (c, c)])
    assert widened <= base
    assert widened == pytest.approx(base / math.sqrt(2), rel=1e-12)


def test_strong_rmse_needs_pairs():
    with pytest.raises(ValueError):
        strong_rmse([])


def test_strong_rmse_invariant_under_index_permutation():
    # the metric is a max of per-index means: reordering grid indices
    # consistently across all paths cannot change it
    rng = np.random.default_rng(11)
    times = np.arange(5, dtype=float)
    pairs = []
    for _ in range(4):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        pairs.append((make_traj(times, a), make_traj(times, b)))
    base = strong_rmse(pairs)
    perm = rng.permutation(5)
    shuffled = [
        (make_traj(times, p[0].values[perm, 0]), make_traj(times, p[1].values[perm, 0]))
        for p in pairs
    ]
    assert strong_rmse(shuffled) == pytest.approx(base, rel=1e-14)


# -- sup_difference ---------------------------------------------------------------


def test_sup_difference_values():
    a = make_traj([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    b = make_traj([0.0, 1.0, 2.0], [0.0, 0.2, 0.0])
    assert sup_difference((a, a)) == 0.0
    assert sup_difference((a, b)) == pytest.approx(0.2, rel=1e-12)


def test_sup_difference_rejects_grid_mismatch():
    a = make_traj([0.0, 1.0], [0.0, 0.0])
    b = make_traj([0.0, 2.0], [0.0, 0.0])
    with pytest.raises(CouplingBrokenError):
        sup_difference((a, b))


# -- fit_slope ---------------------------------------------------------------------


def test_fit_slope_exact_sqrt_law():
    rows = [(h, math.sqrt(h)) for h in (0.5, 0.25, 0.125, 0.0625)]
    slope, intercept = fit_slope(rows)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_two_rows():
    slope, _ = fit_slope([(2.0**-2, 2.0**-2), (2.0**-4, 2.0**-4)])
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_exact_on_any_line():
    # points on log2(e) = 0.7 log2(h) + 1.3 are recovered to 1e-12
    hs = [2.0**-k for k in range(3, 9)]
    rows = [(h, 2.0 ** (0.7 * math.log2(h) + 1.3)) for h in hs]
    slope, intercept = fit_slope(rows)
    assert slope == pytest.approx(0.7, abs=1e-12)
    assert intercept == pytest.approx(1.3, abs=1e-12)


def test_fit_slope_on_noisy_half_order_data():
    rng = np.random.default_rng(42)
    hs = [2.0**-k for k in range(4, 10)]
    rows = [(h, math.sqrt(h) * (1.0 + rng.uniform(-0.05, 0.05))) for h in hs]
    slope, _ = fit_slope(rows)
    assert 0.4 <= slope <= 0.6


def test_fit_slope_input_validation():
    with pytest.raises(ValueError):
        fit_slope([(0.5, 1.0)])
    with pytest.raises(ValueError):
        fit_slope([(0.5, 1.0), (0.25, 0.0)])
    with pytest.raises(ValueError):
        fit_slope([(0.5, 1.0), (-0.25, 0.5)])


def test_report_sorts_rows_and_fits():
    rep = ConvergenceReport("strong_rmse")
    rep.add(0.125, math.sqrt(0.125))
    rep.add(0.5, math.sqrt(0.5))
    rep.add(0.25, math.sqrt(0.25))
    assert [r.h for r in rep.rows] == [0.5, 0.25, 0.125]
    slope, _ = rep.fit()
    assert slope == pytest.approx(0.5, abs=1e-12)


# -- ks_statistic -------------------------------------------------------------------


def test_ks_single_sample_at_median():
    assert ks_statistic([0.0], lambda x: 0.5) == 0.5


def test_ks_all_mass_at_cdf_zero():
    assert ks_statistic([-5.0] * 10, lambda x: 0.0) == 1.0


def test_ks_quantile_samples_small():
    # samples at uniform quantiles i/(n+1): the statistic stays below
    # 1/(n+1) plus the quantile spacing
    n = 99
    xs = [(i + 1) / (n + 1) for i in range(n)]
    d = ks_statistic(xs, lambda x: min(max(x, 0.0), 1.0))
    assert d <= 1.0 / (n + 1) + 1.0 / (n + 1) + 1e-12


def test_ks_matches_dense_scan_oracle():
    rng = np.random.default_rng(3)
    xs = np.sort(rng.normal(size=400))
    from scipy.stats import norm

    d = ks_statistic(xs, norm.cdf)
    # brute-force evaluation of sup |ecdf - cdf| on a dense grid
    grid = np.linspace(-5, 5, 200_001)
    ecdf = np.searchsorted(xs, grid, side="right") / len(xs)
    brute = np.max(np.abs(ecdf - norm.cdf(grid)))
    assert d >= brute - 1e-6
    assert d == pytest.approx(brute, abs=1e-3)


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: 0.5)


# -- weak error ---------------------------------------------------------------------


def F_first(y, v):
    return y[0]


def test_weak_error_zero_for_same_integrator():
    built = build_model("weak_test")
    est, se, _ = grow_weak_error_estimate(
        built.model, built.exact, F_first, h=0.25, seed=5, pilot=200, max_paths=200, em=built.exact
    )
    assert est == 0.0
    assert se == 0.0


def test_weak_error_zero_for_constant_functional():
    built = build_model("weak_test")
    est, se, _ = grow_weak_error_estimate(
        built.model, built.exact, lambda y, v: 42.0, h=0.25, seed=5, pilot=100, max_paths=100, em=built.em
    )
    assert est == 0.0 and se == 0.0


def test_weak_error_requires_exact_flow():
    built = build_model("glioma")
    with pytest.raises(ValueError):
        grow_weak_error_estimate(built.model, None, F_first, h=0.1, seed=1, pilot=10, max_paths=10)


def test_weak_error_requires_a_pilot_path():
    built = build_model("weak_test")
    with pytest.raises(ValueError):
        grow_weak_error_estimate(built.model, built.exact, F_first, h=0.1, seed=1, pilot=0, max_paths=10)


@pytest.mark.slow
def test_weak_error_jump_free_bias_halves_with_h():
    # without jumps the paired estimator targets E[euler_T] - y0 e^{mu T},
    # which vanishes at first order in h
    built = build_model("weak_test", rate_value=0.0, mu=0.3, sigma=0.15)
    e1, _, _ = grow_weak_error_estimate(
        built.model, built.exact, F_first, h=2.0**-3, seed=8, pilot=100_000, max_paths=100_000, em=built.em
    )
    e2, _, _ = grow_weak_error_estimate(
        built.model, built.exact, F_first, h=2.0**-4, seed=9, pilot=100_000, max_paths=100_000, em=built.em
    )
    assert 1.3 < e1 / e2 < 3.0


@pytest.mark.slow
def test_weak_error_first_order_scaling_smoke():
    # coarse check at modest path counts: halving h roughly halves the bias
    built = build_model("weak_test")
    e1, s1, _ = grow_weak_error_estimate(
        built.model, built.exact, F_first, h=2.0**-3, seed=31, pilot=150_000, max_paths=150_000, em=built.em
    )
    e2, s2, _ = grow_weak_error_estimate(
        built.model, built.exact, F_first, h=2.0**-4, seed=32, pilot=150_000, max_paths=150_000, em=built.em
    )
    assert e1 < 0 and e2 < 0  # Euler under-drifts this model
    assert 1.2 < e1 / e2 < 3.4


def test_coupled_rmse_report_end_to_end():
    built = build_model("example1")
    report = ConvergenceReport("strong_rmse")
    for li, k in enumerate(range(4, 8)):
        h = 2.0**-k
        pairs = []
        for j in range(60):
            stream = fork_for_path(9, li * 60 + j)
            pairs.append(simulate_coupled_pair(built.model, built.em, built.exact, stream, h=h))
        report.add(h, strong_rmse(pairs), n_paths=60)
    slope, _ = report.fit()
    assert 0.3 <= slope <= 0.7
