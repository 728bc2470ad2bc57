"""Acceptance suite: one test per release criterion, one summary line each.

Monte Carlo criteria run at the frozen default seed; the statistical bands
below are calibrated so a correct implementation passes them at that seed.
"""

import math
import statistics

import mpmath
import numpy as np
import pytest

from pdifmp import (
    DriverStream,
    EulerMaruyama,
    build_model,
    em_interpolate,
    em_step,
    fit_slope,
    fork_for_path,
    grow_weak_error_estimate,
    next_jump,
    phi1,
    sample_mode,
    simulate_coupled_pair,
    simulate_path,
    sup_difference,
)
from pdifmp.analysis import strong_error_of_rows
from pdifmp.jump_engine import coupled_distance_rows

from util import constant_rate_model, ks_statistic, uniform3_kernel

SEED = 12345


def announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _strong_slope(built, h_exponents, paths):
    # the lanes the strong study runs, on its (seed, path) keys
    rows = []
    for li, k in enumerate(h_exponents):
        h = 2.0**-k
        dist = coupled_distance_rows(built.model, built.em, built.exact, SEED, range(li * paths, (li + 1) * paths), h)
        rows.append((h, strong_error_of_rows(dist)[0]))
    slope, _ = fit_slope(rows)
    return slope, rows


@pytest.mark.slow
def test_criterion_1_strong_order_constant_rate_model():
    # y0=50, mu=0.001, sigma=0.002, rate 1e-4, T=1; M=200, h = 2^-6..2^-12
    built = build_model("example1")
    slope, _ = _strong_slope(built, range(6, 13), 200)
    announce(
        "criterion 1: strong order, constant-rate model",
        0.35 <= slope <= 0.65,
        f"fitted RMSE slope {slope:.4f} in [0.35, 0.65]",
    )


def test_criterion_2_strong_order_state_dependent_rate_model():
    # mu=0.01, sigma=0.2, published dominating bound 0.001; M=200, same ladder
    built = build_model("example2", as_published=True)
    slope, _ = _strong_slope(built, range(6, 13), 200)
    announce(
        "criterion 2: strong order, state-dependent rate model (published config)",
        0.35 <= slope <= 0.65,
        f"fitted RMSE slope {slope:.4f} in [0.35, 0.65]",
    )


def test_criterion_3_thinning_law():
    # constant rate 0.5 under bound 1: first-jump times are Exp(0.5)
    model = constant_rate_model(rate=0.5, rate_bound=1.0, horizon=200.0)
    n = 10_000
    em = EulerMaruyama()
    samples = []
    for pid in range(n):
        traj = next_jump(model, em, fork_for_path(SEED, pid), h=0.5)
        assert traj.stats.n_accepted == 1
        samples.append(float(traj.times[-1]))
    d = ks_statistic(samples, lambda t: 1.0 - math.exp(-0.5 * t))
    mean = sum(samples) / n
    se = 2.0 / math.sqrt(n)
    ks_bound = 1.36 / math.sqrt(n)
    announce(
        "criterion 3: thinning law",
        d < ks_bound and abs(mean - 2.0) < 3 * se,
        f"KS D={d:.5f} < {ks_bound:.5f}, mean={mean:.4f} within 3se of 2.0",
    )


def test_criterion_4_coupling_identity():
    # rate and kernel depend only on the mode: jump times and mode
    # sequences must match bitwise between exact and Euler trajectories
    built = build_model("example1", rate_value=0.5)
    mismatches = 0
    jumps_seen = 0
    for pid in range(100):
        a, b = simulate_coupled_pair(
            built.model, built.em, built.exact, fork_for_path(SEED, pid), h=2.0**-5
        )
        jumps_seen += a.jump_count
        if not (
            np.array_equal(a.jump_times, b.jump_times)
            and np.array_equal(a.interval_modes, b.interval_modes)
        ):
            mismatches += 1
    announce(
        "criterion 4: coupling identity",
        mismatches == 0 and jumps_seen > 0,
        f"0 mismatches over 100 paths ({jumps_seen} jumps exercised)",
    )


@pytest.mark.slow
def test_criterion_5_weak_order():
    built = build_model("weak_test")

    def F(y, v):
        return y[0]

    estimates = []
    ses = []
    for li, k in enumerate((4, 5, 6)):
        est, se, used = grow_weak_error_estimate(
            built.model, built.exact, F, h=2.0**-k, seed=SEED + li, em=built.em
        )
        estimates.append(est)
        ses.append(se)
        print(f"  h=2^-{k}: estimate={est:.5g} se={se:.3g} paths={used}")
    se_ok = all(abs(s) < 0.2 * abs(e) for e, s in zip(estimates, ses))
    ratios = [estimates[i] / estimates[i + 1] for i in range(2)]
    ratios_ok = all(1.4 <= r <= 2.8 for r in ratios)
    announce(
        "criterion 5: weak order",
        se_ok and ratios_ok,
        f"ratios {ratios[0]:.3f}, {ratios[1]:.3f} in [1.4, 2.8]; all se < 20% of estimates",
    )


@pytest.mark.slow
def test_criterion_6_em_vs_splitting():
    built = build_model("glioma", lambda0=0.7, lambda1=0.08, a=0.5, b=0.2, horizon=60.0)
    medians = []
    for h in (1e-2, 1e-3, 1e-4):
        sups = []
        for s in range(50):
            pair = simulate_coupled_pair(
                built.model, built.em, built.splitting, fork_for_path(SEED + s, 0), h=h
            )
            sups.append(sup_difference(pair))
        medians.append(statistics.median(sups))
        print(f"  h={h:g}: median sup-difference {medians[-1]:.5g}")
    decreasing = medians[0] > medians[1] > medians[2]
    ratio = medians[2] / medians[0]
    announce(
        "criterion 6: Euler vs splitting agreement",
        decreasing and ratio <= 0.2,
        f"medians decrease {medians[0]:.3g} > {medians[1]:.3g} > {medians[2]:.3g}; "
        f"finest/coarsest = {ratio:.3g} <= 0.2",
    )


def test_criterion_7_invariant_suite():
    details = []

    # kernel self-jump exclusion: 1e5 samples, zero self-jumps
    rng = np.random.default_rng(SEED)
    kernel = uniform3_kernel()
    self_jumps = sum(
        1 for u in rng.random(100_000) if sample_mode(kernel, (0.0,), 2, float(u)) == 2
    )
    details.append(f"self-jumps {self_jumps}/100000")
    assert self_jumps == 0

    # y-continuity across jumps (identity transform), exact equality
    model = constant_rate_model(
        rate=1.0,
        rate_bound=1.0,
        drift=lambda y, v: (0.1 * y[0],),
        diffusion=lambda y, v: (0.2 * y[0],),
        horizon=10.0,
    )
    em = EulerMaruyama()
    checked = 0
    for pid in range(50):
        traj = simulate_path(model, em, fork_for_path(SEED, pid), h=0.25)
        for j, t in enumerate(traj.jump_times[1:]):
            i = int(np.searchsorted(traj.times, t))
            assert traj.times[i] == t
            assert np.array_equal(traj.post_jump_values[j], traj.values[i])
            checked += 1
        assert traj.jump_count <= traj.stats.n_proposals  # N_T <= N*_T
    details.append(f"y continuous at {checked} jumps; N_T <= N*_T on 50 paths")

    # phi1 against a 50-digit series oracle, relative error < 1e-12
    mpmath.mp.dps = 50
    worst = 0.0
    for xi in np.linspace(-10, 10, 2001):
        xi = float(xi)
        ref = float(mpmath.expm1(mpmath.mpf(xi)) / mpmath.mpf(xi)) if xi else 1.0
        worst = max(worst, abs(phi1(xi) - ref) / abs(ref))
    details.append(f"phi1 worst rel err {worst:.2e}")
    assert worst < 1e-12

    # interpolation endpoint consistency, exact equality
    gbm = build_model("example1").model
    for dw in (0.0, 0.31, -0.7):
        assert em_interpolate(gbm, (50.0,), 0, 0.0, 0.25, dw, 0.25) == em_step(
            gbm, (50.0,), 0, 0.25, dw
        )
    details.append("interpolation endpoint exact")

    # replay determinism, bitwise: paths on one stream re-keyed per path, as
    # the studies run them, against each path simulated alone on a fresh fork
    built = build_model("example2", as_published=True)
    stream = DriverStream(SEED, 0)
    for pid in range(16):
        stream.reset(SEED, pid)
        a = simulate_path(built.model, built.em, stream, h=2.0**-6)
        b = simulate_path(built.model, built.em, fork_for_path(SEED, pid), h=2.0**-6)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.interval_modes, b.interval_modes)
    details.append("re-keyed stream replay bitwise identical to fresh single paths")

    announce("criterion 7: invariant suite", True, "; ".join(details))


@pytest.mark.slow
def test_criterion_8_glioma_sweep_smoke():
    ok = True
    lines = []
    run = 0
    for lam0 in (0.2, 0.7):
        for lam1 in (1e-1, 1e-2, 1e-3, 1e-4):
            built = build_model("glioma", lambda0=lam0, lambda1=lam1)
            traj = simulate_path(
                built.model, built.em, fork_for_path(SEED, run), h=1e-4, stride=1000
            )
            run += 1
            finite = bool(np.all(np.isfinite(traj.values)))
            lo = max(0.0, lam0 - lam1)
            rate_ok = traj.stats.rate_min >= lo - 1e-12 and traj.stats.rate_max <= lam0 + 1e-12
            ok = ok and finite and rate_ok and traj.stats.n_proposals > 0
            lines.append(
                f"lambda0={lam0:g} lambda1={lam1:g}: jumps={traj.jump_count} "
                f"rate in [{traj.stats.rate_min:.4g}, {traj.stats.rate_max:.4g}] "
                f"excursions={traj.stats.hint_excursions} finite={finite}"
            )
    for line in lines:
        print("  " + line)
    announce(
        "criterion 8: migration model sweep",
        ok,
        "8 runs finite, rates within [lambda0 - lambda1, lambda0], excursions reported",
    )
