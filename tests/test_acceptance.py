"""Acceptance suite: one test per release criterion, one summary line each.

Criteria 1, 2, 5, 6 and 8 run the shipped study configs, ``configs/*.json``,
through ``cli.run_experiment``, as ``pdifmp run`` does, at the seed those
configs carry (12345).  Each requires exit 0, checks its own band on the
numbers of ``summary.json`` and ``results.csv``, and compares the output
bytes with digests pinned below.  Criteria 3, 4 and 7 have no shipped
study and simulate their own paths at the same seed.  The statistical bands
are calibrated so a correct implementation passes them at that seed.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pdifmp import (
    DriverStream,
    EulerMaruyama,
    build_model,
    em_interpolate,
    em_step,
    fork_for_path,
    next_jump,
    phi1,
    sample_mode,
    simulate_coupled_pair,
    simulate_path,
)
from pdifmp.cli import EXIT_OK, ExperimentConfig, run_experiment

from util import constant_rate_model, ks_statistic, uniform3_kernel

SEED = 12345
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of each shipped study's outputs, as `pdifmp run configs/<name>.json`
# wrote them before the criteria ran the configs; the sweep's trajectory
# dumps are hashed as one, in name order
SHIPPED_BYTES = {
    "strong_order_example1": {"results.csv": "68547b34e560e119a9fc31f93a4752a7a8a8aa882ea72637ab6810b9312f2c1f",
                              "summary.json": "cb92c5563281fa9a0ca8075a52d477de29bd34a4fe48b56c63e72c61eef77d7a"},
    "strong_order_example2": {"results.csv": "348d5250036034270298e364f71c7786a05de03eeb35a89b23f3e1f775871753",
                              "summary.json": "ce23477a76e5e76ccecfead675e0a2c3cbae252db4acbeea66cbf6629fe1810c"},
    "weak_order": {"results.csv": "d63be1e73a3959cb1241b9982aa0839e8288d59d6b9a16644fd60dd0274e309c",
                   "summary.json": "6a2ac7888aaf66e3d7582bb3c9af4cb5e8d3bb94f1edae03531bc327a36fba93"},
    "tem_vs_tsm": {"results.csv": "425137b3ea02842011fc27d36ed6bbcb5e57dfbf19d83db2c561a20694d88546",
                   "summary.json": "149d979cf160d4fa9f4dc0cb89c6006215a103eeee90a7c7c935bf4a561e4310"},
    "glioma_sweep": {"results.csv": "4379c9f75ad573f959efc0f31f3c73fd34e409bb83bcdf5a81c1e539960d8017",
                     "summary.json": "372d345c693d46b606116e65acf1039d9cf2e8ea707dfd912653c271824c2c79",
                     "trajectories": "3ad02828c01136e54d0a3e8bed6151521463442ee755886a549443615163d426"},
}


def announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def sha256_of(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_shipped(name: str, out: Path) -> tuple[dict, list[dict]]:
    """Run ``configs/<name>.json`` into ``out`` as ``pdifmp run`` does; require
    exit 0 and the pinned output bytes, and return ``summary.json`` and the
    ``results.csv`` rows, every cell as a float."""
    cfg = ExperimentConfig.from_file(CONFIGS / f"{name}.json")
    cfg.out_dir = str(out)
    assert run_experiment(cfg) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "results.csv", newline="") as f:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
    digests = {part: sha256_of(sorted((out / part).iterdir()) if part == "trajectories" else [out / part])
               for part in SHIPPED_BYTES[name]}
    assert digests == SHIPPED_BYTES[name], f"{name}: outputs differ from the pinned bytes; summary {summary}"
    return summary, rows


def test_shipped_configs_carry_the_criteria_seed_and_bands():
    # each criterion's band, as its config must give it: a config that
    # loosened its band would still run to exit 0
    bands = {"strong_order_example1": {"slope_band": [0.35, 0.65]},
             "strong_order_example2": {"slope_band": [0.35, 0.65]},
             "weak_order": {"ratio_band": [1.4, 2.8]},
             "tem_vs_tsm": {"sup_ratio_max": 0.2},
             "glioma_sweep": {}}
    assert sorted(bands) == sorted(path.stem for path in CONFIGS.glob("*.json"))
    for name, band in bands.items():
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        assert {k: raw.get(k) for k in ("seed", *band)} == {"seed": SEED, **band}, name


@pytest.mark.slow
def test_criterion_1_strong_order_constant_rate_model(tmp_path):
    # y0=50, mu=0.001, sigma=0.002, rate 1e-4, T=1; M=200, h = 2^-6..2^-12
    slope = run_shipped("strong_order_example1", tmp_path)[0]["slope"]
    announce("criterion 1: strong order, constant-rate model", 0.35 <= slope <= 0.65,
             f"fitted RMSE slope {slope:.4f} in [0.35, 0.65]")


def test_criterion_2_strong_order_state_dependent_rate_model(tmp_path):
    # mu=0.01, sigma=0.2, published dominating bound 0.001; M=200, same ladder
    slope = run_shipped("strong_order_example2", tmp_path)[0]["slope"]
    announce("criterion 2: strong order, state-dependent rate model (published config)", 0.35 <= slope <= 0.65,
             f"fitted RMSE slope {slope:.4f} in [0.35, 0.65]")


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
def test_criterion_5_weak_order(tmp_path):
    # weak_test, h = 2^-4..2^-6, level li on seed 12345 + li
    summary, rows = run_shipped("weak_order", tmp_path)
    se_ok = all(abs(r["stderr"]) < 0.2 * abs(r["metric"]) for r in rows)
    ratios = summary["ratios"]
    ratios_ok = len(ratios) == 2 and all(1.4 <= r <= 2.8 for r in ratios)
    announce("criterion 5: weak order", se_ok and ratios_ok,
             f"ratios {ratios[0]:.3f}, {ratios[1]:.3f} in [1.4, 2.8]; all se < 20% of estimates")


@pytest.mark.slow
def test_criterion_6_em_vs_splitting(tmp_path):
    # glioma EM vs splitting over 50 seeds 12345 + s, h = 1e-2, 1e-3, 1e-4
    summary = run_shipped("tem_vs_tsm", tmp_path)[0]
    medians = summary["medians"]
    decreasing = len(medians) == 3 and medians[0] > medians[1] > medians[2]
    ratio = summary["final_over_coarsest"]
    announce("criterion 6: Euler vs splitting agreement", decreasing and ratio <= 0.2,
             f"medians decrease {medians[0]:.3g} > {medians[1]:.3g} > {medians[2]:.3g}; "
             f"finest/coarsest = {ratio:.3g} <= 0.2")


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
def test_criterion_8_glioma_sweep_smoke(tmp_path):
    # lambda0 in (0.2, 0.7) outer, lambda1 in (1e-1, ..., 1e-4); run i on path i
    rows = run_shipped("glioma_sweep", tmp_path)[1]
    ok = len(rows) == 8 and all(
        r["finite"] == 1
        and r["proposals"] > 0
        and max(0.0, r["lambda0"] - r["lambda1"]) - 1e-12 <= r["rate_min"]
        and r["rate_max"] <= r["lambda0"] + 1e-12
        for r in rows
    )
    announce("criterion 8: migration model sweep", ok,
             "8 runs finite, rates within [lambda0 - lambda1, lambda0], excursions reported")
