"""Each independent check accepts a good result and rejects a perturbed one.

Run from the repository root: ``python3 -m pytest bench``.
"""

import csv
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent

# -- weak order ------------------------------------------------------------------

WEAK_BIAS = [-0.0750, -0.0381, -0.0192]


def weak_rows(estimates, ses=(3.5e-4, 1.9e-4, 1.1e-4)):
    return [{"metric": str(e), "stderr": str(s), "paths": "20000"} for e, s in zip(estimates, ses)]


def test_weak_accepts_estimates_at_the_reference():
    assert checks.check_weak(weak_rows([-0.0752, -0.0382, -0.0192]), WEAK_BIAS, (1.4, 2.8)) == []


@pytest.mark.parametrize(
    "estimates",
    [
        [-0.0752, 0.0382, -0.0192],  # flipped sign
        [-0.0752, -0.0764, -0.0192],  # doubled estimate
        [-0.0752, -0.0752, -0.0752],  # no decrease with h: ratios 1
    ],
)
def test_weak_rejects_perturbed_estimates(estimates):
    assert checks.check_weak(weak_rows(estimates), WEAK_BIAS, (1.4, 2.8))


def test_weak_rejects_estimate_off_reference_even_with_good_ratios():
    # every level scaled by 1.1: ratios unchanged, ~20 standard errors off
    est = [1.1 * b for b in WEAK_BIAS]
    assert checks.check_weak(weak_rows(est), WEAK_BIAS, (1.4, 2.8))


def test_em_mean_factor_by_hand():
    # segments 0.3 and 0.7 at h = 0.25: 1 cell of 0.3, 2 cells of 0.35
    got = checks.em_mean_factor([0.3], 1.0, 0.25, 2.0)
    assert got == pytest.approx((1 + 2 * 0.3) * (1 + 2 * 0.35) ** 2, rel=1e-15)
    # a segment shorter than h is one cell of its own length
    assert checks.em_mean_factor([0.01], 1.0, 0.5, 1.0) == pytest.approx(1.01 * 1.99)


def test_exact_side_accepts_the_closed_form_and_rejects_a_shift():
    expected = checks.exact_terminal_mean(1.0, 1.0, 1.0, 0.9, 1.0)
    assert expected == pytest.approx(math.exp(0.9))
    rng = np.random.default_rng(1)
    good = (expected + 0.5 * rng.standard_normal(20_000)).tolist()
    assert checks.check_exact_side([good], expected) == []
    assert checks.check_exact_side([[v * 1.02 for v in good]], expected)
    assert checks.check_exact_side([[-v for v in good]], expected)


def test_weak_reference_grid_matches_the_program():
    if not (ROOT / "src" / "pdifmp").is_dir():
        pytest.skip("package source not present")
    sys.path.insert(0, str(ROOT / "src"))
    from pdifmp import build_model, fork_for_path, simulate_path

    built = build_model("weak_test")
    h = 2.0**-4
    for j in range(40):
        traj = simulate_path(built.model, built.em, fork_for_path(777, j), h=h, stride=None)
        times = checks.proposal_times(777, j, 1.0, 1.0)
        jumps = [t for t in times if t <= 1.0]
        assert traj.jump_times[1:].tolist() == jumps
        cells = 0
        t = 0.0
        for e in jumps + [1.0]:
            if e > t:
                cells += max(1, int((e - t) / h))
                t = e
        assert traj.stats.n_cells == cells


# -- strong order ----------------------------------------------------------------

HS = [2.0**-k for k in range(6, 13)]
GBM = dict(y0=50.0, mu=0.01, sigma=0.2, horizon=1.0, slope_band=(0.35, 0.65))


def strong_case(rmse):
    rows = [{"h": str(h), "metric": str(v)} for h, v in zip(HS, rmse)]
    slope = checks.ols_slope([math.log2(h) for h in HS], [math.log2(v) for v in rmse])
    return rows, {"slope": slope}


def leading_order():
    return [checks.strong_rmse_leading_order(h, 50.0, 0.01, 0.2, 1.0) for h in HS]


def test_strong_accepts_the_leading_order_ladder():
    rows, summary = strong_case([0.95 * v for v in leading_order()])
    assert summary["slope"] == pytest.approx(0.5)
    assert checks.check_strong(rows, summary, **GBM) == []


def test_strong_rejects_a_doubled_level():
    rmse = leading_order()
    rmse[3] *= 2.0
    rows, summary = strong_case(rmse)
    assert checks.check_strong(rows, summary, **GBM)


def test_strong_rejects_a_flat_ladder():
    rows, summary = strong_case([leading_order()[3]] * len(HS))
    assert checks.check_strong(rows, summary, **GBM)


def test_strong_rejects_a_misreported_slope():
    rows, summary = strong_case(leading_order())
    summary["slope"] = 0.6
    assert checks.check_strong(rows, summary, **GBM)


# -- EM against splitting --------------------------------------------------------


def tem_case(medians, n=10):
    rows = []
    for h, m in zip((0.01, 0.001, 0.0001), medians):
        rows += [{"h": str(h), "sup_difference": str(m * (1 + 0.01 * (s - n // 2)))} for s in range(n)]
    recomputed = [statistics.median(float(r["sup_difference"]) for r in rows if float(r["h"]) == h)
                  for h in (0.01, 0.001, 0.0001)]
    return rows, {"medians": recomputed}


def test_tem_accepts_decreasing_medians():
    rows, summary = tem_case([3.8e-5, 9.9e-6, 3.4e-6])
    assert checks.check_tem_vs_tsm(rows, summary, 0.2) == []


@pytest.mark.parametrize(
    "medians",
    [
        [3.8e-5, 3.9e-5, 3.4e-6],  # not decreasing
        [3.8e-5, 2.0e-5, 1.0e-5],  # finest / coarsest above 0.2
    ],
)
def test_tem_rejects_bad_medians(medians):
    rows, summary = tem_case(medians)
    assert checks.check_tem_vs_tsm(rows, summary, 0.2)


def test_tem_rejects_a_summary_that_disagrees_with_the_rows():
    rows, summary = tem_case([3.8e-5, 9.9e-6, 3.4e-6])
    summary["medians"][1] *= 2.0
    assert checks.check_tem_vs_tsm(rows, summary, 0.2)


# -- migration sweep -------------------------------------------------------------

LAMBDAS = [(l0, l1) for l0 in (0.2, 0.7) for l1 in (0.1, 0.01, 0.001, 0.0001)]


def sweep_rows(proposals=(7, 7, 7, 7, 25, 25, 25, 25), **override):
    rows = []
    for (l0, l1), n in zip(LAMBDAS, proposals):
        rows.append({"lambda0": str(l0), "lambda1": str(l1), "jumps": str(n // 2),
                     "proposals": str(n), "rate_min": str(l0 - l1 / 2), "rate_max": str(l0)})
    rows[0].update(override)
    return rows


def write_dump(path: Path, values) -> Path:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "y1", "y2", "v", "is_jump"])
        for t, y in zip((0.0, 18.0, 36.0), values):
            w.writerow([t, y, 0.5, 1, 0])
    return path


@pytest.fixture
def dumps(tmp_path):
    return [write_dump(tmp_path / f"g{i}.csv", (0.0, 0.1, 0.2)) for i in range(8)]


def test_sweep_accepts_a_consistent_sweep(dumps):
    assert checks.check_sweep(sweep_rows(), 36.0, dumps) == []


@pytest.mark.parametrize(
    "override",
    [
        {"rate_min": "0.05"},  # below lambda0 - lambda1
        {"rate_max": "0.25"},  # above lambda0
        {"jumps": "9"},  # more jumps than proposals
    ],
)
def test_sweep_rejects_bad_rows(dumps, override):
    assert checks.check_sweep(sweep_rows(**override), 36.0, dumps)


def test_sweep_rejects_a_proposal_total_off_the_poisson_mean(dumps):
    # total 2 * 129.6 against a mean of 129.6
    assert checks.check_sweep(sweep_rows(proposals=(14, 14, 14, 14, 50, 50, 50, 50)), 36.0, dumps)


def test_sweep_rejects_a_non_finite_or_short_dump(dumps, tmp_path):
    dumps[3] = write_dump(tmp_path / "bad.csv", (0.0, float("nan"), 0.2))
    assert checks.check_sweep(sweep_rows(), 36.0, dumps)
    assert checks.check_sweep(sweep_rows(), 36.0, dumps[:7])


# -- the runner ------------------------------------------------------------------


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "weak_mc", "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "no package source" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_runner_accepts_only_the_run_length_of_the_spec():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "weak_mc", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "run_seconds" in proc.stderr
    assert not proc.stdout


class FakeClock:
    def mark(self):
        return None

    def rescale(self, mark, wall_s):
        return wall_s


class FakeCli:
    def __init__(self, rc: int, err: str) -> None:
        self.rc, self.err = rc, err

    def main(self, argv):
        print(self.err, file=sys.stderr)
        return self.rc


@pytest.mark.parametrize("rc, err, wrong", [
    (1, "error: SimulationDivergedError: overflow in the continuous-state jump transform", 0),
    (1, "error: TypeError: unsupported operand", 1),
    (2, "", 1),  # the study's own acceptance band rejected its result
    (64, "config error: bad h_list", 1),
])
def test_round_counts_only_the_diverged_abort_as_a_failure_with_correct_outputs(tmp_path, rc, err, wrong):
    import run
    from workloads import Study

    rnd = run.Round([Study("s", {}, lambda out, ctx: [])], 1, tmp_path, {}, FakeClock())
    rnd.run(FakeCli(rc, err))
    assert (rnd.attempted, rnd.failed, rnd.wrong) == (1, 1, wrong)

