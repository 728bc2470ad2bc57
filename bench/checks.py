"""Independent checks of the studies' outputs.

Nothing here imports the package under test.  References come from closed
forms and from the documented draw-order contract and grid rule, rebuilt
with numpy's own Philox generator.  Each ``check_*`` function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
N_SE = 4.0  # Monte Carlo agreement, in standard errors
RMSE_BAND = (0.6, 1.5)  # measured RMSE over its leading-order value


# -- reading the CLI's outputs ---------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def ols_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs, written out in full."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


# -- weak order (weak_test: constant unit rate, 0.9 rescale at every jump) ------


def proposal_times(seed: int, path_id: int, rate: float, horizon: float) -> list[float]:
    """Proposal times up to the first one past the horizon, from the poisson
    substream (substream 0) keyed ``(seed, path_id << 3)``; a zero uniform
    is skipped, as the draw-order contract says."""
    gen = np.random.Generator(np.random.Philox(key=[seed & _MASK64, (path_id << 3) & _MASK64]))
    times = []
    t = 0.0
    while True:
        inc = 0.0
        while inc == 0.0:
            inc = -math.log1p(-gen.random()) / rate
        t = t + inc
        times.append(t)
        if t > horizon:
            return times


def em_mean_factor(events: list[float], horizon: float, h: float, mu: float) -> float:
    """prod over the cells of (1 + mu * h_cell), on the grid that splits
    each segment of length L between events into max(1, floor(L / h))
    equal cells."""
    factor = 1.0
    t = 0.0
    for e in events + [horizon]:
        length = e - t
        if length > 0.0:
            n = max(1, int(length / h))
            factor *= (1.0 + mu * (length / n)) ** n
            t = e
    return factor


def weak_bias_reference(
    seed: int, h: float, n_paths: int, mu: float, y0: float, scale: float, horizon: float
) -> float:
    """Mean over paths 0..n_paths-1 of E[EM_T - exact_T | grid, jumps]
    = y0 * scale**N * (prod(1 + mu h_i) - e^{mu T}); with rate = bound = 1
    every proposal up to the horizon is an accepted jump."""
    growth = math.exp(mu * horizon)
    total = 0.0
    for j in range(n_paths):
        times = proposal_times(seed, j, 1.0, horizon)
        jumps = [t for t in times if t <= horizon]
        total += y0 * scale ** len(jumps) * (em_mean_factor(jumps, horizon, h, mu) - growth)
    return total / n_paths


def exact_terminal_mean(mu: float, y0: float, rate: float, scale: float, horizon: float) -> float:
    """E[y_T] of GBM with rescaling by ``scale`` at Poisson(rate) jumps."""
    return y0 * math.exp(mu * horizon - rate * horizon * (1.0 - scale))


def check_weak(rows: list[dict], bias_refs: list[float], ratio_band: tuple[float, float]) -> list[str]:
    """Order-1 ratios of consecutive estimates, and each estimate within
    ``N_SE`` standard errors of the closed-form bias over the same paths."""
    problems = []
    est = [float(r["metric"]) for r in rows]
    se = [float(r["stderr"]) for r in rows]
    if len(est) != len(bias_refs):
        return [f"weak: {len(est)} levels in results, {len(bias_refs)} expected"]
    lo, hi = ratio_band
    for i in range(len(est) - 1):
        ratio = est[i] / est[i + 1] if est[i + 1] != 0.0 else math.inf
        if not lo <= ratio <= hi:
            problems.append(f"weak: ratio {ratio:.4g} of levels {i},{i + 1} outside [{lo}, {hi}]")
    for i, (e, s, ref) in enumerate(zip(est, se, bias_refs)):
        if not (s > 0.0 and abs(e - ref) <= N_SE * s):
            problems.append(f"weak: level {i} estimate {e:.6g} vs reference {ref:.6g} (se {s:.3g})")
    return problems


def check_exact_side(terminal_values: list[list[float]], expected: float) -> list[str]:
    """Each level's exact-flow terminal values average to the closed form."""
    problems = []
    for i, vals in enumerate(terminal_values):
        n = len(vals)
        if n < 2:
            problems.append(f"exact side: level {i} has {n} paths")
            continue
        mean = statistics.fmean(vals)
        se = statistics.stdev(vals) / math.sqrt(n)
        if not abs(mean - expected) <= N_SE * se:
            problems.append(f"exact side: level {i} mean {mean:.6g} vs {expected:.6g} (se {se:.3g})")
    return problems


# -- strong order (GBM, coupled Euler-Maruyama against the exact flow) ---------


def strong_rmse_leading_order(h: float, y0: float, mu: float, sigma: float, horizon: float) -> float:
    """Leading-order RMSE of Euler-Maruyama for GBM at the horizon:
    y0 sigma^2 sqrt(T h / 2) e^{(mu + sigma^2 / 2) T}."""
    return y0 * sigma**2 * math.sqrt(horizon * h / 2.0) * math.exp((mu + 0.5 * sigma**2) * horizon)


def check_strong(
    rows: list[dict],
    summary: dict,
    y0: float,
    mu: float,
    sigma: float,
    horizon: float,
    slope_band: tuple[float, float],
) -> list[str]:
    """Slope of log2 RMSE against log2 h in the band, the reported slope
    equal to a refit, and each level's RMSE near the leading-order value."""
    problems = []
    hs = [float(r["h"]) for r in rows]
    rmse = [float(r["metric"]) for r in rows]
    if len(rows) < 2 or any(v <= 0.0 for v in rmse):
        return [f"strong: need two or more positive RMSE rows, got {rmse}"]
    slope = ols_slope([math.log2(h) for h in hs], [math.log2(v) for v in rmse])
    lo, hi = slope_band
    if not lo <= slope <= hi:
        problems.append(f"strong: slope {slope:.4f} outside [{lo}, {hi}]")
    if not abs(slope - float(summary.get("slope", math.nan))) <= 1e-9:
        problems.append(f"strong: reported slope {summary.get('slope')} differs from refit {slope:.6f}")
    rlo, rhi = RMSE_BAND
    for h, v in zip(hs, rmse):
        ratio = v / strong_rmse_leading_order(h, y0, mu, sigma, horizon)
        if not rlo <= ratio <= rhi:
            problems.append(f"strong: h={h:g} RMSE/leading-order {ratio:.3f} outside [{rlo}, {rhi}]")
    return problems


# -- migration model -------------------------------------------------------------


def check_tem_vs_tsm(rows: list[dict], summary: dict, ratio_max: float) -> list[str]:
    """Medians of the sup-differences, recomputed per step size, strictly
    decrease, finest over coarsest is at most ``ratio_max``, and the
    summary reports the same medians."""
    by_h: dict[float, list[float]] = {}
    for r in rows:
        by_h.setdefault(float(r["h"]), []).append(float(r["sup_difference"]))
    hs = sorted(by_h, reverse=True)
    medians = [statistics.median(by_h[h]) for h in hs]
    problems = []
    if len(medians) < 2:
        return [f"tem_vs_tsm: need two or more step sizes, got {hs}"]
    if not all(a > b for a, b in zip(medians, medians[1:])):
        problems.append(f"tem_vs_tsm: medians {medians} do not strictly decrease")
    if not medians[0] > 0.0 or medians[-1] / medians[0] > ratio_max:
        problems.append(f"tem_vs_tsm: finest/coarsest {medians[-1]}/{medians[0]} above {ratio_max}")
    if [float(m) for m in summary.get("medians", [])] != medians:
        problems.append(f"tem_vs_tsm: summary medians {summary.get('medians')} != {medians}")
    return problems


def check_sweep(rows: list[dict], horizon: float, trajectories: list[Path]) -> list[str]:
    """Every path finite (read back from its dump), turning rates within
    [lambda0 - lambda1, lambda0], jumps at most proposals, and the total
    proposal count within 4 sqrt(n) of its Poisson mean n = sum lambda0 T."""
    problems = []
    total_proposals = 0
    poisson_mean = 0.0
    for r in rows:
        lam0 = float(r["lambda0"])
        lam1 = float(r["lambda1"])
        jumps = int(r["jumps"])
        proposals = int(r["proposals"])
        total_proposals += proposals
        poisson_mean += lam0 * horizon
        tag = f"sweep lambda0={lam0:g} lambda1={lam1:g}"
        if proposals > 0:
            rmin = float(r["rate_min"])
            rmax = float(r["rate_max"])
            if not (max(0.0, lam0 - lam1) - 1e-12 <= rmin <= rmax <= lam0 + 1e-12):
                problems.append(f"{tag}: rates [{rmin}, {rmax}] outside [{lam0 - lam1}, {lam0}]")
        if not 0 <= jumps <= proposals:
            problems.append(f"{tag}: {jumps} jumps for {proposals} proposals")
    if abs(total_proposals - poisson_mean) > 4.0 * math.sqrt(poisson_mean):
        problems.append(f"sweep: {total_proposals} proposals, Poisson mean {poisson_mean:.4g}")
    if len(trajectories) != len(rows):
        problems.append(f"sweep: {len(trajectories)} trajectory dumps for {len(rows)} runs")
    for path in trajectories:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if not np.all(np.isfinite(data)):
            problems.append(f"sweep: non-finite values in {path.name}")
        elif not (data[0, 0] == 0.0 and data[-1, 0] == horizon and np.all(np.diff(data[:, 0]) > 0)):
            problems.append(f"sweep: {path.name} times do not run from 0 to {horizon} increasing")
    return problems
