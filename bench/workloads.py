"""The benchmark's workloads: the shipped studies at a fixed, reduced size.

Each workload is a list of studies run through ``pdifmp run``.  Model
parameters are spelled out in full, so the independent checks use the same
values as the program and a change to a catalog default cannot silently
change the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

# Every proposal of weak_test is accepted (rate = bound = 1).  mu = 1.0
# instead of the catalog's 0.05 keeps the grid and the draws per path as
# they are, but lifts the O(h) bias far above the Monte Carlo error, so
# 20 000 pairs per level pass the study's own ratio band and stderr rule.
WEAK_MODEL = {
    "id": "weak_test", "mu": 1.0, "sigma": 0.2, "y0": 1.0, "rate_value": 1.0,
    "rate_bound": 1.0, "jump_scale": 0.9, "horizon": 1.0,
}
WEAK_PATHS = 20_000
EXAMPLE2_MODEL = {
    "id": "example2", "mu": 0.01, "sigma": 0.2, "y0": 50.0, "rate_value": 0.01, "horizon": 1.0,
}
TEM_MODEL = {"id": "glioma", "lambda0": 0.7, "lambda1": 0.08, "a": 0.5, "b": 0.2, "horizon": 0.5}
SWEEP_HORIZON = 18.0

WEAK_CONFIG = {
    "experiment": "weak_error",
    "model": WEAK_MODEL,
    "h_list": [2.0**-4, 2.0**-5, 2.0**-6],
    "ratio_band": [1.4, 2.8],
    "rel_se_target": 0.18,
    "max_paths": WEAK_PATHS,
}
STRONG_CONFIG = {
    "experiment": "convergence_example2",
    "model": EXAMPLE2_MODEL,
    "h_list": [2.0**-k for k in range(6, 13)],
    "paths": 100,
    "slope_band": [0.35, 0.65],
}
TEM_CONFIG = {
    "experiment": "tem_vs_tsm",
    "model": TEM_MODEL,
    "h_list": [0.01, 0.001, 0.0001],
    "seeds": 100,
    "sup_ratio_max": 0.2,
}
SWEEP_CONFIG = {
    "experiment": "glioma_sweep",
    "model": {"id": "glioma", "a": 0.5, "b": 0.2, "horizon": SWEEP_HORIZON},
    "h_list": [0.0001],
    "sweep": {"lambda0": [0.2, 0.7], "lambda1": [0.1, 0.01, 0.001, 0.0001]},
    "dump_trajectories": True,
    "trajectory_stride": 1000,
}


@dataclass
class Study:
    name: str
    config: dict
    check: Callable[[Path, dict], list[str]]  # (output dir, run context) -> problems
    flags: list[str] = field(default_factory=list)


def _check_weak(out: Path, ctx: dict) -> list[str]:
    rows = checks.read_csv(out / "results.csv")
    problems = checks.check_weak(rows, ctx["weak_bias"], tuple(WEAK_CONFIG["ratio_band"]))
    problems += [f"weak: level {i} used {r['paths']} pairs" for i, r in enumerate(rows)
                 if int(r["paths"]) != WEAK_PATHS]
    return problems


def _check_strong(out: Path, ctx: dict) -> list[str]:
    m = EXAMPLE2_MODEL
    return checks.check_strong(
        checks.read_csv(out / "results.csv"), checks.read_summary(out),
        y0=m["y0"], mu=m["mu"], sigma=m["sigma"], horizon=m["horizon"],
        slope_band=tuple(STRONG_CONFIG["slope_band"]),
    )


def _check_tem(out: Path, ctx: dict) -> list[str]:
    return checks.check_tem_vs_tsm(
        checks.read_csv(out / "results.csv"), checks.read_summary(out),
        ratio_max=TEM_CONFIG["sup_ratio_max"],
    )


def _check_sweep(out: Path, ctx: dict) -> list[str]:
    dumps = sorted((out / "trajectories").glob("*.csv"))
    return checks.check_sweep(checks.read_csv(out / "results.csv"), SWEEP_HORIZON, dumps)


WORKLOADS: dict[str, list[Study]] = {
    # many short coupled EM/exact pairs, no interior cells recorded
    "weak_mc": [Study("weak_order", WEAK_CONFIG, _check_weak)],
    # few long coupled paths, every cell recorded
    "strong_ladder": [Study("strong_example2", STRONG_CONFIG, _check_strong, ["--as-published"])],
    # glioma flows, single strided paths and the trajectory writers
    "migration": [
        Study("tem_vs_tsm", TEM_CONFIG, _check_tem),
        Study("glioma_sweep", SWEEP_CONFIG, _check_sweep),
    ],
}


def prepare(workload: str, seed: int) -> dict:
    """Per-run references that depend only on the seed, made before timing."""
    ctx: dict = {}
    if workload == "weak_mc":
        m = WEAK_MODEL
        # the study seeds level li with seed + li
        ctx["weak_bias"] = [
            checks.weak_bias_reference(seed + li, h, WEAK_PATHS, m["mu"], m["y0"],
                                       m["jump_scale"], m["horizon"])
            for li, h in enumerate(WEAK_CONFIG["h_list"])
        ]
        ctx["exact_mean"] = checks.exact_terminal_mean(
            m["mu"], m["y0"], m["rate_value"], m["jump_scale"], m["horizon"]
        )
    return ctx
