"""Experiment runner: declarative configs in, CSV/JSON results out.

Subcommands: ``run <config.json>``, ``validate <config.json>``,
``list-models``.  Outputs are deterministic per (config, seed): files are
byte-identical across reruns.  Exit codes: 0 success,
2 metric outside its acceptance band, 1 runtime failure, 64 bad config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    ConvergenceReport,
    grow_weak_error_estimate,
    strong_rmse,
    sup_difference,
)
from .core import Trajectory, validate_model
from .drivers import DriverStream
from .errors import ConfigError
from .jump_engine import simulate_coupled_pair, simulate_path
from .models import build_model, list_model_ids

EXPERIMENTS = (
    "convergence_example1",
    "convergence_example2",
    "weak_error",
    "glioma_sweep",
    "tem_vs_tsm",
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_BAND = 2
EXIT_CONFIG = 64


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    experiment: str
    model: dict
    h_list: list[float]
    paths: int = 200
    seed: int = 12345
    out_dir: str = "results"
    seeds: int = 50
    slope_band: tuple[float, float] = (0.35, 0.65)
    ratio_band: tuple[float, float] = (1.4, 2.8)
    rel_se_target: float = 0.18
    max_paths: int = 2_500_000
    sup_ratio_max: float = 0.2
    sweep: dict = field(default_factory=dict)
    dump_trajectories: bool = False
    trajectory_stride: int = 1000

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; known: {EXPERIMENTS}")
        if not isinstance(self.model, dict) or "id" not in self.model:
            raise ConfigError("config.model must be an object with an 'id' key")
        if not isinstance(self.h_list, (list, tuple)) or not self.h_list:
            raise ConfigError("h_list must be a nonempty list")
        if any(not _is_real(h) or not h > 0.0 for h in self.h_list):
            raise ConfigError(f"h_list entries must be positive numbers, got {self.h_list!r}")
        if list(self.h_list) != sorted(self.h_list, reverse=True) or len(set(self.h_list)) != len(self.h_list):
            raise ConfigError("h_list must be strictly decreasing")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        for name in ("paths", "seeds", "max_paths", "trajectory_stride"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("slope_band", "ratio_band"):
            band = getattr(self, name)
            if not isinstance(band, (list, tuple)) or len(band) != 2 or not all(map(_is_real, band)):
                raise ConfigError(f"{name} must be a [lo, hi] pair of numbers, got {band!r}")
        for name in ("rel_se_target", "sup_ratio_max"):
            value = getattr(self, name)
            if not _is_real(value) or not value > 0.0:
                raise ConfigError(f"{name} must be a positive number, got {value!r}")

    def model_kwargs(self) -> dict:
        kw = dict(self.model)
        kw.pop("id")
        return kw


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) for c in row])


def _jsonable(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Fixed column order: t, y1..yd, v, is_jump."""
    dim = traj.values.shape[1]
    header = ["t"] + [f"y{j + 1}" for j in range(dim)] + ["v", "is_jump"]
    modes = traj.mode_per_point()
    jumps = traj.is_jump_point()
    rows = []
    for i in range(len(traj.times)):
        rows.append(
            [float(traj.times[i])]
            + [float(c) for c in traj.values[i]]
            + [int(modes[i]), int(jumps[i])]
        )
    _write_csv(path, header, rows)


def write_trajectory_json(path: Path, traj: Trajectory) -> None:
    """Full-grid dump: grid, jump bookkeeping and path statistics."""
    payload = {
        "times": traj.times.tolist(),
        "values": traj.values.tolist(),
        "modes": traj.mode_per_point().tolist(),
        "jump_times": traj.jump_times.tolist(),
        "interval_modes": traj.interval_modes.tolist(),
        "post_jump_values": traj.post_jump_values.tolist(),
        "jump_count": traj.jump_count,
        "stats": {
            "n_proposals": traj.stats.n_proposals,
            "n_accepted": traj.stats.n_accepted,
            "n_cells": traj.stats.n_cells,
            "bound_violations": traj.stats.bound_violations,
            "rate_min": traj.stats.rate_min,
            "rate_max": traj.stats.rate_max,
            "hint_excursions": list(traj.stats.hint_excursions),
        },
    }
    _write_json(path, payload)


def emit_plot_data(report: ConvergenceReport) -> tuple[list[str], list[list[float]]]:
    """log2-log2 rows plus reference lines of slope 1/2 and 1 anchored at
    the coarsest step size."""
    if not report.rows:
        raise ValueError("report has no rows")
    h0 = report.rows[0].h
    v0 = report.rows[0].value
    header = ["log2_h", "log2_metric", "ref_slope_05", "ref_slope_1"]
    rows = []
    for r in report.rows:
        lh = math.log2(r.h)
        rows.append(
            [
                lh,
                math.log2(r.value),
                math.log2(v0) + 0.5 * (lh - math.log2(h0)),
                math.log2(v0) + 1.0 * (lh - math.log2(h0)),
            ]
        )
    return header, rows


# -- experiments ---------------------------------------------------------------


def _run_strong_convergence(cfg: ExperimentConfig, out: Path) -> int:
    built = build_model(cfg.model["id"], **cfg.model_kwargs())
    if built.exact is None:
        raise ConfigError(f"model {cfg.model['id']!r} has no exact flow for strong-error coupling")
    em = built.em
    report = ConvergenceReport("strong_rmse")
    stream = DriverStream(cfg.seed, 0)
    for li, h in enumerate(cfg.h_list):
        pairs = []
        for j in range(cfg.paths):
            stream.reset(cfg.seed, li * cfg.paths + j)
            pairs.append(simulate_coupled_pair(built.model, em, built.exact, stream, h=h))
        rmse = strong_rmse(pairs)
        # standard error via the delta method at the worst grid index
        n_common = min(len(p[0].times) for p in pairs)
        d2 = np.stack(
            [
                np.einsum("ij,ij->i", a.values[:n_common] - b.values[:n_common],
                          a.values[:n_common] - b.values[:n_common])
                for a, b in pairs
            ]
        )
        worst = int(np.argmax(d2.mean(axis=0)))
        se_meansq = float(d2[:, worst].std(ddof=1) / math.sqrt(cfg.paths)) if cfg.paths > 1 else math.nan
        se = se_meansq / (2.0 * rmse) if rmse > 0 else math.nan
        report.add(h, rmse, se, cfg.paths)
        print(f"h={h:g} rmse={rmse:.6g} se={se:.3g} paths={cfg.paths}")
    slope, intercept = report.fit()
    lo, hi = cfg.slope_band
    passed = lo <= slope <= hi
    _write_csv(
        out / "results.csv",
        ["h", "metric", "stderr", "paths"],
        [[r.h, r.value, r.stderr, r.n_paths] for r in report.rows],
    )
    header, rows = emit_plot_data(report)
    _write_csv(out / "plot.csv", header, rows)
    _write_json(
        out / "summary.json",
        {
            "experiment": cfg.experiment,
            "metric": "strong_rmse",
            "slope": slope,
            "intercept": intercept,
            "slope_band": list(cfg.slope_band),
            "passed": passed,
            "seed": cfg.seed,
        },
    )
    print(f"slope={slope:.4f} band=[{lo}, {hi}] -> {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_BAND


def _run_weak_error(cfg: ExperimentConfig, out: Path) -> int:
    built = build_model(cfg.model["id"], **cfg.model_kwargs())

    def F(y: tuple, v: int) -> float:
        return y[0]

    rows = []
    estimates = []
    all_se_ok = True
    for li, h in enumerate(cfg.h_list):
        est, se, used = grow_weak_error_estimate(
            built.model,
            built.exact,
            F,
            h,
            seed=cfg.seed + li,
            rel_se_target=cfg.rel_se_target,
            max_paths=cfg.max_paths,
            em=built.em,
        )
        se_ok = est != 0.0 and se < 0.2 * abs(est)
        all_se_ok = all_se_ok and se_ok
        rows.append([h, est, se, used])
        estimates.append(est)
        print(f"h={h:g} weak_error={est:.6g} se={se:.3g} paths={used} se_ok={se_ok}")
    ratios = [estimates[i] / estimates[i + 1] for i in range(len(estimates) - 1)]
    lo, hi = cfg.ratio_band
    ratios_ok = all(lo <= r <= hi for r in ratios)
    passed = all_se_ok and ratios_ok
    _write_csv(out / "results.csv", ["h", "metric", "stderr", "paths"], rows)
    _write_json(
        out / "summary.json",
        {
            "experiment": cfg.experiment,
            "metric": "weak_error",
            "estimates": estimates,
            "ratios": ratios,
            "ratio_band": list(cfg.ratio_band),
            "passed": passed,
            "seed": cfg.seed,
        },
    )
    print(f"ratios={['%.3f' % r for r in ratios]} band=[{lo}, {hi}] -> {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_BAND


def _run_glioma_sweep(cfg: ExperimentConfig, out: Path) -> int:
    lam0_list = cfg.sweep.get("lambda0", [0.2, 0.7])
    lam1_list = cfg.sweep.get("lambda1", [0.08])
    h = cfg.h_list[-1]
    rows = []
    ok = True
    runs = [(l0, l1) for l0 in lam0_list for l1 in lam1_list]
    stream = DriverStream(cfg.seed, 0)
    for ri, (lam0, lam1) in enumerate(runs):
        kw = cfg.model_kwargs()
        kw.update(lambda0=lam0, lambda1=lam1)
        built = build_model("glioma", **kw)
        stream.reset(cfg.seed, ri)
        traj = simulate_path(
            built.model, built.em, stream, h=h, stride=cfg.trajectory_stride
        )
        finite = bool(np.all(np.isfinite(traj.values)))
        rate_lo = max(0.0, lam0 - lam1)
        rate_ok = (
            math.isnan(traj.stats.rate_min)
            or (traj.stats.rate_min >= rate_lo - 1e-12 and traj.stats.rate_max <= lam0 + 1e-12)
        )
        ok = ok and finite and rate_ok
        rows.append(
            [
                lam0,
                lam1,
                h,
                traj.jump_count,
                traj.stats.n_proposals,
                traj.stats.rate_min,
                traj.stats.rate_max,
                traj.stats.hint_excursions[0],
                traj.stats.hint_excursions[1],
                int(finite),
            ]
        )
        if cfg.dump_trajectories:
            write_trajectory_csv(out / "trajectories" / f"glioma_{ri:03d}.csv", traj)
            write_trajectory_json(out / "trajectories" / f"glioma_{ri:03d}.json", traj)
        print(
            f"lambda0={lam0:g} lambda1={lam1:g} jumps={traj.jump_count} "
            f"excursions={traj.stats.hint_excursions} finite={finite} rate_ok={rate_ok}"
        )
    _write_csv(
        out / "results.csv",
        [
            "lambda0",
            "lambda1",
            "h",
            "jumps",
            "proposals",
            "rate_min",
            "rate_max",
            "excursions_x",
            "excursions_z",
            "finite",
        ],
        rows,
    )
    _write_json(
        out / "summary.json",
        {"experiment": cfg.experiment, "passed": ok, "runs": len(rows), "seed": cfg.seed},
    )
    return EXIT_OK if ok else EXIT_BAND


def _run_tem_vs_tsm(cfg: ExperimentConfig, out: Path) -> int:
    built = build_model("glioma", **cfg.model_kwargs())
    em = built.em
    tsm = built.splitting
    rows = []
    medians = []
    stream = DriverStream(cfg.seed, 0)
    for h in cfg.h_list:
        sups = []
        for s in range(cfg.seeds):
            stream.reset(cfg.seed + s, 0)
            sups.append(sup_difference(simulate_coupled_pair(built.model, em, tsm, stream, h=h)))
        med = statistics.median(sups)
        medians.append(med)
        for s, v in enumerate(sups):
            rows.append([h, s, v])
        print(f"h={h:g} median_sup_difference={med:.6g} over {cfg.seeds} seeds")
    decreasing = all(medians[i] > medians[i + 1] for i in range(len(medians) - 1))
    ratio = medians[-1] / medians[0] if medians[0] > 0 else math.inf
    passed = decreasing and ratio <= cfg.sup_ratio_max
    _write_csv(out / "results.csv", ["h", "seed", "sup_difference"], rows)
    _write_json(
        out / "summary.json",
        {
            "experiment": cfg.experiment,
            "medians": medians,
            "h_list": list(cfg.h_list),
            "final_over_coarsest": ratio,
            "decreasing": decreasing,
            "passed": passed,
            "seed": cfg.seed,
        },
    )
    print(f"medians={['%.4g' % m for m in medians]} decreasing={decreasing} ratio={ratio:.4g}")
    return EXIT_OK if passed else EXIT_BAND


def run_experiment(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.experiment == "convergence_example1" or cfg.experiment == "convergence_example2":
        return _run_strong_convergence(cfg, out)
    if cfg.experiment == "weak_error":
        return _run_weak_error(cfg, out)
    if cfg.experiment == "glioma_sweep":
        return _run_glioma_sweep(cfg, out)
    if cfg.experiment == "tem_vs_tsm":
        return _run_tem_vs_tsm(cfg, out)
    raise ConfigError(f"unknown experiment {cfg.experiment!r}")


# -- entry points --------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.as_published:
        cfg.model["as_published"] = True
    cfg.validate()
    return run_experiment(cfg)


def _cmd_validate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    built = build_model(cfg.model["id"], **cfg.model_kwargs())
    report = validate_model(built.model, [built.model.initial_state])
    # bound violations are tolerated (counted, not raised) for models that
    # reproduce a published configuration verbatim
    tolerated = built.model.bound_policy == "count"
    hard = [i for i in report.issues if not (tolerated and i.check == "rate_bound")]
    for issue in report.issues:
        level = "note" if issue not in hard else "error"
        print(f"{level} {issue.check}: {issue.message}")
    if hard:
        return EXIT_RUNTIME
    print(f"config ok: model {cfg.model['id']!r}, {report.checked_states} probe state(s) checked")
    return EXIT_OK


def _cmd_list_models(args) -> int:
    for mid in list_model_ids():
        print(mid)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pdifmp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument(
        "--as-published",
        action="store_true",
        help="use the published figure configuration verbatim, even where its "
        "dominating rate bound is inconsistent (violations are counted, not raised)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and its model")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_ls = sub.add_parser("list-models", help="list catalog model ids")
    p_ls.set_defaults(fn=_cmd_list_models)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
