"""Experiment runner: declarative configs in, CSV/JSON results out.

Subcommands: ``run <config.json>``, ``validate <config.json>``,
``list-models``.  Outputs are deterministic per (config, seed): files are
byte-identical across reruns and worker counts.  Exit codes: 0 success,
2 metric outside its acceptance band, 1 runtime failure, 64 bad config.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import fit_slope, grow_weak_error_estimate, strong_error_of_rows, sup_difference
from .core import Trajectory, validate_model
from .drivers import DriverStream
from .errors import ConfigError
from .jump_engine import coupled_distance_rows, simulate_coupled_pair, simulate_path
from .models import BuiltModel, build_model, list_model_ids

# keys every experiment reads; EXPERIMENTS below lists the others each one reads
COMMON_KEYS = ("experiment", "model", "h_list", "seed", "out_dir")

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
        experiment = _experiment(raw.get("experiment"))
        unread = set(raw) - set(COMMON_KEYS) - set(experiment.keys)
        if unread:
            raise ConfigError(f"experiment {raw['experiment']!r} does not read config keys {sorted(unread)}")
        try:
            cfg = cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        cfg.validate()
        return cfg

    def validate(self) -> None:
        experiment = _experiment(self.experiment)
        if not isinstance(self.model, dict) or "id" not in self.model:
            raise ConfigError("config.model must be an object with an 'id' key")
        if not isinstance(self.h_list, (list, tuple)) or not self.h_list:
            raise ConfigError("h_list must be a nonempty list")
        if any(not _is_real(h) or not 0.0 < h < math.inf for h in self.h_list):
            raise ConfigError(f"h_list entries must be positive finite numbers, got {self.h_list!r}")
        if list(self.h_list) != sorted(self.h_list, reverse=True) or len(set(self.h_list)) != len(self.h_list):
            raise ConfigError("h_list must be strictly decreasing")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.dump_trajectories, bool):
            raise ConfigError(f"dump_trajectories must be true or false, got {self.dump_trajectories!r}")
        for name in ("paths", "seeds", "max_paths", "trajectory_stride"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("slope_band", "ratio_band"):
            band = getattr(self, name)
            if not isinstance(band, (list, tuple)) or len(band) != 2 or not all(map(_is_real, band)):
                raise ConfigError(f"{name} must be a [lo, hi] pair of numbers, got {band!r}")
            if not all(-math.inf < end < math.inf for end in band) or band[0] > band[1]:
                raise ConfigError(f"{name} must be a finite [lo, hi] pair with lo <= hi, got {band!r}")
        for name in ("rel_se_target", "sup_ratio_max"):
            value = getattr(self, name)
            if not _is_real(value) or not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
        if "sweep" in experiment.keys:
            if not isinstance(self.sweep, dict) or sorted(self.sweep) != ["lambda0", "lambda1"]:
                raise ConfigError(f"sweep must give exactly 'lambda0' and 'lambda1', got {self.sweep!r}")
            for name, values in self.sweep.items():
                if not isinstance(values, list) or not values or not all(map(_is_real, values)):
                    raise ConfigError(f"sweep.{name} must be a nonempty list of numbers, got {values!r}")
                if name in self.model:
                    raise ConfigError(f"{name} is swept, so it cannot also be set in model")
            if len(self.h_list) != 1:
                raise ConfigError(f"a sweep runs at one step size; h_list has {len(self.h_list)} entries")
        elif len(self.h_list) < 2:
            raise ConfigError(f"a {self.experiment} study compares step sizes; h_list needs at least two entries")

    def model_kwargs(self) -> dict:
        return {k: v for k, v in self.model.items() if k != "id"}


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


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Fixed column order: t, y1..yd, v, is_jump."""
    dim = traj.values.shape[1]
    header = ["t"] + [f"y{j + 1}" for j in range(dim)] + ["v", "is_jump"]
    columns = (traj.times.tolist(), traj.values.tolist(), traj.mode_per_point().tolist(),
               traj.is_jump_point().astype(int).tolist())
    _write_csv(path, header, [[t, *y, v, jump] for t, y, v, jump in zip(*columns)])


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
        "stats": dataclasses.asdict(traj.stats),
    }
    _write_json(path, payload)


def emit_plot_data(rows: list[list]) -> tuple[list[str], list[list[float]]]:
    """log2-log2 points of ``[h, metric, ...]`` rows plus reference lines of
    slope 1/2 and 1 anchored at the first (coarsest) row."""
    if not rows:
        raise ValueError("no rows to plot")
    h0, v0 = rows[0][0], rows[0][1]
    header = ["log2_h", "log2_metric", "ref_slope_05", "ref_slope_1"]
    plot = []
    for h, value, *_ in rows:
        lh = math.log2(h)
        plot.append(
            [
                lh,
                math.log2(value),
                math.log2(v0) + 0.5 * (lh - math.log2(h0)),
                math.log2(v0) + 1.0 * (lh - math.log2(h0)),
            ]
        )
    return header, plot


# -- path-range map ------------------------------------------------------------

# the map's job while its pool runs; forked workers inherit it, since the
# models hold closures that do not pickle
_path_job: Callable[[int], object] | None = None


def _worker_count(n: int) -> int:
    """Processes a map over ``n`` paths runs on: one per core this process
    may run on, or one where the platform has no affinity mask."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def _run_path_range(bounds: tuple[int, int]) -> list:
    """A worker's results for paths ``lo..hi-1``."""
    return [_path_job(i) for i in range(*bounds)]


def _map_paths(fn: Callable[[int], object], n: int) -> list:
    """``[fn(i) for i in range(n)]``.  Each ``fn(i)`` is pure in ``i``, so
    contiguous index ranges run in forked worker processes.  The pool yields
    the ranges in index order, so the results are joined in index order and
    the earliest failing range raises first, which is the first error in
    index order.  A worker that dies raises ``BrokenProcessPool``."""
    global _path_job
    workers = _worker_count(n)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cuts = [n * w // workers for w in range(workers + 1)]
    _path_job = fn
    try:
        # fork is safe from Python 3.11, whose executor forks every worker
        # before it starts its manager thread; 3.10 forks them on demand
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return [result for part in pool.map(_run_path_range, zip(cuts, cuts[1:])) for result in part]
    finally:
        _path_job = None


# -- experiments ---------------------------------------------------------------


# what a study returns: its results.csv header and rows, its own summary.json
# entries, and whether its metric is inside its acceptance band
StudyResult = tuple[list[str], list[list], dict, bool]


def _run_strong_convergence(cfg: ExperimentConfig, models: list[BuiltModel], out: Path) -> StudyResult:
    (built,) = models
    rows = []
    for li, h in enumerate(cfg.h_list):
        path_ids = range(li * cfg.paths, (li + 1) * cfg.paths)
        rmse, se = strong_error_of_rows(
            coupled_distance_rows(built.model, built.em, built.exact, cfg.seed, path_ids, h)
        )
        rows.append([h, rmse, se, cfg.paths])
        print(f"h={h:g} rmse={rmse:.6g} se={se:.3g} paths={cfg.paths}")
    slope, intercept = fit_slope(rows)
    lo, hi = cfg.slope_band
    passed = lo <= slope <= hi
    header, plot = emit_plot_data(rows)
    _write_csv(out / "plot.csv", header, plot)
    print(f"slope={slope:.4f} band=[{lo}, {hi}] -> {'pass' if passed else 'FAIL'}")
    summary = {"metric": "strong_rmse", "slope": slope, "intercept": intercept, "slope_band": [lo, hi]}
    return ["h", "metric", "stderr", "paths"], rows, summary, passed


def _run_weak_error(cfg: ExperimentConfig, models: list[BuiltModel], out: Path) -> StudyResult:
    (built,) = models

    def F(y: tuple, v: int) -> float:
        return y[0]

    rows = []
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
        print(f"h={h:g} weak_error={est:.6g} se={se:.3g} paths={used} se_ok={se_ok}")
    estimates = [row[1] for row in rows]
    # a zero estimate leaves its ratio undefined: None (null in summary.json) fails the band
    ratios = [a / b if b != 0.0 else None for a, b in zip(estimates, estimates[1:])]
    lo, hi = cfg.ratio_band
    ratios_ok = None not in ratios and all(lo <= r <= hi for r in ratios)
    passed = all_se_ok and ratios_ok
    shown = [r if r is None else "%.3f" % r for r in ratios]
    print(f"ratios={shown} band=[{lo}, {hi}] -> {'pass' if passed else 'FAIL'}")
    summary = {"metric": "weak_error", "estimates": estimates, "ratios": ratios, "ratio_band": [lo, hi]}
    return ["h", "metric", "stderr", "paths"], rows, summary, passed


def _run_glioma_sweep(cfg: ExperimentConfig, models: list[BuiltModel], out: Path) -> StudyResult:
    (h,) = cfg.h_list
    rows = []
    ok = True
    stream = DriverStream(cfg.seed, 0)

    def path(ri: int) -> Trajectory:
        stream.reset(cfg.seed, ri)
        return simulate_path(models[ri].model, models[ri].em, stream, h=h, stride=cfg.trajectory_stride)

    for ri, (built, traj) in enumerate(zip(models, _map_paths(path, len(models)))):
        lam0, lam1 = built.params.lambda0, built.params.lambda1
        stats = traj.stats
        finite = bool(np.all(np.isfinite(traj.values)))
        rate_lo = max(0.0, lam0 - lam1)
        rate_ok = (
            math.isnan(stats.rate_min)
            or (stats.rate_min >= rate_lo - 1e-12 and stats.rate_max <= lam0 + 1e-12)
        )
        ok = ok and finite and rate_ok
        rows.append([lam0, lam1, h, traj.jump_count, stats.n_proposals, stats.rate_min, stats.rate_max,
                     stats.hint_excursions[0], stats.hint_excursions[1], int(finite)])
        if cfg.dump_trajectories:
            write_trajectory_csv(out / "trajectories" / f"glioma_{ri:03d}.csv", traj)
            write_trajectory_json(out / "trajectories" / f"glioma_{ri:03d}.json", traj)
        print(
            f"lambda0={lam0:g} lambda1={lam1:g} jumps={traj.jump_count} "
            f"excursions={stats.hint_excursions} finite={finite} rate_ok={rate_ok}"
        )
    header = ["lambda0", "lambda1", "h", "jumps", "proposals", "rate_min", "rate_max", "excursions_x",
              "excursions_z", "finite"]
    return header, rows, {"runs": len(rows)}, ok


def _run_tem_vs_tsm(cfg: ExperimentConfig, models: list[BuiltModel], out: Path) -> StudyResult:
    (built,) = models
    em = built.em
    tsm = built.splitting
    rows = []
    medians = []
    stream = DriverStream(cfg.seed, 0)

    def sup(s: int, h: float) -> float:
        stream.reset(cfg.seed + s, 0)
        return sup_difference(simulate_coupled_pair(built.model, em, tsm, stream, h=h))

    for h in cfg.h_list:
        sups = _map_paths(functools.partial(sup, h=h), cfg.seeds)
        med = statistics.median(sups)
        medians.append(med)
        for s, v in enumerate(sups):
            rows.append([h, s, v])
        print(f"h={h:g} median_sup_difference={med:.6g} over {cfg.seeds} seeds")
    decreasing = all(medians[i] > medians[i + 1] for i in range(len(medians) - 1))
    # a zero coarsest median leaves the ratio undefined: None (null in summary.json) fails the band
    ratio = medians[-1] / medians[0] if medians[0] > 0 else None
    passed = decreasing and ratio is not None and ratio <= cfg.sup_ratio_max
    shown = ratio if ratio is None else "%.4g" % ratio
    print(f"medians={['%.4g' % m for m in medians]} decreasing={decreasing} ratio={shown}")
    summary = {"medians": medians, "h_list": list(cfg.h_list), "final_over_coarsest": ratio,
               "decreasing": decreasing}
    return ["h", "seed", "sup_difference"], rows, summary, passed


@dataclass(frozen=True)
class Experiment:
    """One CLI study: its runner, the ``BuiltModel`` integrator it pairs
    with EM (None: EM alone), and the keys it reads besides ``COMMON_KEYS``.

    ``run(cfg, models, out)`` simulates the study and returns its
    ``results.csv`` table, its own ``summary.json`` entries and its verdict;
    ``run_experiment`` writes both files.  A runner writes only the side
    files its study alone makes (``plot.csv``, ``trajectories/``)."""

    run: Callable[[ExperimentConfig, list[BuiltModel], Path], StudyResult]
    pairs_with: str | None
    keys: tuple[str, ...]


_STRONG = Experiment(_run_strong_convergence, "exact", ("paths", "slope_band"))
EXPERIMENTS: dict[str, Experiment] = {
    # one study under two names: configs and summary.json carry the name
    "convergence_example1": _STRONG,
    "convergence_example2": _STRONG,
    "weak_error": Experiment(_run_weak_error, "exact", ("rel_se_target", "max_paths", "ratio_band")),
    "glioma_sweep": Experiment(_run_glioma_sweep, None, ("sweep", "dump_trajectories", "trajectory_stride")),
    "tem_vs_tsm": Experiment(_run_tem_vs_tsm, "splitting", ("seeds", "sup_ratio_max")),
}


def _experiment(name) -> Experiment:
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {list(EXPERIMENTS)}")
    return EXPERIMENTS[name]


def build_models(cfg: ExperimentConfig) -> list[BuiltModel]:
    """Every model the study runs, from ``cfg.model``: one per (lambda0,
    lambda1) point of a sweep, else one.  Raises ``ConfigError`` when the
    model lacks the integrator the study pairs with EM."""
    experiment = _experiment(cfg.experiment)
    points = [{}]
    if "sweep" in experiment.keys:
        points = [{"lambda0": l0, "lambda1": l1} for l0 in cfg.sweep["lambda0"] for l1 in cfg.sweep["lambda1"]]
    models = [build_model(cfg.model["id"], **cfg.model_kwargs(), **point) for point in points]
    if experiment.pairs_with is not None and getattr(models[0], experiment.pairs_with) is None:
        raise ConfigError(
            f"model {cfg.model['id']!r} has no {experiment.pairs_with} integrator, "
            f"which {cfg.experiment!r} pairs with EM"
        )
    return models


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run the study, write its ``results.csv`` and ``summary.json``, and
    return its exit code: 0 inside the acceptance band, 2 outside it."""
    models = build_models(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header, rows, summary, passed = EXPERIMENTS[cfg.experiment].run(cfg, models, out)
    _write_csv(out / "results.csv", header, rows)
    summary = {"experiment": cfg.experiment, "passed": passed, "seed": cfg.seed, **summary}
    _write_json(out / "summary.json", summary)
    return EXIT_OK if passed else EXIT_BAND


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
    models = build_models(cfg)
    hard = 0
    for built in models:
        report = validate_model(built.model, [built.model.initial_state])
        # bound violations are tolerated (counted, not raised) for models that
        # reproduce a published configuration verbatim
        tolerated = built.model.bound_policy == "count"
        for issue in report.issues:
            is_hard = not (tolerated and issue.check == "rate_bound")
            hard += is_hard
            print(f"{'error' if is_hard else 'note'} {issue.check}: {issue.message}")
    if hard:
        return EXIT_RUNTIME
    print(f"config ok: {len(models)} {cfg.model['id']!r} model(s), each checked at its initial state")
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
