import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

import pytest

from pdifmp import cli
from pdifmp.cli import (
    COMMON_KEYS,
    EXIT_BAND,
    EXIT_CONFIG,
    EXIT_OK,
    EXPERIMENTS,
    ExperimentConfig,
    emit_plot_data,
    main,
)
from pdifmp.drivers import DriverStream
from pdifmp.errors import ConfigError, SimulationDivergedError

# slim smoke configs, each with only the keys its experiment reads: the wide
# bands keep tiny-M pipeline checks from tripping on Monte Carlo noise (the
# statistical gates run at full scale in test_acceptance)
STRONG_BASE = {"h_list": [2.0**-4, 2.0**-5, 2.0**-6], "paths": 8, "slope_band": [0.0, 1.5]}
BASE = {
    "convergence_example1": {"model": {"id": "example1"}, **STRONG_BASE},
    "convergence_example2": {"model": {"id": "example2"}, **STRONG_BASE},
    "weak_error": {
        "model": {"id": "weak_test"}, "h_list": [0.25, 0.125], "max_paths": 3000, "rel_se_target": 0.5,
        "ratio_band": [0.1, 40.0],
    },
    "glioma_sweep": {
        "model": {"id": "glioma", "horizon": 5.0}, "h_list": [0.01],
        "sweep": {"lambda0": [0.2], "lambda1": [0.08]}, "trajectory_stride": 50,
    },
    "tem_vs_tsm": {
        "model": {"id": "glioma", "lambda0": 0.7, "lambda1": 0.08, "horizon": 5.0}, "h_list": [0.01, 0.001],
        "seeds": 5, "sup_ratio_max": 1.0,
    },
}


def write_config(path: Path, experiment: str = "convergence_example1", **overrides) -> Path:
    cfg = {"experiment": experiment, "seed": 7, "out_dir": str(path / "out"), **BASE[experiment], **overrides}
    p = path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


# -- config validation -------------------------------------------------------------


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "weak_error", "model": {"id": "x"}, "h_list": [0.1], "bogus": 1})


def test_config_rejects_zero_paths():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"experiment": "convergence_example1", "model": {"id": "example1"}, "h_list": [0.1, 0.05], "paths": 0}
        )


def test_config_requires_decreasing_h():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"experiment": "weak_error", "model": {"id": "weak_test"}, "h_list": [0.1, 0.2]}
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"experiment": "weak_error", "model": {"id": "weak_test"}, "h_list": []}
        )


def test_config_m_zero_exits_64(tmp_path):
    cfg = write_config(tmp_path, paths=0)
    assert main(["run", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_base_config_validates(tmp_path, experiment):
    # each malformed case below then fails on the key it overrides
    assert main(["validate", str(write_config(tmp_path, experiment))]) == EXIT_OK


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("weak_error", dict(max_paths=0)),
        ("glioma_sweep", dict(trajectory_stride=0)),
        ("convergence_example1", dict(paths=2.5)),
        ("convergence_example1", dict(h_list=["a"])),
        ("convergence_example1", dict(seed="x")),
        ("convergence_example1", dict(slope_band=["a", 1])),
        ("weak_error", dict(ratio_band=[1.4, None])),
        ("weak_error", dict(rel_se_target="x")),
        ("tem_vs_tsm", dict(sup_ratio_max="x")),
        ("tem_vs_tsm", dict(sup_ratio_max=[0.2])),
        ("tem_vs_tsm", dict(model={"id": "glioma", "x0": "a"})),
        ("tem_vs_tsm", dict(model={"id": "glioma", "x0": math.nan})),
        ("tem_vs_tsm", dict(model={"id": "glioma", "horizon": math.inf})),
        ("convergence_example1", dict(model={"id": "example1", "y0": math.inf})),
        ("tem_vs_tsm", dict(model={"id": "glioma", "k_plus": math.nan})),
        ("tem_vs_tsm", dict(model={"id": "glioma", "alpha": math.inf})),
        ("weak_error", dict(model={"id": "weak_test", "mu": math.nan})),
        ("convergence_example2", dict(model={"id": "example2", "sigma": math.nan})),
        ("convergence_example1", dict(model={"id": "example1", "mu": math.inf})),
    ],
    ids=[
        "max_paths", "trajectory_stride", "paths", "h_list", "seed", "slope_band", "ratio_band",
        "rel_se_target", "sup_ratio_max", "sup_ratio_max_list", "glioma_x0_str", "glioma_x0_nan",
        "glioma_horizon_inf", "example1_y0_inf", "glioma_k_plus_nan", "glioma_alpha_inf",
        "weak_test_mu_nan", "example2_sigma_nan", "example1_mu_inf",
    ],
)
def test_malformed_numeric_config_exits_64(tmp_path, experiment, overrides):
    cfg = write_config(tmp_path, experiment, **overrides)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert main(["validate", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "experiment, overrides, named",
    [
        ("tem_vs_tsm", dict(model={"id": "example2"}, h_list=[0.01, 0.005], seeds=3), "splitting"),
        ("weak_error", dict(model={"id": "glioma"}, h_list=[0.01, 0.005]), "exact"),
        ("glioma_sweep", dict(model={"id": "weak_test"}), "lambda0"),
        ("glioma_sweep", dict(sweep={"lambda0": [0.2, 0.05], "lambda1": [0.08]}), "lambda1"),
        ("glioma_sweep", dict(sweep={"lambda0": [], "lamda1": [0.08]}), "lamda1"),
        ("glioma_sweep", dict(sweep={"lambda0": [], "lambda1": [0.08]}), "lambda0"),
        ("glioma_sweep", dict(sweep={"lambda0": [0.2]}), "lambda1"),
        ("glioma_sweep", dict(h_list=[0.01, 0.005]), "h_list"),
        ("glioma_sweep", dict(model={"id": "glioma", "lambda0": 0.2}), "lambda0"),
        ("glioma_sweep", dict(dump_trajectories="false"), "dump_trajectories"),
        ("convergence_example1", dict(out_dir=5), "out_dir"),
        ("convergence_example1", dict(seeds=3), "seeds"),
        ("convergence_example2", dict(sweep={"lambda0": [0.2], "lambda1": [0.08]}), "sweep"),
        ("weak_error", dict(paths=8), "paths"),
        ("glioma_sweep", dict(paths=8), "paths"),
        ("tem_vs_tsm", dict(slope_band=[0.0, 1.5]), "slope_band"),
        ("glioma_sweep", dict(sweep={"lambda0": [0.2, math.nan], "lambda1": [0.08]}), "lambda0"),
        ("convergence_example1", dict(h_list=[math.inf, 0.0625]), "h_list"),
        ("convergence_example1", dict(slope_band=[math.nan, math.nan]), "slope_band"),
        ("weak_error", dict(ratio_band=[math.nan, 40.0]), "ratio_band"),
        ("convergence_example1", dict(slope_band=[0.9, 0.1]), "slope_band"),
        ("tem_vs_tsm", dict(sup_ratio_max=math.inf), "sup_ratio_max"),
        ("weak_error", dict(rel_se_target=math.inf), "rel_se_target"),
        ("convergence_example1", dict(h_list=[0.0625]), "h_list"),
        ("weak_error", dict(h_list=[0.25]), "h_list"),
        ("tem_vs_tsm", dict(h_list=[0.01]), "h_list"),
    ],
    ids=[
        "tem_vs_tsm_without_splitting", "weak_error_without_exact", "sweep_on_weak_test",
        "sweep_point_lambda1_above_lambda0", "sweep_misspelt_key", "sweep_empty_list", "sweep_missing_lambda1",
        "sweep_two_h", "sweep_lambda0_in_model", "dump_trajectories_str", "out_dir_int",
        "unread_key_convergence_example1", "unread_key_convergence_example2", "unread_key_weak_error",
        "unread_key_glioma_sweep", "unread_key_tem_vs_tsm", "sweep_point_lambda0_nan",
        "h_list_inf", "slope_band_nan", "ratio_band_nan", "slope_band_inverted",
        "sup_ratio_max_inf", "rel_se_target_inf", "strong_one_h", "weak_one_h", "tem_vs_tsm_one_h",
    ],
)
def test_config_run_would_not_simulate_exits_64(tmp_path, monkeypatch, capsys, experiment, overrides, named):
    # both commands reject it before any path runs, and no output is written
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, experiment, **overrides)
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    assert named in capsys.readouterr().err


def test_experiment_table_keys_are_config_fields():
    fields = set(ExperimentConfig.__dataclass_fields__)
    read = {key for experiment in EXPERIMENTS.values() for key in experiment.keys}
    assert set(COMMON_KEYS) <= fields
    assert read <= fields
    assert fields - set(COMMON_KEYS) == read


def test_unparsable_config_exits_64(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG


# -- subcommands --------------------------------------------------------------------


def test_list_models(capsys):
    assert main(["list-models"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert out == ["example1", "example2", "glioma", "weak_test"]


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["validate", str(cfg)]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_validate_bad_model_params(tmp_path):
    cfg = write_config(tmp_path, "tem_vs_tsm", model={"id": "glioma", "lambda0": 0.2, "lambda1": 0.9})
    assert main(["validate", str(cfg)]) == EXIT_CONFIG


def test_validate_rejects_parameter_the_model_does_not_read(tmp_path):
    # jump_scale belongs to example2 and weak_test, not to example1
    cfg = write_config(tmp_path, model={"id": "example1", "jump_scale": 0.5})
    assert main(["validate", str(cfg)]) == EXIT_CONFIG


def test_run_convergence_and_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, paths=20)
    assert main(["run", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "h,metric,stderr,paths"
    assert len(results) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metric"] == "strong_rmse"
    assert summary["passed"] is True
    assert 0.2 <= summary["slope"] <= 0.9
    plot = (out / "plot.csv").read_text().splitlines()
    assert plot[0] == "log2_h,log2_metric,ref_slope_05,ref_slope_1"


# sha256 of each output of two small strong studies, taken when the study
# still held every pair of a level in memory; the one-pass reduction must
# keep every byte.  With rate_value 0.02 the pairs jump, so their grid
# lengths differ; one path per level gives a NaN standard error.
STRONG_BYTES = {
    "jumps": (
        {"model": {"id": "example2", "rate_value": 0.02}, "paths": 40},
        {
            "results.csv": "8c90df8cb8ce37a5d2b80caf5be52a5931fc5b0ec693bfa1c2145eb65c3daaa6",
            "summary.json": "428f7bdfaecd77c8144b0f9ec1256425ac0aeb186c6c42e5112684f28b4019b6",
            "plot.csv": "aac5f04aa0dc1bbc0163c475a9470a4fe5ca16a40b663e5bcbf0940afa186e46",
        },
    ),
    "one_path": (
        {"paths": 1},
        {
            "results.csv": "8961d87fd8d7bc5c9de428444dfe2cb7a33eed16b3e537024172c2ce9dd2195a",
            "summary.json": "084f5b635dafe781009865c8590ae9af12573251f67568d52e46617037839237",
            "plot.csv": "4b329471e29c8559c78419fbab78141d5c29bc76046d048d1604d5e1b5811d39",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(STRONG_BYTES))
def test_strong_study_output_bytes(tmp_path, case):
    overrides, digests = STRONG_BYTES[case]
    cfg = write_config(tmp_path, "convergence_example2", slope_band=[-10.0, 10.0], **overrides)
    assert main(["run", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests} == digests


# sha256 of each output of a small run of the other three studies, taken
# while each study still wrote its own results.csv and summary.json.  The
# weak run fails its stderr rule, so its summary holds a failed verdict; the
# second sweep point jumps, the first makes no proposal (NaN rate range).
STUDY_BYTES = {
    "weak_error": (
        {},
        EXIT_BAND,
        {
            "results.csv": "44a59071f7d39647b6abcb6d5696c7c8b7e95bc96ff458e718b36a5eda0fcd35",
            "summary.json": "22165211bebace272e03799ebefddecb6b89bbf69d69d6048b484cb378e8b41e",
        },
    ),
    "tem_vs_tsm": (
        {},
        EXIT_OK,
        {
            "results.csv": "eb338d97af1fce7e8c7e6d3491809a59450a76efffc1485e37453c387b4cd2d9",
            "summary.json": "5ae662ef82d8b8ed9c1c9199bbac905804a0bb0b0967eefec1a7dae3578c74fd",
        },
    ),
    "glioma_sweep": (
        {"sweep": {"lambda0": [0.2, 0.7], "lambda1": [0.08]}, "dump_trajectories": True, "trajectory_stride": 7},
        EXIT_OK,
        {
            "results.csv": "be44cfdfd79d75eae20dd8de8059f85f0418d5134338057b6e09f5cf73ca1272",
            "summary.json": "40b6245a893ceaab9bc0a2f4d69c707ce60310fa3021557fcfde44ce85a64875",
            "trajectories/glioma_000.csv": "8b6ed1c986d8bac6093440671dd4163f0feaec28e6741451e94ce9fe85441f8e",
            "trajectories/glioma_000.json": "cb9c6cc8a6ff4a64064afee5a2c148793574880df7009b5d29c5b15b7cd94da9",
            "trajectories/glioma_001.csv": "178a2728a5411c86f28bb361c029eb340d5102babc15dedf748b7284bb0482eb",
            "trajectories/glioma_001.json": "e54cc29bc2167700add3a44a4b273d2f59784af81d67e556fe06b77eac01e02f",
            "trajectories/": "206e56d80ed3a2f5f7c304809b5595c0f7dfec924cea3fa5b5d222352955567c",
        },
    ),
}
# the studies that map their paths over worker processes, and the worker
# counts their bytes are pinned at; the weak study runs in-process
WORKER_COUNTS = {"weak_error": (1,), "tem_vs_tsm": (1, 2), "glioma_sweep": (1, 2)}


def digest(out: Path, name: str) -> str:
    """sha256 of a file; of a directory (``name`` ends in ``/``), sha256 of
    its file names, each with its file's digest."""
    if name.endswith("/"):
        files = sorted(p.name for p in (out / name).iterdir())
        return hashlib.sha256("".join(f"{f} {digest(out / name, f)}\n" for f in files).encode()).hexdigest()
    return hashlib.sha256((out / name).read_bytes()).hexdigest()


def use_workers(monkeypatch, workers: int) -> None:
    """Map paths over at most ``workers`` processes, whatever the host has."""
    monkeypatch.setattr(cli, "_worker_count", lambda n: min(n, workers))


@pytest.mark.parametrize("experiment", sorted(STUDY_BYTES))
def test_study_output_bytes(tmp_path, monkeypatch, experiment):
    overrides, code, digests = STUDY_BYTES[experiment]
    for workers in WORKER_COUNTS[experiment]:
        use_workers(monkeypatch, workers)
        out = tmp_path / f"out-{workers}"
        assert main(["run", str(write_config(tmp_path, experiment, out_dir=str(out), **overrides))]) == code
        assert {name: digest(out, name) for name in digests} == digests, f"{workers} workers"
        assert multiprocessing.active_children() == []


def test_path_map_joins_ranges_in_index_order(monkeypatch):
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        for n in (1, 2, 7):
            assert cli._map_paths(lambda i: i * i, n) == [i * i for i in range(n)]
    assert multiprocessing.active_children() == []


class KeyedStream(DriverStream):
    """A driver stream that remembers the (seed, path_id) it was keyed with."""

    def reset(self, seed, path_id):
        super().reset(seed, path_id)
        self.key = (seed, path_id)


# per study: overrides, the engine function it calls and the keys of the
# paths made to diverge, one in each worker's range at 2 workers
DIVERGING = {
    "glioma_sweep": ({"sweep": {"lambda0": [0.2, 0.3, 0.5, 0.7], "lambda1": [0.08]}}, "simulate_path",
                     {(7, 1), (7, 3)}),
    "tem_vs_tsm": ({"seeds": 5}, "simulate_coupled_pair", {(8, 0), (11, 0)}),
}


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("experiment", sorted(DIVERGING))
def test_worker_failure_reported_as_serial(tmp_path, monkeypatch, capsys, experiment):
    overrides, engine, bad = DIVERGING[experiment]
    real = getattr(cli, engine)

    def diverging(model, *args, **kwargs):
        stream = next(a for a in args if isinstance(a, KeyedStream))
        if stream.key in bad:
            raise SimulationDivergedError(0.5, (math.inf, 0.0), f"path {stream.key}")
        return real(model, *args, **kwargs)

    monkeypatch.setattr(cli, "DriverStream", KeyedStream)
    monkeypatch.setattr(cli, engine, diverging)
    reports = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        with deadline(60):
            code = main(["run", str(write_config(tmp_path, experiment, **overrides))])
        reports.append((code, capsys.readouterr()))
        assert multiprocessing.active_children() == []
    (code1, serial), (code2, mapped) = reports
    first = min(bad)
    assert code1 == code2 == cli.EXIT_RUNTIME
    assert serial.err == f"error: SimulationDivergedError: non-finite state at t=0.5: y=(inf, 0.0) (path {first})\n"
    assert mapped == serial


def test_dead_worker_ends_the_run(tmp_path, monkeypatch, capsys):
    # os._exit in the pytest process itself would end pytest, so the
    # map always runs at 2 workers here: paths 5 and 1 are in the second range
    use_workers(monkeypatch, 2)
    with deadline(30), pytest.raises(BrokenProcessPool):
        cli._map_paths(lambda i: os._exit(3) if i == 5 else i, 8)
    assert multiprocessing.active_children() == []

    real = cli.simulate_path

    def dying(model, em, stream, **kwargs):
        if stream.key == (7, 1):
            os._exit(3)
        return real(model, em, stream, **kwargs)

    monkeypatch.setattr(cli, "DriverStream", KeyedStream)
    monkeypatch.setattr(cli, "simulate_path", dying)
    cfg = write_config(tmp_path, "glioma_sweep", sweep={"lambda0": [0.2, 0.7], "lambda1": [0.08]})
    with deadline(30):
        assert main(["run", str(cfg)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error: BrokenProcessPool: ")
    assert multiprocessing.active_children() == []


def test_run_band_failure_exits_2(tmp_path):
    cfg = write_config(tmp_path, paths=20, slope_band=[9.0, 9.5])
    assert main(["run", str(cfg)]) == EXIT_BAND


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, paths=10, out_dir=str(tmp_path / "oa"))
    main(["run", str(cfg)])
    cfg2 = write_config(tmp_path, paths=10, out_dir=str(tmp_path / "ob"))
    main(["run", str(cfg2), "--seed", "99"])
    a = (tmp_path / "oa" / "results.csv").read_bytes()
    b = (tmp_path / "ob" / "results.csv").read_bytes()
    assert a != b


def test_glioma_sweep_runs(tmp_path):
    # the base config's short horizon keeps this a smoke test
    cfg = write_config(tmp_path, "glioma_sweep", dump_trajectories=True)
    assert main(["run", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0].startswith("lambda0,lambda1,h,jumps")
    traj = (out / "trajectories" / "glioma_000.csv").read_text().splitlines()
    assert traj[0] == "t,y1,y2,v,is_jump"
    assert len(traj) > 2
    dump = json.loads((out / "trajectories" / "glioma_000.json").read_text())
    assert len(dump["times"]) == len(traj) - 1
    assert dump["jump_count"] == len(dump["jump_times"]) - 1
    assert dump["stats"]["n_accepted"] <= dump["stats"]["n_proposals"]


def test_tem_vs_tsm_smoke(tmp_path):
    cfg = write_config(tmp_path, "tem_vs_tsm")
    code = main(["run", str(cfg)])
    assert code in (EXIT_OK, EXIT_BAND)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary["medians"]) == 2


def test_runtime_error_exits_1(tmp_path):
    # a valid config whose run diverges: jump factors e^eta with eta of mean
    # 1000 overflow the state (first at t ~ 0.048)
    cfg = write_config(
        tmp_path,
        model={"id": "example1", "rate_value": 50.0, "magnitude_rate": 1e-3},
        h_list=[0.0625, 0.03125],
        paths=2,
    )
    assert main(["validate", str(cfg)]) == EXIT_OK
    assert main(["run", str(cfg)]) == 1


def test_shipped_example1_aborts_at_seed_4_as_the_scalar_engine(tmp_path, capsys):
    # path 0 of the first level overflows at its first jump; the lanes hand
    # the level to the scalar engine, which names that path's error
    repo = Path(__file__).resolve().parent.parent
    config = repo / "configs" / "strong_order_example1.json"
    assert main(["run", str(config), "--seed", "4", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: SimulationDivergedError: non-finite state at t=0.21786507445845232: y=(49.894375601901324,) "
        "(side a, euler_maruyama: overflow in the continuous-state jump transform)\n"
    )


def test_shipped_configs_validate():
    repo = Path(__file__).resolve().parent.parent
    configs = sorted((repo / "configs").glob("*.json"))
    assert len(configs) == 5
    for cfg in configs:
        assert main(["validate", str(cfg)]) == EXIT_OK, cfg.name


def test_entry_point_exit_code_contract():
    # run from the checkout's src, so no install is needed
    proc = subprocess.run(
        [sys.executable, "-m", "pdifmp.cli", "list-models"],
        capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1] / "src",
    )
    assert proc.returncode == 0
    assert "glioma" in proc.stdout


def test_emit_plot_data_single_row():
    header, rows = emit_plot_data([[0.25, 0.1, math.nan, 0]])
    assert header == ["log2_h", "log2_metric", "ref_slope_05", "ref_slope_1"]
    assert len(rows) == 1
    assert rows[0][1] == rows[0][2] == rows[0][3] == pytest.approx(math.log2(0.1))


def test_emit_plot_data_half_order_line_coincides():
    _, rows = emit_plot_data([[h, 0.3 * math.sqrt(h)] for h in (0.5, 0.25, 0.125)])
    for row in rows:
        assert row[1] == pytest.approx(row[2], abs=1e-12)


def test_weak_error_cli_smoke(tmp_path):
    cfg = write_config(tmp_path, "weak_error")
    code = main(["run", str(cfg)])
    assert code in (EXIT_OK, EXIT_BAND)
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert len(rows) == 3


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}, which strict JSON parsers reject")


def test_weak_error_of_zero_fails_its_band_with_outputs(tmp_path, capsys):
    # with mu = sigma = 0 both sides stay at y0, so every estimate is 0: the
    # ratio of two is undefined, written as null, which fails the band, and
    # both files are written as strict JSON
    cfg = write_config(
        tmp_path, "weak_error", model={"id": "weak_test", "mu": 0, "sigma": 0}, max_paths=50,
        ratio_band=[1.4, 2.8],
    )
    assert main(["run", str(cfg)]) == EXIT_BAND
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    assert (out / "results.csv").read_text().splitlines()[1:] == ["0.25,0.0,0.0,50", "0.125,0.0,0.0,50"]
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["estimates"] == [0.0, 0.0] and summary["ratios"] == [None] and not summary["passed"]


def test_tem_vs_tsm_of_zero_fails_its_band_with_strict_json(tmp_path, monkeypatch):
    # every sup difference 0 makes the coarsest median 0: the final over
    # coarsest ratio is undefined, written as null, which fails the band
    monkeypatch.setattr(cli, "sup_difference", lambda pair: 0.0)
    cfg = write_config(tmp_path, "tem_vs_tsm", model={"id": "glioma", "horizon": 0.5}, h_list=[0.02, 0.01], seeds=3)
    assert main(["run", str(cfg)]) == EXIT_BAND
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["medians"] == [0.0, 0.0] and summary["final_over_coarsest"] is None and not summary["passed"]
