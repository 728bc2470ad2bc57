import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pdifmp.analysis import ConvergenceReport
from pdifmp.cli import EXIT_BAND, EXIT_CONFIG, EXIT_OK, ExperimentConfig, emit_plot_data, main
from pdifmp.errors import ConfigError


def write_config(path: Path, **overrides) -> Path:
    # slim smoke configs: the wide slope band keeps tiny-M pipeline checks
    # from tripping on Monte Carlo noise (the statistical gates run at full
    # scale in test_acceptance)
    cfg = {
        "experiment": "convergence_example1",
        "model": {"id": "example1"},
        "h_list": [2.0**-4, 2.0**-5, 2.0**-6],
        "paths": 8,
        "seed": 7,
        "slope_band": [0.0, 1.5],
        "out_dir": str(path / "out"),
    }
    cfg.update(overrides)
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
            {"experiment": "weak_error", "model": {"id": "weak_test"}, "h_list": [0.1], "paths": 0}
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


@pytest.mark.parametrize(
    "overrides",
    [
        dict(experiment="weak_error", model={"id": "weak_test"}, max_paths=0),
        dict(experiment="glioma_sweep", model={"id": "glioma"}, h_list=[0.01], trajectory_stride=0),
        dict(paths=2.5),
        dict(h_list=["a"]),
        dict(seed="x"),
        dict(slope_band=["a", 1]),
        dict(experiment="weak_error", model={"id": "weak_test"}, ratio_band=[1.4, None]),
        dict(experiment="weak_error", model={"id": "weak_test"}, rel_se_target="x"),
        dict(experiment="tem_vs_tsm", model={"id": "glioma"}, h_list=[0.01], sup_ratio_max="x"),
        dict(experiment="tem_vs_tsm", model={"id": "glioma"}, h_list=[0.01], sup_ratio_max=[0.2]),
        dict(experiment="tem_vs_tsm", model={"id": "glioma", "x0": "a"}, h_list=[0.01]),
        dict(experiment="tem_vs_tsm", model={"id": "glioma", "x0": math.nan}, h_list=[0.01]),
        dict(experiment="tem_vs_tsm", model={"id": "glioma", "horizon": math.inf}, h_list=[0.01]),
        dict(model={"id": "example1", "y0": math.inf}),
    ],
    ids=[
        "max_paths", "trajectory_stride", "paths", "h_list", "seed", "slope_band", "ratio_band",
        "rel_se_target", "sup_ratio_max", "sup_ratio_max_list", "glioma_x0_str", "glioma_x0_nan",
        "glioma_horizon_inf", "example1_y0_inf",
    ],
)
def test_malformed_numeric_config_exits_64(tmp_path, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert main(["validate", str(cfg)]) == EXIT_CONFIG


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
    cfg = write_config(tmp_path, model={"id": "glioma", "lambda0": 0.2, "lambda1": 0.9})
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
    cfg = write_config(
        tmp_path,
        experiment="glioma_sweep",
        model={"id": "glioma"},
        h_list=[0.01],
        sweep={"lambda0": [0.2], "lambda1": [0.08]},
        dump_trajectories=True,
        trajectory_stride=50,
    )
    # short horizon keeps this a smoke test
    raw = json.loads(Path(cfg).read_text())
    raw["model"]["horizon"] = 5.0
    Path(cfg).write_text(json.dumps(raw))
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
    cfg = write_config(
        tmp_path,
        experiment="tem_vs_tsm",
        model={"id": "glioma", "lambda0": 0.7, "lambda1": 0.08, "horizon": 5.0},
        h_list=[0.01, 0.001],
        seeds=5,
        sup_ratio_max=1.0,
    )
    code = main(["run", str(cfg)])
    assert code in (EXIT_OK, EXIT_BAND)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary["medians"]) == 2


def test_runtime_error_exits_1(tmp_path):
    # the migration model has no closed-form flow, so weak-error estimation
    # on it is a runtime failure
    cfg = write_config(
        tmp_path, experiment="weak_error", model={"id": "glioma"}, h_list=[0.01]
    )
    assert main(["run", str(cfg)]) == 1


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
    rep = ConvergenceReport("strong_rmse")
    rep.add(0.25, 0.1)
    header, rows = emit_plot_data(rep)
    assert header == ["log2_h", "log2_metric", "ref_slope_05", "ref_slope_1"]
    assert len(rows) == 1
    assert rows[0][1] == rows[0][2] == rows[0][3] == pytest.approx(math.log2(0.1))


def test_emit_plot_data_half_order_line_coincides():
    rep = ConvergenceReport("strong_rmse")
    for h in (0.5, 0.25, 0.125):
        rep.add(h, 0.3 * math.sqrt(h))
    _, rows = emit_plot_data(rep)
    for row in rows:
        assert row[1] == pytest.approx(row[2], abs=1e-12)


def test_weak_error_cli_smoke(tmp_path):
    cfg = write_config(
        tmp_path,
        experiment="weak_error",
        model={"id": "weak_test"},
        h_list=[0.25, 0.125],
        max_paths=3000,
        rel_se_target=0.5,
        ratio_band=[0.1, 40.0],
    )
    code = main(["run", str(cfg)])
    assert code in (EXIT_OK, EXIT_BAND)
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert len(rows) == 3
