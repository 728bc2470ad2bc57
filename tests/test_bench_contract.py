"""The names the benchmark in ``bench/`` patches and reads in the package.

``bench/layers.py`` traces a run by wrapping package functions by name and
reading the trajectories and streams they return; ``bench/run.py`` checks
the exact side of every weak-error pair through ``analysis``'s
``simulate_coupled_pair``.  These tests run that code unchanged, so a
rename or a change of call structure that would blind the benchmark fails
here first.
"""

import json
import sys
from pathlib import Path

import numpy as np

from pdifmp import analysis, build_model, cli, drivers, jump_engine, simulate_coupled_pair

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import layers  # noqa: E402


def run_cli(tmp_path: Path, name: str, config: dict) -> None:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**config, "seed": 7, "out_dir": str(tmp_path / name)}))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK


def test_tracer_counts_paths_cells_and_draws(tmp_path, monkeypatch):
    def patched_names():
        return jump_engine.simulate_path, jump_engine.simulate_coupled_pair, drivers.DriverStream.reset

    originals = patched_names()
    tracer = layers.Tracer(layers.calibrate_flows(build_model, cells=200, repeats=1))
    # the tracer sees only calls made in its own process: tem_vs_tsm's pairs
    # run in the parent at 1 worker and in forked workers at 2
    for workers, pairs in ((1, 6), (2, 0)):
        monkeypatch.setattr(cli, "_worker_count", lambda n: min(n, workers))
        tracer.clear()
        tracer.install()
        try:
            run_cli(tmp_path, f"strong-{workers}", {
                "experiment": "convergence_example2", "model": {"id": "example2"},
                "h_list": [2.0**-4, 2.0**-5], "paths": 4, "slope_band": [-10.0, 10.0],
            })
            run_cli(tmp_path, f"tem-{workers}", {
                "experiment": "tem_vs_tsm", "model": {"id": "glioma", "lambda0": 0.7, "horizon": 0.5},
                "h_list": [0.01, 0.001], "seeds": 3, "sup_ratio_max": 10.0,
            })
        finally:
            tracer.uninstall()
        assert patched_names() == originals
        metrics = tracer.metrics()
        # one traced call per tem_vs_tsm pair, 2 x 3 seeds; the strong
        # study's pairs step as lanes of coupled_distance_rows, which the
        # tracer does not wrap
        assert metrics["jump_engine.paths"] == pairs, f"{workers} workers"
        for name in ("jump_engine.cells", "jump_engine.proposals", "drivers.draws"):
            assert (metrics[name] > 0) == (pairs > 0), f"{name} at {workers} workers"


def test_weak_estimator_calls_coupled_pair_once_per_pair():
    # bench/run.py::observe_exact_side reads the exact side of each pair
    # through this name; a fixed-size estimate of M pairs must show M
    exact_ends = []

    def record(fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            exact_ends.append(float(result[1].values[-1, 0]))
            return result

        return recorded

    built = build_model("weak_test")
    m = 25
    done = layers.patch([analysis], "simulate_coupled_pair", record)
    try:
        analysis.grow_weak_error_estimate(
            built.model, built.exact, lambda y, v: y[0], 0.25, seed=3, pilot=m, max_paths=m, em=built.em
        )
    finally:
        layers.unpatch(done)
    assert analysis.simulate_coupled_pair is simulate_coupled_pair
    pairs = [
        simulate_coupled_pair(built.model, built.em, built.exact, drivers.DriverStream(3, j), h=0.25, stride=None)
        for j in range(m)
    ]
    assert np.array_equal(exact_ends, [exact.values[-1, 0] for _, exact in pairs])
