"""Per-layer spans, recorded from outside the package.

While a traced round runs, the benchmark wraps the public calls into each
module (``drivers``, ``flows``, ``jump_engine``, ``analysis``, ``cli``,
``models``) and restores the originals afterwards.  A layer's self time is
the time its spans cover minus the time of the spans they cause.

Per-cell ``step`` calls are never wrapped: at millions of cells the
wrapper would cost more than the step.  Cells stepped one by one are
charged to ``flows`` at a per-cell cost measured apart (``calibrate_flows``)
and taken off the engine's self time; that share is computed, not timed.
Cells run through ``run_cells`` are timed as spans of their own.
"""

from __future__ import annotations

import math
import time

import numpy as np

_now = time.perf_counter_ns

LAYERS = ("drivers", "flows", "jump_engine", "analysis", "cli", "models")

# integrator class name -> flow metric suffix
FLOW_KINDS = {
    "GbmEulerMaruyama": "gbm_em",
    "ExactGBMFlow": "exact_gbm",
    "GliomaEulerMaruyama": "glioma_em",
    "GliomaSplitting": "glioma_splitting",
}


def patch(owners, name: str, make) -> list[tuple]:
    """Replace ``name`` by ``make(original)`` on every owner that holds the
    first owner's object; returns the records ``unpatch`` restores."""
    original = getattr(owners[0], name)
    replacement = make(original)
    done = []
    for owner in owners:
        if getattr(owner, name, None) is original:
            done.append((owner, name, original))
            setattr(owner, name, replacement)
    return done


def unpatch(done: list[tuple]) -> None:
    while done:
        owner, name, original = done.pop()
        setattr(owner, name, original)


class Tracer:
    def __init__(self, cell_ns: dict[str, float]) -> None:
        self.cell_ns = cell_ns
        self._stack: list[list] = []  # frames: [time of child spans, name]
        self._patches: list[tuple] = []
        self.clear()

    def clear(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.engine_ns = 0
        self.reset_ns = 0
        self.resets = 0
        self.draw_ns = 0
        self.draws = 0
        self.run_cells_calls = 0
        self.step_flow_ns = 0.0
        self.paths = 0
        self.cells = 0
        self.proposals = 0
        self.offered = 0
        self.accepted = 0
        self.recorded_bytes = 0
        self.weak_paths: list[int] = []

    # -- spans ------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, before=None, after=None):
        stack = self._stack
        self_ns = self.self_ns

        def traced(*args, **kwargs):
            token = before() if before is not None else None
            frame = [0, name]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                stack.pop()
                self_ns[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(dt, args, result, token)
            return result

        return traced

    def _patch(self, owners, name: str, layer: str, before=None, after=None) -> None:
        self._patches += patch(owners, name, lambda fn: self._wrap(layer, name, fn, before, after))

    def install(self) -> None:
        import pdifmp
        from pdifmp import analysis, cli, drivers, flows, jump_engine

        mods = [jump_engine, pdifmp, cli, analysis, drivers]

        # drivers: one keyed stream per path, whether forked or re-keyed
        def on_fork(dt, args, result, token):
            self.reset_ns += dt
            self.resets += 1

        def on_reset(dt, args, result, token):
            if not (self._stack and self._stack[-1][1] == "fork_for_path"):
                on_fork(dt, args, result, token)

        def on_draw(dt, args, result, token):
            self.draw_ns += dt

        self._patch([drivers] + mods, "fork_for_path", "drivers", after=on_fork)
        self._patch([drivers.DriverStream], "reset", "drivers", after=on_reset)
        for name in ("proposal_time", "thinning_uniform", "kernel_slots", "wiener_block"):
            self._patch([drivers.DriverStream], name, "drivers", after=on_draw)

        # flows: segments run through run_cells
        def on_run_cells(dt, args, result, token):
            self.run_cells_calls += 1

        for cls_name in FLOW_KINDS:
            cls = getattr(flows, cls_name)
            if "run_cells" in vars(cls):
                self._patch([cls], "run_cells", "flows", after=on_run_cells)

        # engine
        def engine_after(n_flows: int):
            def after(dt, args, result, run_cells_before):
                integrators = args[1 : 1 + n_flows]
                stream = args[1 + n_flows]
                trajs = result if n_flows == 2 else (result,)
                cells = trajs[0].stats.n_cells
                self.engine_ns += dt
                self.paths += 1
                self.draws += sum(stream.counters)
                self.cells += cells
                self.proposals += trajs[0].stats.n_proposals
                for tr in trajs:
                    self.offered += tr.stats.n_proposals
                    self.accepted += tr.stats.n_accepted
                    self.recorded_bytes += sum(
                        a.nbytes for a in (tr.times, tr.values, tr.jump_times,
                                           tr.interval_modes, tr.post_jump_values)
                    )
                if self.run_cells_calls == run_cells_before:  # stepped cell by cell
                    self.step_flow_ns += cells * sum(
                        self.cell_ns.get(FLOW_KINDS.get(type(i).__name__), 0.0) for i in integrators
                    )

            return after

        def run_cells_mark():
            return self.run_cells_calls

        self._patch(mods, "simulate_path", "jump_engine", run_cells_mark, engine_after(1))
        self._patch(mods, "simulate_coupled_pair", "jump_engine", run_cells_mark, engine_after(2))

        # analysis
        def on_weak(dt, args, result, token):
            self.weak_paths.append(result[2])

        self._patch([analysis] + mods, "strong_rmse", "analysis")
        self._patch([analysis] + mods, "sup_difference", "analysis")
        self._patch([analysis] + mods, "fit_slope", "analysis")
        self._patch([analysis] + mods, "grow_weak_error_estimate", "analysis", after=on_weak)

        # cli, and models built inside the studies
        self._patch([cli], "run_experiment", "cli")
        self._patch([cli], "build_model", "models")

    def uninstall(self) -> None:
        unpatch(self._patches)

    # -- per-round metrics --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s = 1e-9
        return {
            "drivers.reset_us": self.reset_ns / max(self.resets, 1) / 1e3,
            "drivers.draw_ns": self.draw_ns / max(self.draws, 1),
            "drivers.busy_s": self.self_ns["drivers"] * s,
            "drivers.draws": self.draws,
            "flows.busy_s": (self.self_ns["flows"] + self.step_flow_ns) * s,
            "jump_engine.self_s": (self.self_ns["jump_engine"] - self.step_flow_ns) * s,
            "jump_engine.path_us": self.engine_ns / max(self.paths, 1) / 1e3,
            "jump_engine.paths": self.paths,
            "jump_engine.cells": self.cells,
            "jump_engine.proposals": self.proposals,
            "jump_engine.accept_ratio": self.accepted / self.offered if self.offered else 0.0,
            "jump_engine.recorded_mb": self.recorded_bytes / 1e6,
            "analysis.self_s": self.self_ns["analysis"] * s,
            "analysis.weak_paths": sum(self.weak_paths) / len(self.weak_paths) if self.weak_paths else 0,
            "cli.self_s": self.self_ns["cli"] * s,
        }


def calibrate_flows(build_model, cells: int = 50_000, repeats: int = 5) -> dict[str, float]:
    """Median nanoseconds per ``step`` call of each integrator, on the
    models the workloads use, in a loop shaped like the engine's."""
    from workloads import EXAMPLE2_MODEL, TEM_MODEL

    def build(spec: dict, **extra):
        return build_model(spec["id"], **{k: v for k, v in spec.items() if k != "id"}, **extra)

    gbm = build(EXAMPLE2_MODEL, as_published=True)
    glioma = build(TEM_MODEL)
    cases = {
        "gbm_em": (gbm.model, gbm.em, 2.0**-10),
        "exact_gbm": (gbm.model, gbm.exact, 2.0**-10),
        "glioma_em": (glioma.model, glioma.em, 1e-4),
        "glioma_splitting": (glioma.model, glioma.splitting, 1e-4),
    }
    rng = np.random.default_rng(0)
    out = {}
    for kind, (model, flow, h) in cases.items():
        dws = (rng.standard_normal(cells) * math.sqrt(h)).tolist()
        step = flow.step
        v = model.initial_state.v
        samples = []
        for _ in range(repeats):
            y = model.initial_state.y
            t0 = _now()
            for dw in dws:
                y = step(model, y, v, h, dw)
            samples.append((_now() - t0) / cells)
        out[kind] = sorted(samples)[repeats // 2]
    return out
