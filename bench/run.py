"""Benchmark of the shipped studies, end to end and per module.

Usage, from the repository root:

    python3 bench/run.py --workload weak_mc|strong_ladder|migration
                         [--seed 12345] [--seconds 30] [--trace 0|1]

Each run measures set-up in fresh interpreters, makes the seed's
references, then repeats whole rounds of the workload's studies through
``pdifmp.cli.main`` until ``run_seconds`` (from BENCHMARK.json) have
passed; ``--seconds`` is accepted only with that value.  Every round's outputs
are checked against the references and against the first round's bytes;
the first round also checks the weak study's exact side.  The last
line of standard output is one JSON object; with ``--trace 0`` it holds
the end-to-end metrics, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import os

# one program thread: pin native pools before numpy loads, and let the
# program's own default worker count apply
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PDIFMP_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402


def measure_setup(config_args: list[str]) -> list[dict]:
    """Run the set-up probe in fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)] + config_args,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def diverged(rc: int, err: str) -> bool:
    """The program's documented abort: exit 1 from a path that diverged."""
    return rc == 1 and "SimulationDivergedError" in err


def output_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in (out / "results.csv", out / "summary.json")}


def written_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


class Round:
    """One pass over a workload's studies through the CLI."""

    def __init__(self, studies, seed: int, run_dir: Path, ctx: dict, clock: HostClock) -> None:
        self.studies = studies
        self.clock = clock
        self.seed = seed
        self.run_dir = run_dir
        self.ctx = ctx
        self.reference_bytes: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # a rejected check, or a non-zero exit other than ``diverged``

    def _check(self, st, out: Path) -> list[str]:
        try:
            return st.check(out, self.ctx)
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
            return [f"{st.name}: unreadable output: {exc!r}"]

    def run(self, cli, extra_check=None) -> tuple[float, float]:
        """Run every study and check its outputs.  Returns the round's wall
        seconds and those seconds at the reference host speed."""
        for st in self.studies:
            shutil.rmtree(self.run_dir / "out" / st.name, ignore_errors=True)
        gc.collect()
        mark = self.clock.mark()
        t0 = time.perf_counter()
        outcomes = []
        for st in self.studies:
            out = self.run_dir / "out" / st.name
            argv = ["run", str(self.run_dir / f"{st.name}.json"), "--seed", str(self.seed),
                    "--out", str(out)] + st.flags
            err = io.StringIO()
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            outcomes.append((st, out, rc, err.getvalue(), self._check(st, out) if rc == 0 else []))
        elapsed = time.perf_counter() - t0
        scaled = self.clock.rescale(mark, elapsed)
        for st, out, rc, err, problems in outcomes:
            if rc == 0:
                if extra_check is not None:
                    problems = problems + extra_check(st)
                if not problems and self.reference_bytes.setdefault(st.name, output_bytes(out)) != output_bytes(out):
                    problems = [f"{st.name}: outputs differ from the first round's"]
            self.attempted += 1
            if rc != 0 or problems:
                self.failed += 1
                self.wrong += bool(problems) or not (rc == 0 or diverged(rc, err))
                print(f"{st.name}: exit {rc}; {err.strip()} " + "; ".join(problems), file=sys.stderr)
        return elapsed, scaled


def observe_exact_side():
    """Record the exact side's terminal values of every weak-error pair,
    one list per level; returns (lists, restore)."""
    from layers import patch, unpatch
    from pdifmp import analysis, cli

    levels: list[list[float]] = []

    def pair(fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            levels[-1].append(float(result[1].values[-1, 0]))
            return result
        return recorded

    def grow(fn):
        def recorded(*args, **kwargs):
            levels.append([])
            return fn(*args, **kwargs)
        return recorded

    done = patch([analysis], "simulate_coupled_pair", pair) + patch([cli], "grow_weak_error_estimate", grow)
    return levels, lambda: unpatch(done)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run length; only BENCHMARK.json's run_seconds is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']}, the run_seconds of BENCHMARK.json")

    if not (SRC / "pdifmp" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    studies = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config_args = []
        for st in studies:
            path = run_dir / f"{st.name}.json"
            path.write_text(json.dumps(st.config, indent=2))
            config_args.append(str(path) + (":" + st.flags[0] if st.flags else ""))
        setup = measure_setup(config_args)

        sys.path.insert(0, str(SRC))
        from pdifmp import cli

        ctx = workloads.prepare(args.workload, args.seed)
        clock = HostClock(interval_s=0.05)
        rnd = Round(studies, args.seed, run_dir, ctx, clock)
        clock.start()
        try:
            deadline = time.perf_counter() + args.seconds
            times = [first_round(rnd, cli, args.workload)]
            if args.trace:
                metrics = traced_rounds(rnd, cli, deadline, times)
            else:
                while time.perf_counter() < deadline:
                    times.append(rnd.run(cli))
        finally:
            clock.stop()
        wall_s = statistics.median(t[0] for t in times)
        study_s = statistics.median(t[1] for t in times)
        print(f"{len(times)} untraced rounds; median {study_s:.4f} s rescaled, {wall_s:.4f} s wall",
              file=sys.stderr)
        if args.trace:
            metrics["study.wall_s"] = wall_s
            metrics["study.rescaled_s"] = study_s
            metrics["models.build_s"] = statistics.median(s["build_s"] for s in setup)
            metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
            metrics["cli.written_mb"] = written_bytes(run_dir / "out") / 1e6
            (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(metrics, indent=2))
        else:
            metrics = {
                "study_s": study_s,
                "setup_s": statistics.median(s["setup_s"] for s in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": rnd.wrong == 0 and rnd.failed < rnd.attempted,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[section]},
    }
    print(json.dumps(result))
    return 0


def first_round(rnd: Round, cli, workload: str) -> tuple[float, float]:
    """The run's first round, which also checks the weak study's exact side."""
    if workload != "weak_mc":
        return rnd.run(cli)
    levels, restore = observe_exact_side()
    try:
        return rnd.run(cli, lambda st: checks.check_exact_side(levels, rnd.ctx["exact_mean"]))
    finally:
        restore()


def traced_rounds(rnd: Round, cli, deadline: float, plain: list) -> dict:
    """Alternate traced rounds with untraced ones, which are appended to
    ``plain``; per-layer medians of the traced rounds."""
    from layers import Tracer, calibrate_flows
    from pdifmp.models import build_model

    tracer = Tracer(calibrate_flows(build_model))
    traced, per_round = [], []
    while not traced or time.perf_counter() < deadline:
        if len(plain) == len(traced):
            plain.append(rnd.run(cli))
        tracer.clear()
        tracer.install()
        try:
            traced.append(rnd.run(cli)[0])
        finally:
            tracer.uninstall()
        per_round.append(tracer.metrics())
    # median_low keeps counts whole; they repeat exactly from round to round
    metrics = {k: statistics.median_low(r[k] for r in per_round) for k in per_round[0]}
    for kind, ns in tracer.cell_ns.items():
        metrics[f"flows.cell_ns.{kind}"] = ns
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(t[0] for t in plain)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
