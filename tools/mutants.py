"""Mutation gate: the fast test suite must fail on every listed mutant.

Usage, from the repository root:

    python tools/mutants.py

Each mutant replaces one text of one file, found there exactly once, and
changes one line of the rule it breaks.  The script first checks every
target, then runs the unmutated suite, then each mutant, one at a time, on
a fresh copy of ``src/``, ``tests/``, ``bench/``, ``configs/`` (which
the CLI tests and the acceptance criteria run) and ``pyproject.toml`` under a temporary directory, with

    python -m pytest -m "not slow" -x -q -p no:cacheprovider

A mutant is killed when that run fails.  The script prints one line per
run and exits 1 if a target is not found exactly once, if the unmutated
suite fails, or if any mutant survives.  It is not part of the test suite;
a change that alters a rule of the engine, the drivers, the analysis or
the path map adds a mutant of it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "configs", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q", "-p", "no:cacheprovider"]
# a suite that hangs on a mutant has failed it
TIMEOUT_S = 600

ENGINE = "src/pdifmp/jump_engine.py"
FLOWS = "src/pdifmp/flows.py"
ANALYSIS = "src/pdifmp/analysis.py"
CLI = "src/pdifmp/cli.py"

# (name, file, text found exactly once, its replacement)
MUTANTS = [
    ("cell rule rounds up", ENGINE,
     "n = int(length / nominal_h)", "n = math.ceil(length / nominal_h)"),
    ("kernel slots swapped", "src/pdifmp/drivers.py",
     "return cache[2 * k - 2], cache[2 * k - 1]", "return cache[2 * k - 1], cache[2 * k - 2]"),
    ("recorded cells one late", ENGINE,
     "range(stride - done % stride, n, stride)", "range(stride - done % stride + 1, n, stride)"),
    ("exact flow's Ito sign", FLOWS,
     "c = (self.mu - 0.5 * self.sigma * self.sigma) * h", "c = (self.mu + 0.5 * self.sigma * self.sigma) * h"),
    ("GBM EM drift 0.1% high", FLOWS,
     "y0 = y0 + mu * y0 * h + sigma * y0 * dw", "y0 = y0 + 1.001 * mu * y0 * h + sigma * y0 * dw"),
    ("RMSE divisor n - 1", ANALYSIS,
     "rmse = float(np.sqrt(np.max(acc) / n))", "rmse = float(np.sqrt(np.max(acc) / (n - 1)))"),
    ("weak variance without Bessel's factor", ANALYSIS,
     "var = max(total_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))",
     "var = max(total_sq / n - mean * mean, 0.0)"),
    ("bound check at equality", ENGINE,
     'if lam > bound and model.bound_policy == "error":', 'if lam >= bound and model.bound_policy == "error":'),
    ("splitting velocity 0.1% high", FLOWS,
     "x = exp(z * dw) * (exp(xi) * x + phi * h * vel)", "x = exp(z * dw) * (exp(xi) * x + phi * h * vel * 1.001)"),
    ("glioma EM kappa 0.1% high", FLOWS,
     "dz = -kappa * z + (kpkm / (kappa * kappa))", "dz = -1.001 * kappa * z + (kpkm / (kappa * kappa))"),
    ("post-jump rescale squared", "src/pdifmp/models.py",
     "lam, scale = params.rate_value, params.jump_scale", "lam, scale = params.rate_value, params.jump_scale**2"),
    ("standard error from the previous column", ANALYSIS,
     "column = np.array([r[worst] for r in rows])", "column = np.array([r[worst - 1] for r in rows])"),
    ("thinning accepts only below the rate", ENGINE,
     "return lam, u * bound <= lam", "return lam, u * bound < lam"),
    ("mode sampling with bisect_right", "src/pdifmp/core.py",
     "from bisect import bisect_left", "from bisect import bisect_right as bisect_left"),
    ("lane exact flow with np.exp", FLOWS,
     "part[:] = np.fromiter(map(math.exp, part.tolist()), float, part.size)", "part[:] = np.exp(part)"),
    ("strong rows summed in reverse path order", ANALYSIS,
     "    for r in rows:\n        acc += r[:n_common]", "    for r in reversed(rows):\n        acc += r[:n_common]"),
    ("lane proposals read the previous lane's uniforms", ENGINE,
     "u, slots = thinning[j][k - 1], kernel[j][k - 1]", "u, slots = thinning[j - 1][k - 1], kernel[j - 1][k - 1]"),
    ("lane side b tests side a's state", ENGINE,
     "if _thinning_test(model, u, t, y, v)[1]:", "if _thinning_test(model, u, t, (float(ya[j]),), v)[1]:"),
    ("side b tests side a's state at a shared proposal", ENGINE,
     "_thinning_test(model, u, t, side.y, side.v)", "_thinning_test(model, u, t, sides[0].y, side.v)"),
    ("a pair's error is labelled with the other side", ENGINE,
     "f\"side {'ab'[sides.index(side)]}, ", "f\"side {'ba'[sides.index(side)]}, "),
    ("magnitude uniform used as the mode uniform", ENGINE,
     "v = sample_mode(model.kernel, y, v, u_mode)", "v = sample_mode(model.kernel, y, v, u_mag)"),
    ("lane increments drawn at the nominal step", ENGINE,
     "stream.wiener_block(end - start, h_loc)", "stream.wiener_block(end - start, h)"),
    ("ladder study with one step size", CLI,
     "elif len(self.h_list) < 2:", "elif len(self.h_list) < 1:"),
    ("shipped weak band widened", "configs/weak_order.json",
     "    1.4,", "    1.0,"),
    ("flow overflow reported at the cell's right end", ENGINE,
     'left + h_loc * i, y, "overflow in the flow"', 'left + h_loc * (i + 1), y, "overflow in the flow"'),
    ("non-finite flow row reported at the cell's left end", ENGINE,
     "t = grid.right if i + 1 == grid.n_cells else left + h_loc * (i + 1)",
     "t = grid.right if i + 1 == grid.n_cells else left + h_loc * i"),
    ("block end finite in one component", ENGINE,
     "finite = all(map(math.isfinite, y_end))", "finite = any(map(math.isfinite, y_end))"),
    ("lanes keep model errors from the scalar engine", ENGINE,
     "except (ArithmeticError, ValueError, RuntimeError):", "except ArithmeticError:"),
    ("workers' results joined in reverse range order", CLI,
     "ranges = [*zip(cuts, cuts[1:])]", "ranges = [*zip(cuts, cuts[1:])][::-1]"),
    ("futures joined in hand-out order", CLI,
     "for future in reversed(futures) for result", "for future in futures for result"),
    ("the strong level job runs the previous level's step", CLI,
     "cfg.seed, path_ids, cfg.h_list[li])", "cfg.seed, path_ids, cfg.h_list[li - 1])"),
    ("each worker's range loses its last index", CLI,
     "for i in range(*bounds)]", "for i in range(bounds[0], bounds[1] - 1)]"),
    ("path map back on multiprocessing.Pool", CLI,
     'ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))',
     'multiprocessing.get_context("fork").Pool(workers)'),
]


def check_targets() -> list[str]:
    """A problem line for each mutant whose text is not found exactly once."""
    problems = []
    for name, path, old, new in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            problems.append(f"refused: {name}: {path} holds its text {count} times")
    return problems


def run_suite(mutant: tuple | None) -> tuple[bool, float, str]:
    """Whether the fast suite passes on a fresh copy with ``mutant``
    applied, the seconds it took and the tail of its report."""
    with tempfile.TemporaryDirectory(prefix="pdifmp-mutant-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / part)
        if mutant is not None:
            _, path, old, new = mutant
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        start = time.perf_counter()
        try:
            proc = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
            passed, report = proc.returncode == 0, proc.stdout[-2000:]
        except subprocess.TimeoutExpired:
            passed, report = False, f"timed out after {TIMEOUT_S} s"
        return passed, time.perf_counter() - start, report


def main() -> int:
    problems = check_targets()
    for line in problems:
        print(line)
    if problems:
        return 1
    passed, seconds, report = run_suite(None)
    print(f"unmutated suite {'passed' if passed else 'FAILED'} in {seconds:.1f} s", flush=True)
    if not passed:
        print(report)
        return 1
    survived = []
    total = 0.0
    for mutant in MUTANTS:
        passed, seconds, _ = run_suite(mutant)
        total += seconds
        print(f"{'SURVIVED' if passed else 'killed'}  {seconds:6.1f} s  {mutant[0]}", flush=True)
        if passed:
            survived.append(mutant[0])
    print(f"{len(MUTANTS) - len(survived)} killed, {len(survived)} survived, {total:.0f} s over the mutants")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
