"""Seed sweep: every shipped study at seeds other than the criteria's 12345.

Usage, from the repository root:

    python tools/seed_sweep.py

Each ``configs/NAME.json`` runs through
``pdifmp.cli.main(["run", config, "--seed", seed, "--out", tmp])`` with the
CLI's own worker count, its outputs in a temporary directory.  A config runs
at seeds 1-6, except ``weak_order`` at seeds 1-2 (a few minutes per seed).
The results go to ``SEED_SWEEP.json`` at the repository root as strict
JSON: one record per run with the config, the seed, the exit code, the
``error:`` line on standard error (or null) and the entries of
``summary.json`` (null when the run wrote none; NaN and infinities written
as null), then each config's pass count.  The script changes no config,
band or seed: a study that fails at some seed is reported, not tuned.

Runs at nearby seeds are not independent.  ``tem_vs_tsm`` keys replication
``s`` as ``(seed + s, 0)``, so seeds S and S + 1 share all but one of their
replications per level; ``weak_error`` keys level ``li`` with the seed
``seed + li``, so level 1 at seed S draws the streams of level 0 at seed
S + 1.  So a pass count over seeds 1-6 is not a count of independent runs:
``tem_vs_tsm`` at seeds 1-6 is about one independent sample.  The strong
studies and the sweep key paths by ``(seed, path_id)``.

It is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pdifmp import cli  # noqa: E402

DEFAULT_SEEDS = range(1, 7)
# seeds per config where the default would take too long
SEEDS = {"weak_order": range(1, 3)}


def run(config: Path, seed: int) -> dict:
    """One run's record: exit code, error line and summary entries."""
    with tempfile.TemporaryDirectory(prefix="pdifmp-seed-sweep-") as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(config), "--seed", str(seed), "--out", tmp])
        errors = [line for line in err.getvalue().splitlines() if "error: " in line]
        summary_path = Path(tmp) / "summary.json"
        summary = None
        if summary_path.exists():
            summary = json.loads(summary_path.read_text(), parse_constant=lambda token: None)
            for key in ("experiment", "seed"):
                summary.pop(key)
    return {"config": config.stem, "seed": seed, "exit": code, "error": errors[0] if errors else None,
            "summary": summary}


def main() -> int:
    runs = []
    for config in sorted((ROOT / "configs").glob("*.json")):
        for seed in SEEDS.get(config.stem, DEFAULT_SEEDS):
            start = time.perf_counter()
            record = run(config, seed)
            runs.append(record)
            print(f"{config.stem} seed={seed} exit={record['exit']} {time.perf_counter() - start:.1f} s"
                  + (f"  {record['error']}" if record["error"] else ""), flush=True)
    passed = {}
    for record in runs:
        counts = passed.setdefault(record["config"], {"exit_0": 0, "runs": 0})
        counts["exit_0"] += record["exit"] == cli.EXIT_OK
        counts["runs"] += 1
    text = json.dumps({"runs": runs, "passed": passed}, indent=2, allow_nan=False)
    (ROOT / "SEED_SWEEP.json").write_text(text + "\n")
    for name, counts in passed.items():
        print(f"{name}: {counts['exit_0']} of {counts['runs']} runs exit 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
