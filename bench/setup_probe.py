"""Set-up time in a fresh interpreter: import the package, parse and
validate each config, build each study's models.

Usage: setup_probe.py SRC_DIR CONFIG[:--as-published] ...
Prints one JSON object with the wall times ``import_s`` and ``build_s``
and ``setup_s``, their sum at the reference host speed (see hostclock).
"""

import json
import sys
import time

from hostclock import HostClock

clock = HostClock(interval_s=0.01)
clock.start()
mark = clock.mark()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pdifmp.cli import ExperimentConfig  # noqa: E402
from pdifmp.models import build_model  # noqa: E402

t1 = time.perf_counter()
for arg in sys.argv[2:]:
    path, _, flag = arg.partition(":")
    cfg = ExperimentConfig.from_file(path)
    if flag == "--as-published":
        cfg.model["as_published"] = True
    cfg.validate()
    kwargs = cfg.model_kwargs()
    if cfg.experiment == "glioma_sweep":
        for lam0 in cfg.sweep["lambda0"]:
            for lam1 in cfg.sweep["lambda1"]:
                build_model(cfg.model["id"], **dict(kwargs, lambda0=lam0, lambda1=lam1))
    else:
        build_model(cfg.model["id"], **kwargs)
t2 = time.perf_counter()
setup_s = clock.rescale(mark, t2 - t0)
clock.stop()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": setup_s}))
