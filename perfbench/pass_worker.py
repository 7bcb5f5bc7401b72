"""One workload pass: a fresh process that runs one ``run_scenario`` call.

Usage::

    python3 perfbench/pass_worker.py CONFIG.json OUT_DIR RESULT.json [--trace SPANS.json] [--setup-only]

Loads the generated config, notes ``time.monotonic()`` just before the
``run_scenario`` call (the parent subtracts its spawn time to get set-up
time), runs the scenario into OUT_DIR and writes what the parent needs to
RESULT.json: the check results, the pass wall time, peak RSS and the
program's environment.  With ``--trace`` the layer functions are wrapped
first, and the spans go to SPANS.json after the pass.  ``--setup-only``
stops before ``run_scenario``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import scipy  # noqa: E402

from relspec.cli import ScenarioConfig, run_scenario  # noqa: E402
from relspec.discretize import worker_count  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("out_dir")
    ap.add_argument("result")
    ap.add_argument("--trace", default=None, help="write spans of a traced pass here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(args.config) as fh:
        cfg = ScenarioConfig.from_dict(json.load(fh))
    tracer = None
    if args.trace:
        # Untraced passes load nothing of the benchmark, so set-up time is
        # the program's own.
        from tracer import RUN_SPAN, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    t_ready = time.monotonic()
    result = {
        "t_ready": t_ready,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "pool_size": worker_count(),
        },
    }
    if not args.setup_only:
        t0 = time.perf_counter()
        if tracer is None:
            report = run_scenario(cfg, args.out_dir)
        else:
            report = tracer.call(RUN_SPAN, run_scenario, cfg, args.out_dir)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer.spans, tracer.counts)
            with open(args.trace, "w") as fh:
                json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
        result.update(
            wall_s=wall,
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            passed=report.passed,
            failed_stage=report.failed_stage,
            error=report.error,
            checks=[c.to_dict() for c in report.checks],
        )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
