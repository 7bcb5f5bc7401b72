#!/usr/bin/env python3
"""relspec benchmark: seeded scenario passes, end-to-end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {sweep,collar,kernel} [--seed N] [--trace 0|1] [--seconds S]

The seed generates one scenario config (perfbench/workloads.py).  A pass is
one ``relspec.cli.run_scenario`` call on that config in a fresh Python
process (perfbench/pass_worker.py); passes run one after another (a closed
loop of one client) until the next pass would end after the measuring
window, with at least enough passes for the gates below.  The window is
``run_seconds`` in BENCHMARK.json; ``--seconds`` overrides it.  The program's own defaults are
measured: RELSPEC_WORKERS and the BLAS thread variables are recorded as
found and never set.

``--trace 0`` reports the end-to-end metrics (median over passes).
``--trace 1`` alternates one untraced pass with two traced ones and reports
the per-layer metrics (median over traced passes; counters from one pass)
plus the tracing overhead, traced minus untraced ``wall_s``.

Gates, each of which marks a pass failed:
  * the scenario's own checks pass and no stage raised;
  * every CSV artifact is byte-identical to the first pass's;
  * in traced passes, the work counters repeat exactly.

The last line of stdout is one JSON object with ``correct``, ``attempted``
(passes), ``failed`` (failed passes) and ``metrics``.  Exit status 0 once a
result is printed; 1 without a result when the program cannot be run (for
example ``src/relspec`` is missing), a pass crashes or the run overruns.
Artifacts, results and spans of the latest run of each workload stay under
``.perfbench_out/<workload>/``.  See perfbench/README.md for what each
metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import WORK_COUNTERS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

WORK = ROOT / ".perfbench_out"
# Every run must end within 180 s; a pass still running at this point is
# killed and the run fails without a result.
HARD_LIMIT_S = 170.0
# Set-up-only processes per untraced run, on top of the set-up of each pass.
SETUP_PROBES = 3

# Accuracy read from the Report: printed with the end-to-end metrics, gated
# through the scenario checks that produce them.  name -> check
ACCURACY = {
    "logdet_drift": "determinant_invariance",
    "a01_drift": "invariant_drift_a0_a1",
    "offdiag_refinement": "gaussian_functional_refinement",
}

ENV_VARS = (
    "RELSPEC_WORKERS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "env": {k: os.environ.get(k) for k in ENV_VARS},
    }


def run_pass(run_dir: Path, tag: str, traced: bool, deadline: float, setup_only=False) -> dict:
    """One fresh-process pass; returns the worker's result plus set-up time."""
    out_dir = run_dir / tag
    result_path = run_dir / f"{tag}.result.json"
    cmd = [sys.executable, str(HERE / "pass_worker.py"), str(run_dir / "config.json"),
           str(out_dir), str(result_path)]
    if traced:
        cmd += ["--trace", str(run_dir / f"{tag}.spans.json")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a required pass")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} did not finish within {timeout:.0f} s") from exc
    t_end = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_s"] = res["t_ready"] - t_spawn
    res["process_s"] = t_end - t_spawn
    res["traced"] = traced
    if not setup_only:
        files = sorted(p for p in out_dir.rglob("*") if p.is_file())
        res["artifact_bytes"] = sum(p.stat().st_size for p in files)
        res["csv"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files if p.suffix == ".csv"
        }
    return res


def pass_failures(res: dict, first: dict, first_traced: dict | None) -> list[str]:
    why = []
    if res["failed_stage"] is not None:
        why.append(f"stage {res['failed_stage']!r} raised: {res['error']}")
    why += [f"check {c['name']} failed (value {c['value']!r})" for c in res["checks"] if not c["passed"]]
    if not res["csv"]:
        why.append("no CSV artifacts")
    elif res["csv"] != first["csv"]:
        differ = {name for name, _ in set(res["csv"].items()) ^ set(first["csv"].items())}
        why.append(f"CSV artifacts differ from pass 0: {sorted(differ)}")
    if res["traced"] and first_traced is not None:
        moved = [k for k in WORK_COUNTERS if res["layers"][k] != first_traced["layers"][k]]
        if moved:
            why.append(f"work counters changed between passes: {moved}")
    return why


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description="relspec benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring window (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + HARD_LIMIT_S
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    window = bench["run_seconds"] if args.seconds is None else args.seconds

    if not (ROOT / "src" / "relspec" / "cli.py").is_file():
        raise BenchError(f"relspec sources not found under {ROOT / 'src'}")
    cfg = generate(args.workload, args.seed, ROOT / "configs")
    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    with open(run_dir / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)

    # Compile bytecode and warm the file cache before anything is timed.
    warm = run_pass(run_dir, "warmup", False, deadline, setup_only=True)
    env = {**machine(), **warm["env"]}
    with open(run_dir / "env.json", "w") as fh:
        json.dump(env, fh, indent=2, sort_keys=True)

    # Closed loop: next pass only after the previous one ended, and only if
    # it should end inside the measuring window.
    traced_pattern = (False, True, True) if args.trace else (False,)
    min_passes = 3 if args.trace else 2
    passes = []
    t_measure = time.monotonic()
    # Set-up is short and noisy: sample it more often than the passes do.
    setups = [
        run_pass(run_dir, f"setup{i:02d}", False, deadline, setup_only=True)["setup_s"]
        for i in range(0 if args.trace else SETUP_PROBES)
    ]
    while True:
        longest = max((p["process_s"] for p in passes), default=0.0)
        if len(passes) >= min_passes and time.monotonic() - t_measure + longest > window:
            break
        traced = traced_pattern[len(passes) % len(traced_pattern)]
        passes.append(run_pass(run_dir, f"pass{len(passes):02d}", traced, deadline))
    setups += [p["setup_s"] for p in passes if not p["traced"]]

    first = passes[0]
    traced_passes = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    failed = 0
    for i, p in enumerate(passes):
        why = pass_failures(p, first, traced_passes[0] if traced_passes else None)
        failed += bool(why)
        for w in why:
            print(f"FAILED pass {i}: {w}")

    print(f"relspec benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} (closed loop, one pass at a time, {window:g} s window)")
    print("environment: " + json.dumps(env, sort_keys=True))

    def median(key, ps):
        return statistics.median(p[key] for p in ps)

    if args.trace:
        values = {
            name: statistics.median(p["layers"][name] for p in traced_passes)
            for name in traced_passes[0]["layers"]
        }
        values.update({name: traced_passes[0]["layers"][name] for name in WORK_COUNTERS})
        values["cli.artifact_bytes"] = first["artifact_bytes"]
        values["trace.overhead_s"] = median("wall_s", traced_passes) - median("wall_s", plain)
        print(f"per-layer metrics (median of {len(traced_passes)} traced passes; "
              f"overhead against {len(plain)} untraced):")
    else:
        values = {
            "wall_s": median("wall_s", passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb", passes),
        }
        print(f"end-to-end metrics (median of {len(passes)} passes):")
    # BENCHMARK.json names the reported metrics and their units.
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {name:40s} {fmt(m['value']):>14s} {m['unit']}")
    if not args.trace:
        print("  wall_s per pass: " + ", ".join(f"{p['wall_s']:.4f}" for p in passes))
        print(f"  setup_s per sample ({len(setups)}): " + ", ".join(f"{v:.4f}" for v in setups))
        checks = sum(len(p["checks"]) for p in passes)
        bad = sum(
            sum(not c["passed"] for c in p["checks"]) + (p["failed_stage"] is not None)
            for p in passes
        )
        print(f"  {'fail_ratio':40s} {fmt(bad / max(checks, 1)):>14s} 1"
              f"   ({bad} failed checks and stages of {checks} checks)")
        for name, check in ACCURACY.items():
            vals = [c["value"] for c in first["checks"] if c["name"] == check]
            if vals:
                print(f"  {name:40s} {fmt(vals[0]):>14s} 1   (check {check})")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
