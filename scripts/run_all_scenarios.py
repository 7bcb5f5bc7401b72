#!/usr/bin/env python3
"""Run every scenario config under configs/ and print a one-line verdict each.

Usage::

    python3 scripts/run_all_scenarios.py [--configs DIR] [--out DIR] [--skip LABEL ...]

Exit status is 0 when every scenario passes, 1 otherwise; a config that does
not load prints ``CONFIG <file>: <error>`` and counts as a failure.  Individual
scenario artifacts land under ``<out>/<label>/``.
"""
from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from relspec.cli import ConfigError, ScenarioConfig, run_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", default="configs", help="directory of scenario JSON files")
    ap.add_argument("--out", default="out", help="output root for scenario artifacts")
    ap.add_argument("--skip", nargs="*", default=[],
                    help="scenario labels to skip")
    args = ap.parse_args(argv)

    cfg_dir = pathlib.Path(args.configs)
    paths = sorted(cfg_dir.glob("*.json"))
    if not paths:
        print(f"no configs found under {cfg_dir}", file=sys.stderr)
        return 2

    failures = 0
    for path in paths:
        try:
            cfg = ScenarioConfig.from_json(path)
        except ConfigError as exc:
            print(f"CONFIG {path.name}: {exc}")
            failures += 1
            continue
        if cfg.label in args.skip:
            print(f"SKIP  {cfg.label}")
            continue
        t0 = time.perf_counter()
        report = run_scenario(cfg, pathlib.Path(args.out) / cfg.label)
        dt = time.perf_counter() - t0
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{verdict}  {cfg.label:28s} {dt:7.1f}s  ({len(report.checks)} checks)")
        if not report.passed:
            failures += 1
            if report.failed_stage:
                print(f"      stage {report.failed_stage}: {report.error}")
            for chk in report.checks:
                if not chk.passed:
                    print(f"      check {chk.name}: value={chk.value!r} tol={chk.tolerance!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
