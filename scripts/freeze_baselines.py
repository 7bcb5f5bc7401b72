#!/usr/bin/env python3
"""Regenerate the pinned regression values under tests/data/.

Runs the point-surgery sweep of the bump-vs-plain pair and stores the
sup-distance of the relative trace (``sweep.csv``'s ``dsup``) at each cap
size of the ladder ``LADDER``.  The test suite compares
future runs against these values bit-for-bit modulo a small tolerance.
Re-running this script re-states that pin, which is the repository owner's
call (see the bisection-tolerance item of ROADMAP.md), made after an
intentional algorithm change and a manual audit of the new numbers.  It is
never a way to absorb a change in the numbers.

Usage::

    python3 scripts/freeze_baselines.py
"""
from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from relspec.cli import ScenarioConfig, run_scenario

# Cap sizes of the pinned ladder, each an ``epsilons`` value of the sweep.
LADDER = (0.4, 0.2, 0.1, 0.05)


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = ScenarioConfig.from_json(root / "configs" / "point_sweep.json")
    out = root / "out" / "freeze-sweep"
    report = run_scenario(cfg, out)
    if report.failed_stage is not None:
        print(f"scenario failed at stage {report.failed_stage}: {report.error}", file=sys.stderr)
        return 1

    rows = {}
    with open(out / "sweep.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rec = dict(zip(header, line.strip().split(",")))
            rows[float(rec["epsilon"])] = float(rec["dsup"])

    data = {
        "description": "sup_t |relative trace at cap size eps - baseline| for the bump-vs-plain pair",
        "config": "configs/point_sweep.json",
        "epsilons": list(LADDER),
        "dsup": [rows[e] for e in LADDER],
    }
    target = root / "tests" / "data" / "continuity_baseline.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {target}")
    for eps, val in zip(data["epsilons"], data["dsup"]):
        print(f"  eps={eps:<5g} dsup={val!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
