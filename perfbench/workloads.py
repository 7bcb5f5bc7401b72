"""Seeded scenario configs for the benchmark workloads.

Each workload starts from a shipped config under ``configs/`` and lets the
seed draw the parts a user would vary: the epsilon ladder of a surgery sweep,
the bump amplitude (about +-10%), and a small shift of the bump centre or of
the two probe circles.  The program only ever sees the resulting JSON.

Draws stay close to fixed anchors so that two seeds ask for nearly the same
amount of work: a seed changes which numbers the program computes, not how
long the pass should take.  The ranges keep every bump strictly inside its
core interval and every probe circle inside the chart, so a generated config
is always valid; a config whose scenario checks fail is counted, never
re-drawn.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

# Anchors of the epsilon ladder (the baseline 0.0 is always first).  Each
# drawn epsilon is its anchor times (1 + U(-0.1, 0.1)).
SWEEP_ANCHORS = (0.55, 0.85)
COLLAR_ANCHORS = (0.1, 0.25, 0.45)

WORKLOADS = {
    # workload name -> (shipped config it is derived from, ladder anchors)
    "sweep": ("point_sweep.json", SWEEP_ANCHORS),
    "collar": ("boundary_sweep.json", COLLAR_ANCHORS),
    "kernel": ("offdiag.json", None),
}


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


def generate(workload: str, seed: int, configs_dir: Path) -> dict:
    """The scenario config of ``workload`` for ``seed`` (same seed, same dict)."""
    shipped, anchors = WORKLOADS[workload]
    with open(configs_dir / shipped) as fh:
        cfg = copy.deepcopy(json.load(fh))
    # One stream per (workload, seed): adding a workload never shifts the
    # draws of another.
    rng = random.Random(f"{workload}:{seed}")
    bump = cfg["surface_a"]["bump"]
    bump["amplitude"] = _jitter(rng, bump["amplitude"], 0.1)
    numerics = cfg.setdefault("numerics", {})
    # Pin the resolution the workload was sized for, whatever the shipped
    # file defaults to.
    numerics["n_nodes"] = 4000
    numerics["lambda_cut"] = 400.0
    if anchors is not None:
        bump["center"] = round(bump["center"] + rng.uniform(-0.01, 0.01), 6)
        cfg["epsilons"] = [0.0] + [_jitter(rng, a, 0.1) for a in anchors]
    else:
        # Probe circles y = (s, theta), y2 = (s2, theta2) of the kernel check.
        numerics["offdiag_y_s"] = round(1.0 + rng.uniform(-0.05, 0.05), 6)
        numerics["offdiag_y_theta"] = round(rng.uniform(-0.1, 0.1), 6)
        numerics["offdiag_y2_s"] = round(3.0 + rng.uniform(-0.05, 0.05), 6)
        numerics["offdiag_y2_theta"] = round(2.0 + rng.uniform(-0.1, 0.1), 6)
    cfg["label"] = f"bench-{workload}-seed{seed}"
    cfg["notes"] = f"perfbench workload {workload!r}, seed {seed}, derived from configs/{shipped}"
    return cfg
