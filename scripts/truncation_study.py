#!/usr/bin/env python3
"""Check that truncation choices do not pollute the reported quantities.

Moves each truncation that the pair's surfaces have (a funnel end goes
deeper, a filled-cap chart grows by 4, a cusp end doubles) and reports how
much the fitted heat invariants, the fundamental tone and the
log-determinant of the bump-vs-plain pair move.  All movements should sit far
below the tolerances used by the scenario checks; run this before trusting a
new surface family.  The fit order and window are the config's own; the
time grid is the library's default (``spectral.default_time_grid``).

Usage::

    python3 scripts/truncation_study.py [--config FILE] [--n-nodes 4000] [--lambda-cut 400]
"""
from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from relspec import spectral_gap
from relspec.cli import NumericsConfig, ScenarioConfig, solve_pair
from relspec.geometry import build_weight


def pair_quantities(pair, numerics: NumericsConfig):
    """The configured pair rebuilt with the truncation of ``numerics`` and
    solved with its grid, cutoff and fit."""
    pair = tuple(build_weight(p.spec, truncation=numerics.truncation()) for p in pair)
    sys_a, _, det = solve_pair(pair, numerics)
    return {
        "lambda1": spectral_gap(sys_a),
        "a0": det.invariants.coefficients[0],
        "a1": det.invariants.coefficients[1],
        "log_det": det.log_determinant,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/point_sweep.json")
    ap.add_argument("--n-nodes", type=int, default=NumericsConfig.n_nodes)
    ap.add_argument("--lambda-cut", type=float, default=NumericsConfig.lambda_cut)
    args = ap.parse_args(argv)

    cfg = ScenarioConfig.from_json(pathlib.Path(args.config))
    numerics = dataclasses.replace(cfg.numerics, n_nodes=args.n_nodes, lambda_cut=args.lambda_cut)
    # The config's own pair, not its family: a variant's grid need only
    # resolve this pair, which the solve itself checks.
    pair = cfg.pair()
    # A truncation that no end of the pair reads would only repeat the baseline.
    kinds = {end.kind for p in pair for end in (p.spec.left_end, p.spec.right_end)}
    variants = {"baseline": numerics}
    if "funnel" in kinds:
        variants["funnel deeper"] = dataclasses.replace(
            numerics, funnel_depth=numerics.funnel_depth + 0.5
        )
    if "filled_cap" in kinds:
        variants["cap +4"] = dataclasses.replace(numerics, cap_end=numerics.cap_end + 4.0)
    if "cusp" in kinds:
        variants["cusp x2"] = dataclasses.replace(numerics, cusp_end=2.0 * numerics.cusp_end)

    rows = {}
    for name, variant in variants.items():
        rows[name] = pair_quantities(pair, variant)
        q = rows[name]
        print(f"{name:14s} lambda1={q['lambda1']:.10f} a0={q['a0']:+.8e} "
              f"a1={q['a1']:+.8e} log_det={q['log_det']:+.8e}")

    ref = rows["baseline"]
    print("\nmax deviation from baseline:")
    for key in ref:
        dev = max(abs(rows[name][key] - ref[key]) for name in rows)
        print(f"  {key:8s} {dev:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
