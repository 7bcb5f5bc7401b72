#!/usr/bin/env python3
"""Compare the CSV artifacts of two scenario output trees, column by column.

Usage::

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

The trees are what ``scripts/run_all_scenarios.py --out DIR`` writes, run
once on each of two versions of the code.  For every CSV present under both
(matched by relative path) the script prints "identical" when the files are
byte-equal; otherwise it prints, for each column that moved, the largest
relative shift |new - old| / max(|old|, |new|) over its rows.  Header
comments of the form ``# key=value`` count as one-row columns.  For a table
with ``log_det`` and ``budget_total`` columns it also prints the largest
|delta log_det| / parent budget_total over its rows: a shift that reaches
the parent's own error budget is not a refinement inside it.

Exit status is 1 when that ratio reaches 1 in any table, or when two CSVs
cannot be compared row by row (different columns or row counts); otherwise
0.  The script only reads files.
"""
from __future__ import annotations

import argparse
import math
import pathlib
import sys


def read_columns(path: pathlib.Path) -> dict[str, list[str]]:
    """Column name -> cells; ``# key=value`` comment lines become one-cell
    columns named ``# key``."""
    columns: dict[str, list[str]] = {}
    header: list[str] | None = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            columns[f"# {key}"] = [value]
        elif header is None:
            header = line.split(",")
            for name in header:
                columns[name] = []
        elif line:
            for name, cell in zip(header, line.split(",")):
                columns[name].append(cell)
    return columns


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def relative_shift(old: list[str], new: list[str]) -> float:
    """Largest |new - old| / max(|old|, |new|) over the cells; a changed
    non-numeric or non-finite cell counts as an infinite shift."""
    worst = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        scale = max(abs(x), abs(y))
        if scale > 0.0:
            worst = max(worst, abs(y - x) / scale)
    return worst


def budget_ratio(old: dict[str, list[str]], new: dict[str, list[str]]) -> tuple[float, float]:
    """(max |delta log_det|, max |delta log_det| / parent budget_total) over rows."""
    largest = worst = 0.0
    for a, b, budget in zip(old["log_det"], new["log_det"], old["budget_total"]):
        shift = abs(float(b) - float(a))
        if shift > 0.0:
            largest = max(largest, shift)
            worst = max(worst, shift / float(budget) if float(budget) > 0.0 else math.inf)
    return largest, worst


def compare_trees(parent: pathlib.Path, change: pathlib.Path) -> tuple[list[str], bool]:
    """Report lines for every CSV under both trees, and whether any table
    failed (budget ratio >= 1, or not comparable)."""
    lines: list[str] = []
    failed = False
    old_paths = {p.relative_to(parent) for p in parent.rglob("*.csv")}
    new_paths = {p.relative_to(change) for p in change.rglob("*.csv")}
    for rel in sorted(old_paths ^ new_paths):
        side = "parent" if rel in old_paths else "change"
        lines.append(f"{rel}: only in the {side} tree")
    for rel in sorted(old_paths & new_paths):
        a, b = parent / rel, change / rel
        if a.read_bytes() == b.read_bytes():
            lines.append(f"{rel}: identical")
            continue
        old, new = read_columns(a), read_columns(b)
        if list(old) != list(new) or any(len(old[k]) != len(new[k]) for k in old):
            lines.append(f"{rel}: cannot compare (columns or row counts differ)")
            failed = True
            continue
        lines.append(f"{rel}:")
        for name in old:
            shift = relative_shift(old[name], new[name])
            if shift > 0.0:
                lines.append(f"  {name:32s} max rel shift {shift:.2e}")
        if "log_det" in old and "budget_total" in old:
            shift, ratio = budget_ratio(old, new)
            verdict = "FAIL" if ratio >= 1.0 else "ok"
            lines.append(
                f"  max |d log_det| = {shift:.2e}, "
                f"max |d log_det| / parent budget_total = {ratio:.2e} ({verdict})"
            )
            failed = failed or ratio >= 1.0
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path, help="output tree of the parent version")
    ap.add_argument("change", type=pathlib.Path, help="output tree of the changed version")
    args = ap.parse_args(argv)
    for root in (args.parent, args.change):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    lines, failed = compare_trees(args.parent, args.change)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
