#!/usr/bin/env python3
"""Compare the CSV artifacts and check tables of two scenario output trees.

Usage::

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

The trees are what ``scripts/run_all_scenarios.py --out DIR`` writes, run
once on each of two versions of the code.  For every CSV present under both
(matched by relative path) the script prints "identical" when the files are
byte-equal; otherwise it prints, for each column that moved, the largest
relative shift |new - old| / max(|old|, |new|) over its rows, or "changed"
for a column with a changed non-numeric cell.  Header comments of the form
``# key=value`` count as one-row columns.  For a table with ``log_det`` and
``budget_total`` columns it also prints the largest |delta log_det| /
parent budget_total over its rows: a shift that reaches the parent's own
error budget is not a refinement inside it.  For every ``summary.json``
under both it prints "checks identical" when the check tables agree in
name, passed, value and tolerance; otherwise each check that moved.

Exit status is 1 when that ratio reaches 1 in any table, when two CSVs
cannot be compared row by row (different columns or row counts), when a CSV
or ``summary.json`` of the parent tree is missing from the change tree (a
lost artifact), or when a check that passes in the parent does not pass
(fails or is absent) in the change; otherwise 0.  A file only in the change
tree is reported and does not fail.  The script only reads files.
"""
from __future__ import annotations

import argparse
import json
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


def relative_shift(old: list[str], new: list[str]) -> float | None:
    """Largest |new - old| / max(|old|, |new|) over the cells; None when a
    changed cell is not a number, inf when it is not finite."""
    worst = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None:
            return None
        if not (math.isfinite(x) and math.isfinite(y)):
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


CHECK_FIELDS = ("passed", "value", "tolerance")


def read_checks(path: pathlib.Path) -> dict[str, tuple]:
    """Check name -> (passed, value, tolerance) of a summary.json."""
    checks = json.loads(path.read_text())["checks"]
    return {c["name"]: tuple(c[k] for k in CHECK_FIELDS) for c in checks}


def _describe(check: tuple | None) -> str:
    if check is None:
        return "absent"
    passed, value, tolerance = check
    return f"{'pass' if passed else 'fail'} value={value!r} tolerance={tolerance!r}"


def compare_checks(old: dict[str, tuple], new: dict[str, tuple]) -> tuple[list[str], bool]:
    """One line per check that moved, and whether a check that passes in
    the parent does not pass in the change.  Values compare by repr, so a
    NaN equals itself."""
    lines: list[str] = []
    failed = False
    for name in [*old, *(n for n in new if n not in old)]:
        a, b = old.get(name), new.get(name)
        if repr(a) == repr(b):
            continue
        regressed = a is not None and a[0] and not (b is not None and b[0])
        failed = failed or regressed
        verdict = " (FAIL)" if regressed else ""
        lines.append(f"  {name}: {_describe(a)} -> {_describe(b)}{verdict}")
    return lines, failed


def _paired(parent: pathlib.Path, change: pathlib.Path, pattern: str, lines: list[str]):
    """Relative paths matching ``pattern`` under both trees, and whether a
    path is under the parent tree only (lost in the change); a path under
    only one of them adds a line."""
    old_paths = {p.relative_to(parent) for p in parent.rglob(pattern)}
    new_paths = {p.relative_to(change) for p in change.rglob(pattern)}
    for rel in sorted(old_paths ^ new_paths):
        verdict = " (FAIL)" if rel in old_paths else ""
        side = "parent" if rel in old_paths else "change"
        lines.append(f"{rel}: only in the {side} tree{verdict}")
    return sorted(old_paths & new_paths), bool(old_paths - new_paths)


def compare_trees(parent: pathlib.Path, change: pathlib.Path) -> tuple[list[str], bool]:
    """Report lines for every CSV and summary.json under both trees, and
    whether anything failed (budget ratio >= 1, tables not comparable, a
    file of the parent tree lost, or a passing check lost)."""
    lines: list[str] = []
    csvs, failed = _paired(parent, change, "*.csv", lines)
    for rel in csvs:
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
            if shift is None:
                lines.append(f"  {name:32s} changed")
            elif shift > 0.0:
                lines.append(f"  {name:32s} max rel shift {shift:.2e}")
        if "log_det" in old and "budget_total" in old:
            shift, ratio = budget_ratio(old, new)
            verdict = "FAIL" if ratio >= 1.0 else "ok"
            lines.append(
                f"  max |d log_det| = {shift:.2e}, "
                f"max |d log_det| / parent budget_total = {ratio:.2e} ({verdict})"
            )
            failed = failed or ratio >= 1.0
    summaries, lost = _paired(parent, change, "summary.json", lines)
    failed = failed or lost
    for rel in summaries:
        moved, lost = compare_checks(read_checks(parent / rel), read_checks(change / rel))
        lines.extend([f"{rel}: checks identical"] if not moved else [f"{rel}:", *moved])
        failed = failed or lost
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
