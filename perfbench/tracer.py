"""Span tracer that wraps relspec's layer functions from outside the package.

Nothing here touches ``src/``: ``Tracer.install`` replaces each public layer
function with a timing wrapper in every relspec module that bound it by name
(the defining module, plus ``cli``, ``spectral``, ``zeta``, ``oracle`` and
the package namespace where they imported it), and patches a few methods and
the ``MetricProfile.area`` property on their classes.  ``uninstall`` puts the originals back.

A span is ``(id, parent id, name, thread id, start, end)`` in
``time.perf_counter`` seconds.  Each thread keeps its own stack of open
spans; a span opened on a thread with an empty stack (a mode solve running in
``solve_modes``' thread pool) takes the innermost open span of the main
thread as its parent.  Spans stay in memory until ``spans`` is written out
after the pass.  Counters that would be too hot for a span
(``MetricProfile.weight``) or that come from a result (eigenvalues returned,
eigenvector bytes) are kept in ``counts``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# (defining module, function, span name)
FUNCTIONS = (
    ("relspec.geometry", "build_weight", "geometry.build_weight"),
    ("relspec.geometry", "relative_area", "geometry.relative_area"),
    ("relspec.geometry", "line_distance", "geometry.line_distance"),
    ("relspec.discretize", "solve_modes", "discretize.solve_modes"),
    ("relspec.discretize", "assemble_mode_operator", "discretize.assemble_mode_operator"),
    ("relspec.discretize", "solve_mode", "discretize.solve_mode"),
    ("relspec.spectral", "relative_trace_series", "spectral.relative_trace_series"),
    ("relspec.spectral", "offdiag_l2_integral", "spectral.offdiag_l2_integral"),
    ("relspec.zeta", "fit_heat_invariants", "zeta.fit"),
    ("relspec.zeta", "determinant_from_series", "zeta.det"),
    # sweep.csv / offdiag.csv go through this private writer
    ("relspec.cli", "_write_csv", "cli.write"),
)

# (defining module, class, method, span name)
METHODS = (
    ("relspec.spectral", "TraceSeries", "evaluate", "spectral.evaluate"),
    ("relspec.spectral", "TraceSeries", "to_csv", "cli.write"),
    ("relspec.discretize", "Eigensystem", "to_csv", "cli.write"),
    ("relspec.cli", "Report", "write", "cli.write"),
)

RUN_SPAN = "cli.run_scenario"


def _eigenvalues_returned(tracer, result):
    tracer.add("discretize.eigenvalues", len(result[0]))


def _vector_bytes(tracer, result):
    if result.vectors is not None:
        tracer.add("discretize.vector_bytes", sum(v.nbytes for v in result.vectors.values()))


RESULT_COUNTERS = {
    "discretize.solve_mode": _eigenvalues_returned,
    "discretize.solve_modes": _vector_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._undo: list[tuple] = []

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _open(self) -> tuple[list[int], int | None, int]:
        with self._lock:
            sid = next(self._ids)
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        stack.append(sid)
        return stack, parent, sid

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        stack, parent, sid = self._open()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), t0, t1))
        hook = RESULT_COUNTERS.get(name)
        if hook is not None:
            hook(self, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        importlib.import_module("relspec.cli")
        importlib.import_module("relspec.oracle")
        modules = [m for k, m in list(sys.modules.items()) if k == "relspec" or k.startswith("relspec.")]
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            traced = self._wrap(span, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patch(mod, fn_name, traced)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self._wrap(span, getattr(cls, meth)))
        profile = sys.modules["relspec.geometry"].MetricProfile
        self._patch(profile, "weight", self._counted("geometry.weight_evals", profile.weight))
        # area integrates through the profile's weight callable directly, so
        # weight_evals misses it; a span on the (cached) property shows it.
        self._patch(profile, "area", property(self._wrap("geometry.area", profile.area.fget)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see perfbench/README.md)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
        if span[1] is not None:
            children[span[1]].append(span)

    def total(name):
        return sum(s[5] - s[4] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def self_time(name, child_names=None):
        out = 0.0
        for s in by_name[name]:
            kids = [
                (c[4], c[5])
                for c in children[s[0]]
                if child_names is None or c[2] in child_names
            ]
            out += (s[5] - s[4]) - _covered(kids, s[4], s[5])
        return out

    per_pair = [
        sum(1 for c in children[s[0]] if c[2] == "spectral.evaluate")
        for s in by_name["zeta.det"]
    ] or [0]
    solve_s = total("discretize.solve_modes")
    busy = total("discretize.solve_mode") + total("discretize.assemble_mode_operator")
    return {
        "geometry.relative_area.s": total("geometry.relative_area"),
        "geometry.relative_area.calls": calls("geometry.relative_area"),
        "geometry.line_distance.s": total("geometry.line_distance"),
        "geometry.build_weight.s": total("geometry.build_weight"),
        "geometry.weight_evals": counts["geometry.weight_evals"],
        "geometry.area.s": total("geometry.area"),
        "discretize.solve_modes.s": solve_s,
        "discretize.solve_modes.calls": calls("discretize.solve_modes"),
        "discretize.modes": calls("discretize.solve_mode"),
        "discretize.eigenvalues": counts["discretize.eigenvalues"],
        "discretize.mode_busy_s": busy,
        "discretize.pool_parallelism": busy / solve_s if solve_s > 0 else 0.0,
        "discretize.vector_bytes": counts["discretize.vector_bytes"],
        "spectral.relative_trace_series.self_s": self_time(
            "spectral.relative_trace_series", {"geometry.relative_area"}
        ),
        "spectral.offdiag_l2_integral.s": total("spectral.offdiag_l2_integral"),
        "spectral.offdiag_l2_integral.calls": calls("spectral.offdiag_l2_integral"),
        "spectral.trace_evals": calls("spectral.evaluate"),
        "zeta.fit.s": total("zeta.fit"),
        "zeta.det.s": total("zeta.det"),
        "zeta.det.self_s": self_time("zeta.det", {"spectral.evaluate"}),
        "zeta.integrand_evals.p50": statistics.median(per_pair),
        "zeta.integrand_evals.max": max(per_pair),
        "cli.run_scenario.s": total(RUN_SPAN),
        "cli.self_s": self_time(RUN_SPAN),
        "cli.write.s": total("cli.write"),
    }


# Counters that must repeat exactly between two passes of one config; a
# mismatch means the workload changed, so the run is marked failed.
WORK_COUNTERS = (
    "geometry.relative_area.calls",
    "geometry.weight_evals",
    "discretize.solve_modes.calls",
    "discretize.modes",
    "discretize.eigenvalues",
    "discretize.vector_bytes",
    "spectral.offdiag_l2_integral.calls",
    "spectral.trace_evals",
    "zeta.integrand_evals.p50",
    "zeta.integrand_evals.max",
)
