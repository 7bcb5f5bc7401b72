"""Scenario runner: declarative JSON configs in, CSV tables + JSON summary out.

Verbs
-----
    relspec run CONFIG.json [--out DIR]    run one scenario, write artifacts
    relspec validate CONFIG.json           parse + resolve a config, no solves
    relspec report DIR                     re-print the summary of a finished run

Exit codes: 0 all checks passed, 1 a check failed or a component raised
(the summary names the failing stage and a FAILED marker is left in the
output directory), 2 for config errors and an output directory that cannot
be created.  CSV bodies are byte-identical across reruns of the same
config.

Loading a config builds its solve plan (``Plan``): every surface the run
solves, in queue order, each one ``Surface`` (its profile, its grid nodes,
its weight sampled and checked once and its pencil), and the stage name and
members of each distinct pair.  Every config check runs there, so a config
that cannot run exits 2 before any solve; the run then solves the plan as
built, building and sampling nothing again.  Each kind's runner, plan, pair
member and swept family, and the config keys it reads, are its row of
``_KINDS``; a key that the file sets and its kind does not read exits 2
too.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .discretize import ModeQueue, Surface, check_resolution, make_grid
from .geometry import (
    DEFAULT_TRUNCATION,
    BumpSpec,
    EndModel,
    MetricProfile,
    SurfaceSpec,
    Truncation,
    build_weight,
    flat_cylinder,
    line_distance,
)
from .spectral import (
    default_time_grid,
    kernel_value,
    offdiag_l2_integral,
    relative_trace_series,
    spectral_gap,
)
from .zeta import (
    DEFAULT_FIT_K_MAX,
    DEFAULT_FIT_WINDOW,
    determinant_from_series,
    fit_heat_invariants,
    min_fit_samples,
)

# Times of the off-diagonal Gaussian functional sup_t [log I(t) + d^2/(8t)].
OFFDIAG_TIMES = tuple(float(t) for t in np.geomspace(0.05, 1.0, 9))
# The validate scenario's 2D oracle grid: radial nodes x angles.
ORACLE_S_NODES, ORACLE_N_THETA = 400, 64
# The validate scenario's flat-cylinder stage: its grid nodes and its
# eigenvalue cutoff.
FLAT_S_NODES, FLAT_LAMBDA_CUT = 4000, 30.0


class ConfigError(ValueError):
    """Anything wrong with a scenario config file (exit code 2)."""


def _from_mapping(cls, data: dict, where: str):
    """``cls(**data)`` for the config object at key path ``where``; every
    error names that path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; known: {sorted(names)}")
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _default(obj, name: str):
    """The default of the field ``name`` of the dataclass ``obj``."""
    f = obj.__dataclass_fields__[name]
    return f.default_factory() if f.default is dataclasses.MISSING else f.default


def _with_surgery(spec: SurfaceSpec, epsilon: float) -> SurfaceSpec:
    if spec.right_end.kind == "filled_cap":
        right = dataclasses.replace(spec.right_end, cap_epsilon=float(epsilon))
        return dataclasses.replace(spec, right_end=right)
    if spec.left_end.kind == "dirichlet_boundary":
        return dataclasses.replace(spec, boundary_surgery_epsilon=float(epsilon))
    raise ConfigError(
        "surface has neither a filled_cap end nor a dirichlet_boundary end; "
        "there is no surgery parameter to sweep"
    )


def _with_funnel_constant(spec: SurfaceSpec, constant: float) -> SurfaceSpec:
    if spec.left_end.kind != "funnel":
        raise ConfigError("funnel_conformal_check needs funnel left ends")
    left = dataclasses.replace(spec.left_end, funnel_constant=float(constant))
    return dataclasses.replace(spec, left_end=left)


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization, truncation, fit and off-diagonal probe parameters.

    Every field has a working default; configs override selectively.  The
    time grid, fit residual threshold, oracle resolution and off-diagonal
    times are the library's own constants.  Construction checks the types
    and every range that the numerics alone decide, without solving.
    """

    n_nodes: int = 4000
    lambda_cut: float = 400.0
    funnel_depth: float = DEFAULT_TRUNCATION.funnel_depth
    cusp_end: float = DEFAULT_TRUNCATION.cusp_end
    cap_end: float = DEFAULT_TRUNCATION.cap_end
    fit_k_max: int = DEFAULT_FIT_K_MAX
    fit_window_lo: float = DEFAULT_FIT_WINDOW[0]
    fit_window_hi: float = DEFAULT_FIT_WINDOW[1]
    offdiag_y_s: float = 1.0
    offdiag_y_theta: float = 0.0
    offdiag_y2_s: float = 3.0
    offdiag_y2_theta: float = 2.0

    def __post_init__(self):
        # JSON keeps bool, int and float apart, and parses NaN and Infinity.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            is_int = f.type == "int"
            if (
                isinstance(value, bool)
                or not isinstance(value, int if is_int else (int, float))
                or (isinstance(value, float) and not math.isfinite(value))
            ):
                want = "an int" if is_int else "a finite number"
                raise ConfigError(f"numerics.{f.name} must be {want}, got {value!r}")
        lo, hi = self.fit_window
        for name, ok, want in (
            ("n_nodes", self.n_nodes >= 8, "at least 8"),
            ("lambda_cut", self.lambda_cut > 0.0, "positive"),
            ("fit_k_max", self.fit_k_max >= 2, "at least 2 (the determinant needs a_0..a_2)"),
            ("fit_window_lo", 0.0 < lo < hi, "positive and below numerics.fit_window_hi"),
        ):
            if not ok:
                raise ConfigError(f"numerics.{name} must be {want}, got {getattr(self, name)!r}")
        try:
            self.truncation()
        except ValueError as exc:  # Truncation names the field, which is the key
            raise ConfigError(f"numerics.{exc}") from exc
        t = default_time_grid()
        n = int(np.count_nonzero((t >= lo) & (t <= hi)))
        if n < min_fit_samples(self.fit_k_max):
            raise ConfigError(
                f"numerics.fit_window_lo, fit_window_hi: the window ({lo!r}, {hi!r}) holds "
                f"{n} samples of the default time grid; fit_k_max = {self.fit_k_max} "
                f"needs at least {min_fit_samples(self.fit_k_max)}"
            )

    def truncation(self) -> Truncation:
        return Truncation(
            funnel_depth=self.funnel_depth, cusp_end=self.cusp_end, cap_end=self.cap_end
        )

    @property
    def fit_window(self) -> tuple[float, float]:
        return (self.fit_window_lo, self.fit_window_hi)

    @property
    def offdiag_points(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The kernel's probe points y and y2, each as (s, theta)."""
        return (self.offdiag_y_s, self.offdiag_y_theta), (self.offdiag_y2_s, self.offdiag_y2_theta)


def _default_epsilons() -> tuple[float, ...]:
    return tuple(k / 20.0 for k in range(21))


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: a surface pair, a parameter grid, numerics, outputs.

    surface_a / surface_b are SurfaceSpec dictionaries (the A member usually
    carries the bump, B is the plain reference); sweep scenarios rewrite the
    surgery parameter of *both* members per grid point, so the pair stays
    relatively compact and its invariants are the quantity under test.

    Construction builds the run's ``plan`` (a ``Plan``, outside the
    fields) with the plan builder of its kind's row in ``_KINDS``: every
    surface the run solves, each a ``Surface`` on its grid, chart layout
    included, its weight sampled once.  It checks the charts of every pair,
    that every weight is positive and finite on its grid and that every
    grid solved at ``lambda_cut`` resolves it.  So an unusable value fails
    here, naming its key.
    """

    kind: str
    label: str = ""
    surface_a: dict = field(default_factory=dict)
    surface_b: dict = field(default_factory=dict)
    epsilons: tuple[float, ...] = field(default_factory=_default_epsilons)
    conformal_constants: tuple[float, ...] = (0.0, 0.2, 0.4)
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    output_dir: str | None = None
    notes: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; one of {tuple(_KINDS)}")
        for name, types, want in (
            ("label", str, "a string"),
            ("notes", str, "a string"),
            ("output_dir", (str, type(None)), "a string or null"),
        ):
            if not isinstance(getattr(self, name), types):
                raise ConfigError(f"{name} must be {want}, got {getattr(self, name)!r}")
        if not self.label:
            object.__setattr__(self, "label", self.kind)
        for name in ("epsilons", "conformal_constants"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in values
            ):
                raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
            object.__setattr__(self, name, tuple(float(v) for v in values))
        # The plan is no field: to_dict() and the summary's config echo
        # only what the file says.
        object.__setattr__(self, "plan", _KINDS[self.kind].plan(self))

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """The config of the mapping ``data``, checked in full: unknown
        keys, types and ranges, then the plan, then every key ``data``
        sets off its default against the keys its kind reads.  A default
        is never flagged, so ``to_dict()`` of a loaded config loads."""
        raw = data
        if isinstance(data, dict) and "numerics" in data:
            numerics = _from_mapping(NumericsConfig, data["numerics"], "numerics")
            data = {**data, "numerics": numerics}
        cfg = _from_mapping(cls, data, "config")
        named = [(key, cfg, key) for key in raw if key != "numerics"]
        named += [(f"numerics.{key}", cfg.numerics, key) for key in raw.get("numerics", {})]
        unread = [
            key
            for key, owner, name in named
            if key not in _KINDS[cfg.kind].reads and getattr(owner, name) != _default(owner, name)
        ]
        if unread:
            a = "an" if cfg.kind[0] in "aeiou" else "a"
            these = "this key" if len(unread) == 1 else "these keys"
            raise ConfigError(f"{', '.join(unread)}: {a} {cfg.kind} run does not read {these}")
        return cfg

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["epsilons"] = list(self.epsilons)
        d["conformal_constants"] = list(self.conformal_constants)
        return d

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- resolved surfaces ---------------------------------------------------

    def points(self) -> list[dict]:
        """The pairs the scenario solves, in run order, as ``pair()`` keywords.

        A surgery sweep solves epsilon 0 and then each ``epsilons`` value; a
        conformal check each ``conformal_constants`` value; the other pair
        kinds their one pair; validate and offdiag_check none.  A family
        with no member to compare raises a ConfigError naming its key.
        ``plan.points`` maps each entry to its distinct pair.
        """
        kind = _KINDS[self.kind]
        if kind.b is None:
            return []
        if kind.family is None:
            return [{}]
        values = getattr(self, kind.family)
        if not values:
            raise ConfigError(f"{kind.family} = {list(values)!r}: a {self.kind} needs a value")
        return [{kind.keyword: v} for v in (*kind.baseline, *values)]

    def _spec(self, d: dict, where: str) -> SurfaceSpec:
        if not d:
            raise ConfigError(f"{where} is empty; scenario {self.kind} needs a surface spec")
        if not isinstance(d, dict):
            raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
        d = dict(d)
        for key in ("left_end", "right_end"):
            if key in d:
                d[key] = _from_mapping(EndModel, d[key], f"{where}.{key}")
        if d.get("bump") is not None:
            d["bump"] = _from_mapping(BumpSpec, d["bump"], f"{where}.bump")
        return _from_mapping(SurfaceSpec, d, where)

    def member(
        self, where: str, *, epsilon: float | None = None, constant: float | None = None
    ) -> MetricProfile:
        """The profile of member ``where`` ('surface_a' or 'surface_b').

        ``epsilon`` rewrites the surgery parameter and ``constant`` the
        funnel's conformal constant.  An unusable value, a chart layout that
        does not fit included, raises a ConfigError naming its key.
        """
        spec = self._spec(getattr(self, where), where)
        for key, value, rewrite in (
            ("epsilons", epsilon, _with_surgery),
            ("conformal_constants", constant, _with_funnel_constant),
        ):
            if value is None:
                continue
            try:
                if not math.isfinite(value):
                    raise ValueError("not a finite number")
                spec = rewrite(spec, value)
            except ValueError as exc:
                raise ConfigError(f"{key} value {value!r} on {where}: {exc}") from exc
        try:
            return build_weight(spec, truncation=self.numerics.truncation())
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    def pair(
        self, *, epsilon: float | None = None, constant: float | None = None
    ) -> tuple[MetricProfile, MetricProfile]:
        """The (A, B) profiles of the scenario, each rewritten as ``member``
        rewrites it.  B is the member of the kind's row in ``_KINDS``: the
        isospectral check compares A against itself; a kind that solves no
        pair raises a ConfigError."""
        b = _KINDS[self.kind].b
        if b is None:
            raise ConfigError(f"a {self.kind} run solves no pair")
        return (
            self.member("surface_a", epsilon=epsilon, constant=constant),
            self.member(b, epsilon=epsilon, constant=constant),
        )


# ----------------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    tolerance: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class Report:
    label: str
    kind: str
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    failed_stage: str | None = None
    error: str | None = None
    wall_time: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failed_stage is None and all(c.passed for c in self.checks)

    def add(self, name, passed, value=None, tolerance=None, detail="") -> CheckResult:
        c = CheckResult(name, bool(passed), value, tolerance, detail)
        self.checks.append(c)
        return c

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "artifacts": sorted(self.artifacts),
            "failed_stage": self.failed_stage,
            "error": self.error,
            "wall_time_seconds": self.wall_time,
            "config": self.config,
        }

    def write(self, out_dir: Path) -> None:
        path = out_dir / "summary.json"
        with open(path, "w", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
            fh.write("\n")


# ----------------------------------------------------------------------------
# shared pipeline pieces
# ----------------------------------------------------------------------------

def _prefix_grid(master: np.ndarray, profile) -> np.ndarray:
    """Largest prefix of the master grid nodes covered by the profile chart.

    Surgery family members live on charts that shorten with the parameter
    (the cap truncation moves in).  Giving every member a prefix of one
    master grid keeps node positions and spacing bitwise-equal across the
    family, so the O(h^2) eigenvalue bias cancels in cross-member
    comparisons instead of wandering with the chart length.
    """
    hi = profile.s_max + 1e-12 * max(1.0, abs(profile.s_max))
    return master[: int(np.searchsorted(master, hi, side="right"))]


@dataclass(frozen=True)
class Plan:
    """What a run solves, built once at load: ``surfaces`` in queue order;
    per distinct point of ``ScenarioConfig.points()``, its stage name
    ("pair epsilon = 0.4", "pair constant = 0.2" or "pair") and the indices
    of its A and B in ``surfaces`` (``pairs``); and per entry of
    ``points()``, its index in ``pairs`` (``points``).  validate and
    offdiag_check have no pairs: their surfaces are the flat cylinder and
    surface_a on the oracle grid, or surface_a on offdiag_check's two
    grids."""

    surfaces: tuple[Surface, ...] = ()
    pairs: tuple[tuple[str, int, int], ...] = ()
    points: tuple[int, ...] = ()


def _surface(profile: MetricProfile, nodes: np.ndarray, where: str) -> Surface:
    """``Surface(profile, nodes)`` of the member named ``where``; a grid or
    a weight that it rejects raises a ConfigError naming the member."""
    try:
        return Surface(profile, nodes)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_capacity(named, lambda_cut: float, keys: str) -> None:
    """``check_resolution`` of every (where, surface) of ``named`` at
    ``lambda_cut``; a grid that fails raises a ConfigError naming ``keys``
    and ``where``."""
    for where, surface in named:
        try:
            check_resolution(surface, lambda_cut)
        except ValueError as exc:
            grid = f"the {surface.n}-node grid of {where}"
            raise ConfigError(f"{keys}: on {grid}, {exc}") from exc


def _cutoff_keys(num: NumericsConfig) -> str:
    return f"numerics.n_nodes = {num.n_nodes!r}, numerics.lambda_cut = {num.lambda_cut!r}"


def _plan_validate(cfg: ScenarioConfig) -> Plan:
    """The flat cylinder on its fixed grid, then surface_a on the oracle
    grid, its bump spanning 8 of its nodes."""
    # The 2D oracle needs scipy.sparse, which no other kind loads.
    from .oracle import check_bump_span

    flat_profile = flat_cylinder(math.pi)
    # FLAT_S_NODES resolves FLAT_LAMBDA_CUT here, so no capacity check
    # applies at load; the mode queue checks it as it solves.
    flat = Surface(flat_profile, make_grid(flat_profile, FLAT_S_NODES))
    profile = cfg.member("surface_a")
    surface = _surface(profile, make_grid(profile, ORACLE_S_NODES), "surface_a")
    try:
        check_bump_span(surface)
    except ValueError as exc:
        raise ConfigError(f"surface_a: {exc}") from exc
    # The oracle solves with no cutoff, so no capacity check applies.
    return Plan(surfaces=(flat, surface))


def _plan_offdiag(cfg: ScenarioConfig) -> Plan:
    """surface_a on the ``n_nodes`` grid and on 1.5 times as many nodes,
    its probe circles on its chart."""
    num = cfg.numerics
    profile = cfg.member("surface_a")
    # The probe circles must lie on the chart they snap to.
    for key in ("offdiag_y_s", "offdiag_y2_s"):
        s = getattr(num, key)
        if not profile.s_min - 1e-12 <= s <= profile.s_max + 1e-12:
            raise ConfigError(
                f"numerics.{key} = {s!r} lies outside the chart "
                f"[{profile.s_min!r}, {profile.s_max!r}] of surface_a"
            )
    grids = [make_grid(profile, n) for n in (num.n_nodes, num.n_nodes * 3 // 2)]
    surfaces = tuple(_surface(profile, nodes, "surface_a") for nodes in grids)
    _check_capacity([("surface_a", s) for s in surfaces], num.lambda_cut, _cutoff_keys(num))
    return Plan(surfaces=surfaces)


def _plan_pairs(cfg: ScenarioConfig) -> Plan:
    """Both members of every distinct point of ``cfg.points()``, by
    ``_pair_plan``."""
    kind, num = _KINDS[cfg.kind], cfg.numerics
    points = [tuple(point.items()) for point in cfg.points()]
    index = {key: i for i, key in enumerate(dict.fromkeys(points))}
    family = []
    for key in index:
        name = " ".join(["pair", *(f"{k} = {v}" for k, v in key)])
        at = "".join(f" at {kind.family} value {v!r}" for _, v in key)
        family.append((name, "surface_a" + at, kind.b + at, cfg.pair(**dict(key))))
    plan = _pair_plan(family, num.n_nodes, [index[point] for point in points])
    names = [where for _, where_a, where_b, _ in family for where in (where_a, where_b)]
    _check_capacity(zip(names, plan.surfaces), num.lambda_cut, _cutoff_keys(num))
    return plan


def _pair_plan(family, n_nodes: int, points=(0,)) -> Plan:
    """The plan of a family of pairs: per distinct point, ``family`` holds
    its stage name, the names of its A and B (with the point) and (A, B).

    Both members of every pair are solved on the prefix of the first A's
    ``n_nodes`` grid that their chart covers, so the family shares its node
    positions.  Members on different charts, or a chart that does not start
    where the first one does, raise a ConfigError naming member and point.
    """
    master = make_grid(family[0][3][0], n_nodes)
    surfaces, pairs = [], []
    for name, where_a, where_b, (profile_a, profile_b) in family:
        chart_a, chart_b = (profile_a.s_min, profile_a.s_max), (profile_b.s_min, profile_b.s_max)
        if chart_b != chart_a:
            raise ConfigError(
                f"{where_b}: pair members live on different charts, "
                f"{list(chart_b)!r} against {list(chart_a)!r} of {where_a}"
            )
        if abs(float(master[0]) - profile_a.s_min) > 1e-12:
            raise ConfigError(f"{where_a}: family members must share the left chart endpoint")
        nodes = _prefix_grid(master, profile_a)
        pairs.append((name, len(surfaces), len(surfaces) + 1))
        surfaces += [_surface(profile_a, nodes, where_a), _surface(profile_b, nodes, where_b)]
    return Plan(surfaces=tuple(surfaces), pairs=tuple(pairs), points=tuple(points))


def solve_pair(
    pair: tuple[MetricProfile, MetricProfile],
    numerics: NumericsConfig,
):
    """Solve the pair (A, B) and compute its relative trace, heat-invariant
    fit and relative determinant: the one-pair case of ``_solve_plan``.

    Returns (sys_a, series, det); the fit is ``det.invariants``.
    """
    plan = _pair_plan([("pair", "surface_a", "surface_b", pair)], numerics.n_nodes)
    return _solve_plan(plan, numerics)[0]


def _solve_plan(plan: Plan, numerics: NumericsConfig, stage=None) -> list:
    """(sys_a, series, det) of every point of ``plan``, in order.

    All of the plan's surfaces go on one ``ModeQueue`` up front.  Each
    distinct pair is then finished on this thread, in a stage of its own
    (``stage`` is called with its name before it is taken): the relative
    trace on the default time grid, the configured heat-invariant fit and
    the determinant, while the queue's threads solve later pairs.  A
    repeated point reuses its pair's result.
    """
    solved = []
    with ModeQueue(plan.surfaces, numerics.lambda_cut) as queue:
        for name, a, b in plan.pairs:
            if stage is not None:
                stage(name)
            sys_a, sys_b = queue.result(a), queue.result(b)
            series = relative_trace_series(sys_a, sys_b)
            inv = fit_heat_invariants(series, numerics.fit_k_max, window=numerics.fit_window)
            solved.append((sys_a, series, determinant_from_series(series, inv)))
    return [solved[i] for i in plan.points]


def _budget_header(det) -> str:
    """CSV columns for the error-budget terms of a determinant, in budget order."""
    return ",".join(f"budget_{name}" for name in det.error_budget)


def _flat_reference(count: int) -> list[float]:
    vals = []
    for k in range(1, 40):
        for m in range(0, 40):
            vals.extend([float(k * k + m * m)] * (1 if m == 0 else 2))
    vals.sort()
    return vals[:count]


# ----------------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------------

def _run_validate(cfg: ScenarioConfig, out: Path, report: Report, stage):
    # The 2D oracle needs scipy.sparse, which no other scenario loads.
    from .oracle import low_eigenvalues_2d, mode_sum_reference

    flat, surface = cfg.plan.surfaces

    stage("flat-cylinder spectrum")
    with ModeQueue([flat], FLAT_LAMBDA_CUT) as queue:
        sys_flat = queue.result(0)
    got = sys_flat.eigenvalues_with_multiplicity()[:12]
    want = np.asarray(_flat_reference(12))
    rel = float(np.max(np.abs(got - want) / want))
    report.add(
        "flat_first12_relative_error",
        rel <= 1e-5,
        value=rel,
        tolerance=1e-5,
        detail=f"first 12 of k^2+m^2 at N={FLAT_S_NODES}",
    )
    sys_flat.to_csv(out / "flat_spectrum.csv")
    report.artifacts.append("flat_spectrum.csv")

    stage("flat-cylinder multiplicity enumeration")
    below10 = sys_flat.eigenvalues_with_multiplicity()
    count10 = int(np.count_nonzero(below10 <= 10.0 + 1e-8))
    want10 = len([v for v in _flat_reference(40) if v <= 10.0])
    report.add(
        "flat_count_below_10",
        count10 == want10,
        value=float(count10),
        tolerance=float(want10),
        detail=f"angular multiplicity bookkeeping: {count10} computed vs {want10} analytic",
    )

    stage("2D oracle agreement")
    two_d = low_eigenvalues_2d(surface, ORACLE_N_THETA)
    mode_sum = mode_sum_reference(surface, ORACLE_N_THETA)
    rel2 = float(np.max(np.abs(two_d - mode_sum) / mode_sum))
    report.add(
        "oracle_2d_vs_mode_sum",
        rel2 <= 1e-7,
        value=rel2,
        tolerance=1e-7,
        detail=(
            f"first {len(two_d)} eigenvalues, {surface.n}x{ORACLE_N_THETA} "
            "five-point pencil vs angular-symbol mode sum (same discrete operator)"
        ),
    )
    _write_csv(
        out / "oracle_agreement.csv",
        "index,two_d,mode_sum,rel_diff",
        [
            (i, float(a), float(b), float(abs(a - b) / b))
            for i, (a, b) in enumerate(zip(two_d, mode_sum))
        ],
    )
    report.artifacts.append("oracle_agreement.csv")

    stage("angular refinement stability")
    m0_coarse = mode_sum[:5]  # the first 5 at ORACLE_N_THETA, solved above
    m0_fine = mode_sum_reference(surface, 2 * ORACLE_N_THETA, 5)
    drift = float(np.max(np.abs(m0_fine - m0_coarse) / m0_coarse))
    report.add(
        "angular_refinement_drift",
        drift <= 5e-3,
        value=drift,
        tolerance=5e-3,
        detail="first 5 eigenvalues under doubled n_theta (symbol converges like h^2)",
    )


def _run_surgery_sweep(cfg: ScenarioConfig, out: Path, report: Report, stage):
    (sys_a0, series0, det0), *solved = _solve_plan(cfg.plan, cfg.numerics, stage)
    inv0 = det0.invariants
    nodes, base_weight = sys_a0.surface.profile.sample(2048)

    stage("sweep table")
    series0.to_csv(out / "trace_baseline.csv")
    report.artifacts.append("trace_baseline.csv")
    rows = []
    for i, (eps, (sys_a, series, det)) in enumerate(zip(cfg.epsilons, solved)):
        if series is not series0:  # epsilon 0 is the baseline, trace_baseline.csv
            series.to_csv(out / f"trace_eps_{i:02d}.csv")
            report.artifacts.append(f"trace_eps_{i:02d}.csv")
        rows.append((
            eps,
            spectral_gap(sys_a),
            float(np.max(sys_a.surface.profile.weight(nodes) / base_weight)),
            series.rel_area,
            *[float(c) for c in det.invariants.coefficients],
            det.invariants.residual,
            det.log_determinant,
            det.determinant,
            float(np.max(np.abs(series.values - series0.values))),
            *det.error_budget.values(),
        ))
    header = (
        "epsilon,lambda1,weight_ratio,rel_area,"
        + ",".join(f"a{k}" for k in range(len(inv0.coefficients)))
        + ",fit_residual,log_det,det,dsup,"
        + _budget_header(det0)
    )
    _write_csv(out / "sweep.csv", header, rows)
    report.artifacts.append("sweep.csv")

    stage("sweep checks")
    col = dict(zip(header.split(","), zip(*rows)))  # the table's columns, by name
    big_c = max(col["weight_ratio"])
    min_l1 = min(col["lambda1"])
    lambda1_0 = spectral_gap(sys_a0)
    report.add(
        "gap_lower_bound",
        min_l1 >= lambda1_0 / big_c,
        value=min_l1,
        tolerance=lambda1_0 / big_c,
        detail=f"min_eps lambda1 vs lambda1(0)/C, C = max weight ratio = {big_c!r}",
    )
    drift01 = max(abs(a - inv0.coefficients[k]) for k in (0, 1) for a in col[f"a{k}"])
    report.add(
        "invariant_drift_a0_a1",
        drift01 <= 5e-3,
        value=drift01,
        tolerance=5e-3,
        detail="max |a_k(eps) - a_k(0)|, k in {0, 1}",
    )
    a0_err = max(abs(a0 - area / (4.0 * math.pi)) for a0, area in zip(col["a0"], col["rel_area"]))
    report.add(
        "a0_matches_relative_area",
        a0_err <= 1e-3,
        value=a0_err,
        tolerance=1e-3,
        detail="max |a_0 - rel_area/(4 pi)| over the grid",
    )
    det_drift = max(abs(v - det0.log_determinant) for v in col["log_det"])
    report.add(
        "determinant_invariance",
        det_drift <= 1e-2,
        value=det_drift,
        tolerance=1e-2,
        detail="max |log det(eps) - log det(0)|",
    )
    # Dsup must not grow as the surgery shrinks, along the distinct positive
    # epsilons in decreasing order.
    positive = {e: d for e, d in zip(col["epsilon"], col["dsup"]) if e > 0.0}
    if len(positive) >= 2:
        ladder = sorted(positive.items(), reverse=True)
        worst = max(b[1] - a[1] for a, b in zip(ladder, ladder[1:]))
        report.add(
            "dsup_non_increasing",
            worst <= 1e-4,
            value=worst,
            tolerance=1e-4,
            detail=f"Dsup along eps = {[e for e, _ in ladder]} (positive = violation)",
        )


def _run_isospectral(cfg: ScenarioConfig, out: Path, report: Report, stage):
    [(_, series, det)] = _solve_plan(cfg.plan, cfg.numerics, stage)
    inv = det.invariants
    series.to_csv(out / "trace.csv")
    report.artifacts.append("trace.csv")
    stage("exactness checks")
    report.add(
        "trace_identically_zero",
        bool(np.all(series.values == 0.0)),
        value=float(np.max(np.abs(series.values))),
        tolerance=0.0,
        detail="RelTr(t) == 0.0 exactly at every sample",
    )
    report.add(
        "invariants_exactly_zero",
        all(c == 0.0 for c in inv.coefficients),
        value=max(abs(c) for c in inv.coefficients),
        tolerance=0.0,
    )
    report.add(
        "determinant_exactly_one",
        det.determinant == 1.0,
        value=det.determinant,
        tolerance=0.0,
        detail="det = exp(-zeta'(0)) with zeta'(0) == 0.0",
    )


def _run_decay(cfg: ScenarioConfig, out: Path, report: Report, stage):
    [(_, series, _)] = _solve_plan(cfg.plan, cfg.numerics, stage)
    series.to_csv(out / "trace.csv")
    report.artifacts.append("trace.csv")
    stage("long-time decay bound")
    mu = series.gap
    t = series.times
    window = (t >= 10.0) & (t <= 11.0)
    tail = (t >= 10.0) & (t <= 20.0)
    if not np.any(window) or not np.any(tail):
        raise ValueError("time grid does not reach the decay window [10, 20]")
    K = float(np.max(np.abs(series.values[window]) * np.exp(0.5 * mu * t[window])))
    bound = K * np.exp(-0.5 * mu * t[tail])
    excess = float(np.max(np.abs(series.values[tail]) - bound))
    # K is the max of |RelTr| e^{mu t/2} over the fit window, so at the
    # attaining point the reconstructed bound matches |RelTr| only up to
    # round-off; allow that much slack and no more.
    slack = 1e-12 * K
    report.add(
        "long_time_decay",
        excess <= slack,
        value=excess,
        tolerance=slack,
        detail=f"|RelTr| <= K e^(-mu t / 2) on [10,20], K={K!r} fitted on [10,11], mu={mu!r}",
    )
    _write_csv(
        out / "decay.csv",
        "t,value,bound",
        [
            (float(ti), float(vi), float(K * math.exp(-0.5 * mu * ti)))
            for ti, vi in zip(t[tail], series.values[tail])
        ],
    )
    report.artifacts.append("decay.csv")


def _run_funnel_conformal(cfg: ScenarioConfig, out: Path, report: Report, stage):
    dets = [det for _, _, det in _solve_plan(cfg.plan, cfg.numerics, stage)]
    stage("conformal table")
    _write_csv(
        out / "conformal.csv",
        "c,a0,a1,log_det,det," + _budget_header(dets[0]),
        [
            (
                c,
                float(det.invariants.coefficients[0]),
                float(det.invariants.coefficients[1]),
                det.log_determinant,
                det.determinant,
                *det.error_budget.values(),
            )
            for c, det in zip(cfg.conformal_constants, dets)
        ],
    )
    report.artifacts.append("conformal.csv")
    stage("determinant invariance check")
    drift = max(abs(det.log_determinant - dets[0].log_determinant) for det in dets)
    report.add(
        "determinant_invariance_conformal",
        drift <= 1e-2,
        value=drift,
        tolerance=1e-2,
        detail="max |log det(c) - log det(0)| over funnel-supported conformal constants",
    )


def _offdiag_sup(sys, num: NumericsConfig):
    """sup_t [log I(t) + d^2/(8t)] over ``OFFDIAG_TIMES``, its rows and d,
    the distance between the circles of the system's two probe rows."""
    y, y2 = num.offdiag_points
    surface = sys.surface
    dist = line_distance(surface.profile, *(float(surface.nodes[i]) for i in sys.probes.rows))
    sup = -math.inf
    rows = []
    for t in OFFDIAG_TIMES:
        value = offdiag_l2_integral(sys, t, y=y, y2=y2)
        val = math.log(abs(value)) + dist**2 / (8.0 * t)
        rows.append((float(t), value, val))
        sup = max(sup, val)
    return sup, rows, dist


def _run_offdiag(cfg: ScenarioConfig, out: Path, report: Report, stage):
    """Both resolutions go on one ``ModeQueue`` that keeps each surface's
    ``ProbeModes`` at the two probe radii: the ``n_nodes`` integrals run on
    this thread while the queue's threads solve the refined grid."""
    num = cfg.numerics
    stage("off-diagonal integrals")
    y, y2 = num.offdiag_points
    with ModeQueue(cfg.plan.surfaces, num.lambda_cut, probes=(y[0], y2[0])) as queue:
        sys = queue.result(0)
        sup, rows, dist = _offdiag_sup(sys, num)
        sup = float(sup)
        _write_csv(out / "offdiag.csv", "t,integral,log_plus_gaussian", rows)
        report.artifacts.append("offdiag.csv")
        report.add(
            "gaussian_functional_finite",
            math.isfinite(sup),
            value=sup,
            tolerance=None,
            detail=f"sup_t [log I(t) + d^2/(8t)], d={dist!r}",
        )
        stage("refinement stability")
        sup_fine, _, _ = _offdiag_sup(queue.result(1), num)
    sup_fine = float(sup_fine)
    change = abs(sup_fine - sup) / max(abs(sup), 1e-12)
    report.add(
        "gaussian_functional_refinement",
        change < 0.05,
        value=change,
        tolerance=0.05,
        detail=f"sup changes {sup!r} -> {sup_fine!r} under 1.5x radial refinement",
    )
    stage("semigroup identity")
    t_mid = 0.5 * (OFFDIAG_TIMES[0] + OFFDIAG_TIMES[-1])
    value = offdiag_l2_integral(sys, t_mid, y=y, y2=y2)
    direct = kernel_value(sys, 2.0 * t_mid, y, y2)
    rel = abs(value - direct) / max(abs(direct), 1e-300)
    report.add(
        "semigroup_identity",
        rel <= 1e-10,
        value=rel,
        tolerance=1e-10,
        detail="full-chart I(t) vs K(2t, y, y2) from the same eigenbasis",
    )


@dataclass(frozen=True)
class _Kind:
    """A scenario kind: its runner (``run``), its plan builder (``plan``)
    and every config key it reads (``reads``, numerics keys as
    ``numerics.<name>``).  A kind that solves pairs names the member ``b``
    that surface_a is compared against; a kind that sweeps a family names
    its config key (``family``), the ``pair()`` keyword of its values
    (``keyword``) and the values it solves first (``baseline``)."""

    run: Callable
    plan: Callable
    reads: frozenset[str]
    b: str | None = None
    family: str | None = None
    keyword: str | None = None
    baseline: tuple[float, ...] = ()


def _reads(*keys: str) -> frozenset[str]:
    """``keys`` and the keys every kind reads."""
    return frozenset(("kind", "label", "notes", "output_dir", *keys))


_TRUNCATION_KEYS = ("numerics.funnel_depth", "numerics.cusp_end", "numerics.cap_end")
_SOLVE_KEYS = ("numerics.n_nodes", "numerics.lambda_cut", *_TRUNCATION_KEYS)
_FIT_KEYS = ("numerics.fit_k_max", "numerics.fit_window_lo", "numerics.fit_window_hi")
_PAIR_KEYS = ("surface_a", "surface_b", *_SOLVE_KEYS, *_FIT_KEYS)
_OFFDIAG_KEYS = tuple(f"numerics.offdiag_{k}" for k in ("y_s", "y_theta", "y2_s", "y2_theta"))

# Every per-kind decision.  decay_check reads the fit keys because its
# unused fit can still fail the run.
_KINDS = {
    "validate": _Kind(_run_validate, _plan_validate, _reads("surface_a", *_TRUNCATION_KEYS)),
    "surgery_sweep": _Kind(
        _run_surgery_sweep, _plan_pairs, _reads(*_PAIR_KEYS, "epsilons"),
        b="surface_b", family="epsilons", keyword="epsilon", baseline=(0.0,),
    ),
    "isospectral_check": _Kind(
        _run_isospectral, _plan_pairs, _reads("surface_a", *_SOLVE_KEYS, *_FIT_KEYS),
        b="surface_a",
    ),
    "decay_check": _Kind(_run_decay, _plan_pairs, _reads(*_PAIR_KEYS), b="surface_b"),
    "funnel_conformal_check": _Kind(
        _run_funnel_conformal, _plan_pairs, _reads(*_PAIR_KEYS, "conformal_constants"),
        b="surface_b", family="conformal_constants", keyword="constant",
    ),
    "offdiag_check": _Kind(
        _run_offdiag, _plan_offdiag, _reads("surface_a", *_SOLVE_KEYS, *_OFFDIAG_KEYS)
    ),
}


def _remove_earlier_artifacts(out: Path) -> None:
    """Remove from ``out`` the FAILED marker and every artifact that an
    earlier run's summary.json there lists, which would otherwise outlive
    this run's verdict beside a summary that does not list them.  Only a
    regular file under a plain name (no path separator) is removed; a
    missing or malformed summary removes the marker alone."""
    names = ["FAILED"]
    try:
        with open(out / "summary.json") as fh:
            listed = json.load(fh)["artifacts"]
    except (OSError, ValueError, KeyError, TypeError):
        listed = []
    if isinstance(listed, list):
        names += listed
    for name in names:
        if isinstance(name, str) and Path(name).name == name and (out / name).is_file():
            (out / name).unlink()


def run_scenario(cfg: ScenarioConfig, out_dir) -> Report:
    """Run one scenario, writing artifacts + summary.json into out_dir,
    after removing what an earlier run there left (see
    ``_remove_earlier_artifacts``).

    Component failures are caught: the summary names the failing stage, a
    FAILED marker file is written next to whatever partial outputs exist, and
    the report comes back with passed=False.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_earlier_artifacts(out)
    report = Report(label=cfg.label, kind=cfg.kind, config=cfg.to_dict())
    current = {"stage": "setup"}

    def stage(name: str) -> None:
        current["stage"] = name

    t0 = time.perf_counter()
    try:
        _KINDS[cfg.kind].run(cfg, out, report, stage)
    except Exception as exc:  # noqa: BLE001 -- the report carries the failure
        report.failed_stage = current["stage"]
        report.error = f"{type(exc).__name__}: {exc}"
        with open(out / "FAILED", "w", newline="\n") as fh:
            fh.write(f"stage: {current['stage']}\n")
            fh.write(traceback.format_exc())
        report.artifacts.append("FAILED")
    report.wall_time = time.perf_counter() - t0
    report.write(out)
    return report


# ----------------------------------------------------------------------------
# command-line interface
# ----------------------------------------------------------------------------

def _print_report(report_dict: dict, stream=None) -> None:
    # resolve sys.stdout at call time so redirection after import is honored
    stream = sys.stdout if stream is None else stream
    status = "PASS" if report_dict["passed"] else "FAIL"
    print(f"[{status}] {report_dict['kind']} :: {report_dict['label']}", file=stream)
    for c in report_dict["checks"]:
        mark = "ok " if c["passed"] else "FAIL"
        line = f"  [{mark}] {c['name']}"
        if c.get("value") is not None:
            line += f"  value={c['value']!r}"
        if c.get("tolerance") is not None:
            line += f"  tol={c['tolerance']!r}"
        print(line, file=stream)
        if c.get("detail"):
            print(f"        {c['detail']}", file=stream)
    if report_dict.get("failed_stage"):
        print(
            f"  component failure in stage: {report_dict['failed_stage']}\n"
            f"  {report_dict.get('error')}",
            file=stream,
        )
    print(f"  wall time: {report_dict['wall_time_seconds']:.1f}s", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relspec",
        description="relative spectral geometry scenario runner",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a scenario JSON config")
    p_run.add_argument("--out", default=None, help="output directory (default from config)")
    p_val = sub.add_parser("validate", help="parse and resolve a config without solving")
    p_val.add_argument("config")
    p_rep = sub.add_parser("report", help="re-print the summary of a finished run")
    p_rep.add_argument("dir")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.verb in ("run", "validate"):
        try:
            cfg = ScenarioConfig.from_json(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if args.verb == "validate":
            print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
            return 0
        out_dir = Path(args.out or cfg.output_dir or f"out/{cfg.label}")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"cannot create output directory {out_dir}: {reason}", file=sys.stderr)
            return 2
        report = run_scenario(cfg, out_dir)
        _print_report(report.to_dict())
        return 0 if report.passed else 1

    # report verb
    path = Path(args.dir) / "summary.json"
    if not path.exists():
        print(f"no summary.json under {args.dir}", file=sys.stderr)
        return 2
    # Render in full before printing, so a malformed summary prints nothing
    # but the reason.
    text = io.StringIO()
    try:
        with open(path) as fh:
            data = json.load(fh)
        _print_report(data, text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        print(f"not a relspec summary: {path}: {reason}", file=sys.stderr)
        return 2
    sys.stdout.write(text.getvalue())
    return 0 if data["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
