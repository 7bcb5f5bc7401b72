"""Conformal weights for cylinder metrics with funnel, cusp, boundary and cap ends.

A surface is a positive weight w(s) on a finite coordinate interval: the metric
is w(s) (ds^2 + dtheta^2) on [s_min, s_max] x S^1.  Every weight is the one
product that ``_Weight`` evaluates,

    w(s) = exp(log w_0(s) + A (1 - u^2)^3) * psi(s),   u = (s - center)/radius,

* log w_0, the chart's base log-weight: the hyperbolic ends (cusp weight
  1/s^2; funnel weight e^c/x^2 in the funnel chart), or a flat collar e^f
  next to a Dirichlet boundary blended into a cusp, or 0 on a flat cylinder;
* the optional compactly supported log-weight bump in the core region (the
  term is 0 for |u| >= 1 and absent without a bump); and
* psi, an optional surgery factor that opens up a cusp into a smooth cap, or
  desingularizes a shrinking boundary, along a one-parameter family (absent
  without surgery).

Point (cap) surgery acts through ``surgery_factor_point`` evaluated at
r = e^{-s}; it differs from 1 exactly where r < 1/2, i.e. s > ln 2, so the core
interval is anchored just below ln 2 and every other feature is kept disjoint
from the surgery region.  Boundary surgery acts through
``surgery_factor_boundary`` on a collar r < 1/2 next to the boundary.

The product is pure elementary operations in a fixed order, so a rebuilt
profile reproduces its weight bitwise.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass, field
from numbers import Real

import numpy as np

__all__ = [
    "SURGERY_S_THRESHOLD",
    "BumpSpec",
    "EndModel",
    "SurfaceSpec",
    "Truncation",
    "MetricProfile",
    "smooth01",
    "plateau_cutoff",
    "surgery_factor_point",
    "surgery_factor_boundary",
    "cap_tip_constant",
    "build_weight",
    "flat_cylinder",
    "relative_area",
    "line_distance",
]

# Point surgery factors equal 1 exactly for r = e^{-s} >= 1/2.
SURGERY_S_THRESHOLD = math.log(2.0)

# Boundary-chart layout constants (see the module docstring of build_weight's
# boundary branch): collar [0, COLLAR_EDGE], blend to the cusp profile over
# [COLLAR_EDGE, BLEND_EDGE], cusp coordinate x = s + CUSP_OFFSET beyond.
_COLLAR_EDGE = 0.55
_BLEND_EDGE = 0.85
_CUSP_OFFSET = 0.15
_COLLAR_TIP = 0.25  # radius where the eps = 0 collar is purely hyperbolic


# ----------------------------------------------------------------------------
# smooth cutoffs and surgery factors
# ----------------------------------------------------------------------------

def smooth01(u):
    """C^2 quintic smoothstep: 0 for u <= 0, 1 for u >= 1, monotone between."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def plateau_cutoff(x):
    """C^2 cutoff equal to 1 on x <= 1/4 and 0 on x >= 1/2 (exactly)."""
    return 1.0 - smooth01((np.asarray(x, dtype=float) - 0.25) / 0.25)


def _bump_profile(u):
    """C^2 bump (1-u^2)^3 on |u| < 1, exactly 0 outside."""
    u = np.asarray(u, dtype=float)
    core = 1.0 - u * u
    return np.where(np.abs(u) < 1.0, core * core * core, 0.0)


def surgery_factor_point(epsilon: float, r):
    """Conformal factor opening a cusp/cone point into a smooth cap.

    For r inside the unit disk chart (r = e^{-s} on cusp-normalized
    cylinders),

        psi(eps, r) = sigma(r) * r^2 log^2 r /
                      (eps^2 + (eps^2 + r^2) log^2 sqrt(r^2 + eps^2))
                      + (1 - sigma(r)),

    with sigma the C^2 cutoff equal to 1 on r <= 1/4 and 0 on r >= 1/2.

    Properties (tested): psi(0, r) = 1 exactly for every r > 0; psi = 1
    exactly for r >= 1/2; 0 < psi <= 1 elsewhere (the denominator is
    increasing in eps^2); psi(eps, 0) = 0 for eps > 0 — the factor closes the
    puncture, and r = 0 itself (s = +infinity) is never a chart point.

    Parameters
    ----------
    epsilon : float in [0, 1], family parameter (0 = unsurgered cusp).
    r : float or ndarray, nonnegative chart radius.  (0, 0) is rejected.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"point surgery parameter must be in [0, 1], got {epsilon}")
    if 0.0 < epsilon and epsilon * epsilon == 0.0:
        # eps^2 underflows: the formula degenerates to 0/0 and cannot be
        # evaluated meaningfully this close to the unsurgered limit
        raise ValueError(
            f"point surgery parameter {epsilon} is below floating-point "
            "resolution; use epsilon = 0 or a value above ~1e-150"
        )
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("radius must be nonnegative")
    if epsilon == 0.0:
        if np.any(r_arr == 0.0):
            raise ValueError("surgery factor undefined at epsilon = 0, r = 0")
        out = np.ones_like(r_arr)
        return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out
    sig = plateau_cutoff(r_arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        rlog = np.where(r_arr > 0.0, r_arr * np.log(np.where(r_arr > 0.0, r_arr, 1.0)), 0.0)
    num = rlog * rlog
    u = r_arr * r_arr + epsilon * epsilon
    half_log_u = 0.5 * np.log(u)
    den = epsilon * epsilon + u * half_log_u * half_log_u
    # den >= num analytically (den grows with eps^2 from den|_{eps=0} = num),
    # but when eps^2 sits hundreds of orders below num the two log paths can
    # disagree by one ulp; the clamp restores the exact bound psi <= 1.
    q = np.minimum(num / den, 1.0)
    out = sig * q + (1.0 - sig)
    return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out


def surgery_factor_boundary(epsilon: float, r, f_value: float = 0.0):
    """Conformal factor desingularizing a shrinking Dirichlet boundary.

    psi(eps, r) = exp( eta(eps) * zeta(r) * (-f - log(eps^2 + r^2)) ),

    with eta, zeta the same C^2 plateau cutoff (1 on [0, 1/4], 0 on
    [1/2, inf)) in the family parameter and the collar radius respectively,
    and f the locally constant log-weight next to the boundary.  For
    eps^2 + r^2 < 1/16 the product (eps^2 + r^2) * psi equals e^{-f}
    exactly, so the eps = 0 weight e^f psi = 1/r^2 is a hyperbolic funnel
    tip.  The factor is exactly 1 for r >= 1/2 or eps >= 1/2.
    """
    if epsilon < 0.0:
        raise ValueError(f"boundary surgery parameter must be nonnegative, got {epsilon}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("collar radius must be nonnegative")
    if epsilon == 0.0 and np.any(r_arr == 0.0):
        raise ValueError("surgery factor undefined at epsilon = 0, r = 0")
    eta = plateau_cutoff(epsilon)
    zet = plateau_cutoff(r_arr)
    gate = eta * zet
    u = epsilon * epsilon + r_arr * r_arr
    # gate is exactly 0 outside the active set, so the exponent is exactly 0
    # there (0 * finite); u > 0 everywhere because (0, 0) was rejected.
    out = np.exp(gate * (-f_value - np.log(u)))
    return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out


def cap_tip_constant(epsilon: float) -> float:
    """Deep-tip weight scale of a surgered cap: w(s) -> c(eps) e^{-2s}.

    c(eps) = 1 / (eps^2 (1 + log^2 eps)).  Tested against the assembled
    weight deep in the cap chart.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("cap tip constant needs epsilon in (0, 1]")
    if epsilon * epsilon == 0.0:
        raise ValueError(
            f"cap size {epsilon} is below floating-point resolution; "
            "use a value above ~1e-150"
        )
    le = math.log(epsilon)
    return 1.0 / (epsilon * epsilon * (1.0 + le * le))


# ----------------------------------------------------------------------------
# surface description
# ----------------------------------------------------------------------------

END_KINDS = ("funnel", "cusp", "dirichlet_boundary", "filled_cap")


def _require_finite(obj, *names: str) -> None:
    """Each named field of ``obj`` is a finite real number (not a bool);
    otherwise ValueError naming the field."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class BumpSpec:
    """Compactly supported log-weight bump: log w += amplitude * (1-u^2)^3,
    u = (s - center)/radius.  Support [center - radius, center + radius]."""

    center: float
    radius: float
    amplitude: float

    def __post_init__(self):
        _require_finite(self, "center", "radius", "amplitude")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)


@dataclass(frozen=True)
class EndModel:
    """One end of the cylinder.

    kind
        'funnel' (hyperbolic funnel, weight e^c/x^2 in its chart),
        'cusp' (weight 1/s^2), 'dirichlet_boundary' (flat collar e^f), or
        'filled_cap' (cusp opened by point surgery with parameter
        ``cap_epsilon``).
    funnel_constant
        locally constant conformal shift c of a funnel end (0 = unchanged).
    cap_epsilon
        point-surgery parameter of a filled_cap end; 0 reproduces the cusp
        weight bitwise.
    f_value
        constant log-weight next to a dirichlet_boundary end.
    """

    kind: str
    funnel_constant: float = 0.0
    cap_epsilon: float | None = None
    f_value: float = 0.0

    def __post_init__(self):
        if self.kind not in END_KINDS:
            raise ValueError(f"unknown end kind {self.kind!r}; expected one of {END_KINDS}")
        _require_finite(self, "funnel_constant", "f_value")
        if self.kind == "filled_cap":
            if self.cap_epsilon is None:
                raise ValueError("filled_cap end needs cap_epsilon")
            _require_finite(self, "cap_epsilon")
            if not 0.0 <= self.cap_epsilon <= 1.0:
                raise ValueError(f"cap_epsilon must be in [0, 1], got {self.cap_epsilon!r}")
        elif self.cap_epsilon is not None:
            raise ValueError(f"cap_epsilon only applies to filled_cap ends, not {self.kind!r}")
        if self.funnel_constant != 0.0 and self.kind != "funnel":
            raise ValueError("funnel_constant only applies to funnel ends")
        if self.f_value != 0.0 and self.kind != "dirichlet_boundary":
            raise ValueError("f_value only applies to dirichlet_boundary ends")


@dataclass(frozen=True)
class SurfaceSpec:
    """A cylinder surface: left end + core (optional bump) + right end.

    Supported combinations: left in {funnel, dirichlet_boundary}, right in
    {cusp, filled_cap}; boundary surgery only with a dirichlet_boundary left
    end, and not together with a filled_cap right end.
    """

    left_end: EndModel
    right_end: EndModel
    core_length: float = 0.30
    bump: BumpSpec | None = None
    boundary_surgery_epsilon: float | None = None

    def __post_init__(self):
        if self.left_end.kind not in ("funnel", "dirichlet_boundary"):
            raise ValueError("left end must be a funnel or a dirichlet_boundary")
        if self.right_end.kind not in ("cusp", "filled_cap"):
            raise ValueError("right end must be a cusp or a filled_cap")
        _require_finite(self, "core_length")
        if not self.core_length > 0.0:
            raise ValueError(f"core_length must be positive, got {self.core_length!r}")
        if self.boundary_surgery_epsilon is not None:
            _require_finite(self, "boundary_surgery_epsilon")
            if self.left_end.kind != "dirichlet_boundary":
                raise ValueError("boundary surgery needs a dirichlet_boundary left end")
            if self.right_end.kind == "filled_cap":
                raise ValueError("boundary surgery together with a filled_cap end is not supported")
            if self.boundary_surgery_epsilon < 0.0:
                raise ValueError("boundary_surgery_epsilon must be nonnegative")


@dataclass(frozen=True)
class Truncation:
    """Where the infinite ends are cut off.

    funnel_depth: geodesic depth (in the unperturbed funnel metric) kept below
    the core before the Dirichlet truncation.
    cusp_end: cusp coordinate of the Dirichlet truncation of a cusp end.
    cap_end: coordinate where an unsurgered filled-cap chart stops.
    cap_tip_radius: metric radius of the flat tip disk dropped from a
    surgered cap chart.  Beyond the matching coordinate the weight is
    c(eps) e^{-2s} to ~1e-11, i.e. an exactly flat disk; once its metric
    radius is far below the resolved wavelength 1/sqrt(lambda_cut) the disk
    carries no spectrum in the window except the constant mode, which the
    cap condition keeps.  Cutting there is what keeps the mass matrix
    condition number ~ max w / tip_radius^2 instead of e^{2 cap_end}.
    boundary_depth: like funnel_depth for the eps = 0 collar funnel of a
    boundary-surgery family (members share the common truncated chart).
    """

    funnel_depth: float = 1.0
    cusp_end: float = 40.0
    cap_end: float = 14.0
    boundary_depth: float = 1.0
    cap_tip_radius: float = 0.01

    def __post_init__(self):
        # depths are positive; cusp_end and cap_end lie beyond the core region
        for name, floor in (
            ("funnel_depth", 0), ("boundary_depth", 0), ("cusp_end", 2), ("cap_end", 2)
        ):
            if not getattr(self, name) > floor:
                raise ValueError(f"{name} must exceed {floor}, got {getattr(self, name)!r}")
        if not 0.0 < self.cap_tip_radius <= 0.1:
            raise ValueError("cap_tip_radius must lie in (0, 0.1]")


DEFAULT_TRUNCATION = Truncation()


# ----------------------------------------------------------------------------
# the weight formula (a pure callable, reconstructible from parameters)
# ----------------------------------------------------------------------------

class _Weight:
    """The weight product of the module docstring: exp(log_base(s) + the
    bump's log-weight) * factor(s), with no bump term when ``bump`` is None
    and no factor when ``factor`` is None; a scalar s gives a float."""

    def __init__(self, log_base, bump, factor=None):
        self.log_base = log_base
        self.bump = bump
        self.factor = factor

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        logw = self.log_base(s_arr)
        if self.bump is not None:
            logw = logw + self.bump.amplitude * _bump_profile(
                (s_arr - self.bump.center) / self.bump.radius
            )
        w = np.exp(logw)
        if self.factor is not None:
            w = w * self.factor(s_arr)
        if np.isscalar(s) or s_arr.ndim == 0:
            return float(w)
        return w


# ----------------------------------------------------------------------------
# built profiles
# ----------------------------------------------------------------------------

@dataclass(eq=False)
class MetricProfile:
    """A fully resolved surface: chart, weight, boundary conditions.

    ``weight(s)`` evaluates w(s) at an array of nodes, or at one node as a
    float; two builds from the same spec and truncation (or the same flat
    cylinder) give bitwise the same weight and label.  ``spec`` is None on a
    flat cylinder; ``bump`` is the surface's log-weight bump either way.
    ``bc_left``/``bc_right`` are 'dirichlet', 'neumann' or 'cap' ('cap'
    resolves per Fourier mode at discretization time: Neumann for m = 0,
    Dirichlet otherwise).
    """

    spec: SurfaceSpec | None
    truncation: Truncation
    s_min: float
    s_max: float
    bc_left: str
    bc_right: str
    breakpoints: tuple[float, ...]
    bump: BumpSpec | None
    _fn: object = field(repr=False, default=None)
    _area: float | None = field(repr=False, default=None)

    def weight(self, s):
        return self._fn(s)

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.linspace(self.s_min, self.s_max, n)
        return nodes, self._fn(nodes)

    @property
    def area(self) -> float:
        """Total area 2*pi*int w ds (panel Gauss-Legendre quadrature, cached)."""
        if self._area is None:
            self._area = 2.0 * math.pi * _integrate(self._fn, self.s_min, self.s_max, self.breakpoints)
        return self._area

    def to_dict(self) -> dict:
        if self.spec is None:
            d: dict = {"flat_length": self.s_max}
            if self.bump is not None:
                d["bump"] = asdict(self.bump)
            return d
        return {"spec": asdict(self.spec), "truncation": asdict(self.truncation)}

    @property
    def label(self) -> str:
        """Eight hex digits, the CRC-32 of ``to_dict()`` as sorted JSON: the
        same for the same surface in every interpreter."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return format(zlib.crc32(payload.encode()), "08x")


def _require_disjoint(bump: BumpSpec, lo: float, hi: float, what: str) -> None:
    blo, bhi = bump.support
    if not (lo < blo and bhi < hi):
        raise ValueError(
            f"bump support [center - radius, center + radius] = [{blo:.6g}, {bhi:.6g}] "
            f"must lie strictly inside the {what} ({lo:.6g}, {hi:.6g}); it would "
            "overlap an end or surgery region"
        )


def build_weight(spec: SurfaceSpec, truncation: Truncation | None = None) -> MetricProfile:
    """Assemble the weight of ``spec`` on its truncated chart.

    Cap-chart layout (funnel left):  the global coordinate is cusp-normalized
    (cusp weight 1/s^2, surgery radius r = e^{-s}).  Point surgery acts exactly
    on s > ln 2, so the core is [ln 2 - core_length, ln 2], the funnel
    continues the 1/s^2 profile below it down to a Dirichlet truncation at
    geodesic depth ``truncation.funnel_depth``, and the cusp/cap continues
    above it.

    Boundary-chart layout (dirichlet_boundary left): boundary at s = 0,
    flat collar e^f on the collar radius r = s <= 0.55 (carrying the boundary
    surgery factor when present), C^2 log-weight blend on [0.55, 0.85], cusp
    profile 1/(s + 0.15)^2 beyond, core for bumps [0.85, 0.85 + core_length].
    A boundary-surgery family is truncated at the common collar radius
    0.25 e^{-boundary_depth} so every member shares one chart.

    Each layout checks its own values and sets the chart, the right end
    condition, the log base weight, the surgery factor and the breakpoints;
    both share the bump's breakpoints and the one ``MetricProfile``.
    """
    tr = truncation if truncation is not None else DEFAULT_TRUNCATION
    left, right = spec.left_end, spec.right_end
    factor = None
    if left.kind == "funnel":
        s_core_r = SURGERY_S_THRESHOLD
        s_core_l = s_core_r - spec.core_length
        if s_core_l <= 0.05:
            raise ValueError(
                f"core_length {spec.core_length} leaves no room for the funnel "
                f"(core must start above s = 0.05, got {s_core_l:.4g})"
            )
        s_min = s_core_l * math.exp(-tr.funnel_depth)
        if not s_min > 0.0:
            raise ValueError(
                f"funnel_depth {tr.funnel_depth!r} puts the funnel tip "
                f"{s_core_l:.4g} e^(-funnel_depth) at s = 0 in floating point"
            )
        if spec.bump is not None:
            _require_disjoint(spec.bump, s_core_l, s_core_r, "core interval")
        cap_eps = right.cap_epsilon if right.kind == "filled_cap" else None
        s_max = tr.cap_end if right.kind == "filled_cap" else tr.cusp_end
        bc_right = "cap" if right.kind == "filled_cap" else "dirichlet"
        log_ratio = math.log(s_core_l / s_min)

        def log_base(s):
            logw = -2.0 * np.log(s)
            if left.funnel_constant != 0.0:
                # ramp = 1 near the truncated funnel edge, 0 from 3/4 of the
                # way (in log s) to the core junction; C^2 throughout.
                u = np.log(s / s_min) / log_ratio
                ramp = 1.0 - smooth01((u - 0.25) / 0.5)
                logw = logw + left.funnel_constant * ramp
            return logw

        breakpoints = [s_core_l, s_core_r]
        if cap_eps is not None and cap_eps > 0.0:
            # Past this coordinate the surgered weight is the flat disk
            # c(eps) e^{-2s}; keep it only down to metric radius
            # cap_tip_radius so the mass matrix stays well conditioned.
            s_star = 0.5 * math.log(cap_tip_constant(cap_eps)) + math.log(
                1.0 / tr.cap_tip_radius
            )
            s_max = min(s_max, s_star)

            def factor(s):
                return surgery_factor_point(cap_eps, np.exp(-s))

            # the surgery cutoff sigma transitions on r in [1/4, 1/2]
            breakpoints.append(math.log(4.0))
    else:  # dirichlet_boundary left, cusp right
        core_l = _BLEND_EDGE
        core_r = _BLEND_EDGE + spec.core_length
        if spec.bump is not None:
            _require_disjoint(spec.bump, core_l, core_r, "core interval")
        s_max = tr.cusp_end - _CUSP_OFFSET
        if core_r >= s_max:
            raise ValueError("core_length runs into the cusp truncation")
        eps = spec.boundary_surgery_epsilon
        s_min = _COLLAR_TIP * math.exp(-tr.boundary_depth) if eps is not None else 0.0
        bc_right = "dirichlet"

        def log_base(s):
            beta = smooth01((s - _COLLAR_EDGE) / (_BLEND_EDGE - _COLLAR_EDGE))
            return (1.0 - beta) * left.f_value - 2.0 * beta * np.log(s + _CUSP_OFFSET)

        breakpoints = [_COLLAR_EDGE, _BLEND_EDGE, core_r]
        if eps is not None:

            def factor(s):
                return surgery_factor_boundary(eps, s, left.f_value)

            # the boundary-surgery gate transitions on r in [1/4, 1/2]
            breakpoints.extend(p for p in (0.25, 0.5) if p > s_min)
    if spec.bump is not None:
        breakpoints.extend(spec.bump.support)
    return MetricProfile(
        spec=spec,
        truncation=tr,
        s_min=s_min,
        s_max=s_max,
        bc_left="dirichlet",
        bc_right=bc_right,
        breakpoints=tuple(sorted(breakpoints)),
        bump=spec.bump,
        _fn=_Weight(log_base, spec.bump, factor),
    )


def flat_cylinder(length: float = math.pi, bump: BumpSpec | None = None) -> MetricProfile:
    """Flat cylinder [0, length] x S^1 (weight 1, Dirichlet ends), optionally
    carrying a log-weight bump strictly inside the interval.  The reference
    surface for solver validation: eigenvalues (k pi / length)^2 + m^2."""
    if not length > 0:
        raise ValueError("length must be positive")
    if bump is not None:
        _require_disjoint(bump, 0.0, length, "cylinder interior")
    breakpoints = tuple(sorted(bump.support)) if bump is not None else ()
    return MetricProfile(
        spec=None,
        truncation=DEFAULT_TRUNCATION,
        s_min=0.0,
        s_max=length,
        bc_left="dirichlet",
        bc_right="dirichlet",
        breakpoints=breakpoints,
        bump=bump,
        _fn=_Weight(np.zeros_like, bump),
    )


# ----------------------------------------------------------------------------
# derived geometric quantities
# ----------------------------------------------------------------------------

# 8-point Gauss-Legendre rule on [-1, 1]; exact for polynomials of degree 15.
# The literals are bitwise numpy.polynomial.legendre.leggauss(8), written
# out so that importing relspec loads no numpy.polynomial.
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
# Two successive levels must agree to this fraction of int |f|.
_QUAD_RTOL = 1e-13
# Finest level: 2^_QUAD_MAX_LEVEL equal pieces per panel (the shipped
# configs converge by level 10).
_QUAD_MAX_LEVEL = 14


def _integrate(f, lo: float, hi: float, breakpoints) -> float:
    """int_lo^hi f ds for a vectorized f, to a fixed relative tolerance.

    The interval is split into panels at the ``breakpoints`` inside it, and
    at level L every panel is cut into 2^L equal pieces carrying the 8-point
    Gauss-Legendre rule; f is called once per level on all nodes.  Levels
    double until two agree to _QUAD_RTOL * int |f|, so work is bounded by
    _QUAD_MAX_LEVEL; an integrand that does not converge by then (a jump
    missing from ``breakpoints``) raises ValueError.  The node layout and the
    summation order depend only on (lo, hi, breakpoints), so f -> -f flips
    the result bitwise and an identically zero f gives exactly 0.0.
    """
    edges = np.array([lo, *sorted({p for p in breakpoints if lo < p < hi}), hi], dtype=float)
    width = np.diff(edges)
    prev = change = math.nan
    for level in range(_QUAD_MAX_LEVEL + 1):
        n = 2**level
        half = np.repeat(width / (2 * n), n)
        left = (edges[:-1, None] + width[:, None] * (np.arange(n) / n)).ravel()
        vals = f(((left + half)[:, None] + half[:, None] * _GL_NODES).ravel())
        qw = (half[:, None] * _GL_WEIGHTS).ravel()
        est = float(np.sum(vals * qw))
        scale = float(np.sum(np.abs(vals) * qw))
        change = abs(est - prev)
        if change <= _QUAD_RTOL * scale:
            return est
        prev = est
    raise ValueError(
        f"quadrature on [{lo:.6g}, {hi:.6g}] did not converge by level {_QUAD_MAX_LEVEL}: "
        f"last change {change:.3g}, tolerance {_QUAD_RTOL * scale:.3g}; "
        "is a discontinuity of the weight missing from the profile breakpoints?"
    )


def relative_area(a: MetricProfile, b: MetricProfile) -> float:
    """Signed relative area 2 pi * int (w_a - w_b) ds over the shared chart.

    The charts and boundary conditions must match.  The integrand is split at
    the breakpoints of both profiles.  Where the weights agree bitwise the
    node differences are exactly 0.0, so identical profiles give exactly 0.0,
    and swapping the arguments negates every node value and so flips the sign
    bitwise.
    """
    if (a.s_min, a.s_max) != (b.s_min, b.s_max):
        raise ValueError("profiles live on different charts")
    if (a.bc_left, a.bc_right) != (b.bc_left, b.bc_right):
        raise ValueError("profiles have different boundary conditions")
    val = _integrate(
        lambda s: a.weight(s) - b.weight(s), a.s_min, a.s_max, a.breakpoints + b.breakpoints
    )
    return 2.0 * math.pi * val


def line_distance(profile: MetricProfile, s0: float, s1: float) -> float:
    """Geodesic distance between the circles {s0} x S^1 and {s1} x S^1:
    int sqrt(w) ds (paths with dtheta = 0 are the shortest for conformal
    cylinder metrics)."""
    lo, hi = min(s0, s1), max(s0, s1)
    if lo < profile.s_min - 1e-12 or hi > profile.s_max + 1e-12:
        raise ValueError("points outside the chart")
    return _integrate(lambda s: np.sqrt(profile.weight(s)), lo, hi, profile.breakpoints)
