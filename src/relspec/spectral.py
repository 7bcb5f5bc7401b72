"""Relative heat traces, spectral gaps, and off-diagonal heat-kernel integrals.

The relative heat trace of a surgery pair (A, B) sharing one truncated chart,

    E(t) = Tr e^{-t Delta_A} - Tr e^{-t Delta_B},

is evaluated mode by mode with the two spectra paired inside each angular
mode, so that identical surfaces give exactly 0.0 and nearby surfaces cancel
their common ultraviolet bulk before anything is summed.  Heat kernels are
reassembled from a system's ``ProbeModes``, the mode eigenfunctions at two
probe rows with their radial Gram matrices, when pointwise values or their
off-diagonal L2 products are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import Eigensystem, ProbeModes, nearest_row
from .geometry import relative_area

__all__ = [
    "PairedSpectrum",
    "TraceSeries",
    "OffdiagResult",
    "default_time_grid",
    "heat_trace",
    "heat_trace_tail_bound",
    "relative_trace_tail_bound",
    "relative_trace_series",
    "spectral_gap",
    "kernel_value",
    "offdiag_l2_integral",
]


# The standard time grid starts where single-trace cutoff noise is dead: each
# eigenvalue mis-sorted across lambda_cut contributes +-e^(-lambda t), which
# is 3e-4 at t = 0.02 but 2e-9 at t = 0.05.  Family comparisons (Dsup
# ladders) difference four truncated sums, so they need every grid point to
# be trustworthy on its own.  112 points put 21 samples in the default fit
# window (0.05, 0.15), above the 3 (k_max + 1) = 12 the default fit needs.
DEFAULT_T_MIN = 0.05
DEFAULT_T_MAX = 20.0
DEFAULT_T_POINTS = 112


def default_time_grid() -> np.ndarray:
    """The standard logarithmic time grid (112 points on [0.05, 20])."""
    return np.geomspace(DEFAULT_T_MIN, DEFAULT_T_MAX, DEFAULT_T_POINTS)


def heat_trace(sys, t):
    """Tr e^{-t Delta} over the computed spectrum (with angular multiplicity).

    ``sys`` is an Eigensystem or a plain sequence of eigenvalues; ``t`` may be
    a scalar or an array.  For the spectrum {1, 2} at t = 1 this returns
    e^{-1} + e^{-2} = 0.50321472440805501.
    """
    if isinstance(sys, Eigensystem):
        lam = sys.eigenvalues_with_multiplicity()
    else:
        lam = np.asarray(sys, dtype=float).ravel()
    t_arr = np.asarray(t, dtype=float)
    out = np.exp(-np.multiply.outer(t_arr, lam)).sum(axis=-1)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out)
    return out


def heat_trace_tail_bound(area: float, lambda_cut: float, t):
    """First-order Weyl estimate of the single-surface trace tail above the
    cutoff: with N(lam) ~ area * lam / (4 pi),

        sum_{lam > cut} e^{-lam t}  ~<  (area / 4 pi) (cut + 1/t) e^{-cut t}.
    """
    t_arr = np.asarray(t, dtype=float)
    return (abs(area) / (4.0 * math.pi)) * (lambda_cut + 1.0 / t_arr) * np.exp(
        -lambda_cut * t_arr
    )


def relative_trace_tail_bound(rel_area: float, lambda_cut: float, t):
    """Tail estimate for the relative trace: the counting functions of a
    surgery pair differ by ~ |rel_area| lam / (4 pi), so the part of E(t)
    lost to the cutoff is of order

        (|rel_area| / 4 pi) (2 cut + 1/t) e^{-cut t}.

    A rel_area of exactly 0.0 (isospectral input) gives exactly 0.0.
    """
    t_arr = np.asarray(t, dtype=float)
    return (abs(rel_area) / (4.0 * math.pi)) * (2.0 * lambda_cut + 1.0 / t_arr) * np.exp(
        -lambda_cut * t_arr
    )


# Eigenvalues at or below this are treated as kernel (zero modes).
KERNEL_TOL = 1e-10


def spectral_gap(sys: Eigensystem) -> float:
    """Smallest computed eigenvalue above the kernel threshold KERNEL_TOL."""
    best = math.inf
    for vals in sys.mode_eigenvalues.values():
        above = vals[vals > KERNEL_TOL]
        if len(above):
            best = min(best, float(above[0]))
    if not math.isfinite(best):
        raise ValueError("no eigenvalue above the kernel threshold below the cutoff")
    return best


@dataclass(frozen=True)
class PairedSpectrum:
    """Two mode-resolved spectra paired mode by mode: the data of E(t).

    ``modes`` holds one (m, multiplicity, vals_a, vals_b) entry per angular
    mode in fixed order, with ascending eigenvalues.  Within each mode both
    sums below subtract element-wise over the common prefix of the two lists
    before anything is added up, so bitwise-equal spectra give exactly 0.0,
    nearby spectra cancel their common ultraviolet bulk first, and swapping A
    and B negates every result bitwise.
    """

    modes: tuple

    def heat_trace(self, t):
        """E(t) = sum mult (sum_j e^{-lam_a,j t} - sum_j e^{-lam_b,j t})."""
        t_arr = np.asarray(t, dtype=float)
        tt = t_arr.reshape(-1, 1)
        total = np.zeros(tt.shape[0])
        for _, mult, va, vb in self.modes:
            k = min(len(va), len(vb))
            term = np.zeros(tt.shape[0])
            if k:
                term += (np.exp(-tt * va[:k]) - np.exp(-tt * vb[:k])).sum(axis=1)
            if len(va) > k:
                term += np.exp(-tt * va[k:]).sum(axis=1)
            if len(vb) > k:
                term -= np.exp(-tt * vb[k:]).sum(axis=1)
            total += mult * term
        if t_arr.shape == ():
            return float(total[0])
        return total.reshape(t_arr.shape)

    def e1_sum(self, x: float) -> float:
        """S(x) = int_x^inf E(t) dt/t
               = sum mult sum_j [E1(lam_a,j x) - E1(lam_b,j x)]
        (Abramowitz-Stegun 5.1.1), exact over the kept spectra.

        Bitwise-equal pairs inside a mode are skipped, so identical spectra
        give exactly 0.0 even when they carry a kernel.  Any other eigenvalue
        at or below KERNEL_TOL makes the integral diverge (E1(0) = inf) and
        raises ValueError naming the mode.  E1 runs once over the arguments
        of every mode; each mode's terms are then summed on their own.
        """
        if not x > 0:
            raise ValueError("E1 sums need a positive lower limit")
        parts, counts = [], []
        for _, _, va, vb in self.modes:
            k = min(len(va), len(vb))
            differ = va[:k] != vb[:k]
            parts += [va[:k][differ], vb[:k][differ], va[k:], vb[k:]]
            counts.append((len(parts[-4]), len(va) - k, len(vb) - k))
        if not parts:
            return 0.0
        args = np.concatenate(parts)
        low = np.flatnonzero(args <= KERNEL_TOL)
        if low.size:
            part = int(np.searchsorted(np.cumsum([len(p) for p in parts]), low[0], side="right"))
            raise ValueError(
                f"mode {self.modes[part // 4][0]}: eigenvalue {float(args[low[0]])!r} <= "
                f"{KERNEL_TOL:g} has no bitwise-equal partner to cancel it; E1 diverges at 0"
            )
        e1 = _exp1(args * x)
        total, i = 0.0, 0
        for (_, mult, _, _), (n, na, nb) in zip(self.modes, counts):
            term = float((e1[i : i + n] - e1[i + n : i + 2 * n]).sum()) if n else 0.0
            i += 2 * n
            if na:
                term += float(e1[i : i + na].sum())
            if nb:
                term -= float(e1[i + na : i + na + nb].sum())
            i += na + nb
            total += mult * term
        return total


# Euler's gamma as E1XB spells it, one ulp below numpy.euler_gamma.
_E1XB_GAMMA = 0.5772156649015328


def _exp1(x: np.ndarray) -> np.ndarray:
    """The exponential integral E1(x) = int_x^inf e^{-t} dt/t of every
    element of ``x`` (all positive), by routine E1XB of Zhang & Jin,
    *Computation of Special Functions* (1996), which scipy.special.exp1 runs:

    * x <= 1: E1 = -gamma - ln x + x sum_{k>=0} r_k, r_0 = 1,
      r_k = -r_{k-1} k x / (k + 1)^2, stopped per element at the first k
      with |r_k| <= 1e-15 |partial sum|, or after k = 25;
    * x > 1: E1 = e^{-x} / (x + t_1) with the continued fraction
      t_k = k / (1 + k / (x + t_{k+1})), t_{m+1} = 0, m = 20 + floor(80 / x).

    Every element takes the same arithmetic steps wherever it sits in ``x``,
    so one call over a concatenation equals separate calls on its parts.
    The continued fraction runs on the arguments sorted by m, so step k
    updates the prefix with m >= k and the work is sum m.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape)

    small = flat <= 1.0
    xs = flat[small]
    series = np.empty(xs.shape)
    live = np.arange(xs.size)
    xl, r, acc = xs, np.ones(xs.size), np.ones(xs.size)
    for k in range(1, 26):
        r = -r * k * xl / (k + 1.0) ** 2
        acc = acc + r
        done = np.abs(r) <= np.abs(acc) * 1e-15
        if done.any():
            series[live[done]] = acc[done]
            keep = ~done
            live, xl, r, acc = live[keep], xl[keep], r[keep], acc[keep]
    series[live] = acc
    out[small] = -_E1XB_GAMMA - np.log(xs) + xs * series

    xb = flat[~small]
    m = 20 + (80.0 / xb).astype(np.intp)
    order = np.argsort(-m, kind="stable")
    xb = xb[order]
    # at_least[k] = number of arguments with m >= k, a prefix of the order
    at_least = np.cumsum(np.bincount(m)[::-1])[::-1]
    t0 = np.zeros(xb.size)
    for k in range(len(at_least) - 1, 0, -1):
        n = at_least[k]
        t0[:n] = k / (1.0 + k / (xb[:n] + t0[:n]))
    big = np.empty(xb.size)
    big[order] = np.exp(-xb) * (1.0 / (xb + t0))
    out[~small] = big
    return out.reshape(x.shape)


@dataclass(eq=False)
class TraceSeries:
    """A relative heat trace sampled on a time grid.

    values[i] = E(times[i]); tail_bounds[i] estimates what the spectral cutoff
    chopped off (relative_trace_tail_bound).  t_trust_min is the smallest time
    at which that estimate drops below 1e-6 of the series scale -- samples
    below it are cutoff-limited.  ``spectrum`` keeps the paired spectra, so
    ``evaluate`` recomputes E at arbitrary times and zeta'(0) integrates E
    exactly.
    """

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    tail_bounds: np.ndarray = field(repr=False)
    pair_id: str
    rel_area: float
    gap_a: float
    gap_b: float
    t_trust_min: float
    spectrum: PairedSpectrum = field(repr=False)

    def __post_init__(self):
        if not (len(self.times) == len(self.values) == len(self.tail_bounds)):
            raise ValueError("times, values and tail_bounds must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def gap(self) -> float:
        """Uniform spectral gap of the pair (decay rate of E)."""
        return min(self.gap_a, self.gap_b)

    def evaluate(self, t):
        return self.spectrum.heat_trace(t)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# pair_id={self.pair_id}\n")
            fh.write(f"# rel_area={float(self.rel_area)!r}\n")
            fh.write(f"# gap_a={float(self.gap_a)!r}\n")
            fh.write(f"# gap_b={float(self.gap_b)!r}\n")
            fh.write(f"# t_trust_min={float(self.t_trust_min)!r}\n")
            fh.write("t,value,tail_bound\n")
            # float() strips the numpy scalar wrapper so repr() stays the
            # shortest round-trip decimal form rather than "np.float64(...)"
            for t, v, b in zip(self.times, self.values, self.tail_bounds):
                fh.write(f"{float(t)!r},{float(v)!r},{float(b)!r}\n")

    @classmethod
    def from_finite_spectra(cls, lam_a, lam_b, times=None) -> "TraceSeries":
        """Relative trace of two explicit finite spectra (no cutoff, no tail)."""
        la = np.sort(np.asarray(lam_a, dtype=float).ravel())
        lb = np.sort(np.asarray(lam_b, dtype=float).ravel())
        if np.any(la <= 0) or np.any(lb <= 0):
            raise ValueError("finite spectra must be positive")
        tgrid = np.geomspace(1e-3, 50.0, 200) if times is None else np.asarray(times, float)
        spectrum = PairedSpectrum(((0, 1, la, lb),))
        return cls(
            times=tgrid,
            values=spectrum.heat_trace(tgrid),
            tail_bounds=np.zeros_like(tgrid),
            pair_id="finite-spectra",
            rel_area=0.0,
            gap_a=float(la[0]),
            gap_b=float(lb[0]),
            t_trust_min=0.0,
            spectrum=spectrum,
        )


def _trust_threshold(rel_area: float, lambda_cut: float, ref: float) -> float:
    """Smallest t with relative_trace_tail_bound <= 1e-6 * ref (0.0 if the
    bound already vanishes identically)."""
    if rel_area == 0.0:
        return 0.0
    probe = np.geomspace(1e-5, 5.0, 2049)
    bounds = relative_trace_tail_bound(rel_area, lambda_cut, probe)
    ok = bounds <= 1e-6 * ref
    idx = np.argmax(ok)
    if not ok[idx]:
        return float(probe[-1])
    return float(probe[idx])


def relative_trace_series(sys_a: Eigensystem, sys_b: Eigensystem) -> TraceSeries:
    """Relative heat trace E(t) of two eigensystems on a shared chart, sampled
    on the default time grid.

    pre: the systems were solved on the same grid family with the same cutoff
    and mode range, and their profiles agree on the end regions (so the
    relative area is well defined); violations raise ValueError.
    """
    if not sys_a.grid.same_family(sys_b.grid):
        raise ValueError("eigensystems live on different grids; relative trace undefined")
    if sys_a.lambda_cut != sys_b.lambda_cut:
        raise ValueError("eigensystems have different cutoffs")
    if sys_a.m_max != sys_b.m_max:
        raise ValueError("eigensystems have different mode ranges")
    tgrid = default_time_grid()
    rel_area = relative_area(sys_a.profile, sys_b.profile)
    pairs = []
    for m in range(max(sys_a.m_max, sys_b.m_max) + 1):
        va = sys_a.mode_eigenvalues.get(m)
        vb = sys_b.mode_eigenvalues.get(m)
        va = np.empty(0) if va is None else va
        vb = np.empty(0) if vb is None else vb
        if len(va) == 0 and len(vb) == 0:
            continue
        pairs.append((m, 1 if m == 0 else 2, va, vb))
    spectrum = PairedSpectrum(tuple(pairs))
    values = spectrum.heat_trace(tgrid)
    tails = relative_trace_tail_bound(rel_area, sys_a.lambda_cut, tgrid)
    ref = max(float(np.max(np.abs(values))), abs(rel_area) / (4.0 * math.pi), 1e-300)
    return TraceSeries(
        times=tgrid,
        values=values,
        tail_bounds=tails,
        pair_id=f"{sys_a.profile.label}-vs-{sys_b.profile.label}",
        rel_area=rel_area,
        gap_a=spectral_gap(sys_a),
        gap_b=spectral_gap(sys_b),
        t_trust_min=_trust_threshold(rel_area, sys_a.lambda_cut, ref),
        spectrum=spectrum,
    )


# ----------------------------------------------------------------------------
# pointwise kernel and off-diagonal integrals
# ----------------------------------------------------------------------------

def _probe_columns(sys: Eigensystem, y, y2) -> tuple[ProbeModes, int, int]:
    """``sys.probes`` and the index (0 or 1) of the probe row that each of
    the radii of y and y2 snaps to; a radius that snaps elsewhere raises."""
    probes = sys.probes
    if probes is None:
        raise ValueError("eigensystem was solved without probes; pass probes=(s_y, s_y2)")
    columns = []
    for s, _ in (y, y2):
        row = nearest_row(sys.grid, s)
        if row not in probes.rows:
            raise ValueError(
                f"point s={s} snaps to grid row {row}, not to a probe row {probes.rows}"
            )
        columns.append(probes.rows.index(row))
    return probes, *columns


def _angular_factor(m: int, dtheta: float) -> float:
    """Angular factor of mode m in K(t, y, y2), dtheta = theta_y - theta_y2:
    1/(2 pi) for m = 0 and cos(m dtheta)/pi for m >= 1 (the cos cos + sin sin
    pair summed).  The same number is int_{S^1} phi_m(theta - theta_y)
    phi_m(theta - theta_y2) dtheta for the angular parts phi_0 = 1/(2 pi),
    phi_m(u) = cos(m u)/pi of a kernel column, so the kernel and its L2
    products use one rule."""
    return 1.0 / (2.0 * math.pi) if m == 0 else math.cos(m * dtheta) / math.pi


def kernel_value(sys: Eigensystem, t: float, y, y2=None) -> float:
    """Heat kernel K(t, y, y2) reassembled from the computed modes,

        K = sum_m c_m(theta_y - theta_y2) sum_j e^{-lam_j t} a_j b_j,

    with a and b mode m's eigenvectors at the rows of y and y2 and c_m the
    angular factor (_angular_factor).

    y = (s, theta); the radial coordinate snaps to the nearest grid node,
    which must be one of the system's probe rows.  A mode without a
    ``ProbeModes`` entry vanishes at a probe and is skipped.
    """
    if y2 is None:
        y2 = y
    probes, col_y, col_y2 = _probe_columns(sys, y, y2)
    if t <= 0:
        raise ValueError("t must be positive")
    total = 0.0
    dth = y[1] - y2[1]
    for m in sorted(probes.modes):
        kept = probes.modes[m]
        radial = float(np.dot(np.exp(-sys.mode_eigenvalues[m] * t), kept[col_y] * kept[col_y2]))
        total += _angular_factor(m, dth) * radial
    return total


@dataclass(frozen=True)
class OffdiagResult:
    """The kernel-product integral

        I(t) = int K(t, x, y) K(t, x, y2) dA(x)

    over the whole chart, which the semigroup property collapses to
    K(2t, y, y2), and pair_distance, the distance between the two base
    circles that controls its decay.  value takes the angular integral in
    closed form, as a per-mode radial sum (see offdiag_l2_integral).
    """

    value: float
    pair_distance: float


def offdiag_l2_integral(sys: Eigensystem, t: float, *, y, y2=None) -> OffdiagResult:
    """Integrate K(t, x, y) K(t, x, y2) over the chart against dA = w ds dtheta.

    y = (s, theta) with s snapped to the nearest node, which must be one of
    the system's probe rows (y2 defaults to y).  Both kernel columns expand
    in the angular modes, which are orthogonal on S^1, so the angular
    integral is exact and leaves one radial sum per mode:

        I(t) = sum_m c_m(theta_y - theta_y2) sum_i rw_i r_m^y(s_i) r_m^y2(s_i),

    with r_m^y(s) = sum_j e^{-lam_j t} u_j(s) u_j(s_y) the radial factor of
    the column through y, c_m the angular factor of kernel_value, and rw the
    chart's radial weights, the lumped cells of the eigenbasis (so I(t)
    reproduces K(2t, y, y2) to round-off).  Regrouped over the mode's radial
    Gram matrix G (``ProbeModes``), the radial sum is p^T G p2 with
    p_j = e^{-lam_j t} a_j, p2_j = e^{-lam_j t} b_j and a, b the
    eigenvectors at the rows of y and y2; it is taken as the mean of
    p^T G p2 and p2^T G p, so swapping y and y2 gives bitwise the same
    value.  A mode whose rows miss either probe has r_m^y = 0 or r_m^y2 = 0
    and is skipped.  Modes are added in ascending m.

    pre: t large enough that the spectral cutoff is invisible -- the estimated
    cutoff remainder of Tr e^{-t Delta} must stay below 1e-6 of the trace
    itself (raises otherwise, naming the smallest usable t).
    """
    if y2 is None:
        y2 = y
    probes, col_y, col_y2 = _probe_columns(sys, y, y2)
    if t <= 0:
        raise ValueError("t must be positive")
    tail = float(heat_trace_tail_bound(sys.profile.area, sys.lambda_cut, t))
    trace = heat_trace(sys, t)
    tail_fraction = 2.0 * tail / trace
    if tail_fraction > 1e-6:
        probe = np.geomspace(1e-4, 10.0, 2049)
        frac = 2.0 * heat_trace_tail_bound(sys.profile.area, sys.lambda_cut, probe) / np.maximum(
            heat_trace(sys, probe), 1e-300
        )
        ok = probe[frac <= 1e-6]
        t_min = float(ok[0]) if len(ok) else float("nan")
        raise ValueError(
            f"t={t} too small for the cutoff {sys.lambda_cut}: kernel tail fraction "
            f"{tail_fraction:.3e} > 1e-6 (smallest usable t ~ {t_min:.4g})"
        )
    dth = y[1] - y2[1]
    value = 0.0
    for m in sorted(probes.modes):
        kept = probes.modes[m]
        decay = np.exp(-sys.mode_eigenvalues[m] * t)
        p, p2, gram = decay * kept[col_y], decay * kept[col_y2], kept[2]
        radial = 0.5 * (float(p @ gram @ p2) + float(p2 @ gram @ p))
        value += _angular_factor(m, dth) * radial
    return OffdiagResult(value=value, pair_distance=probes.distance if col_y != col_y2 else 0.0)
