"""Heat-invariant fits and relative zeta-determinants.

The relative zeta function of a surgery pair is the Mellin transform of the
relative heat trace E(t),

    zeta(s) Gamma(s) = int_0^inf t^{s-1} E(t) dt,

meromorphically continued through the small-time expansion
t E(t) ~ sum_k a_k t^k.  Below the trust floor t_f of the series the model
stands in for E; above it E is taken as computed.  The model part continues
term by term,

    int_0^t_f t^{s-1} sum_k a_k t^{k-1} dt = sum_k a_k t_f^{s+k-1} / (s+k-1),

and with 1/Gamma(s) = s + gamma s^2 + O(s^3) (gamma the Euler-Mascheroni
constant) the derivative at s = 0 is

    zeta'(0) = S(t_f) - a_0 / t_f + a_1 (gamma + ln t_f)
               + sum_{k>=2} a_k t_f^{k-1} / (k - 1),

where S(x) = int_x^inf E(t) dt/t.  Over the kept spectra E is a finite
exponential sum, and int_x^inf e^{-lam t} dt/t = E1(lam x)
(Abramowitz-Stegun 5.1.1), so

    S(x) = sum mult sum_j [E1(lam_a,j x) - E1(lam_b,j x)]

(``PairedSpectrum.e1_sum``, paired mode by mode), exact to infinity.  The
model is a small-time expansion, so t_f must stay below ``MODEL_T_MAX``.
What remains inexact is the data: the model's truncation below t_f, the
residual of the invariant fit (which leaks in through the 1/t_f sensitivity
of the model terms), and the spectrum the cutoff dropped.  The error budget
tracks these three.  The determinant convention is det = exp(-zeta'(0)), so
for finite spectra det({1,2,3}, {1,2,4}) = (1*2*3)/(1*2*4) = 3/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import TraceSeries

__all__ = [
    "HeatInvariants",
    "FitResidualError",
    "DeterminantResult",
    "fit_heat_invariants",
    "min_fit_samples",
    "taylor_invariants",
    "determinant_from_series",
]

EULER_GAMMA = float(np.euler_gamma)
MODEL_T_MAX = 1.0  # the small-time model is never integrated past t = 1

# The window balances three error sources at the default discretization
# (N = 4000, lambda_cut = 400): below ~0.05 the spectral-cutoff tail of the
# trace is no longer provably negligible; above ~0.15 the trace picks up
# genuinely non-asymptotic structure (heat exchange between the compared
# region and the rest of the surface) that would bleed into the fitted
# coefficients; and the window must still hold >= 3(K+1) samples of the
# default time grid.
DEFAULT_FIT_WINDOW = (0.05, 0.15)
# Highest power K of the default fit t E(t) ~ sum_{k<=K} a_k t^k.
DEFAULT_FIT_K_MAX = 3

# Largest misfit of the fitted model, relative to max |t E(t)| on the window.
FIT_RESIDUAL_THRESHOLD = 1e-4


class FitResidualError(RuntimeError):
    """The polynomial model cannot represent the data at the required residual."""


@dataclass(frozen=True)
class HeatInvariants:
    """Coefficients a_0..a_K of the small-time model t E(t) ~ sum a_k t^k.

    a_0 is the relative Weyl term (relative area / 4 pi); residual is the
    maximum misfit of the model over the fit window, relative to ``scale`` =
    max |t E(t)| there.
    """

    coefficients: tuple[float, ...]
    residual: float
    scale: float

    @property
    def k_max(self) -> int:
        return len(self.coefficients) - 1


def min_fit_samples(k_max: int) -> int:
    """Samples a fit of order k_max needs inside its window: 3 (k_max + 1)."""
    return 3 * (k_max + 1)


def fit_heat_invariants(
    series: TraceSeries,
    k_max: int = DEFAULT_FIT_K_MAX,
    *,
    window: tuple[float, float] = DEFAULT_FIT_WINDOW,
) -> HeatInvariants:
    """Least-squares fit of t E(t) by sum_{k<=k_max} a_k t^k on the window.

    pre: at least 3 (k_max + 1) samples inside the window, and the recorded
    cutoff tail bounds must pollute t E(t) by less than half the residual
    threshold over the window (a window floor pushed into cutoff-limited
    times raises).  An identically zero series short-circuits to exact zero
    coefficients.  Raises FitResidualError when the relative misfit exceeds
    FIT_RESIDUAL_THRESHOLD.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lo, hi = window
    if not (0 < lo < hi):
        raise ValueError("window must be an increasing positive interval")
    mask = (series.times >= lo) & (series.times <= hi)
    n = int(np.count_nonzero(mask))
    if n < min_fit_samples(k_max):
        raise ValueError(
            f"only {n} samples in window {window}; need at least {min_fit_samples(k_max)}"
        )
    t = series.times[mask]
    y = t * series.values[mask]
    scale = float(np.max(np.abs(y)))
    pollution = float(np.max(t * series.tail_bounds[mask]))
    if scale > 0.0 and pollution > 0.5 * FIT_RESIDUAL_THRESHOLD * scale:
        raise ValueError(
            f"window floor {lo} is cutoff-limited: tail bounds pollute t E(t) by "
            f"{pollution / scale:.2e} of scale, above half the residual threshold "
            f"{FIT_RESIDUAL_THRESHOLD:.1e}; raise the window floor or the cutoff"
        )
    if scale == 0.0:
        return HeatInvariants(coefficients=(0.0,) * (k_max + 1), residual=0.0, scale=0.0)
    x = t / hi
    V = np.vander(x, k_max + 1, increasing=True)
    b, *_ = np.linalg.lstsq(V, y, rcond=None)
    fit = V @ b
    residual = float(np.max(np.abs(fit - y)) / scale)
    if residual > FIT_RESIDUAL_THRESHOLD:
        raise FitResidualError(
            f"heat-invariant fit residual {residual:.3e} exceeds "
            f"{FIT_RESIDUAL_THRESHOLD:.1e} on window {window} "
            "(widen the model or move the window)"
        )
    coeffs = tuple(float(bk / hi**k) for k, bk in enumerate(b))
    return HeatInvariants(coefficients=coeffs, residual=residual, scale=scale)


def taylor_invariants(lam_a, lam_b, k_max: int = 5) -> HeatInvariants:
    """Exact small-time coefficients for finite spectra.

    E(t) = sum e^{-lam_a t} - sum e^{-lam_b t} gives
    a_0 = 0 and a_k = (-1)^{k-1} (p_{k-1}(a) - p_{k-1}(b)) / (k-1)! where p_j
    are power sums; exact coefficients carry zero residual, so the
    determinant pipeline loses nothing to fit sensitivity.
    """
    la = np.asarray(lam_a, dtype=float).ravel()
    lb = np.asarray(lam_b, dtype=float).ravel()
    coeffs = [0.0]
    for k in range(1, k_max + 1):
        j = k - 1
        pa, pb = float(np.sum(la**j)), float(np.sum(lb**j))
        coeffs.append((-1.0) ** (k - 1) * (pa - pb) / math.factorial(j))
    return HeatInvariants(
        coefficients=tuple(coeffs),
        residual=0.0,
        scale=float(np.max(np.abs(coeffs))) if any(coeffs) else 0.0,
    )


@dataclass(frozen=True)
class DeterminantResult:
    """Relative zeta-determinant det = exp(-zeta'(0)) of a pair (A, B).

    For finite spectra det = prod(lam_a) / prod(lam_b); identical spectra
    give exactly 1.0.  error_budget, with t_floor the trust floor of the
    series: small_time_truncation (the model term dropped below t_floor),
    fit_sensitivity (the fit residual times the 1/t_floor sensitivity),
    cutoff_leak (the trapezoid integral of the recorded tail bounds over
    dt/t) and their total.
    """

    zeta_prime_zero: float
    error_budget: dict
    invariants: HeatInvariants

    @property
    def log_determinant(self) -> float:
        return -self.zeta_prime_zero

    @property
    def determinant(self) -> float:
        return math.exp(-self.zeta_prime_zero)


def determinant_from_series(
    series: TraceSeries,
    invariants: HeatInvariants | None = None,
) -> DeterminantResult:
    """zeta'(0) and the relative determinant by the closed form of the module
    docstring, from one E1 sum at the trust floor; ``invariants`` defaults to
    the default fit.

    pre: at least two invariant orders beyond the Weyl term (k_max >= 2);
    the trust floor below ``MODEL_T_MAX``; the recorded cutoff tail bound at the last sample is below 1e-8 of the
    series scale (otherwise the large-time data cannot be trusted and this
    raises); no eigenvalue at or below the kernel threshold lacks a
    bitwise-equal partner (E1 diverges at 0; raises naming the mode).
    """
    inv = fit_heat_invariants(series) if invariants is None else invariants
    if inv.k_max < 2:
        raise ValueError("need invariants through k = 2 (a_0, a_1, a_2) at least")
    ref = float(np.max(np.abs(series.values)))
    if ref > 0 and float(series.tail_bounds[-1]) > 1e-8 * ref:
        raise ValueError(
            "cutoff tail bound at the last sample exceeds 1e-8 of the series scale; "
            "extend the time grid or raise the cutoff"
        )
    a = inv.coefficients
    t_floor = max(series.t_trust_min, 1e-9)
    if t_floor >= MODEL_T_MAX:
        raise ValueError(
            f"trust threshold {t_floor:.4g} reaches t = {MODEL_T_MAX}, past which "
            "the small-time model is never integrated"
        )
    value = (
        series.spectrum.e1_sum(t_floor)
        - a[0] / t_floor
        + a[1] * (EULER_GAMMA + math.log(t_floor))
    )
    for k in range(2, len(a)):
        value += a[k] * t_floor ** (k - 1) / (k - 1)

    a_top = max(abs(c) for c in a)
    k_top = len(a) - 1
    sens = 0.0
    if inv.residual > 0.0:
        sens = (
            inv.residual
            * inv.scale
            * (
                1.0 / t_floor
                + EULER_GAMMA
                + abs(math.log(t_floor))
                + sum(t_floor ** (k - 1) / (k - 1) for k in range(2, len(a)))
            )
        )
    leak_mask = series.times >= t_floor
    cutoff_leak = 0.0
    if np.count_nonzero(leak_mask) >= 2:
        ts = series.times[leak_mask]
        cutoff_leak = float(np.trapezoid(series.tail_bounds[leak_mask] / ts, ts))
    budget = {
        "small_time_truncation": a_top * t_floor**k_top / max(k_top, 1),
        "fit_sensitivity": sens,
        "cutoff_leak": cutoff_leak,
    }
    budget["total"] = sum(budget.values())
    return DeterminantResult(
        zeta_prime_zero=value,
        error_budget=budget,
        invariants=inv,
    )
