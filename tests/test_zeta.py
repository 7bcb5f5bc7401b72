"""Heat-invariant fitting and relative zeta-determinants."""
from __future__ import annotations

import math

import numpy as np
import pytest

from relspec.cli import ScenarioConfig, solve_pair
from relspec.discretize import make_grid, solve_modes
from relspec.geometry import BumpSpec, Truncation, build_weight
from relspec.spectral import PairedSpectrum, TraceSeries, relative_trace_series
from relspec.zeta import (
    DEFAULT_FIT_WINDOW,
    FitResidualError,
    determinant_from_series,
    fit_heat_invariants,
    taylor_invariants,
)

from conftest import funnel_cap_spec


def synthetic_series(values_of_t, times=None, tail_bounds=None, rel_area=0.0):
    """A TraceSeries wrapping an explicit function of t, for the fit alone
    (its paired spectrum is empty)."""
    t = np.geomspace(0.05, 20.0, 112) if times is None else np.asarray(times, float)
    vals = values_of_t(t)
    tails = np.zeros_like(t) if tail_bounds is None else np.asarray(tail_bounds, float)
    return TraceSeries(
        times=t,
        values=vals,
        tail_bounds=tails,
        pair_id="synthetic",
        rel_area=rel_area,
        gap_a=1.0,
        gap_b=1.0,
        t_trust_min=0.0,
        spectrum=PairedSpectrum(()),
    )


def paired_series(lam_a, lam_b):
    """A one-mode TraceSeries over explicit spectra, kernels allowed."""
    la = np.asarray(lam_a, float)
    lb = np.asarray(lam_b, float)
    spectrum = PairedSpectrum(((0, 1, la, lb),))
    t = np.geomspace(1e-3, 50.0, 200)
    return TraceSeries(
        times=t,
        values=spectrum.heat_trace(t),
        tail_bounds=np.zeros_like(t),
        pair_id="paired",
        rel_area=0.0,
        gap_a=1.0,
        gap_b=1.0,
        t_trust_min=0.0,
        spectrum=spectrum,
    )


@pytest.fixture(scope="module")
def surface_series():
    """Relative traces A-vs-B and B-vs-A of a funnel + filled-cap pair
    (bump vs plain) at the default resolution and lambda_cut = 400."""
    tr = Truncation(funnel_depth=1.0, cusp_end=40.0, cap_end=14.0)
    bump = BumpSpec(center=0.35, radius=0.09, amplitude=0.3)
    a = build_weight(funnel_cap_spec(0.3, bump), truncation=tr)
    b = build_weight(funnel_cap_spec(0.3), truncation=tr)
    grid = make_grid(a, 4000)
    sys_a, sys_b = solve_modes(a, grid, 400.0), solve_modes(b, grid, 400.0)
    return relative_trace_series(sys_a, sys_b), relative_trace_series(sys_b, sys_a)


# ----------------------------------------------------------------------------
# invariant fits
# ----------------------------------------------------------------------------

def test_fit_recovers_exact_polynomial_model():
    a_true = (2.0, -0.5, 0.1, 0.01)
    series = synthetic_series(
        lambda t: a_true[0] / t + a_true[1] + a_true[2] * t + a_true[3] * t * t,
        rel_area=a_true[0] * 4.0 * math.pi,
    )
    inv = fit_heat_invariants(series, 3)
    assert inv.k_max == 3
    assert inv.coefficients == pytest.approx(a_true, rel=1e-9, abs=1e-11)
    assert inv.residual < 1e-12
    lo, hi = DEFAULT_FIT_WINDOW
    assert np.count_nonzero((series.times >= lo) & (series.times <= hi)) >= 12
    # the fitted model reproduces E(t) inside the window
    t = np.linspace(lo, hi, 7)
    model = sum(a * t ** (k - 1) for k, a in enumerate(inv.coefficients))
    truth = a_true[0] / t + a_true[1] + a_true[2] * t + a_true[3] * t * t
    assert model == pytest.approx(truth, rel=1e-10)


def test_fit_coefficients_stable_under_window_shift():
    # A controlled violation of the cubic model (1e-2 t^4 in t E) moves the
    # fitted coefficients only marginally when the window shifts; pinned with
    # ~4x margin over the measured drifts.
    series = synthetic_series(lambda t: 2.0 / t - 0.5 + 0.1 * t + 1e-2 * t**3)
    inv_a = fit_heat_invariants(series, 3, window=(0.05, 0.15))
    inv_b = fit_heat_invariants(series, 3, window=(0.06, 0.18))
    assert inv_a.residual < 1e-7 and inv_b.residual < 1e-7
    deltas = np.abs(np.array(inv_a.coefficients) - np.array(inv_b.coefficients))
    assert deltas[0] < 4e-6
    assert deltas[1] < 1e-4
    assert deltas[2] < 1e-3


def test_fit_zero_series_gives_exact_zeros():
    series = synthetic_series(lambda t: np.zeros_like(t))
    inv = fit_heat_invariants(series, 3)
    assert inv.coefficients == (0.0, 0.0, 0.0, 0.0)
    assert inv.residual == 0.0 and inv.scale == 0.0


def test_fit_validation_errors():
    series = synthetic_series(lambda t: 2.0 / t)
    with pytest.raises(ValueError):
        fit_heat_invariants(series, 0)
    with pytest.raises(ValueError):
        fit_heat_invariants(series, 3, window=(0.2, 0.1))
    with pytest.raises(ValueError, match="samples"):
        fit_heat_invariants(series, 3, window=(0.05, 0.055))


def test_fit_rejects_cutoff_polluted_window():
    series = synthetic_series(
        lambda t: 2.0 / t, tail_bounds=np.full(112, 1.0), rel_area=8.0 * math.pi
    )
    with pytest.raises(ValueError, match="cutoff-limited"):
        fit_heat_invariants(series, 3)


def test_fit_raises_on_unrepresentable_data():
    series = synthetic_series(lambda t: 2.0 / t + np.sin(80.0 * t))
    with pytest.raises(FitResidualError):
        fit_heat_invariants(series, 3)


def test_taylor_invariants_power_sums():
    inv = taylor_invariants([1.0, 2.0], [3.0], k_max=4)
    # a_1 = (count difference), a_2 = -(p1 difference), a_3 = p2/2 difference
    assert inv.coefficients[0] == 0.0
    assert inv.coefficients[1] == 1.0  # 2 - 1 states
    assert inv.coefficients[2] == -(1.0 + 2.0 - 3.0)
    assert inv.coefficients[3] == (1.0 + 4.0 - 9.0) / 2.0
    assert inv.coefficients[4] == -(1.0 + 8.0 - 27.0) / 6.0
    assert inv.residual == 0.0


# ----------------------------------------------------------------------------
# zeta'(0) and determinants
# ----------------------------------------------------------------------------

def test_two_level_determinant_closed_form():
    series = TraceSeries.from_finite_spectra([2.0], [3.0])
    inv = taylor_invariants([2.0], [3.0], k_max=6)
    det = determinant_from_series(series, inv)
    assert det.zeta_prime_zero == pytest.approx(math.log(1.5), rel=1e-8)
    assert det.determinant == pytest.approx(2.0 / 3.0, rel=1e-8)
    assert det.log_determinant == -det.zeta_prime_zero


def test_three_level_determinant_closed_form():
    la, lb = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    series = TraceSeries.from_finite_spectra(la, lb)
    inv = taylor_invariants(la, lb, k_max=6)
    det = determinant_from_series(series, inv)
    assert det.determinant == pytest.approx(0.75, rel=1e-8)
    # exact invariants: nothing in the budget comes from the fit
    assert det.error_budget["fit_sensitivity"] == 0.0
    assert det.error_budget["cutoff_leak"] == 0.0
    assert all(v >= 0.0 for v in det.error_budget.values())
    assert det.error_budget["total"] == pytest.approx(
        sum(v for k, v in det.error_budget.items() if k != "total"), rel=1e-15
    )


def test_zeta_prime_split_independence():
    la, lb = [1.5, 2.5, 4.0], [1.0, 3.0, 5.5]
    series = TraceSeries.from_finite_spectra(la, lb)
    inv = taylor_invariants(la, lb, k_max=6)
    z = determinant_from_series(series, inv)
    exact = math.log(np.prod(lb) / np.prod(la))
    assert z.zeta_prime_zero == pytest.approx(exact, rel=1e-7)


def test_identical_finite_spectra_give_exact_unit_determinant():
    series = TraceSeries.from_finite_spectra([1.0, 2.0], [1.0, 2.0])
    inv = taylor_invariants([1.0, 2.0], [1.0, 2.0], k_max=6)
    det = determinant_from_series(series, inv)
    assert det.zeta_prime_zero == 0.0
    assert det.determinant == 1.0


def test_zeta_preconditions():
    la, lb = [2.0], [3.0]
    series = TraceSeries.from_finite_spectra(la, lb)
    inv = taylor_invariants(la, lb, k_max=6)
    # too few invariant orders
    with pytest.raises(ValueError, match="k = 2"):
        determinant_from_series(series, taylor_invariants(la, lb, k_max=1))
    # a kernel eigenvalue without a bitwise-equal partner: E1 diverges at 0
    kernel = paired_series([0.0, 2.0], [2.5, 3.0])
    with pytest.raises(ValueError, match=r"mode 0: eigenvalue 0\.0"):
        determinant_from_series(kernel, taylor_invariants([0.0, 2.0], [2.5, 3.0], 6))
    # a negative round-off eigenvalue left unpaired in the longer list
    roundoff = paired_series([-1e-14, 2.0], [2.0])
    with pytest.raises(ValueError, match="mode 0: eigenvalue -1e-14"):
        determinant_from_series(roundoff, taylor_invariants([-1e-14, 2.0], [2.0], 6))
    # untrusted large-time data
    polluted = TraceSeries.from_finite_spectra(la, lb)
    polluted.tail_bounds = np.full_like(polluted.times, 1.0)
    with pytest.raises(ValueError, match="tail bound"):
        determinant_from_series(polluted, inv)
    # trust threshold reaching the split point
    late = TraceSeries.from_finite_spectra(la, lb)
    late.t_trust_min = 2.0
    with pytest.raises(ValueError, match="trust threshold"):
        determinant_from_series(late, inv)


def test_equal_kernel_pairs_cancel_exactly():
    # bitwise-equal kernel eigenvalues are skipped, not fed to E1(0) = inf
    same = paired_series([0.0, 2.0], [0.0, 2.0])
    z = determinant_from_series(same, taylor_invariants([0.0, 2.0], [0.0, 2.0], 6))
    assert z.zeta_prime_zero == 0.0
    shifted = paired_series([0.0, 2.0], [0.0, 3.0])
    z = determinant_from_series(shifted, taylor_invariants([0.0, 2.0], [0.0, 3.0], 6))
    assert z.zeta_prime_zero == pytest.approx(math.log(1.5), abs=1e-12)


def test_three_level_log_determinant_to_round_off():
    la, lb = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    series = TraceSeries.from_finite_spectra(la, lb)
    inv = taylor_invariants(la, lb, k_max=6)
    det = determinant_from_series(series, inv)
    assert abs(det.zeta_prime_zero - math.log(np.prod(lb) / np.prod(la))) <= 1e-12


def test_determinant_takes_one_e1_sum(monkeypatch):
    calls = []
    e1_sum = PairedSpectrum.e1_sum

    def counted(self, x):
        calls.append(x)
        return e1_sum(self, x)

    monkeypatch.setattr(PairedSpectrum, "e1_sum", counted)
    la, lb = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    determinant_from_series(TraceSeries.from_finite_spectra(la, lb), taylor_invariants(la, lb, 6))
    assert calls == [1e-9]  # the trust floor of a series trusted to t = 0


@pytest.mark.parametrize("t_trust", [0.01, 0.05, 0.1])
@pytest.mark.parametrize(
    "la, lb", [([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]), ([1.5, 2.5, 4.0], [1.0, 3.0, 5.5])]
)
def test_late_trust_floor_stays_inside_its_budget(la, lb, t_trust):
    # Above t = 1e-9 the model's truncation below the floor is no longer
    # negligible; the budget must still cover it.
    series = TraceSeries.from_finite_spectra(la, lb)
    series.t_trust_min = t_trust
    det = determinant_from_series(series, taylor_invariants(la, lb, k_max=6))
    exact = math.log(np.prod(lb) / np.prod(la))
    assert abs(det.zeta_prime_zero - exact) <= det.error_budget["total"] + 1e-12


def test_swap_negates_zeta_prime_bitwise_finite():
    rng = np.random.default_rng(7)
    for n_a, n_b in ((8, 8), (8, 5), (3, 6)):
        la = 1.0 + 4.0 * rng.random(n_a)
        lb = 1.0 + 4.0 * rng.random(n_b)
        ab = determinant_from_series(
            TraceSeries.from_finite_spectra(la, lb), taylor_invariants(la, lb, 6)
        )
        ba = determinant_from_series(
            TraceSeries.from_finite_spectra(lb, la), taylor_invariants(lb, la, 6)
        )
        assert ab.zeta_prime_zero == -ba.zeta_prime_zero
        assert ab.zeta_prime_zero != 0.0


def test_swap_negates_zeta_prime_bitwise_surface(surface_series):
    ab, ba = surface_series
    det_ab = determinant_from_series(ab)
    det_ba = determinant_from_series(ba)
    # fitted coefficients negate too, so the whole pipeline is antisymmetric
    assert det_ab.invariants.coefficients == tuple(-c for c in det_ba.invariants.coefficients)
    assert det_ab.zeta_prime_zero == -det_ba.zeta_prime_zero
    assert det_ab.zeta_prime_zero != 0.0
    assert set(det_ab.error_budget) == {
        "small_time_truncation", "fit_sensitivity", "cutoff_leak", "total"
    }


def test_relative_determinant_guards_low_cutoffs(small_systems):
    # A cutoff of 25 cannot support the default fit window: either the window
    # holds too few of the default samples or the tail bounds pollute it.
    sys_a, sys_b = small_systems
    with pytest.raises(ValueError, match="window"):
        determinant_from_series(relative_trace_series(sys_a, sys_b))


def test_default_path_is_the_scenario_pipeline(configs_dir):
    # The library's default time grid and fit are the scenario's, so a
    # full-resolution pair needs no arguments to reach its determinant.
    cfg = ScenarioConfig.from_json(configs_dir / "decay.json")
    pair = cfg.pair()
    sys_a, series, det = solve_pair(pair, cfg.numerics)
    sys_b = solve_modes(pair[1], sys_a.surface.nodes, cfg.numerics.lambda_cut)
    default = determinant_from_series(relative_trace_series(sys_a, sys_b))
    assert np.array_equal(default.invariants.coefficients, det.invariants.coefficients)
    assert default.log_determinant == det.log_determinant


def test_default_window_is_the_documented_one():
    assert DEFAULT_FIT_WINDOW == (0.05, 0.15)
