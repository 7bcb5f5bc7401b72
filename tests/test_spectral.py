"""Heat traces, relative traces, and off-diagonal kernel integrals."""
from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from relspec import discretize
from relspec.cli import OFFDIAG_TIMES, ScenarioConfig, _offdiag_surfaces
from relspec.discretize import (
    Grid,
    ModeQueue,
    assemble_mode_operator,
    make_grid,
    solve_mode,
    solve_modes,
)
from relspec.geometry import BumpSpec, build_weight, flat_cylinder, line_distance
from relspec.spectral import (
    PairedSpectrum,
    TraceSeries,
    _angular_factor,
    _exp1,
    default_time_grid,
    heat_trace,
    heat_trace_tail_bound,
    kernel_value,
    offdiag_l2_integral,
    relative_trace_series,
    relative_trace_tail_bound,
    spectral_gap,
)

from conftest import funnel_cusp_spec, same_probes, small_truncation


@pytest.fixture(scope="module")
def probe_system():
    """The small funnel+cusp surface solved with probes at two given radii:
    probe_system(s_y, s_y2) is its Eigensystem."""
    prof = build_weight(
        funnel_cusp_spec(BumpSpec(center=0.35, radius=0.09, amplitude=0.3)),
        truncation=small_truncation(),
    )
    grid = make_grid(prof, 800)

    @functools.lru_cache(maxsize=None)
    def solve(s_y, s_y2):
        return solve_modes(prof, grid, 25.0, probes=(s_y, s_y2))

    return solve


@pytest.fixture(scope="module")
def small_vectors(probe_system):
    """Every mode's eigenvectors of the small surface, on its solved rows."""
    return _full_vectors(probe_system(0.35, 0.9))


# ----------------------------------------------------------------------------
# single-surface traces
# ----------------------------------------------------------------------------

def test_heat_trace_frozen_two_level_value():
    # e^{-1} + e^{-2}, mpmath at 50 digits
    assert heat_trace([1.0, 2.0], 1.0) == pytest.approx(
        0.50321472440805501349, rel=1e-15
    )


def test_heat_trace_shapes():
    t = np.array([0.5, 1.0, 2.0])
    out = heat_trace([1.0, 3.0], t)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(math.exp(-1.0) + math.exp(-3.0), rel=1e-15)
    assert isinstance(heat_trace([1.0], 1.0), float)


def test_flat_trace_matches_analytic_double_sum(flat_system):
    # Sum e^{-(k^2+m^2) t} over the exact flat eigenvalues below the cutoff
    # and compare with the trace of the computed spectrum at t = 0.5.
    t = 0.5
    exact = 0.0
    for m in range(0, 12):
        for k in range(1, 12):
            lam = k * k + m * m
            if lam <= flat_system.lambda_cut:
                exact += (1 if m == 0 else 2) * math.exp(-lam * t)
    assert heat_trace(flat_system, t) == pytest.approx(exact, rel=1e-5)


def test_tail_bounds_decay_and_vanish():
    t = np.geomspace(0.1, 5.0, 40)
    single = heat_trace_tail_bound(10.0, 50.0, t)
    rel = relative_trace_tail_bound(0.3, 50.0, t)
    assert np.all(np.diff(single) < 0) and np.all(np.diff(rel) < 0)
    assert np.all(relative_trace_tail_bound(0.0, 50.0, t) == 0.0)


def test_default_time_grid_endpoints():
    t = default_time_grid()
    assert len(t) == 112
    assert t[0] == pytest.approx(0.05, rel=1e-15)
    assert t[-1] == pytest.approx(20.0, rel=1e-15)


# ----------------------------------------------------------------------------
# spectral gap
# ----------------------------------------------------------------------------

def test_spectral_gap_flat(flat_system):
    assert spectral_gap(flat_system) == pytest.approx(1.0, rel=1e-5)


def test_spectral_gap_raises_on_empty_spectrum(flat_system):
    empty = replace(flat_system, mode_eigenvalues={0: np.empty(0)})
    with pytest.raises(ValueError):
        spectral_gap(empty)


# ----------------------------------------------------------------------------
# relative traces
# ----------------------------------------------------------------------------

def test_relative_trace_of_identical_systems_is_exactly_zero(small_systems):
    sys_a, _ = small_systems
    series = relative_trace_series(sys_a, sys_a)
    assert np.all(series.values == 0.0)
    assert series.rel_area == 0.0
    assert np.all(series.tail_bounds == 0.0)
    assert series.t_trust_min == 0.0
    assert series.evaluate(0.37) == 0.0


def test_relative_trace_antisymmetric_bitwise(small_systems):
    sys_a, sys_b = small_systems
    ab = relative_trace_series(sys_a, sys_b)
    ba = relative_trace_series(sys_b, sys_a)
    assert np.array_equal(ab.values, -ba.values)
    assert ab.rel_area == -ba.rel_area


def test_relative_trace_triangle_identity(small_systems, small_pair):
    sys_a, sys_b = small_systems
    a, _ = small_pair
    spec_c = funnel_cusp_spec(BumpSpec(center=0.35, radius=0.09, amplitude=-0.2))
    prof_c = build_weight(spec_c, truncation=small_truncation())
    sys_c = solve_modes(prof_c, make_grid(prof_c, 900), 25.0)
    e_ab = relative_trace_series(sys_a, sys_b).values
    e_bc = relative_trace_series(sys_b, sys_c).values
    e_ac = relative_trace_series(sys_a, sys_c).values
    assert np.max(np.abs(e_ab + e_bc - e_ac)) < 1e-12


def test_relative_trace_series_metadata(small_systems):
    sys_a, sys_b = small_systems
    series = relative_trace_series(sys_a, sys_b)
    assert series.gap == min(series.gap_a, series.gap_b)
    assert series.gap_a == spectral_gap(sys_a)
    assert 0.0 < series.t_trust_min < 5.0
    assert series.rel_area != 0.0
    # evaluator agrees with the tabulated values
    assert series.evaluate(series.times[7]) == pytest.approx(
        series.values[7], rel=1e-14
    )


def test_relative_trace_requires_matching_discretizations(small_systems):
    sys_a, sys_b = small_systems
    with pytest.raises(ValueError, match="cutoff"):
        relative_trace_series(sys_a, replace(sys_b, lambda_cut=30.0))
    with pytest.raises(ValueError, match="mode range"):
        relative_trace_series(sys_a, replace(sys_b, m_max=sys_b.m_max + 1))
    other_grid = Grid(nodes=sys_b.grid.nodes, bc_left="neumann", bc_right=sys_b.grid.bc_right)
    with pytest.raises(ValueError, match="grid"):
        relative_trace_series(sys_a, replace(sys_b, grid=other_grid))


def test_trace_series_csv_roundtrip_is_bitwise(tmp_path, small_systems):
    # Every number is written as its shortest round-trip repr, so the file
    # reads back bitwise.
    sys_a, sys_b = small_systems
    series = relative_trace_series(sys_a, sys_b)
    path = tmp_path / "trace.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    assert meta["pair_id"] == series.pair_id
    assert float(meta["rel_area"]) == series.rel_area
    assert float(meta["gap_a"]) == series.gap_a and float(meta["gap_b"]) == series.gap_b
    assert float(meta["t_trust_min"]) == series.t_trust_min
    table = np.loadtxt(path, delimiter=",", skiprows=len(meta) + 1)
    assert np.array_equal(table[:, 0], series.times)
    assert np.array_equal(table[:, 1], series.values)
    assert np.array_equal(table[:, 2], series.tail_bounds)


def test_trace_series_validates_inputs():
    t = np.array([1.0, 2.0, 3.0])
    spectrum = PairedSpectrum(((0, 1, np.array([2.0]), np.array([3.0])),))
    with pytest.raises(ValueError):
        TraceSeries(
            times=t,
            values=np.zeros(2),
            tail_bounds=np.zeros(3),
            pair_id="x",
            rel_area=0.0,
            gap_a=1.0,
            gap_b=1.0,
            t_trust_min=0.0,
            spectrum=spectrum,
        )
    with pytest.raises(ValueError):
        TraceSeries(
            times=np.array([1.0, 1.0, 2.0]),
            values=np.zeros(3),
            tail_bounds=np.zeros(3),
            pair_id="x",
            rel_area=0.0,
            gap_a=1.0,
            gap_b=1.0,
            t_trust_min=0.0,
            spectrum=spectrum,
        )
    # every series carries the paired spectra that evaluate and zeta'(0) read
    with pytest.raises(TypeError, match="spectrum"):
        TraceSeries(
            times=t,
            values=np.zeros(3),
            tail_bounds=np.zeros(3),
            pair_id="x",
            rel_area=0.0,
            gap_a=1.0,
            gap_b=1.0,
            t_trust_min=0.0,
        )


def test_finite_spectra_series():
    series = TraceSeries.from_finite_spectra([2.0], [3.0], times=[0.5, 1.0])
    assert series.values[1] == pytest.approx(math.exp(-2.0) - math.exp(-3.0), rel=1e-15)
    assert series.gap_a == 2.0 and series.gap_b == 3.0
    assert np.all(series.tail_bounds == 0.0)
    with pytest.raises(ValueError):
        TraceSeries.from_finite_spectra([1.0, -2.0], [1.0, 2.0])


# ----------------------------------------------------------------------------
# pointwise kernels and off-diagonal integrals
# ----------------------------------------------------------------------------

def _full_vectors(sys):
    """Each mode's mass-normalised eigenvectors on its solved rows, from
    ``solve_mode`` with vectors on the pencil the system solved."""
    w = sys.profile.weight(sys.grid.nodes)
    vectors = {}
    for m, rows in sys.rows.items():
        op = assemble_mode_operator(sys.profile, m, sys.grid, weights=w, rows=rows)
        vals, vectors[m] = solve_mode(op, sys.lambda_cut, with_vectors=True)
        assert np.array_equal(vals, sys.mode_eigenvalues[m]), m
    return vectors


def _padded(sys, vectors, m):
    """Mode m's eigenvectors zero-padded from its solved rows to the grid."""
    lo, hi = sys.rows[m]
    full = np.zeros((sys.grid.n, vectors[m].shape[1]))
    full[lo:hi] = vectors[m]
    return full


def _rows(sys, y, y2):
    nodes = sys.grid.nodes
    return int(np.argmin(np.abs(nodes - y[0]))), int(np.argmin(np.abs(nodes - y2[0])))


def _radial_weights(sys):
    nodes = sys.grid.nodes
    cell = np.full(len(nodes), sys.grid.h)
    cell[0] = cell[-1] = sys.grid.h / 2.0
    return sys.profile.weight(nodes) * cell


def _reference_kernel(sys, vectors, t, y, y2):
    """K(t, y, y2) from zero-padded eigenvectors on the whole grid."""
    i_y, i_y2 = _rows(sys, y, y2)
    total = 0.0
    for m in sorted(sys.mode_eigenvalues):
        lam = sys.mode_eigenvalues[m]
        if len(lam) == 0:
            continue
        U = _padded(sys, vectors, m)
        radial = float(np.dot(np.exp(-lam * t), U[i_y, :] * U[i_y2, :]))
        total += _angular_factor(m, y[1] - y2[1]) * radial
    return total


def _reference_offdiag(sys, vectors, t, y, y2):
    """I(t) as the radial sum of the two kernel columns built from the full
    eigenvectors, sum_m c_m sum_i rw_i r_m^y(s_i) r_m^y2(s_i), zero-padded
    to the whole grid."""
    i_y, i_y2 = _rows(sys, y, y2)
    rw = _radial_weights(sys)
    value = 0.0
    for m in sorted(sys.mode_eigenvalues):
        lam = sys.mode_eigenvalues[m]
        if len(lam) == 0:
            continue
        U = _padded(sys, vectors, m)
        decay = np.exp(-lam * t)
        r_y = U @ (decay * U[i_y, :])
        r_y2 = U @ (decay * U[i_y2, :])
        value += _angular_factor(m, y[1] - y2[1]) * float(np.dot(rw, r_y * r_y2))
    return value


def test_full_chart_offdiag_integral_is_semigroup_product(probe_system):
    # int K(t,x,y) K(t,x,y2) dA(x) over the whole surface = K(2t, y, y2):
    # discrete mass-orthonormality makes this exact up to round-off, which is
    # a strong joint test of eigenvectors, quadrature cells and angular sums.
    y = (0.35, 0.0)
    y2 = (0.9, 1.3)
    sys = probe_system(y[0], y2[0])
    res = offdiag_l2_integral(sys, 1.0, y=y, y2=y2)
    expected = kernel_value(sys, 2.0, y, y2)
    assert res.value == pytest.approx(expected, rel=1e-10)
    assert res.pair_distance > 0.0


def test_kernel_value_symmetry(probe_system):
    y = (0.3, 0.2)
    y2 = (1.7, 2.5)
    sys = probe_system(y[0], y2[0])
    k12 = kernel_value(sys, 1.5, y, y2)
    k21 = kernel_value(sys, 1.5, y2, y)
    assert k12 == pytest.approx(k21, rel=1e-13)
    # on-diagonal values are positive
    assert kernel_value(sys, 1.0, y) > 0.0
    assert kernel_value(sys, 1.0, y2) > 0.0


def _trapezoid_offdiag(sys, vectors, t, y, y2, n_theta):
    """Brute-force reference: both kernel columns sampled on an n_theta-point
    angular grid and multiplied pointwise before integrating."""
    i_y, i_y2 = _rows(sys, y, y2)
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    field_a = np.zeros((sys.grid.n, n_theta))
    field_b = np.zeros((sys.grid.n, n_theta))
    for m, lam in sys.mode_eigenvalues.items():
        if len(lam) == 0:
            continue
        U = _padded(sys, vectors, m)
        decay = np.exp(-lam * t)
        col_a = U @ (decay * U[i_y, :])
        col_b = U @ (decay * U[i_y2, :])
        if m == 0:
            ang_a = np.full(n_theta, 1.0 / (2.0 * math.pi))
            ang_b = ang_a
        else:
            ang_a = np.cos(m * (theta - y[1])) / math.pi
            ang_b = np.cos(m * (theta - y2[1])) / math.pi
        field_a += np.outer(col_a, ang_a)
        field_b += np.outer(col_b, ang_b)
    return float((_radial_weights(sys) @ (field_a * field_b)).sum() * (2.0 * math.pi / n_theta))


@pytest.mark.parametrize("n_theta", ["minimal", 256])
def test_offdiag_integral_matches_trapezoid_reference(probe_system, small_vectors, n_theta):
    # The closed-form angular sum against the sampled product of the two
    # kernel columns; the trapezoid rule is exact from 2 m_max + 1 points on.
    y = (2.4, 0.7)
    y2 = (3.1, 2.3)
    sys = probe_system(y[0], y2[0])
    if n_theta == "minimal":
        n_theta = 2 * sys.m_max + 1
    res = offdiag_l2_integral(sys, 1.0, y=y, y2=y2)
    expected = _trapezoid_offdiag(sys, small_vectors, 1.0, y, y2, n_theta)
    assert res.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "y, y2", [((1.5, 0.4), (0.3, 1.1)), ((4.0, 0.2), (5.5, 2.0)), ((1.5, 0.4), None)]
)
def test_probes_outside_a_modes_rows_match_zero_padded_vectors(
    probe_system, small_vectors, y, y2
):
    # Probe circles in the cusp lie outside the rows of the high modes, which
    # are evanescent there; the full eigenvectors zero-padded to the grid are
    # the reference, and a mode that misses a probe keeps no entry.
    sys = probe_system(y[0], (y if y2 is None else y2)[0])
    i_y = _rows(sys, y, y)[0]
    inside = [lo <= i_y < hi for m, (lo, hi) in sys.rows.items() if len(sys.mode_eigenvalues[m])]
    assert any(inside) and not all(inside)
    assert len(sys.probes.modes) < len(inside)
    pair = y if y2 is None else y2
    ends = [float(sys.grid.nodes[i]) for i in _rows(sys, y, pair)]
    want_distance = line_distance(sys.profile, *ends)
    for t in (1.0, 2.0):
        assert kernel_value(sys, t, y, y2) == _reference_kernel(sys, small_vectors, t, y, pair)
        got = offdiag_l2_integral(sys, t, y=y, y2=y2)
        want = _reference_offdiag(sys, small_vectors, t, y, pair)
        assert got.value == pytest.approx(want, rel=1e-13, abs=0.0)
        assert got.pair_distance == want_distance


@pytest.mark.parametrize("y, y2", [((0.35, 0.0), (0.9, 1.3)), ((0.5, 1.0), (0.9, -0.3))])
def test_offdiag_integral_swap_is_bitwise(probe_system, y, y2):
    sys = probe_system(y[0], y2[0])
    for t in (1.0, 1.5):
        forward = offdiag_l2_integral(sys, t, y=y, y2=y2)
        backward = offdiag_l2_integral(sys, t, y=y2, y2=y)
        assert forward.value == backward.value
        assert forward.pair_distance == backward.pair_distance


def test_offdiag_preconditions(probe_system):
    sys = probe_system(0.35, 0.9)
    with pytest.raises(ValueError, match="smallest usable t"):
        offdiag_l2_integral(sys, 0.05, y=(0.35, 0.0))
    with pytest.raises(ValueError, match="t must be positive"):
        offdiag_l2_integral(sys, 0.0, y=(0.35, 0.0))
    with pytest.raises(ValueError, match="outside the chart"):
        kernel_value(sys, 1.0, (-3.0, 0.0))
    with pytest.raises(ValueError, match="not to a probe row"):
        kernel_value(sys, 1.0, (0.35, 0.0), (2.0, 0.0))
    with pytest.raises(ValueError, match="not to a probe row"):
        offdiag_l2_integral(sys, 1.0, y=(2.0, 0.0))
    with pytest.raises(ValueError, match="outside the chart"):
        solve_modes(sys.profile, sys.grid, 25.0, probes=(0.35, 7.0))


def test_offdiag_requires_probes(small_systems):
    sys_a, _ = small_systems
    assert sys_a.probes is None and sys_a.vectors is None
    with pytest.raises(ValueError, match="probes"):
        offdiag_l2_integral(sys_a, 1.0, y=(0.35, 0.0))
    with pytest.raises(ValueError, match="probes"):
        kernel_value(sys_a, 1.0, (0.35, 0.0))


# The reduced form on both grids of the shipped off-diagonal check.

@pytest.fixture(scope="module")
def offdiag_grids(configs_dir):
    """The shipped off-diagonal check's two surfaces, each as (points,
    system with probes, full eigenvectors on its solved rows)."""
    cfg = ScenarioConfig.from_json(configs_dir / "offdiag.json")
    num = cfg.numerics
    y, y2 = num.offdiag_points
    out = []
    for profile, grid in _offdiag_surfaces(cfg.member("surface_a"), num):
        sys = solve_modes(profile, grid, num.lambda_cut, probes=(y[0], y2[0]))
        out.append(((y, y2), sys, _full_vectors(sys)))
    return out


def test_kept_probe_rows_are_bitwise_the_full_eigenvectors(offdiag_grids):
    for (y, y2), sys, vectors in offdiag_grids:
        probes = sys.probes
        i, i2 = probes.rows
        assert probes.rows == _rows(sys, y, y2)
        assert probes.distance == line_distance(
            sys.profile, float(sys.grid.nodes[i]), float(sys.grid.nodes[i2])
        )
        missed = 0
        for m, (lo, hi) in sys.rows.items():
            k = len(sys.mode_eigenvalues[m])
            if not (k and lo <= i < hi and lo <= i2 < hi):
                assert m not in probes.modes, m
                missed += k > 0
                continue
            a, b, gram = probes.modes[m]
            U = vectors[m]
            assert np.array_equal(a, U[i - lo]) and np.array_equal(b, U[i2 - lo]), m
            # no kept array has more than k rows
            assert a.shape == b.shape == (k,) and gram.shape == (k, k), m
            # the Gram matrix of a mass-orthonormal basis
            assert np.max(np.abs(gram - np.eye(k))) < 1e-10, m
        assert missed > 0 and len(probes.modes) > 5


def test_offdiag_integral_is_the_full_vector_radial_sum(offdiag_grids):
    for (y, y2), sys, vectors in offdiag_grids:
        for t in OFFDIAG_TIMES:
            got = offdiag_l2_integral(sys, t, y=y, y2=y2)
            want = _reference_offdiag(sys, vectors, t, y, y2)
            assert got.value == pytest.approx(want, rel=1e-13, abs=0.0), (sys.grid.n, t)
            assert offdiag_l2_integral(sys, t, y=y2, y2=y).value == got.value
            assert kernel_value(sys, t, y, y2) == _reference_kernel(sys, vectors, t, y, y2)


def test_probe_data_are_independent_of_the_thread_count(offdiag_grids, monkeypatch):
    surfaces = [(sys.profile, sys.grid) for _, sys, _ in offdiag_grids]
    (y, y2), _, _ = offdiag_grids[0]
    for threads in (1, 3):
        monkeypatch.setattr(discretize, "worker_count", lambda threads=threads: threads)
        with ModeQueue(surfaces, offdiag_grids[0][1].lambda_cut, probes=(y[0], y2[0])) as queue:
            for i, (_, sys, _) in enumerate(offdiag_grids):
                assert same_probes(queue.result(i).probes, sys.probes), (threads, i)


# ----------------------------------------------------------------------------
# the exponential integral behind the relative zeta-determinant
# ----------------------------------------------------------------------------

def _log_uniform(lo, hi, n, seed):
    x = np.exp(np.random.default_rng(seed).uniform(math.log(lo), math.log(hi), n))
    return np.concatenate(([lo, hi], x))


@pytest.mark.parametrize("lo, hi", [(1e-6, 1.0), (1.0, 10.0), (10.0, 700.0)])
def test_exp1_matches_scipy_to_round_off(lo, hi):
    # scipy.special.exp1 runs the same routine (E1XB); only the last-bit
    # rounding of numpy's log and exp may differ.  On [10, 700] E1 stays
    # above the subnormal range (E1(700) ~ 1.4e-307).
    from scipy.special import exp1

    x = _log_uniform(lo, hi, 20000, seed=int(hi))
    got, want = _exp1(x), exp1(x)
    assert np.all(want > 0.0) and np.all(np.isfinite(want))
    assert float(np.max(np.abs(got - want) / want)) <= 2e-15
    assert _exp1(np.array([1.0]))[0] == pytest.approx(0.21938393439552027, rel=2e-15)


def test_exp1_of_a_concatenation_is_bitwise_its_parts():
    x = _log_uniform(1e-6, 700.0, 6000, seed=5)
    whole = _exp1(x)
    parts = np.split(x, [1, 1, 7, 8, 3000, 5999])  # an empty and one-element part
    assert np.array_equal(np.concatenate([_exp1(p) for p in parts]), whole)
    order = np.random.default_rng(6).permutation(x.size)
    assert np.array_equal(_exp1(x[order]), whole[order])
    assert _exp1(np.empty(0)).shape == (0,)


def test_e1_sum_matches_scipy_mode_by_mode(small_systems):
    from scipy.special import exp1

    spectrum = relative_trace_series(*small_systems).spectrum
    for x in (0.01, 0.3, 1.0):
        want = 0.0
        for _, mult, va, vb in spectrum.modes:
            k = min(len(va), len(vb))
            want += mult * (
                float((exp1(va[:k] * x) - exp1(vb[:k] * x)).sum())
                + float(exp1(va[k:] * x).sum())
                - float(exp1(vb[k:] * x).sum())
            )
        assert spectrum.e1_sum(x) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_e1_sum_is_exact_for_identical_and_swapped_pairs(small_systems):
    spectrum = relative_trace_series(*small_systems).spectrum
    swapped = PairedSpectrum(tuple((m, n, vb, va) for m, n, va, vb in spectrum.modes))
    same = PairedSpectrum(tuple((m, n, va, va) for m, n, va, _ in spectrum.modes))
    for x in (0.01, 1.0):
        assert spectrum.e1_sum(x) != 0.0
        assert swapped.e1_sum(x) == -spectrum.e1_sum(x)
        assert same.e1_sum(x) == 0.0


def test_e1_sum_names_the_mode_of_an_unpartnered_kernel_eigenvalue():
    kernel = PairedSpectrum(
        (
            (0, 1, np.array([0.0, 2.0]), np.array([0.0, 2.5])),  # paired: skipped
            (3, 2, np.array([1.0, 4.0]), np.array([1e-12, 1.0, 4.0])),
        )
    )
    with pytest.raises(ValueError, match=r"mode 3: eigenvalue 1e-12 <= 1e-10"):
        kernel.e1_sum(0.5)
    with pytest.raises(ValueError, match="positive lower limit"):
        kernel.e1_sum(0.0)
