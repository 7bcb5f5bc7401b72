"""Mode-by-mode discretization: convergence order, orthonormality, cutoffs."""
from __future__ import annotations

import ctypes
import dataclasses
import itertools
import math
import re
import sys
import threading
import time
import traceback
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal

from relspec import discretize
from relspec.cli import ScenarioConfig, solve_pair
from relspec.discretize import (
    AGMON_MARGIN,
    KERNEL_FLOOR,
    ModeQueue,
    Surface,
    agmon_window,
    assemble_mode_operator,
    make_grid,
    mode_cutoff,
    mode_rows,
    solve_mode,
    solve_modes,
)
from relspec.geometry import build_weight, flat_cylinder
from relspec.spectral import spectral_gap

from conftest import funnel_cusp_spec, same_probes, small_truncation


# ----------------------------------------------------------------------------
# exact references on the flat cylinder
# ----------------------------------------------------------------------------

def test_flat_mode_zero_matches_sine_spectrum():
    flat = flat_cylinder()
    grid = make_grid(flat, 2000)
    op = assemble_mode_operator(Surface(flat, grid), 0)
    vals, _ = solve_mode(op, 30.0)
    exact = np.arange(1, len(vals) + 1, dtype=float) ** 2
    assert np.max(np.abs(vals / exact - 1.0)) < 1e-5


def test_flat_mode_m_is_mode_zero_shifted_by_m_squared():
    # On a flat cylinder the m-dependence is exactly additive: the stiffness
    # differs from mode 0 by m^2 * mass, so discrete eigenvalues shift by m^2
    # to round-off, not just to discretization error.
    flat = flat_cylinder()
    grid = make_grid(flat, 500)
    surface = Surface(flat, grid)
    v0, _ = solve_mode(assemble_mode_operator(surface, 0), 40.0)
    v3, _ = solve_mode(assemble_mode_operator(surface, 3), 49.0)
    n = min(len(v0), len(v3))
    assert v3[:n] == pytest.approx(v0[:n] + 9.0, rel=1e-11)


def test_flat_first_twelve_with_multiplicity():
    flat = flat_cylinder()
    grid = make_grid(flat, 2000)
    system = solve_modes(flat, grid, 30.0)
    lams = system.eigenvalues_with_multiplicity()[:12]
    exact = np.array([1, 2, 2, 4, 5, 5, 5, 5, 8, 8, 9, 10], dtype=float)
    assert np.max(np.abs(lams / exact - 1.0)) < 1e-5


def test_flat_counting_function_at_ten():
    # k^2 + m^2 <= 10 with k >= 1: m=0 gives {1,4,9}; m=+-1 gives {2,5,10};
    # m=+-2 gives {5,8}; m=+-3 gives {10}.  Total 3 + 2*3 + 2*2 + 2*1 = 15.
    flat = flat_cylinder()
    grid = make_grid(flat, 2000)
    system = solve_modes(flat, grid, 30.0)
    lams = system.eigenvalues_with_multiplicity()
    exact_count = sum(
        (1 if m == 0 else 2)
        for m in range(0, 4)
        for k in range(1, 5)
        if k * k + m * m <= 10
    )
    assert exact_count == 15
    assert int(np.sum(lams <= 10.0 + 1e-6)) == exact_count


# ----------------------------------------------------------------------------
# convergence order on a curved profile
# ----------------------------------------------------------------------------

def test_second_order_richardson_on_curved_profile():
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())

    def lam1(n):
        grid = make_grid(prof, n)
        vals, _ = solve_mode(assemble_mode_operator(Surface(prof, grid), 0), 10.0)
        return vals[0]

    l1, l2, l3 = lam1(400), lam1(800), lam1(1600)
    order = math.log2(abs(l1 - l2) / abs(l2 - l3))
    assert order == pytest.approx(2.0, abs=0.1)


# ----------------------------------------------------------------------------
# pencils: orthonormality and a dense cross-check
# ----------------------------------------------------------------------------

def test_eigenvectors_are_mass_orthonormal():
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())
    grid = make_grid(prof, 400)
    op = assemble_mode_operator(Surface(prof, grid), 1)
    vals, vecs = solve_mode(op, 40.0, with_vectors=True)
    # the vectors live on the pencil's rows, which leave out both Dirichlet ends
    assert (op.lo, op.hi) == (1, len(grid) - 1)
    assert vecs.shape == (op.hi - op.lo, len(vals))
    gram = vecs.T @ (op.mass[:, None] * vecs)
    assert np.max(np.abs(gram - np.eye(len(vals)))) < 1e-8


def test_tridiagonal_pencil_matches_dense_generalized_solver():
    # The dense pencil comes from the stencil itself: stiffness deg/h + m^2 cell
    # on the diagonal and -1/h off it, mass w cell, with a half cell (and
    # degree 1) on a kept Neumann end row.
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())
    n, m = 300, 2
    w = prof.weight(np.linspace(prof.s_min, prof.s_max, n))
    for bc in ("dirichlet", "neumann"):
        ended = dataclasses.replace(prof, bc_left=bc, bc_right=bc)
        surface = Surface(ended, np.linspace(prof.s_min, prof.s_max, n))
        h = surface.h
        lo, hi = (1, n - 1) if bc == "dirichlet" else (0, n)
        cell, deg = np.full(hi - lo, h), np.full(hi - lo, 2.0)
        if bc == "neumann":
            cell[[0, -1]], deg[[0, -1]] = h / 2.0, 1.0
        off = np.full(hi - lo - 1, -1.0 / h)
        stiff = np.diag(deg / h + m * m * cell) + np.diag(off, 1) + np.diag(off, -1)
        dense = eigh(stiff, np.diag(w[lo:hi] * cell), eigvals_only=True)
        op = assemble_mode_operator(surface, m)
        assert (op.lo, op.hi) == (lo, hi)
        vals, _ = solve_mode(op, 60.0)
        assert len(vals) > 3
        assert vals == pytest.approx(dense[: len(vals)], rel=1e-10), bc


def test_rayleigh_lower_bound_per_mode():
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())
    grid = make_grid(prof, 600)
    maxw = float(np.max(prof.weight(grid)))
    surface = Surface(prof, grid)
    for m in (1, 2, 4):
        vals, _ = solve_mode(assemble_mode_operator(surface, m), 80.0)
        if len(vals):
            assert vals[0] >= m * m / maxw


def test_domain_monotonicity_under_dirichlet_restriction():
    # Shrinking a Dirichlet domain raises every eigenvalue.
    flat_big = flat_cylinder(math.pi)
    flat_small = flat_cylinder(2.0)
    g_big = make_grid(flat_big, 1200)
    g_small = make_grid(flat_small, 1200)
    v_big, _ = solve_mode(assemble_mode_operator(Surface(flat_big, g_big), 0), 50.0)
    v_small, _ = solve_mode(assemble_mode_operator(Surface(flat_small, g_small), 0), 50.0)
    n = min(len(v_big), len(v_small))
    assert np.all(v_small[:n] > v_big[:n])


# ----------------------------------------------------------------------------
# cutoff logic
# ----------------------------------------------------------------------------

def test_mode_cutoff_arithmetic():
    assert mode_cutoff(30.0, 1.0) == 6  # floor(sqrt(30)) + 1
    assert mode_cutoff(25.0, 1.0) == 6  # boundary case: 5^2 is not > 25
    assert mode_cutoff(10.0, 2.5) == 6


def _mode_one_max_weight(system):
    """The largest weight on the rows of mode 1, which hold every mode
    m >= 1: the weight of the Rayleigh bound."""
    surface = system.surface
    lo, hi = mode_rows(surface, 1)
    return float(np.max(surface.profile.weight(surface.nodes)[lo:hi]))


def test_solve_modes_witness_mode_is_empty(flat_system):
    sys = flat_system
    assert sys.m_max == mode_cutoff(sys.lambda_cut, _mode_one_max_weight(sys))
    assert len(sys.mode_eigenvalues[sys.m_max]) == 0
    # every retained eigenvalue respects the cutoff
    assert np.all(sys.eigenvalues_with_multiplicity() <= sys.lambda_cut)


def test_resolution_guard_rejects_coarse_grids():
    flat = flat_cylinder()
    grid = make_grid(flat, 16)
    with pytest.raises(ValueError, match="resolution"):
        solve_modes(flat, grid, 400.0)


@pytest.mark.parametrize("lambda_cut", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_a_nonfinite_or_nonpositive_cutoff_is_rejected_by_name(lambda_cut):
    flat = flat_cylinder()
    grid = make_grid(flat, 64)
    message = f"lambda_cut must be positive and finite, got {lambda_cut!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_modes(flat, grid, lambda_cut)
    with pytest.raises(ValueError, match=re.escape(message)):
        ModeQueue([Surface(flat, grid)], lambda_cut)


def test_eigensystem_csv_roundtrip(tmp_path, flat_system):
    path = tmp_path / "spectrum.csv"
    flat_system.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,index,multiplicity,eigenvalue"
    seen = {}
    for row in lines[1:]:
        m, idx, mult, lam = row.split(",")
        seen.setdefault(int(m), []).append(float(lam))
        assert int(mult) == (1 if int(m) == 0 else 2)
    for m, vals in seen.items():
        assert np.array_equal(np.array(vals), flat_system.mode_eigenvalues[m])


# ----------------------------------------------------------------------------
# grids and boundary conditions
# ----------------------------------------------------------------------------

def test_grid_validation():
    flat = flat_cylinder()
    with pytest.raises(ValueError, match="grid needs at least 8 nodes"):
        Surface(flat, np.linspace(0, 1, 5))
    jitter = np.linspace(0, 1, 50)
    jitter = jitter.copy()
    jitter[20] += 1e-6
    with pytest.raises(ValueError, match="grid spacing must be uniform"):
        Surface(flat, jitter)
    free = dataclasses.replace(flat, bc_left="free")
    message = "boundary conditions must be one of ('dirichlet', 'neumann', 'cap')"
    with pytest.raises(ValueError, match=re.escape(message)):
        Surface(free, np.linspace(0, 1, 50))


def test_grid_nodes_are_write_protected():
    flat = flat_cylinder()
    surface = Surface(flat, make_grid(flat, 64))
    assert surface.n == 64
    with pytest.raises(ValueError):
        surface.nodes[0] = -1.0


def test_make_grid_bc_override_and_cap_resolution():
    flat = flat_cylinder()
    capped = dataclasses.replace(flat, bc_left="neumann", bc_right="cap")
    surface = Surface(capped, np.linspace(flat.s_min, flat.s_max, 64))
    assert mode_rows(surface, 0) == (0, 64)  # cap -> Neumann for m = 0
    assert mode_rows(surface, 2) == (0, 63)  # cap -> Dirichlet for m >= 1
    op0, op2 = assemble_mode_operator(surface, 0), assemble_mode_operator(surface, 2)
    assert (op0.lo, op0.hi) == (0, 64) and (op2.lo, op2.hi) == (0, 63)
    # a half cell on each kept Neumann end row, a full one next to a cut
    assert op0.mass[0] == op0.mass[-1] == surface.h / 2.0
    assert op2.mass[0] == surface.h / 2.0 and op2.mass[-1] == surface.h


def test_neumann_kernel_is_dropped_and_gap_is_positive():
    # Fully Neumann flat cylinder: the constant is an exact kernel vector.
    # It lands within round-off of zero, under the kernel tolerance, and the
    # spectral gap is the first cosine/angular mode at exactly 1.  A modest
    # grid keeps ||T|| (hence the absolute eigenvalue round-off) small.
    flat = flat_cylinder()
    neumann = dataclasses.replace(flat, bc_left="neumann", bc_right="neumann")
    sys = solve_modes(neumann, np.linspace(flat.s_min, flat.s_max, 400), 10.0)
    gap = spectral_gap(sys)
    assert gap == pytest.approx(1.0, rel=1e-4)


def test_negative_mode_rejected():
    flat = flat_cylinder()
    grid = make_grid(flat, 64)
    with pytest.raises(ValueError):
        assemble_mode_operator(Surface(flat, grid), -1)


def test_rows_outside_the_mode_rejected():
    flat = flat_cylinder()
    grid = make_grid(flat, 64)
    for rows in ((0, 10), (5, 64), (10, 10)):  # Dirichlet end rows, empty range
        with pytest.raises(ValueError, match="must lie within"):
            assemble_mode_operator(Surface(flat, grid), 1, rows=rows)



# ----------------------------------------------------------------------------
# Agmon windows
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["point_sweep.json", "boundary_sweep.json"])
def shipped_pair(request, configs_dir):
    """The eps = 0 pair of a shipped sweep (funnel + filled cap, or Dirichlet
    boundary + cusp) on its N = 4000 grid at lambda_cut = 400."""
    cfg = ScenarioConfig.from_json(configs_dir / request.param)
    profile_a, profile_b = cfg.pair(epsilon=0.0)
    grid = make_grid(profile_a, cfg.numerics.n_nodes)
    return profile_a, profile_b, grid, cfg.numerics.lambda_cut


def _rates(rows, h, m2, lambda_cut):
    """Exact per-step decay rates of the three-point stencil."""
    return np.arccosh(1.0 + 0.5 * h * h * np.maximum(m2 - lambda_cut * rows, 0.0))


def test_window_truncation_is_at_round_off(shipped_pair):
    # A tight bisection tolerance takes LAPACK's ||T||-scaled default out of
    # the comparison, so what is left is the truncation itself.
    profile, _, grid, lambda_cut = shipped_pair
    surface = Surface(profile, grid)
    w = surface.weights
    top = mode_cutoff(lambda_cut, float(np.max(w)))
    rng = (KERNEL_FLOOR, lambda_cut)
    shortened = 0
    for m in range(top):
        op = assemble_mode_operator(surface, m)
        d, e = op.d, op.e
        a, b = agmon_window(w[op.lo : op.hi], surface.h, float(m * m), lambda_cut)
        shortened += (b - a) < len(d)
        full = eigh_tridiagonal(d, e, select="v", select_range=rng, eigvals_only=True, tol=1e-300)
        cut = eigh_tridiagonal(
            d[a:b], e[a : b - 1], select="v", select_range=rng, eigvals_only=True, tol=1e-300
        )
        assert len(cut) == len(full), m
        if len(full):
            rel = (cut - full) / np.abs(full)
            assert np.max(np.abs(rel)) < 1e-13, m
            # a Dirichlet restriction can only raise eigenvalues
            assert np.min(rel) > -1e-13, m
    assert shortened > top // 2


def test_window_cuts_lie_beyond_the_agmon_margin(shipped_pair):
    profile, _, grid, lambda_cut = shipped_pair
    surface = Surface(profile, grid)
    w = profile.weight(grid)
    top = mode_cutoff(lambda_cut, float(np.max(w)))
    cuts = 0
    for m in range(top):
        lo, hi = mode_rows(surface, m)
        rows = w[lo:hi]
        m2 = float(m * m)
        a, b = agmon_window(rows, surface.h, m2, lambda_cut)
        allowed = np.flatnonzero(lambda_cut * rows >= m2)
        if allowed.size == 0:  # max w sits on a dropped Dirichlet endpoint
            assert (a, b) == (0, len(rows))
            continue
        first, last = allowed[0], allowed[-1]
        assert a <= first and last < b
        rate = _rates(rows, surface.h, m2, lambda_cut)
        # the distance of a row is the sum of rates over the rows strictly
        # between it and the allowed set
        if a > 0:
            cuts += 1
            assert math.fsum(rate[a:first]) >= AGMON_MARGIN * (1 - 1e-12), m
            assert math.fsum(rate[a + 1 : first]) <= AGMON_MARGIN, m
        if b < len(rows):
            cuts += 1
            assert math.fsum(rate[last + 1 : b]) >= AGMON_MARGIN * (1 - 1e-12), m
            assert math.fsum(rate[last + 1 : b - 1]) <= AGMON_MARGIN, m
    assert cuts > 0


def _solved_operators(profile, grid, lambda_cut, monkeypatch):
    """The system ``solve_modes`` returns and the operator it solved per mode."""
    ops = {}
    solve = discretize.solve_mode

    def recording(op, cut, **kwargs):
        ops[op.m] = op
        return solve(op, cut, **kwargs)

    monkeypatch.setattr(discretize, "solve_mode", recording)
    return solve_modes(profile, grid, lambda_cut), ops


def test_mode_zero_witness_and_empty_modes_get_the_full_grid(shipped_pair, monkeypatch):
    profile, _, grid, lambda_cut = shipped_pair
    system, ops = _solved_operators(profile, grid, lambda_cut, monkeypatch)
    surface, top = system.surface, system.m_max
    assert (ops[0].lo, ops[0].hi) == mode_rows(surface, 0)
    assert (ops[top].lo, ops[top].hi) == mode_rows(surface, top)  # the witness
    assert any((op.lo, op.hi) != mode_rows(surface, m) for m, op in ops.items())  # windowed
    # above the Rayleigh cutoff the allowed set on the solved rows is empty
    w = profile.weight(grid)
    lo, hi = mode_rows(surface, top)
    assert agmon_window(w[lo:hi], surface.h, float(top**2), lambda_cut) == (0, hi - lo)


def test_windowed_operators_are_slices_of_the_full_row_operators(shipped_pair, monkeypatch):
    # Assembling on the window alone gives bitwise the rows of the full-row
    # pencil: only a Neumann grid end row has a half cell, and the window
    # keeps one only where it reaches that end.
    profile, _, grid, lambda_cut = shipped_pair
    system, ops = _solved_operators(profile, grid, lambda_cut, monkeypatch)
    surface = Surface(profile, grid)
    w = surface.weights
    assert sorted(ops) == list(range(system.m_max + 1))
    for m, op in ops.items():
        lo, hi = mode_rows(surface, m)
        a, b = (0, hi - lo)
        if m < system.m_max:
            a, b = agmon_window(w[lo:hi], surface.h, float(m * m), lambda_cut)
        assert (op.lo, op.hi) == (lo + a, lo + b), m
        full = assemble_mode_operator(surface, m)
        assert (full.lo, full.hi) == (lo, hi)
        assert np.array_equal(op.d, full.d[a:b]), m
        assert np.array_equal(op.e, full.e[a : b - 1]), m
        assert np.array_equal(op.mass, full.mass[a:b]), m


def test_witness_is_the_rayleigh_bound_over_the_solved_rows(shipped_pair):
    # Modes m >= 1 drop the Dirichlet endpoints, so the weight there does
    # not enter the cutoff; every mode it no longer enumerates is empty.
    profile, _, grid, lambda_cut = shipped_pair
    surface = Surface(profile, grid)
    w = surface.weights
    lo, hi = mode_rows(surface, 1)
    full_top = mode_cutoff(lambda_cut, float(np.max(w)))
    system = solve_modes(profile, grid, lambda_cut)
    assert system.m_max == mode_cutoff(lambda_cut, float(np.max(w[lo:hi]))) < full_top
    assert len(system.mode_eigenvalues[system.m_max]) == 0
    for m in range(system.m_max, full_top + 1):
        vals, _ = solve_mode(assemble_mode_operator(surface, m), lambda_cut)
        assert len(vals) == 0, m


def test_windowed_eigenvectors_are_mass_orthonormal_on_their_rows(small_pair):
    profile, _ = small_pair
    grid = make_grid(profile, 900)
    system = solve_modes(profile, grid, 25.0, probes=(0.35, 0.9))
    assert system.rows == solve_modes(profile, grid, 25.0).rows
    assert system.rows[system.m_max] == mode_rows(system.surface, system.m_max)  # the witness
    assert system.vectors is None
    surface = Surface(profile, grid)
    w = surface.weights
    shortened = 0
    for m in range(system.m_max):
        carried = mode_rows(surface, m)
        a, b = agmon_window(w[carried[0] : carried[1]], surface.h, float(m * m), 25.0)
        shortened += (b - a) < carried[1] - carried[0]
        lo, hi = system.rows[m]
        assert (lo, hi) == (carried[0] + a, carried[0] + b)
        op = assemble_mode_operator(surface, m, rows=(lo, hi))
        vals, vecs = solve_mode(op, 25.0, with_vectors=True)
        assert vecs.shape == (hi - lo, len(system.mode_eigenvalues[m]))
        gram = vecs.T @ (op.mass[:, None] * vecs)
        assert np.all(np.abs(gram - np.eye(vecs.shape[1])) < 1e-8), m
        # the kept radial Gram is the same matrix, summed in row blocks
        if m in system.probes.modes:
            assert np.all(np.abs(system.probes.modes[m][2] - gram) < 1e-13), m
    assert shortened > 0 and len(system.probes.modes) > 5


def _full_row_window(weights, h, m2, lambda_cut):
    """The Agmon window from the rates and their sum over every row."""
    q = m2 - lambda_cut * weights
    allowed = np.flatnonzero(q <= 0.0)
    n = len(weights)
    if allowed.size == 0:
        return 0, n
    dist = np.cumsum(np.arccosh(1.0 + 0.5 * h * h * np.maximum(q, 0.0)))
    first, last = int(allowed[0]), int(allowed[-1])
    a = 0 if first == 0 else int(np.searchsorted(dist, dist[first - 1] - AGMON_MARGIN))
    b = int(np.searchsorted(dist, dist[last] + AGMON_MARGIN, side="right")) + 1
    return a, min(b, n)


def _full_row_pencil(w, surface, m):
    """(d, e, mass) of mode m on all of its rows, from per-row cells and
    stencil degrees."""
    lo, hi = mode_rows(surface, m)
    h, m2 = surface.h, float(m * m)
    cell, deg = np.full(hi - lo, h), np.full(hi - lo, 2.0)
    if lo == 0:
        cell[0], deg[0] = h / 2.0, 1.0
    if hi == surface.n:
        cell[-1], deg[-1] = h / 2.0, 1.0
    mass = w[lo:hi] * cell
    d = (deg / h + m2 * cell) / mass
    e = np.full(hi - lo - 1, -1.0 / h) / np.sqrt(mass[:-1] * mass[1:])
    return d, e, mass


@st.composite
def _window_cases(draw):
    """Positive weights on 1 to 400 rows.  Each row below a drawn row is
    allowed with a drawn probability, so the allowed set may start late,
    have gaps, stop short of or reach the last row, or be empty.  The
    forbidden rows sit a drawn depth below the allowed level, so their
    rates range from steep to so gentle that the margin lies beyond the
    first chunk ``agmon_window`` sums, or beyond the last row.  m2 may be 0."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reach = rng.integers(0, n + 1)
    p_allowed = rng.uniform(0.0, 0.6)
    depth = 10.0 ** rng.uniform(-4.0, 0.0)
    h = rng.uniform(0.01, 0.5)
    lambda_cut = rng.uniform(1.0, 1e3)
    m2 = 0.0 if rng.random() < 0.1 else rng.uniform(1.0, 1e4)
    level = max(m2, 1.0) / lambda_cut
    allowed = (rng.random(n) < p_allowed) & (np.arange(n) < reach)
    weights = level * np.where(allowed, rng.uniform(1.0, 4.0, n), 1.0 - depth * rng.random(n))
    return weights, h, m2, lambda_cut


def _rows(pattern, forbidden=0.01):
    """Weight 1 on the allowed rows ('+') of ``pattern`` and ``forbidden``
    elsewhere; with h = 0.5 and m2 = lambda_cut = 100, a forbidden row's
    rate is about 2.6 at the default."""
    return np.array([1.0 if c == "+" else forbidden for c in pattern])


# name: (weights, m2, what the window (a, b) is), at h = 0.5 and lambda_cut = 100
_SHAPES = {
    "left and right cut, a gap": (
        _rows("-" * 20 + "++-+" + "-" * 20), 100.0, lambda a, b: 0 < a < 20 and 24 < b < 44
    ),
    "left cut, reaching the last row": (
        _rows("-" * 30 + "+++"), 100.0, lambda a, b: 0 < a < 30 and b == 33
    ),
    "empty": (_rows("-" * 30), 100.0, lambda a, b: (a, b) == (0, 30)),
    "m2 = 0": (_rows("-+-"), 0.0, lambda a, b: (a, b) == (0, 3)),
    "one row, forbidden": (_rows("-"), 100.0, lambda a, b: (a, b) == (0, 1)),
    "two rows": (_rows("+-"), 100.0, lambda a, b: (a, b) == (0, 2)),
    "three rows": (_rows("-+-"), 100.0, lambda a, b: (a, b) == (0, 3)),
    # the first chunk sums rows [0, 3 * last + 96), and last = 1 here
    "a margin past the first chunk": (
        _rows("++" + "-" * 400, forbidden=0.999), 100.0, lambda a, b: 3 * 1 + 96 < b < 402
    ),
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_window_cases())
def test_agmon_window_is_bitwise_the_full_row_window(case):
    weights, h, m2, lambda_cut = case
    assert agmon_window(weights, h, m2, lambda_cut) == _full_row_window(weights, h, m2, lambda_cut)


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_agmon_window_of_each_shape_of_allowed_set_is_bitwise_the_full_row_window(shape):
    # No shipped surface has a left cut.
    weights, m2, has_shape = _SHAPES[shape]
    a, b = agmon_window(weights, 0.5, m2, 100.0)
    assert (a, b) == _full_row_window(weights, 0.5, m2, 100.0)
    assert has_shape(a, b), (a, b)


def _window_pencil(w, surface, m, lo, hi):
    """(d, e, mass) of mode m on rows [lo, hi), built from the weight on
    those rows alone, a half cell patched in on a row at a grid end."""
    h, m2 = surface.h, float(m * m)
    rows = w[lo:hi]
    mass = rows * h
    d = (2.0 / h + m2 * h) / mass
    end_row = 1.0 / h + m2 * (h / 2.0)
    if lo == 0:
        mass[0] = rows[0] * (h / 2.0)
        d[0] = end_row / mass[0]
    if hi == surface.n:
        mass[-1] = rows[-1] * (h / 2.0)
        d[-1] = end_row / mass[-1]
    return d, (-1.0 / h) / np.sqrt(mass[:-1] * mass[1:]), mass


@pytest.mark.parametrize("bcs", list(itertools.product(("dirichlet", "neumann", "cap"), repeat=2)))
def test_window_pencils_are_bitwise_slices_of_the_full_row_pencil_at_every_end(bcs):
    # No shipped surface has a Neumann end for m >= 1, where the end row's
    # half cell meets the m^2 term.  Pencils assembled from the surface's
    # shared mass and off-diagonal are bitwise the full-row pencil's rows
    # and the pencil built from the window's own weights.
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())
    ended = dataclasses.replace(prof, bc_left=bcs[0], bc_right=bcs[1])
    surface = Surface(ended, np.linspace(prof.s_min, prof.s_max, 120))
    w = surface.weights
    ends = set()
    for m in range(4):
        lo, hi = mode_rows(surface, m)
        d, e, mass = _full_row_pencil(w, surface, m)
        windows = [(0, hi - lo), (0, 7), (hi - lo - 7, hi - lo), (5, 12), (3, 4)]
        windows += [(0, 1), (0, 2), (hi - lo - 2, hi - lo), (hi - lo - 1, hi - lo)]
        for a, b in windows:
            rows = (lo + a, lo + b)
            reached = (("lo", rows[0] == 0), ("hi", rows[1] == surface.n))
            ends.update(end for end, at in reached if at)
            op = assemble_mode_operator(surface, m, rows=rows)
            references = [(d[a:b], e[a : b - 1], mass[a:b]), _window_pencil(w, surface, m, *rows)]
            for ref_d, ref_e, ref_mass in references:
                assert np.array_equal(op.d, ref_d), (m, a, b)
                assert np.array_equal(op.e, ref_e), (m, a, b)
                assert np.array_equal(op.mass, ref_mass), (m, a, b)
    neumann_ends = {"lo": bcs[0] != "dirichlet", "hi": bcs[1] != "dirichlet"}
    assert ends == {end for end, kept in neumann_ends.items() if kept}
    # the surface's mass: a half cell at each grid end, whatever its condition
    cell = np.full(surface.n, surface.h)
    cell[0] = cell[-1] = surface.h / 2.0
    assert np.array_equal(surface.mass, w * cell)
    left, right = (w * cell)[:-1], (w * cell)[1:]
    assert np.array_equal(surface.e, (-1.0 / surface.h) / np.sqrt(left * right))


def test_the_pencil_reads_no_end_condition():
    # Surfaces whose profiles differ only in their end conditions hold the
    # same mass and off-diagonal, bit for bit; mode_rows alone reads them.
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())
    nodes = np.linspace(prof.s_min, prof.s_max, 120)
    reference = Surface(prof, nodes)
    for left, right in itertools.product(("dirichlet", "neumann", "cap"), repeat=2):
        surface = Surface(dataclasses.replace(prof, bc_left=left, bc_right=right), nodes)
        assert surface.mass.tobytes() == reference.mass.tobytes(), (left, right)
        assert surface.e.tobytes() == reference.e.tobytes(), (left, right)


def _queued_plan(configs_dir):
    """(surface, lambda_cut) of every surface a sweep or an off-diagonal
    check queues."""
    plan = []
    for name in ("point_sweep.json", "boundary_sweep.json", "offdiag.json"):
        cfg = ScenarioConfig.from_json(configs_dir / name)
        plan += [(surface, cfg.numerics.lambda_cut) for surface in cfg.plan.surfaces]
    return plan


def test_windows_and_pencils_of_every_queued_surface_match_the_full_row_reference(
    configs_dir, monkeypatch
):
    # Every surface a sweep or an off-diagonal check queues, through the
    # queue's own set-up and per-mode path, with the LAPACK solve stubbed out.
    plan = _queued_plan(configs_dir)
    monkeypatch.setattr(discretize, "solve_mode", lambda op, cut, **kwargs: (op, None))
    windowed = 0
    for surface, lambda_cut in plan:
        w = surface.weights
        pending = discretize._set_up(surface, lambda_cut, None)
        top = len(pending.modes) - 1
        for m in range(top + 1):
            (lo, hi), op, _ = discretize._solve_one(surface, pending, m, lambda_cut, None)
            c_lo, c_hi = mode_rows(surface, m)
            a, b = 0, c_hi - c_lo
            if m < top:
                a, b = _full_row_window(w[c_lo:c_hi], surface.h, float(m * m), lambda_cut)
            assert (lo, hi) == (op.lo, op.hi) == (c_lo + a, c_lo + b), m
            windowed += (a, b) != (0, c_hi - c_lo)
            d, e, mass = _full_row_pencil(w, surface, m)
            assert np.array_equal(op.d, d[a:b]), m
            assert np.array_equal(op.e, e[a : b - 1]), m
            assert np.array_equal(op.mass, mass[a:b]), m
    assert len(plan) > 50 and windowed > 5000


def test_every_queued_pencil_is_a_view_of_its_surface_at_every_end(configs_dir, monkeypatch):
    # No mode copies the surface's mass or off-diagonal, not even where its
    # rows reach a grid end with a half cell.
    monkeypatch.setattr(discretize, "solve_mode", lambda op, cut, **kwargs: (op, None))
    reached = 0
    for surface, lambda_cut in _queued_plan(configs_dir):
        pending = discretize._set_up(surface, lambda_cut, None)
        for m in range(len(pending.modes)):
            _, op, _ = discretize._solve_one(surface, pending, m, lambda_cut, None)
            assert np.shares_memory(op.mass, surface.mass), m
            assert np.shares_memory(op.e, surface.e), m
            reached += op.lo == 0 or op.hi == surface.n
    assert reached > 20


def test_agmon_windows_work_in_proportion_to_their_rows(configs_dir, monkeypatch):
    cfg = ScenarioConfig.from_json(configs_dir / "boundary_sweep.json")
    profile, _ = cfg.pair(epsilon=0.0)
    grid = make_grid(profile, cfg.numerics.n_nodes)
    surface = Surface(profile, grid)
    lambda_cut = cfg.numerics.lambda_cut
    w = profile.weight(grid)
    lo, hi = mode_rows(surface, 1)
    top = mode_cutoff(lambda_cut, float(np.max(w[lo:hi])))
    rates = []
    arccosh = np.arccosh

    def counting(x, *args, **kwargs):
        rates.append(np.size(x))
        return arccosh(x, *args, **kwargs)

    monkeypatch.setattr(np, "arccosh", counting)
    kept = 0
    for m in range(1, top):
        a, b = agmon_window(w[lo:hi], surface.h, float(m * m), lambda_cut)
        kept += b - a
    assert top > 50 and kept < (top - 1) * (hi - lo) / 5
    assert sum(rates) <= 3 * kept
    rates.clear()
    lo0, hi0 = mode_rows(surface, 0)
    assert agmon_window(w[lo0:hi0], surface.h, 0.0, lambda_cut) == (0, hi0 - lo0)
    assert rates == []  # mode 0 keeps its rows without a rate


def test_exactness_invariants_hold_under_windows(configs_dir):
    # Each surface's windows depend only on its own weight, so windows keep
    # identical pairs identical and swapped pairs swapped.
    cfg = ScenarioConfig.from_json(configs_dir / "point_sweep.json")
    num = cfg.numerics
    profile_a, profile_b = cfg.pair(epsilon=0.0)

    _, same, det_aa = solve_pair((profile_a, profile_a), num)
    assert np.all(same.values == 0.0)
    assert det_aa.determinant == 1.0
    ab = solve_pair((profile_a, profile_b), num)[2].log_determinant
    ba = solve_pair((profile_b, profile_a), num)[2].log_determinant
    assert ab != 0.0 and ab == -ba


def test_a_surface_rejects_a_weight_not_positive_and_finite_and_shares_its_pencil_read_only():
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())
    grid = make_grid(prof, 200)
    surface = Surface(prof, grid)
    for shared in (surface.weights, surface.mass, surface.e):
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1.0
    # a bad value on one node, an interior one or a Dirichlet end's
    fn, nodes = prof.weight, grid
    for at, bad in itertools.product((0, 100), (0.0, -1.0, np.nan, np.inf)):
        on_node = dataclasses.replace(
            prof, _fn=lambda s, at=at, bad=bad: np.where(s == nodes[at], bad, fn(s))
        )
        with pytest.raises(ValueError, match="weight must be positive and finite on the grid"):
            Surface(on_node, grid)


# ----------------------------------------------------------------------------
# the LAPACK binding and the per-surface thread split
# ----------------------------------------------------------------------------

def _same_array(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def _assert_binding_matches_scipy(d, e, lo, hi):
    ref_vals = eigh_tridiagonal(d, e, select="v", select_range=(lo, hi), eigvals_only=True)
    vals, vecs = discretize._eigh_tridiagonal(d, e, lo, hi, False)
    assert _same_array(vals, ref_vals) and vecs is None
    ref_vals, ref_vecs = eigh_tridiagonal(d, e, select="v", select_range=(lo, hi))
    vals, vecs = discretize._eigh_tridiagonal(d, e, lo, hi, True)
    assert _same_array(vals, ref_vals) and _same_array(vecs, ref_vecs)
    return vals


def test_lapack_binding_is_bitwise_scipy(shipped_pair):
    profile, _, grid, lambda_cut = shipped_pair
    surface = Surface(profile, grid)
    w = surface.weights
    op0 = assemble_mode_operator(surface, 0)
    assert len(_assert_binding_matches_scipy(op0.d, op0.e, KERNEL_FLOOR, lambda_cut)) > 10

    m = 40
    lo, hi = mode_rows(surface, m)
    a, b = agmon_window(w[lo:hi], surface.h, float(m * m), lambda_cut)
    assert b - a < hi - lo
    op = assemble_mode_operator(surface, m, rows=(lo + a, lo + b))
    assert len(_assert_binding_matches_scipy(op.d, op.e, KERNEL_FLOOR, lambda_cut))

    top = mode_cutoff(lambda_cut, float(np.max(w)))
    witness = assemble_mode_operator(surface, top)
    assert len(_assert_binding_matches_scipy(witness.d, witness.e, KERNEL_FLOOR, lambda_cut)) == 0


def test_lapack_binding_reorders_split_blocks():
    # A zero off-diagonal splits the matrix into two blocks; ORDER='B' lists
    # the upper block's eigenvalues (near 5 and 6) before the lower block's
    # (near 1 and 2), so the values and vectors must still be reordered.
    d, e = np.array([5.0, 6.0, 1.0, 2.0]), np.array([0.1, 0.0, 0.1])
    vals = _assert_binding_matches_scipy(d, e, 0.0, 10.0)
    assert len(vals) == 4 and np.all(np.diff(vals) > 0.0)
    assert vals[0] < 1.5 and vals[-1] > 5.5


def test_lapack_binding_one_row_and_bad_input():
    one, none = np.array([2.5]), np.empty(0)
    assert len(_assert_binding_matches_scipy(one, none, 0.0, 3.0)) == 1
    assert len(_assert_binding_matches_scipy(one, none, 2.5, 3.0)) == 0  # (lo, hi] is open at lo
    with pytest.raises(ValueError, match="infs or NaNs"):
        discretize._eigh_tridiagonal(np.array([1.0, np.nan]), np.array([0.5]), 0.0, 3.0, False)
    with pytest.raises(ValueError, match="one element shorter"):
        discretize._eigh_tridiagonal(np.ones(3), np.ones(3), 0.0, 3.0, False)


def _workspace_buffers(workspace):
    return [workspace.w, workspace.iblock, workspace.isplit, workspace.work, workspace.iwork]


def test_one_workspace_solves_problems_in_turn_bitwise_as_fresh_ones(shipped_pair):
    # A long window, a shorter one, one row, a vector solve, then a grid with
    # more rows than the workspace holds: every result is bitwise a fresh
    # solve's, and none shares memory with the workspace it came from.
    profile, _, grid, lambda_cut = shipped_pair
    surface = Surface(profile, grid)
    w = surface.weights
    rng = (KERNEL_FLOOR, lambda_cut)
    ops = [assemble_mode_operator(surface, 0)]
    lo, hi = mode_rows(surface, 40)
    a, b = agmon_window(w[lo:hi], surface.h, 1600.0, lambda_cut)
    ops.append(assemble_mode_operator(surface, 40, rows=(lo + a, lo + b)))
    ops.append(assemble_mode_operator(surface, 1, rows=(lo + a, lo + a + 1)))
    assert len(ops[0].d) > len(ops[1].d) > len(ops[2].d) == 1
    workspace = discretize._Workspace(surface.n)
    assert workspace.rows == surface.n
    buffers = _workspace_buffers(workspace)
    for op in ops:
        vals, vecs = solve_mode(op, lambda_cut, workspace=workspace)
        if len(op.d) > 1:
            ref = eigh_tridiagonal(op.d, op.e, select="v", select_range=rng, eigvals_only=True)
        else:
            ref = solve_mode(op, lambda_cut)[0]
        assert _same_array(vals, ref) and vecs is None
        assert not any(np.shares_memory(vals, buf) for buf in _workspace_buffers(workspace))
    assert len(solve_mode(ops[2], 1e-9, workspace=workspace)[0]) == 0  # one row, above the cut

    vals, vecs = solve_mode(ops[1], lambda_cut, with_vectors=True, workspace=workspace)
    ref_vals, ref_vecs = solve_mode(ops[1], lambda_cut, with_vectors=True)
    assert len(vals) > 1 and _same_array(vals, ref_vals) and _same_array(vecs, ref_vecs)
    for out in (vals, vecs):
        assert not any(np.shares_memory(out, buf) for buf in _workspace_buffers(workspace))
    # every solve so far ran on the buffers the workspace was made with
    assert all(x is y for x, y in zip(buffers, _workspace_buffers(workspace), strict=True))

    finer = make_grid(profile, surface.n + 500)
    op = assemble_mode_operator(Surface(profile, finer), 0)
    vals, _ = solve_mode(op, lambda_cut, workspace=workspace)
    assert workspace.rows == len(op.d) > surface.n
    ref = eigh_tridiagonal(op.d, op.e, select="v", select_range=rng, eigvals_only=True)
    assert len(vals) > 10 and _same_array(vals, ref)
    # the first solve again, on the grown buffers
    vals, _ = solve_mode(ops[0], lambda_cut, workspace=workspace)
    assert _same_array(vals, solve_mode(ops[0], lambda_cut)[0])

    with pytest.raises(ValueError, match="infs or NaNs"):
        discretize._eigh_tridiagonal(
            np.array([1.0, np.nan]), np.array([0.5]), 0.0, 3.0, False, workspace
        )
    with pytest.raises(ValueError, match="infs or NaNs"):
        discretize._eigh_tridiagonal(
            np.array([1.0, 2.0]), np.array([np.inf]), 0.0, 3.0, False, workspace
        )


def test_scipy_lapack_fallback_is_bitwise_the_numpy_route(shipped_pair, monkeypatch):
    # The route an install takes when numpy's LAPACK does not export the
    # routines: scipy.linalg.cython_lapack's, with C int integers.
    profile, _, grid, lambda_cut = shipped_pair
    on_numpy = solve_modes(profile, grid, lambda_cut)
    names = ("_DSTEBZ", "_DSTEIN", "_LAPACK_INT", "_BLAS_THREADS")
    for name, routine in zip(names, discretize._scipy_lapack(), strict=True):
        monkeypatch.setattr(discretize, name, routine)
    assert discretize._LAPACK_INT is ctypes.c_int and discretize._BLAS_THREADS is None
    # The binding checks above, run through the fallback.
    test_lapack_binding_is_bitwise_scipy(shipped_pair)
    test_lapack_binding_reorders_split_blocks()
    test_lapack_binding_one_row_and_bad_input()

    on_scipy = solve_modes(profile, grid, lambda_cut)
    assert on_scipy.rows == on_numpy.rows
    assert on_scipy.mode_eigenvalues.keys() == on_numpy.mode_eigenvalues.keys()
    for m, vals in on_numpy.mode_eigenvalues.items():
        assert _same_array(on_scipy.mode_eigenvalues[m], vals)


def test_solve_modes_is_bitwise_independent_of_the_thread_count(small_pair, monkeypatch):
    # Five threads oversubscribe the CPUs, and a short switch interval makes
    # them interleave as often as the interpreter allows.
    profile, _ = small_pair
    grid = make_grid(profile, 900)
    systems = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 5):
            monkeypatch.setattr(discretize, "worker_count", lambda threads=threads: threads)
            systems.append(solve_modes(profile, grid, 25.0, probes=(0.35, 0.9)))
    finally:
        sys.setswitchinterval(interval)
    one = systems[0]
    assert one.m_max > 5 and len(one.probes.modes) > 5
    for other in systems[1:]:
        assert other.m_max == one.m_max
        assert other.m_max == mode_cutoff(25.0, _mode_one_max_weight(other))
        assert list(other.mode_eigenvalues) == list(range(one.m_max + 1))
        assert other.rows == one.rows
        for m in one.mode_eigenvalues:
            assert _same_array(one.mode_eigenvalues[m], other.mode_eigenvalues[m]), m
        assert same_probes(one.probes, other.probes)


@pytest.mark.skipif(
    discretize._BLAS_THREADS is None, reason="numpy's LAPACK has no OpenBLAS thread count"
)
def test_probe_data_are_independent_of_the_blas_thread_count(small_pair):
    # Above about 10,000 rows dstein's level-1 BLAS splits across OpenBLAS
    # threads; a queue holds numpy's OpenBLAS at one thread while it runs,
    # and gives the count back when it stops.
    profile, _ = small_pair
    grid = make_grid(profile, 12_000)
    get_threads, set_threads = discretize._BLAS_THREADS
    before = get_threads()
    systems = []
    try:
        for preset in (1, 2):
            set_threads(preset)
            systems.append(solve_modes(profile, grid, 25.0, probes=(0.35, 0.9)))
            assert get_threads() == preset
    finally:
        set_threads(before)
    one, two = systems
    assert len(grid) >= 12_000 and one.rows[0][1] - one.rows[0][0] > 10_000
    assert len(one.probes.modes[0][0]) > 1
    assert same_probes(one.probes, two.probes)


def test_a_failing_mode_solve_surfaces_unchanged(small_pair, monkeypatch):
    profile, _ = small_pair
    grid = make_grid(profile, 900)
    error = ArithmeticError("mode 3 failed")
    solve = discretize.solve_mode

    def failing(op, cut, **kwargs):
        if op.m == 3:
            raise error
        return solve(op, cut, **kwargs)

    monkeypatch.setattr(discretize, "solve_mode", failing)
    for threads in (1, 2):  # with two, mode 3 fails beside another mode
        monkeypatch.setattr(discretize, "worker_count", lambda threads=threads: threads)
        with pytest.raises(ArithmeticError) as caught:
            solve_modes(profile, grid, 25.0)
        assert caught.value is error


def test_a_held_mode_error_keeps_no_workspace_alive(small_pair, monkeypatch):
    # The error's traceback passes through the worker's frames, whose
    # locals held its LAPACK workspace; the queue clears them on exit and
    # keeps their text.
    profile, _ = small_pair
    grid = make_grid(profile, 900)
    made = []

    class Recorded(discretize._Workspace):
        def __init__(self, rows):
            super().__init__(rows)
            made.append(weakref.ref(self))

    solve = discretize.solve_mode

    def failing(op, cut, **kwargs):
        if op.m == 3:
            raise ArithmeticError("mode 3 failed")
        return solve(op, cut, **kwargs)

    monkeypatch.setattr(discretize, "_Workspace", Recorded)
    monkeypatch.setattr(discretize, "solve_mode", failing)
    monkeypatch.setattr(discretize, "worker_count", lambda: 2)
    with pytest.raises(ArithmeticError) as caught:
        with ModeQueue([Surface(profile, grid)], 25.0) as queue:
            queue.result(0)
    held = caught.value
    assert len(made) == 2 and all(ref() is None for ref in made)
    text = "".join(traceback.format_exception(held))
    for frame in ("in result", "in _work", "in _solve_one", "in failing"):
        assert frame in text, frame


def _queue_surfaces(small_pair):
    """Three surfaces of different sizes: the small pair on one grid, and
    the bump member on a coarser one."""
    profile_a, profile_b = small_pair
    grid, coarse = make_grid(profile_a, 900), make_grid(profile_a, 600)
    return [Surface(profile_a, grid), Surface(profile_b, grid), Surface(profile_a, coarse)]


@pytest.mark.parametrize("probes", [None, (0.35, 0.9)])
def test_a_queue_solves_each_surface_bitwise_as_solve_modes_alone(
    small_pair, monkeypatch, probes
):
    surfaces = _queue_surfaces(small_pair)
    alone = [solve_modes(s.profile, s.nodes, 25.0, probes=probes) for s in surfaces]
    made = []

    class Recorded(discretize._Workspace):
        def __init__(self, rows):
            super().__init__(rows)
            made.append((sys._getframe(1).f_code.co_name, weakref.ref(self)))

    monkeypatch.setattr(discretize, "_Workspace", Recorded)
    for threads in (1, 2, 3):
        monkeypatch.setattr(discretize, "worker_count", lambda threads=threads: threads)
        made.clear()
        with ModeQueue(surfaces, 25.0, probes=probes) as queue:
            together = [queue.result(i) for i in range(len(surfaces))]
        # one workspace per worker (and one-shot ones for the solves with
        # eigenvectors), each gone once its thread is joined
        assert [caller for caller, _ in made].count("_work") == threads
        assert all(ref() is None for _, ref in made)
        for surface, one, other in zip(surfaces, alone, together):
            assert other.surface is surface
            assert other.surface.nodes is one.surface.nodes
            assert other.surface.profile is one.surface.profile
            assert other.m_max == one.m_max
            assert other.m_max == mode_cutoff(25.0, _mode_one_max_weight(other))
            assert list(other.mode_eigenvalues) == list(range(one.m_max + 1))
            assert other.rows == one.rows
            for m in one.mode_eigenvalues:
                assert _same_array(one.mode_eigenvalues[m], other.mode_eigenvalues[m]), m
            assert same_probes(one.probes, other.probes)
            assert (other.probes is None) is (probes is None) and other.vectors is None


def test_a_failing_surface_fails_alone_and_the_queue_joins_its_threads(
    small_pair, monkeypatch
):
    fine_a, fine_b, coarse = _queue_surfaces(small_pair)
    # A grid too coarse for the cutoff: the surface fails its set-up's
    # capacity check, before any of its modes is queued.
    bad = Surface(fine_b.profile, make_grid(fine_b.profile, 100))
    surfaces = [fine_a, coarse, bad, fine_b]  # the failing surfaces in the middle
    error = ArithmeticError("mode 2 of the coarse surface failed")
    solve = discretize.solve_mode

    def failing(op, cut, **kwargs):
        if op.m == 2 and op.surface is coarse:
            raise error
        return solve(op, cut, **kwargs)

    monkeypatch.setattr(discretize, "solve_mode", failing)
    monkeypatch.setattr(discretize, "worker_count", lambda: 2)
    before = threading.active_count()
    with ModeQueue(surfaces, 25.0) as queue:
        first, last = queue.result(0), queue.result(3)
        with pytest.raises(ArithmeticError) as caught:
            queue.result(1)
        with pytest.raises(ValueError, match="resolution capacity"):
            queue.result(2)
    assert caught.value is error
    with pytest.raises(ValueError, match="resolution capacity"):
        solve_modes(bad.profile, bad.nodes, 25.0)
    assert threading.active_count() == before
    assert first.m_max > 5 and last.m_max > 5
    # an error leaving the block stops the queue before every surface is solved
    with pytest.raises(KeyError):
        with ModeQueue(surfaces, 25.0) as queue:
            raise KeyError("leave at once")
    assert threading.active_count() == before
    with pytest.raises(RuntimeError, match="not running"):
        ModeQueue(surfaces, 25.0).result(0)


def test_lapack_call_releases_the_gil():
    # Bisection for every eigenvalue of a random 450 x 450 tridiagonal matrix
    # takes about 0.1 s.  A GIL held through it would stall this thread for
    # the whole call; released, this loop keeps spinning.
    rng = np.random.default_rng(7)
    d, e = rng.standard_normal(450), rng.standard_normal(449)
    done = threading.Event()
    took = []

    def solve():
        try:
            t0 = time.perf_counter()
            discretize._eigh_tridiagonal(d, e, -100.0, 100.0, False)
            took.append(time.perf_counter() - t0)
        finally:
            done.set()

    worker = threading.Thread(target=solve)
    last = time.perf_counter()
    deadline = last + 60.0
    stall = 0.0
    worker.start()
    while not done.is_set() and last < deadline:
        now = time.perf_counter()
        stall, last = max(stall, now - last), now
    worker.join(timeout=60.0)
    assert not worker.is_alive() and len(took) == 1
    assert took[0] > 0.02
    assert stall < 0.5 * took[0]
