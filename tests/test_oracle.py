"""Cross-check oracles: exact product determinants and the 2D five-point solver."""
from __future__ import annotations

import ctypes
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from relspec import discretize, oracle
from relspec.cli import ScenarioConfig
from relspec.discretize import Surface, make_grid
from relspec.geometry import BumpSpec, MetricProfile, Truncation, build_weight, flat_cylinder
from relspec.oracle import (
    angular_symbol,
    check_bump_span,
    finite_matrix_relative_det,
    low_eigenvalues_2d,
    mode_sum_reference,
)

from conftest import funnel_cap_spec, funnel_cusp_spec, small_truncation


# ----------------------------------------------------------------------------
# finite product determinants
# ----------------------------------------------------------------------------

def test_product_determinant_exact_rational_cases():
    assert finite_matrix_relative_det([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == 0.75
    assert finite_matrix_relative_det([2.0], [3.0]) == float(Fraction(2, 3))
    assert finite_matrix_relative_det([5.0, 7.0], [7.0, 5.0]) == 1.0


def test_product_determinant_reciprocal_identity():
    rng = np.random.default_rng(7)
    a = 1.0 + 3.0 * rng.random(10)
    b = 1.0 + 3.0 * rng.random(10)
    d_ab = finite_matrix_relative_det(a, b)
    d_ba = finite_matrix_relative_det(b, a)
    assert abs(d_ab * d_ba - 1.0) < 1e-15


def test_product_determinant_log_path_matches_rational():
    rng = np.random.default_rng(11)
    a = 1.0 + 3.0 * rng.random(25)  # long enough for the log-sum branch
    b = 1.0 + 3.0 * rng.random(25)
    got = finite_matrix_relative_det(a, b)
    num = Fraction(1)
    for x in a:
        num *= Fraction(float(x))
    den = Fraction(1)
    for x in b:
        den *= Fraction(float(x))
    assert got == pytest.approx(float(num / den), rel=1e-12)


def test_product_determinant_validation():
    with pytest.raises(ValueError):
        finite_matrix_relative_det([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        finite_matrix_relative_det([], [])
    with pytest.raises(ValueError):
        finite_matrix_relative_det([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        finite_matrix_relative_det([1.0], [0.0])


# ----------------------------------------------------------------------------
# the 2D pencil vs the mode decomposition
# ----------------------------------------------------------------------------

def surface_on(profile, n_s):
    return Surface(profile, make_grid(profile, n_s))


def bumped_profile():
    return build_weight(
        funnel_cusp_spec(BumpSpec(center=0.35, radius=0.09, amplitude=0.3)),
        truncation=small_truncation(),
    )


@pytest.mark.parametrize(
    "ends",
    [("dirichlet", "dirichlet"), ("dirichlet", "neumann"), ("dirichlet", "cap"),
     ("neumann", "dirichlet"), ("cap", "dirichlet")],
)
def test_flat_2d_pencil_matches_mode_sum_at_machine_precision(ends):
    # A cap ring is one pole unknown: Neumann for m = 0, gone for m != 0.
    prof = dataclasses.replace(flat_cylinder(), bc_left=ends[0], bc_right=ends[1])
    surface = surface_on(prof, 120)
    direct = low_eigenvalues_2d(surface, 16, count=10)
    via_modes = mode_sum_reference(surface, 16, count=10)
    assert np.max(np.abs(direct / via_modes - 1.0)) < 1e-10


def neumann_cylinder():
    """Both ends Neumann: the constant is a kernel vector, eigenvalue 0."""
    return surface_on(
        dataclasses.replace(flat_cylinder(), bc_left="neumann", bc_right="neumann"), 120
    )


def test_2d_solver_accepts_the_zero_eigenpair_of_a_neumann_cylinder():
    surface = neumann_cylinder()
    direct = low_eigenvalues_2d(surface, 16, count=5)
    via_modes = mode_sum_reference(surface, 16, count=5)
    assert abs(direct[0]) <= 1e-10 and abs(via_modes[0]) <= 1e-10
    assert np.max(np.abs(direct[1:] / via_modes[1:] - 1.0)) <= 1e-7


@pytest.mark.parametrize("which", [0, 3])
def test_2d_solver_rejects_a_perturbed_eigenvector(monkeypatch, which):
    # The residual floor that admits the kernel vector must not admit a
    # vector that is off by 1e-9, on the zero eigenvalue or above it.
    eigsh = oracle.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        order = np.argsort(vals)
        noise = np.random.default_rng(3).standard_normal(vecs.shape[0])
        vecs[:, order[which]] += 1e-9 * noise / np.linalg.norm(noise)
        return vals, vecs

    monkeypatch.setattr(oracle, "eigsh", perturbed)
    with pytest.raises(RuntimeError, match="Lanczos did not converge"):
        low_eigenvalues_2d(neumann_cylinder(), 16, count=5)


def test_curved_2d_pencil_matches_mode_sum_at_machine_precision():
    surface = surface_on(bumped_profile(), 300)
    direct = low_eigenvalues_2d(surface, 24, count=12)
    via_modes = mode_sum_reference(surface, 24, count=12)
    assert np.max(np.abs(direct / via_modes - 1.0)) < 1e-9


def test_2d_pencil_matches_mode_sum_on_the_readme_cap_surface():
    # The README's library-use surface (funnel + filled_cap, cap_epsilon
    # 0.3) on validate's 400 x 64 oracle grid.
    bump = BumpSpec(center=0.35, radius=0.09, amplitude=0.3)
    truncation = Truncation(funnel_depth=1.0, cusp_end=40.0, cap_end=14.0)
    surface = surface_on(build_weight(funnel_cap_spec(0.3, bump), truncation=truncation), 400)
    assert surface.profile.bc_right == "cap"
    direct = low_eigenvalues_2d(surface, 64)
    via_modes = mode_sum_reference(surface, 64)
    assert np.max(np.abs(direct - via_modes) / via_modes) <= 1e-7


def _dirichlet_pencil(surface, n_theta):
    """The five-point pencil of a surface with two Dirichlet ends as the
    plain tensor product of its 1D pieces: interior rows, full cells."""
    h, ht, n = surface.h, 2.0 * math.pi / n_theta, surface.n - 2
    off = np.full(n - 1, -1.0 / h)
    K_s = sp.diags([off, np.full(n, 2.0) / h, off], [-1, 0, 1])
    shift = sp.eye(n_theta, k=1) + sp.eye(n_theta, k=1 - n_theta)
    K_t = (2.0 * sp.eye(n_theta) - shift - shift.T) / ht
    A = sp.kron(K_s, ht * sp.eye(n_theta)) + sp.kron(sp.diags(np.full(n, h)), K_t)
    W = sp.diags(np.repeat(surface.weights[1:-1] * np.full(n, h), n_theta) * ht)
    return A, W


def test_validate_cusp_surface_keeps_its_plain_tensor_pencil(configs_dir):
    # No cap ring, so no pole: the pencil, and so every eigenvalue, is
    # bitwise the unreduced tensor product.
    _flat, surface = ScenarioConfig.from_json(configs_dir / "validate.json").plan.surfaces
    assert (surface.profile.bc_left, surface.profile.bc_right) == ("dirichlet", "dirichlet")
    for got, want in zip(oracle._assemble_2d(surface, 64), _dirichlet_pencil(surface, 64)):
        assert got.shape == want.shape
        assert abs(got - want).max() == 0.0


def test_the_2d_solver_runs_without_the_mode_solver(monkeypatch):
    # The five-point pencil is the reference the mode sum is checked
    # against, so it must share no assembly or LAPACK call with it.
    surface = surface_on(bumped_profile(), 300)
    want = low_eigenvalues_2d(surface, 24, count=12)

    def forbidden(*args, **kwargs):
        raise AssertionError("the 2D oracle called the mode solver")

    for module in (discretize, oracle):
        monkeypatch.setattr(module, "assemble_mode_operator", forbidden)
        monkeypatch.setattr(module, "solve_mode", forbidden)
    monkeypatch.setattr(discretize, "_eigh_tridiagonal", forbidden)
    monkeypatch.setattr(discretize, "_DSTEBZ", forbidden)
    monkeypatch.setattr(discretize, "_DSTEIN", forbidden)
    assert np.array_equal(low_eigenvalues_2d(surface, 24, count=12), want)
    with pytest.raises(AssertionError, match="mode solver"):
        mode_sum_reference(surface, 24, count=12)


def test_mode_sum_reference_samples_the_weight_once_for_every_mode_and_cap_round(monkeypatch):
    prof = bumped_profile()
    calls, caps = [], set()
    weight, solve = MetricProfile.weight, oracle.solve_mode

    def counting(profile, s):
        calls.append(s)
        return weight(profile, s)

    def recording(op, cut, **kwargs):
        caps.add(cut)
        return solve(op, cut, **kwargs)

    monkeypatch.setattr(MetricProfile, "weight", counting)
    monkeypatch.setattr(oracle, "solve_mode", recording)
    surface = surface_on(prof, 300)
    vals = mode_sum_reference(surface, 24, count=100)
    assert len(vals) == 100 and len(caps) > 1  # more than one cap round
    assert len(calls) == 1 and calls[0] is surface.nodes


def test_2d_solver_is_deterministic():
    surface = surface_on(flat_cylinder(), 100)
    first = low_eigenvalues_2d(surface, 16, count=6)
    second = low_eigenvalues_2d(surface, 16, count=6)
    assert np.array_equal(first, second)


def test_2d_solver_is_bitwise_independent_of_the_blas_thread_count():
    # A threaded OpenBLAS sums in an order that follows its thread count;
    # the oracle runs scipy's on one thread whatever it was set to before.
    from scipy.sparse.linalg._dsolve import _superlu

    library = ctypes.CDLL(_superlu.__file__)
    if not hasattr(library, "scipy_openblas_set_num_threads"):
        pytest.skip("scipy is not built on its own OpenBLAS")
    get_threads, set_threads = library.scipy_openblas_get_num_threads, library.scipy_openblas_set_num_threads
    get_threads.restype, set_threads.argtypes = ctypes.c_int, [ctypes.c_int]
    surface = surface_on(bumped_profile(), 300)
    before = get_threads()
    runs = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            runs.append(low_eigenvalues_2d(surface, 48))
            assert get_threads() == threads
    finally:
        set_threads(before)
    assert np.array_equal(runs[0], runs[1])


def test_2d_eigenvalues_are_sorted_and_positive():
    surface = surface_on(flat_cylinder(), 100)
    vals = low_eigenvalues_2d(surface, 16, count=8)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals > 0)


def test_2d_solver_preconditions():
    surface = surface_on(flat_cylinder(), 100)
    with pytest.raises(ValueError, match="50"):
        low_eigenvalues_2d(surface, 16, count=60)
    with pytest.raises(ValueError):
        low_eigenvalues_2d(surface, 16, count=0)
    narrow = surface_on(flat_cylinder(bump=BumpSpec(center=1.5, radius=0.01, amplitude=0.2)), 100)
    with pytest.raises(ValueError, match="radial nodes"):
        low_eigenvalues_2d(narrow, 16, count=4)
    with pytest.raises(ValueError, match="radial nodes"):
        check_bump_span(narrow)
    check_bump_span(surface)  # no bump
    for entry in (low_eigenvalues_2d, mode_sum_reference):
        with pytest.raises(ValueError, match="need at least 8 angular nodes"):
            entry(surface, 4)


def test_angular_symbol_limits():
    assert angular_symbol(0, 64) == 0.0
    # second-order approach to the continuum symbol m^2
    errs = [abs(angular_symbol(2, n) - 4.0) for n in (32, 64, 128)]
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 == pytest.approx(2.0, abs=0.1)
    assert order2 == pytest.approx(2.0, abs=0.1)
    # discrete symbol never exceeds the continuum one
    assert angular_symbol(3, 24) < 9.0
