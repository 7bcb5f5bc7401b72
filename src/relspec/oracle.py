"""Independent cross-checks for the mode-decomposed pipeline.

Two oracles that share no code path with the per-mode solver:

* an exact product-ratio determinant for explicit finite spectra (rational
  arithmetic for short lists), pinning the det = exp(-zeta'(0)) convention;
* a genuinely two-dimensional five-point solver on the (s, theta) cylinder,
  assembled as one sparse generalized pencil and solved by shift-invert
  Lanczos.  Its theta-difference symbol mu_m = (4/h^2) sin^2(m h / 2) is what
  ``mode_sum_reference`` substitutes into the 1D assembly, so the two
  routes solve the *same* discrete operator through entirely different
  linear algebra and agree at solver precision.  A cap end's ring is one
  pole unknown of the five-point pencil, constant in theta: every m != 0
  component vanishes there and mode 0 keeps it with a half cell, which is
  ``discretize.mode_rows``'s rule for a cap.

Both 2D routes take a ``discretize.Surface`` and n_theta angles: the
surface's grid nodes crossed with n_theta equispaced periodic angles.  The
five-point solver reads only the surface's node count, spacing, sampled
weight and the end conditions of its profile; its stiffness, cells,
boundary rule, cap pole and linear algebra are its own.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu
from scipy.sparse.linalg._dsolve import _superlu

from .discretize import Surface, assemble_mode_operator, solve_mode

__all__ = [
    "check_bump_span",
    "finite_matrix_relative_det",
    "low_eigenvalues_2d",
    "mode_sum_reference",
    "angular_symbol",
]

ORACLE_EIGENVALUES = 20  # eigenvalues the 2D cross-check compares by default
_EXACT_PATH_MAX = 20  # spectra shorter than this use rational arithmetic
_EIGSH_SEED = 12345
_EIGSH_SHIFT = -0.05  # below the spectrum, so shift-invert finds the lowest
_EIGSH_RESIDUAL_TOL = 1e-8


def finite_matrix_relative_det(lam_a, lam_b) -> float:
    """Relative determinant prod(lam_a) / prod(lam_b) of two finite spectra.

    Same convention as the zeta route (det = exp(-zeta'(0))), so
    finite_matrix_relative_det([1, 2, 3], [1, 2, 4]) == 0.75.  Lists shorter
    than 20 are evaluated in exact rational arithmetic (floats are taken at
    their exact binary values); longer lists fall back to log-sums.
    """
    la = list(np.asarray(lam_a, dtype=float).ravel())
    lb = list(np.asarray(lam_b, dtype=float).ravel())
    if len(la) != len(lb):
        raise ValueError("spectra must have equal length")
    if not la:
        raise ValueError("spectra must be nonempty")
    if min(la) <= 0 or min(lb) <= 0:
        raise ValueError("spectra must be positive")
    if len(la) < _EXACT_PATH_MAX:
        num = Fraction(1)
        for x in la:
            num *= Fraction(x)
        den = Fraction(1)
        for x in lb:
            den *= Fraction(x)
        return float(num / den)
    return math.exp(float(np.sum(np.log(la)) - np.sum(np.log(lb))))


def _check_angular_nodes(n_theta: int) -> None:
    if n_theta < 8:
        raise ValueError("need at least 8 angular nodes")


def check_bump_span(surface: Surface) -> None:
    """Raise ValueError unless the profile's bump, if it has one, spans at
    least 8 radial nodes of the surface's grid: the least that the 2D
    oracle resolves."""
    bump = surface.profile.bump
    if bump is not None and 2.0 * bump.radius / surface.h < 8.0:
        raise ValueError(
            f"bump of radius {bump.radius} spans fewer than 8 radial nodes at "
            f"h_s={surface.h:.4g}; refine the oracle grid"
        )


def _assemble_2d(surface: Surface, n_theta: int):
    """One sparse pencil (A, W) for the quadratic forms
    int (u_s^2 + u_theta^2) ds dtheta  against  int u^2 w ds dtheta,
    on the surface's grid crossed with n_theta equispaced (periodic) angles,
    on lumped cells -- the exact tensor product of the 1D assembly.

    A Dirichlet end's ring is left out, and every other end's is kept with
    a half cell.  A cap end's ring is one pole unknown: with P mapping the
    pole value to every angle of the ring and the identity elsewhere, the
    pencil is (P^T A P, P^T W P)."""
    h = surface.h
    ht = 2.0 * math.pi / n_theta
    bc_left, bc_right = surface.profile.bc_left, surface.profile.bc_right
    keep_left, keep_right = bc_left != "dirichlet", bc_right != "dirichlet"
    lo = 0 if keep_left else 1
    hi = surface.n if keep_right else surface.n - 1
    n_act = hi - lo
    w = surface.weights
    cell = np.full(n_act, h)
    deg = np.full(n_act, 2.0)
    if keep_left:
        cell[0] = h / 2.0
        deg[0] = 1.0
    if keep_right:
        cell[-1] = h / 2.0
        deg[-1] = 1.0
    K_s = sp.diags(
        [np.full(n_act - 1, -1.0 / h), deg / h, np.full(n_act - 1, -1.0 / h)],
        [-1, 0, 1],
    )
    C_s = sp.diags(cell)
    shift = sp.lil_matrix((n_theta, n_theta))
    shift.setdiag(np.ones(n_theta - 1), 1)
    shift[n_theta - 1, 0] = 1.0
    shift = shift.tocsr()
    K_t = (2.0 * sp.eye(n_theta) - shift - shift.T) / ht
    I_t = sp.eye(n_theta)
    A = sp.kron(K_s, ht * I_t) + sp.kron(C_s, K_t)
    W = sp.diags(np.repeat(w[lo:hi] * cell, n_theta) * ht)
    if "cap" in (bc_left, bc_right):
        # the unknown each node of the grid maps to; rings of n_theta nodes
        column = np.arange(n_act * n_theta)
        if bc_left == "cap":
            column[:n_theta] = 0
            column[n_theta:] -= n_theta - 1
        if bc_right == "cap":
            column[-n_theta:] = column[-n_theta]
        P = sp.csr_matrix((np.ones(len(column)), (np.arange(len(column)), column)))
        A, W = P.T @ A @ P, P.T @ W @ P
    return A.tocsc(), W.tocsc()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with scipy's OpenBLAS on one thread, and restore its
    thread count afterwards.  A threaded BLAS sums in an order that follows
    its thread count, so ARPACK's eigenvalues would otherwise change in
    their last digits with the CPUs of the machine.  A scipy built on
    another BLAS runs the block as it is."""
    library = ctypes.CDLL(_superlu.__file__)  # linked to scipy's OpenBLAS
    try:
        get_threads = library.scipy_openblas_get_num_threads
        set_threads = library.scipy_openblas_set_num_threads
    except AttributeError:
        yield
        return
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def low_eigenvalues_2d(
    surface: Surface,
    n_theta: int,
    count: int = ORACLE_EIGENVALUES,
) -> np.ndarray:
    """First ``count`` eigenvalues of the five-point pencil on the
    surface's grid crossed with n_theta angles, ascending.

    Shift-invert Lanczos around _EIGSH_SHIFT (below the spectrum) with a
    fixed, seeded start vector; every returned pair is verified to satisfy
    ||A v - lam W v|| <= _EIGSH_RESIDUAL_TOL * ||A v||, with ||A v|| floored
    at |_EIGSH_SHIFT| ||W v|| when |lam| < |_EIGSH_SHIFT| (a zero eigenvalue
    of a surface with no Dirichlet end), and non-convergence raises.

    pre: n_theta >= 8; count <= 50 (this is a low-spectrum cross-check, not
    a production eigensolver); a bump, when present, must span at least 8
    radial nodes (``check_bump_span``).
    """
    _check_angular_nodes(n_theta)
    if count > 50:
        raise ValueError("the 2D oracle is limited to the first 50 eigenvalues")
    if count < 1:
        raise ValueError("count must be positive")
    check_bump_span(surface)
    A, W = _assemble_2d(surface, n_theta)
    n = A.shape[0]
    if count >= n - 1:
        raise ValueError("count exceeds the oracle grid size")
    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
    with _one_blas_thread():
        lu = splu((A - _EIGSH_SHIFT * W).tocsc())
        op = LinearOperator(A.shape, matvec=lu.solve)
        vals, vecs = eigsh(A, k=count, M=W, sigma=_EIGSH_SHIFT, OPinv=op, v0=v0)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for lam, v in zip(vals, vecs.T):
        av, wv = A @ v, W @ v
        res = float(np.linalg.norm(av - lam * wv))
        # ||A v|| is ~0 on a kernel vector (no Dirichlet end); below |sigma|
        # the scale is floored at the shifted pencil that Lanczos inverts.
        shift = abs(_EIGSH_SHIFT)
        floor = shift * float(np.linalg.norm(wv)) if abs(lam) < shift else 1e-30
        if res > _EIGSH_RESIDUAL_TOL * max(float(np.linalg.norm(av)), floor):
            raise RuntimeError(
                f"2D eigenpair residual {res:.3e} exceeds {_EIGSH_RESIDUAL_TOL:.1e} "
                f"at lam={lam:.6g}; Lanczos did not converge"
            )
    return vals


def angular_symbol(m: int, n_theta: int) -> float:
    """Five-point angular symbol mu_m = (4/h^2) sin^2(m h / 2), h = 2 pi / n_theta."""
    h = 2.0 * math.pi / n_theta
    return (4.0 / h**2) * math.sin(0.5 * m * h) ** 2


def mode_sum_reference(
    surface: Surface,
    n_theta: int,
    count: int = ORACLE_EIGENVALUES,
) -> np.ndarray:
    """The discrete spectrum of the five-point pencil by angular
    diagonalization: the theta circulant factors into modes m = 0..n_theta/2
    with symbol mu_m (multiplicity 2 except m = 0 and Nyquist), leaving 1D
    pencils that the tridiagonal solver handles.  Returns the first ``count``
    values ascending.  The 1D pencils of every mode and every cap round are
    the surface's own.  Both routes diagonalize the same matrix pair, a cap
    end's pole included, so agreement with low_eigenvalues_2d is at
    linear-algebra precision.
    """
    _check_angular_nodes(n_theta)
    if count < 1:
        raise ValueError("count must be positive")
    max_w = float(np.max(surface.weights))
    nyquist = n_theta // 2
    cap = 16.0
    while True:
        found: list[tuple[float, int]] = []
        for m in range(nyquist + 1):
            mu = angular_symbol(m, n_theta)
            if mu / max_w > cap:
                continue
            op = assemble_mode_operator(surface, m, m2_value=mu)
            vals, _ = solve_mode(op, cap)
            mult = 1 if (m == 0 or (n_theta % 2 == 0 and m == nyquist)) else 2
            for lam in vals:
                found.append((float(lam), mult))
        total = sum(mult for _, mult in found)
        found.sort()
        expanded: list[float] = []
        for lam, mult in found:
            expanded.extend([lam] * mult)
        if total >= count and expanded[count - 1] <= cap:
            return np.asarray(expanded[:count])
        cap *= 2.0
        if cap > 1e9:
            raise RuntimeError("could not collect enough eigenvalues below any cap")
