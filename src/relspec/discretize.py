"""Per-Fourier-mode Sturm-Liouville discretization and eigensolvers.

Separating variables on w(s)(ds^2 + dtheta^2) turns the Laplace eigenproblem
into, for each angular mode m,

    (-u'' + m^2 u) = lambda w(s) u      on [s_min, s_max],

a generalized symmetric tridiagonal pencil once discretized on a uniform grid
(second-order stencil, lumped cell masses: interior rows (-1, 2, -1)/h^2
against mass w_i).  Eigenvalues up to a cutoff are computed mode by mode with
LAPACK bisection + inverse iteration after a diagonal congruence, and modes
are enumerated up to the provable Rayleigh cutoff m^2 > lambda_cut * max(w),
the maximum taken over the rows that the modes m >= 1 solve.

Each mode's problem lives on one range of grid rows [lo, hi).
``mode_rows`` gives the rows a mode carries: every node but a Dirichlet
end's, where a 'cap' end is Neumann for m = 0 and Dirichlet otherwise.  The
pencil is assembled on its range only.  A row has a half cell only where the
range reaches a Neumann grid end; a range that stops short of a grid end is
cut by a Dirichlet row.

``solve_modes`` narrows each mode's rows to its Agmon window.  Every
eigenfunction of mode m with lambda <= lambda_cut decays where
m^2 > lambda_cut * w_i: across such a node the three-point stencil shrinks it
by at least the factor e^{-kappa_i}, with the exact per-step rate

    kappa_i = acosh(1 + h^2 (m^2 - lambda_cut w_i) / 2)

(the continuum rate h sqrt(q) overstates it once h sqrt(q) is not small).
The window is the contiguous run of rows whose discrete Agmon distance (the
sum of kappa over the nodes in between) from the allowed set
{lambda_cut w_i >= m^2} is at most ``AGMON_MARGIN``; its Dirichlet cuts move
the kept eigenvalues by about e^{-2 AGMON_MARGIN} relative, far below
round-off.  ``Eigensystem.rows`` records each mode's solved rows; a mode's
eigenvectors vanish on every other row.
A mode's set-up costs O(window), not O(N): each surface keeps one running
maximum of lambda_cut * w from its last row backwards, on which one
``searchsorted`` finds a mode's last allowed row; the Agmon sum then runs
from the mode's first row only until it passes the right margin, and the
pencil is assembled on the window's rows alone.

The eigensolves call LAPACK ``dstebz`` (bisection) and ``dstein`` (inverse
iteration) through ``ctypes.CFUNCTYPE``, which releases the GIL while
LAPACK runs.  The routines and arguments are those of
``scipy.linalg.eigh_tridiagonal(select="v")``, so the results are bitwise
the same.  They are taken from the OpenBLAS that numpy has already loaded:
numpy's OpenBLAS wheels export them as ``scipy_dstebz_64_`` and
``scipy_dstein_64_``, with 64-bit LAPACK integers, and ``dlsym`` on the
handle of numpy's ``linalg`` extension finds them without opening a second
library.  Where numpy's LAPACK does not export them (numpy built on MKL,
Accelerate or a system BLAS), they come from the function pointers that
``scipy.linalg.cython_lapack`` exports, with C ``int`` integers; only that
fallback imports scipy.

Those threads are a ``ModeQueue``: a pool of ``worker_count()`` threads
that takes the (surface, m) tasks of a whole list of surfaces first in,
first out (the surfaces in list order, ascending m within each), with no
barrier between surfaces; a surface's modes are merged in m order when its
result is taken.  ``solve_modes`` is its one-surface case.  Every mode's
result is independent of the thread that solved it, and the queue holds
numpy's OpenBLAS at one thread while it runs: ``dstein``'s level-1 BLAS
splits long vectors across OpenBLAS threads, which would make eigenvectors
of more than about 10,000 rows follow the machine's CPU count.

No eigenvector outlives its mode's task.  The off-diagonal heat kernel
needs a surface's eigenvectors only at two probe radii and through their
radial Gram matrices, so a queue given ``probes`` keeps just those
(``ProbeModes``) and drops each mode's n x k block before it takes its next
task.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .geometry import MetricProfile, line_distance

__all__ = [
    "Grid",
    "ModeOperator",
    "Eigensystem",
    "ProbeModes",
    "make_grid",
    "nearest_row",
    "mode_rows",
    "assemble_mode_operator",
    "agmon_window",
    "solve_mode",
    "check_resolution",
    "ModeQueue",
    "solve_modes",
    "mode_cutoff",
]

_BC = ("dirichlet", "neumann", "cap")
KERNEL_FLOOR = -1e-9  # lower edge of the bisection window; catches exact kernels
AGMON_MARGIN = 20.0  # discrete Agmon distance kept past the allowed set per mode


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a profile chart with end boundary conditions.

    'cap' is resolved per mode by ``mode_rows``: Neumann for
    m = 0 (no flux through the smooth tip closure), Dirichlet for m != 0
    (those modes decay like e^{-m s} down the tip, so the far truncation
    error is ~ e^{-2 m s_max}).
    """

    nodes: np.ndarray = field(repr=False)
    bc_left: str
    bc_right: str

    def __post_init__(self):
        if self.bc_left not in _BC or self.bc_right not in _BC:
            raise ValueError(f"boundary conditions must be one of {_BC}")
        if len(self.nodes) < 8:
            raise ValueError("grid needs at least 8 nodes")
        steps = np.diff(self.nodes)
        scale = max(1.0, abs(float(self.nodes[0])), abs(float(self.nodes[-1])))
        if np.max(np.abs(steps - steps[0])) > 1e-14 * scale:
            raise ValueError("grid spacing must be uniform")
        self.nodes.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def h(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def same_family(self, other: "Grid") -> bool:
        return (
            self.n == other.n
            and self.bc_left == other.bc_left
            and self.bc_right == other.bc_right
            and np.array_equal(self.nodes, other.nodes)
        )


def make_grid(profile: MetricProfile, n_nodes: int) -> Grid:
    """Uniform n_nodes grid spanning the profile chart (endpoints included),
    with the profile's boundary conditions."""
    nodes = np.linspace(profile.s_min, profile.s_max, n_nodes)
    return Grid(nodes=nodes, bc_left=profile.bc_left, bc_right=profile.bc_right)


def nearest_row(grid: Grid, s: float) -> int:
    """The grid row nearest the radius ``s``, which must lie on the chart
    (to 1e-12)."""
    nodes = grid.nodes
    if s < nodes[0] - 1e-12 or s > nodes[-1] + 1e-12:
        raise ValueError(f"point s={s} outside the chart [{nodes[0]}, {nodes[-1]}]")
    return int(np.argmin(np.abs(nodes - s)))


def mode_rows(grid: Grid, m: int) -> tuple[int, int]:
    """Grid rows [lo, hi) that mode m carries: every node but a Dirichlet
    end's, with a 'cap' end Neumann for m = 0 and Dirichlet otherwise."""
    if m < 0:
        raise ValueError("mode index must be nonnegative")
    keep_left = grid.bc_left == "neumann" or (grid.bc_left == "cap" and m == 0)
    keep_right = grid.bc_right == "neumann" or (grid.bc_right == "cap" and m == 0)
    return (0 if keep_left else 1), (grid.n if keep_right else grid.n - 1)


@dataclass(frozen=True)
class ModeOperator:
    """Mode m's pencil on grid rows [lo, hi): the lumped ``mass`` and the
    symmetric tridiagonal (d, e) that the congruence by mass^{-1/2} turns
    the stiffness into."""

    grid: Grid
    m: int
    lo: int
    hi: int
    d: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)


def assemble_mode_operator(
    profile: MetricProfile,
    m: int,
    grid: Grid,
    *,
    m2_value: float | None = None,
    weights: np.ndarray | None = None,
    rows: tuple[int, int] | None = None,
) -> ModeOperator:
    """Assemble the pencil for mode m on grid rows ``rows`` = (lo, hi),
    ``mode_rows(grid, m)`` by default; a narrower range is cut by Dirichlet
    rows.

    ``m2_value`` replaces the exact angular symbol m^2 (used for
    discretization-matched comparisons against 2D stencils, where the
    five-point angular symbol (4/h^2) sin^2(m h / 2) is substituted).
    ``weights`` is the profile's weight already sampled on ``grid.nodes``;
    callers assembling many modes of one surface pass it to sample once.
    The weight must be positive and finite on the assembled rows; the
    solvers check it on the whole grid once per surface.
    """
    carried = mode_rows(grid, m)
    lo, hi = carried if rows is None else rows
    if not carried[0] <= lo < hi <= carried[1]:
        raise ValueError(f"rows [{lo}, {hi}) must lie within mode {m}'s rows {carried}")
    h = grid.h
    w = profile.weight(grid.nodes) if weights is None else weights
    if w.shape != grid.nodes.shape:
        raise ValueError("weights must be sampled on the grid nodes")
    w = w[lo:hi]
    if not (w.min() > 0.0 and w.max() < math.inf):  # a NaN fails the first test
        raise ValueError(f"weight must be positive and finite on rows [{lo}, {hi})")
    m2 = float(m * m) if m2_value is None else float(m2_value)
    # Interior rows have a cell h and the stencil (-1, 2, -1)/h; a row at a
    # Neumann grid end has a half cell and one neighbour, and is patched.
    mass = w * h
    d = (2.0 / h + m2 * h) / mass
    end_row = 1.0 / h + m2 * (h / 2.0)
    if lo == 0:
        mass[0] = w[0] * (h / 2.0)
        d[0] = end_row / mass[0]
    if hi == grid.n:
        mass[-1] = w[-1] * (h / 2.0)
        d[-1] = end_row / mass[-1]
    e = (-1.0 / h) / np.sqrt(mass[:-1] * mass[1:])
    return ModeOperator(grid=grid, m=m, lo=lo, hi=hi, d=d, e=e, mass=mass)


def agmon_window(
    weights: np.ndarray,
    h: float,
    m2: float,
    lambda_cut: float,
    *,
    envelope: np.ndarray | None = None,
) -> tuple[int, int]:
    """Rows [a, b) of ``weights`` (one mode's rows, positive) within
    discrete Agmon distance ``AGMON_MARGIN`` of the allowed set
    {lambda_cut w >= m2}.

    The distance of a row from the allowed set is the sum of the per-step
    rates acosh(1 + h^2 max(m2 - lambda_cut w_i, 0) / 2) over the rows
    strictly between them, so the first dropped row on each side lies more
    than ``AGMON_MARGIN`` away.  An empty allowed set returns every row, and
    so does m2 <= 0, whose allowed set is every row.

    The work is O(b), not O(len(weights)).  The last allowed row comes from
    one ``searchsorted`` on ``envelope``, the running maximum of
    lambda_cut * weights taken from the last row backwards (envelope[k] =
    max(lambda_cut * weights[-1 - k:]), ascending); it is computed here when
    not given, and callers windowing many modes of one surface pass it.  The
    rates are then summed left to right from row 0, in chunks that each
    carry the sum on, so every partial sum is bitwise that of one ``cumsum``
    over all rows; the sum stops at the first row past the right margin.
    """
    n = len(weights)
    if m2 <= 0.0:
        return 0, n
    if envelope is None:
        envelope = _envelope(weights, lambda_cut)
    last = n - 1 - int(envelope.searchsorted(m2))
    if last < 0:
        return 0, n
    step = 0.5 * h * h
    # The first chunk reaches past the right margin on nearly every mode of
    # the shipped sweeps; each later chunk doubles the rows summed.
    start, stop, carried = 0, min(n, 3 * last + 96), 0.0
    while True:
        q = m2 - lambda_cut * weights[start:stop]
        if start == 0:
            first = 0 if q[0] <= 0.0 else int(np.argmax(q <= 0.0))
        # the rates acosh(1 + h^2 max(q, 0) / 2) and their running sum, in q
        rate = np.maximum(q, 0.0, out=q)
        rate *= step
        rate += 1.0
        np.arccosh(rate, out=rate)
        rate[0] += carried
        dist = np.add.accumulate(rate, out=rate)
        if start == 0:
            a = 0 if first == 0 else int(dist.searchsorted(dist[first - 1] - AGMON_MARGIN))
            limit = dist[last] + AGMON_MARGIN
        kept = int(dist.searchsorted(limit, side="right"))
        if kept < stop - start or stop == n:
            return a, min(start + kept + 1, n)
        start, stop, carried = stop, min(n, 2 * stop), dist[-1]


def _envelope(weights: np.ndarray, lambda_cut: float) -> np.ndarray:
    """``agmon_window``'s envelope: the running maximum of lambda_cut *
    weights from the last row backwards."""
    return np.maximum.accumulate(lambda_cut * weights[::-1])


_LAPACK_ARGS = {"dstebz": 18, "dstein": 13}  # every argument is a pointer


def _bind(addresses: list[int], int_type) -> tuple:
    """``_DSTEBZ``, ``_DSTEIN`` and ``_LAPACK_INT`` for routines at
    ``addresses`` that take LAPACK integers of ctypes type ``int_type``.
    A ``CFUNCTYPE`` call releases the GIL while LAPACK runs."""
    routines = [
        ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)
        for address, n_args in zip(addresses, _LAPACK_ARGS.values())
    ]
    return (*routines, int_type)


def _numpy_lapack() -> tuple | None:
    """The routines in the OpenBLAS that numpy has already loaded, and the
    (get, set) pair of its thread count (None where it is not exported);
    None without the routines.

    numpy's OpenBLAS wheels export LAPACK as ``scipy_<name>_64_``, with
    64-bit integers, and the thread count as
    ``scipy_openblas_get/set_num_threads64_``.  ``dlsym`` on the handle of
    numpy's own ``linalg`` extension reaches them in the library that
    extension already mapped.
    """
    library = ctypes.CDLL(_umath_linalg.__file__)
    try:
        found = [getattr(library, f"scipy_{name}_64_") for name in _LAPACK_ARGS]
    except AttributeError:
        return None
    try:
        threads = (
            library.scipy_openblas_get_num_threads64_,
            library.scipy_openblas_set_num_threads64_,
        )
    except AttributeError:
        threads = None
    else:
        threads[0].argtypes, threads[0].restype = [], ctypes.c_int
        threads[1].argtypes, threads[1].restype = [ctypes.c_int], None
    addresses = [ctypes.cast(f, ctypes.c_void_p).value for f in found]
    return (*_bind(addresses, ctypes.c_int64), threads)


def _scipy_lapack() -> tuple:
    """The routines that ``scipy.linalg.cython_lapack`` exports, with C
    ``int`` integers: each is a capsule named after its C signature.  The
    BLAS they call is scipy's, whose thread count is not held (None)."""
    from scipy.linalg import cython_lapack

    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    capsules = [cython_lapack.__pyx_capi__[name] for name in _LAPACK_ARGS]
    return (*_bind([get_pointer(c, get_name(c)) for c in capsules], ctypes.c_int), None)


# numpy's LAPACK where it exports the routines; scipy's only where it does
# not (numpy built on MKL, Accelerate or a system BLAS), and then with no
# thread count to hold.
_DSTEBZ, _DSTEIN, _LAPACK_INT, _BLAS_THREADS = _numpy_lapack() or _scipy_lapack()


def _eigh_tridiagonal(
    d: np.ndarray, e: np.ndarray, lo: float, hi: float, with_vectors: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues in (lo, hi] of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``, ascending, and (``with_vectors``)
    orthonormal eigenvectors as columns.

    The LAPACK calls and arguments of scipy's
    ``eigh_tridiagonal(d, e, select="v", select_range=(lo, hi))``, so the
    results are bitwise equal: ``dstebz`` bisection with RANGE='V' and
    ABSTOL=0 (eps * ||T||_1), ORDER='E' for values only; ORDER='B', then
    ``dstein`` inverse iteration and a reorder to ascending values for
    vectors.  Values that come back strictly ascending (always so for one
    block) need no reorder, and ``dstein``'s own buffer is returned.  Every
    buffer LAPACK sees is held by a local name until it returns.
    """
    d = np.ascontiguousarray(np.asarray_chkfinite(d), dtype=np.float64)
    e = np.ascontiguousarray(np.asarray_chkfinite(e), dtype=np.float64)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError("d must be 1-D and e one element shorter")
    n = d.size
    if n == 1:
        if lo < d[0] <= hi:
            return np.array([d[0]]), (np.array([[1.0]]) if with_vectors else None)
        return np.array([]), (np.empty((1, 0)) if with_vectors else None)
    c_int, c_double, ref = _LAPACK_INT, ctypes.c_double, ctypes.byref
    n_rows, il, iu, found, n_split, info = c_int(n), c_int(1), c_int(1), c_int(), c_int(), c_int()
    vl, vu, abstol = c_double(lo), c_double(hi), c_double(0.0)
    w = np.empty(n)
    iblock = np.empty(n, dtype=c_int)
    isplit = np.empty(n, dtype=c_int)
    work = np.empty(5 * n)  # dstebz needs 4n, dstein 5n
    iwork = np.empty(3 * n, dtype=c_int)  # dstebz needs 3n, dstein n
    _DSTEBZ(
        b"V", b"B" if with_vectors else b"E", ref(n_rows), ref(vl), ref(vu), ref(il), ref(iu),
        ref(abstol), d.ctypes.data, e.ctypes.data, ref(found), ref(n_split), w.ctypes.data,
        iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data, ref(info),
    )
    if info.value != 0:
        raise LinAlgError(f"dstebz failed (LAPACK info={info.value})")
    vals = w[: found.value]
    if not with_vectors:
        return vals.copy(), None  # a kept spectrum need not hold the n-row buffer
    z = np.empty((n, found.value), order="F")
    ifail = np.empty(found.value, dtype=c_int)
    _DSTEIN(
        ref(n_rows), d.ctypes.data, e.ctypes.data, ref(found), vals.ctypes.data,
        iblock.ctypes.data, isplit.ctypes.data, z.ctypes.data, ref(n_rows), work.ctypes.data,
        iwork.ctypes.data, ifail.ctypes.data, ref(info),
    )
    if info.value != 0:
        raise LinAlgError(f"dstein: {info.value} eigenvectors failed to converge")
    if np.all(vals[1:] > vals[:-1]):  # one block, or blocks already in order
        return vals.copy(), z
    order = np.argsort(vals)
    return vals[order], z[:, order]


def solve_mode(
    op: ModeOperator, lambda_cut: float, *, with_vectors: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """All eigenvalues of the pencil in (KERNEL_FLOOR, lambda_cut], ascending.

    Eigenvectors (when requested) come back on the pencil's rows only, an
    (op.hi - op.lo, k) array whose row i is grid row op.lo + i; they vanish
    on every other grid row.  They are mass-orthonormal,
    u_i^T M u_j = delta_ij, which the diagonal congruence gives for free
    from LAPACK's orthonormal vectors: those are scaled by mass^{-1/2} in
    place.
    """
    vals, vecs = _eigh_tridiagonal(op.d, op.e, KERNEL_FLOOR, lambda_cut, with_vectors)
    if with_vectors:
        vecs /= np.sqrt(op.mass)[:, None]
    return vals, vecs


def mode_cutoff(lambda_cut: float, max_weight: float) -> int:
    """Smallest M with M^2 > lambda_cut * max(w): the discrete Rayleigh bound
    lambda_min(m) >= m^2 / max(w) (stiffness = L + m^2 C with L psd against
    mass W C) proves every mode m >= M stays above the cutoff."""
    return int(math.floor(math.sqrt(lambda_cut * max_weight))) + 1


def worker_count() -> int:
    """Threads that a ``ModeQueue`` solves modes on: the CPUs this process
    may run on (all CPUs where the platform cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class ProbeModes:
    """A surface's eigenvectors as the off-diagonal heat kernel reads them:
    at two probe rows and through each mode's radial Gram matrix.

    ``rows`` = (i, i2) are the grid rows nearest the two probe radii, and
    ``distance`` is ``line_distance`` between their circles.  For each mode
    m with eigenvalues whose solved rows [lo, hi) hold both probe rows,
    ``modes[m]`` = (a, b, gram): the mass-normalised eigenvectors u_j at
    rows i and i2 (a_j = u_j(i), b_j = u_j(i2), length k) and the k x k
    radial Gram matrix

        gram[j, l] = sum_{lo <= r < hi} rw_r u_j(r) u_l(r),

    with rw_r = w_r cell_r the chart's radial weight (the lumped mass of row
    r).  Every other mode has no entry: its eigenvectors vanish at a probe.
    """

    rows: tuple[int, int]
    distance: float
    modes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)


@dataclass(eq=False)
class Eigensystem:
    """Eigenvalues (<= lambda_cut) of all angular modes of one surface.

    mode_eigenvalues[m] holds the ascending eigenvalues of mode m; angular
    multiplicity is 1 for m = 0 and 2 for m >= 1.  rows[m] = (lo, hi) is the
    range of grid rows that mode m was solved on.  ``probes`` (optional)
    holds what the off-diagonal heat kernel needs of the eigenvectors.
    ``vectors`` is always None: no eigenvector array outlives its mode's
    solve, and the field stays only because ``perfbench/tracer.py`` reads
    it.
    """

    profile: MetricProfile
    grid: Grid
    lambda_cut: float
    m_max: int
    mode_eigenvalues: dict[int, np.ndarray] = field(repr=False)
    rows: dict[int, tuple[int, int]] = field(repr=False)
    probes: ProbeModes | None = field(repr=False, default=None)
    vectors: None = field(repr=False, default=None)

    def multiplicity(self, m: int) -> int:
        return 1 if m == 0 else 2

    def eigenvalues_with_multiplicity(self) -> np.ndarray:
        parts = []
        for m in sorted(self.mode_eigenvalues):
            vals = self.mode_eigenvalues[m]
            parts.append(vals)
            if m > 0:
                parts.append(vals)
        if not parts:
            return np.empty(0)
        return np.sort(np.concatenate(parts), kind="stable")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("m,index,multiplicity,eigenvalue\n")
            for m in sorted(self.mode_eigenvalues):
                for j, lam in enumerate(self.mode_eigenvalues[m]):
                    fh.write(f"{m},{j},{self.multiplicity(m)},{float(lam)!r}\n")


def check_resolution(weights: np.ndarray, h: float, lambda_cut: float) -> None:
    """Raise ValueError unless a grid of spacing ``h`` with the weight
    ``weights`` on its nodes resolves the cutoff.

    The largest wavenumber admitted by the cutoff, k = sqrt(lambda_cut *
    max w), needs a few nodes per wavelength or the top of the requested
    window is pure discretization noise: the capacity k h may not exceed
    0.8 pi (2.5 nodes per wavelength).
    """
    capacity = math.sqrt(lambda_cut * float(np.max(weights))) * h
    if capacity > 0.8 * math.pi:
        raise ValueError(
            "lambda_cut exceeds grid resolution capacity: "
            f"sqrt(lambda_cut * max_w) * h = {capacity:.3f} "
            "> 0.8*pi (fewer than 2.5 nodes per wavelength at the cutoff); "
            "refine the grid or lower lambda_cut"
        )


def _set_up(profile: MetricProfile, grid: Grid, lambda_cut: float, probes):
    """A surface's weight on the grid, the ``agmon_window`` envelope of its
    modes m >= 1 and its ``_Pending`` (Rayleigh bound, witness mode, and
    the grid rows nearest the ``probes`` radii with their distance), after
    checking the weight, the grid's resolution capacity and the probes."""
    w = profile.weight(grid.nodes)
    if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("weight must be positive and finite on the grid")
    check_resolution(w, grid.h, lambda_cut)
    probe_rows = distance = None
    if probes is not None:
        probe_rows = tuple(nearest_row(grid, s) for s in probes)
        ends = [float(grid.nodes[i]) for i in probe_rows]
        distance = line_distance(profile, *ends)
    # Every mode m >= 1 solves within the rows of mode 1 (a cap end is
    # Dirichlet for all of them), so the Rayleigh bound needs the weight on
    # those rows only.
    lo, hi = mode_rows(grid, 1)
    max_weight = float(np.max(w[lo:hi]))
    top = mode_cutoff(lambda_cut, max_weight)
    pending = _Pending(max_weight, probe_rows, distance, [None] * (top + 1), top + 1)
    return w, _envelope(w[lo:hi], lambda_cut), pending


# Rows per block of a radial Gram sum: one weighted copy of a whole n x k
# eigenvector block would double the largest array a thread holds.
_GRAM_ROWS = 512


def _radial_gram(vecs: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """sum_r mass_r u_j(r) u_l(r) over the rows of ``vecs``, in blocks of
    ``_GRAM_ROWS`` rows."""
    gram = np.zeros((vecs.shape[1], vecs.shape[1]))
    for start in range(0, len(vecs), _GRAM_ROWS):
        block = vecs[start : start + _GRAM_ROWS]
        gram += block.T @ (mass[start : start + _GRAM_ROWS, None] * block)
    return gram


def _solve_one(profile, grid, w, envelope, m, top, lambda_cut, probe_rows):
    """Mode m on the ``agmon_window`` of its rows; the witness mode (m =
    top) on all of them.  ``envelope`` is the one of the modes m >= 1, whose
    rows are all the same; mode 0 (m^2 = 0) keeps its rows without reading
    it.  Returns the solved rows, the eigenvalues and the mode's
    ``ProbeModes`` entry: (a, b, gram) when the rows hold both
    ``probe_rows``, else None.  Only such a mode is solved with
    eigenvectors, and they are dropped on return."""
    lo, hi = mode_rows(grid, m)
    if m < top:
        a, b = agmon_window(w[lo:hi], grid.h, float(m * m), lambda_cut, envelope=envelope)
        lo, hi = lo + a, lo + b
    op = assemble_mode_operator(profile, m, grid, weights=w, rows=(lo, hi))
    probed = probe_rows is not None and all(lo <= i < hi for i in probe_rows)
    vals, vecs = solve_mode(op, lambda_cut, with_vectors=probed)
    if not (probed and len(vals)):
        return (lo, hi), vals, None
    at_i, at_i2 = (vecs[i - lo].copy() for i in probe_rows)
    # op.mass is the weight times the chart cell on each row: h, or h / 2
    # at a grid end.
    return (lo, hi), vals, (at_i, at_i2, _radial_gram(vecs, op.mass))


@dataclass(eq=False)
class _Pending:
    """A set-up surface: its Rayleigh bound, its probe rows and their
    distance (None without probes), the outcome of each mode m
    (``_solve_one``'s result or the exception it raised) and the number of
    modes still unsolved."""

    max_weight: float
    probe_rows: tuple[int, int] | None
    distance: float | None
    modes: list
    unsolved: int


class ModeQueue:
    """Every angular mode of a list of surfaces, solved on one set of
    ``worker_count()`` threads.

    ``surfaces`` holds (profile, grid) pairs.  The tasks are (surface, m):
    the surfaces in list order and, within each, m = 0 .. witness in
    ascending order, which is close to largest first.  The threads take
    them one at a time with no barrier between surfaces; the thread that
    takes a surface's first task sets the surface up (weight check,
    capacity guard, probe rows, witness mode, Agmon envelope).  ``result(i)``
    waits for surface i's last mode and merges its modes in m order.  An
    exception raised by a surface's set-up, a mode solve (the lowest failing
    m) or the witness check belongs to that surface alone: ``result`` raises
    it unchanged.

    ``probes`` = (s_y, s_y2), two radii on every surface's chart, makes each
    system carry a ``ProbeModes`` record at the rows nearest them.

    The tasks are not ``concurrent.futures`` futures: a future per mode
    costs about 14 us of held GIL and 1.6 kB, and on a sweep of about a
    thousand modes that made the run 6% slower and 1.7 MB larger.

    Use it as a context manager: entering holds numpy's OpenBLAS at one
    thread and starts the threads, and leaving, normally or by an
    exception, stops handing out tasks, joins every thread and restores the
    OpenBLAS thread count before it returns.
    """

    def __init__(self, surfaces, lambda_cut: float, *, probes: tuple[float, float] | None = None):
        if not (math.isfinite(lambda_cut) and lambda_cut > 0):
            raise ValueError(f"lambda_cut must be positive and finite, got {lambda_cut!r}")
        self._surfaces = list(surfaces)
        self._lambda_cut = lambda_cut
        self._probes = None if probes is None else tuple(float(s) for s in probes)
        # per surface: its set-up error or its _Pending, once set up
        self._states: list = [None] * len(self._surfaces)
        self._done = [threading.Event() for _ in self._surfaces]
        self._lock = threading.Lock()  # guards _tasks and every _Pending
        self._tasks = self._stream()
        self._threads: list[threading.Thread] = []
        self._running = False
        self._blas_threads = None  # numpy's OpenBLAS thread count on entry

    def __enter__(self) -> "ModeQueue":
        self._running = True
        try:
            if _BLAS_THREADS is not None:
                get_threads, set_threads = _BLAS_THREADS
                self._blas_threads = get_threads()
                set_threads(1)
            for _ in range(worker_count()):
                thread = threading.Thread(target=self._work)
                thread.start()
                self._threads.append(thread)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._tasks = iter(())
        for thread in self._threads:
            thread.join()
        if self._blas_threads is not None:
            _BLAS_THREADS[1](self._blas_threads)
            self._blas_threads = None
        self._running = False

    def result(self, index: int) -> Eigensystem:
        """Surface ``index``'s system, once its last mode is solved."""
        done = self._done[index]
        if not (done.is_set() or self._running):
            raise RuntimeError("the mode queue is not running")
        done.wait()
        state = self._states[index]
        if isinstance(state, BaseException):
            raise state
        for outcome in state.modes:
            if isinstance(outcome, BaseException):
                raise outcome
        top = len(state.modes) - 1
        if len(state.modes[top][1]) != 0:
            raise RuntimeError(
                f"mode cutoff violated: mode {top} has eigenvalues below "
                f"{self._lambda_cut} (max weight {state.max_weight:.6g})"
            )
        profile, grid = self._surfaces[index]
        probes = None
        if state.probe_rows is not None:
            probes = ProbeModes(
                rows=state.probe_rows,
                distance=state.distance,
                modes={m: kept for m, (_, _, kept) in enumerate(state.modes) if kept is not None},
            )
        return Eigensystem(
            profile=profile,
            grid=grid,
            lambda_cut=float(self._lambda_cut),
            m_max=top,
            mode_eigenvalues={m: vals for m, (_, vals, _) in enumerate(state.modes)},
            rows={m: rows for m, (rows, _, _) in enumerate(state.modes)},
            probes=probes,
        )

    def _stream(self):
        """The tasks (surface index, m, weight, envelope) in queue order;
        each surface is set up when its first task is taken."""
        for i, (profile, grid) in enumerate(self._surfaces):
            try:
                w, envelope, self._states[i] = _set_up(
                    profile, grid, self._lambda_cut, self._probes
                )
            except BaseException as exc:
                self._states[i] = exc
                self._done[i].set()
                continue
            for m in range(len(self._states[i].modes)):
                yield i, m, w, envelope

    def _work(self) -> None:
        while True:
            with self._lock:
                task = next(self._tasks, None)
            if task is None:
                return
            i, m, w, envelope = task
            state, (profile, grid) = self._states[i], self._surfaces[i]
            top = len(state.modes) - 1
            try:
                outcome = _solve_one(
                    profile, grid, w, envelope, m, top, self._lambda_cut, state.probe_rows
                )
            except BaseException as exc:
                outcome = exc
            with self._lock:
                state.modes[m] = outcome
                state.unsolved -= 1
                if state.unsolved == 0:
                    self._done[i].set()


def solve_modes(
    profile: MetricProfile,
    grid: Grid,
    lambda_cut: float,
    *,
    probes: tuple[float, float] | None = None,
) -> Eigensystem:
    """Solve every angular mode up to the cutoff (inclusive witness mode):
    the one-surface case of ``ModeQueue``, with its ``probes``.

    Each mode m < top is solved on the ``agmon_window`` of its
    ``mode_rows``: the rows within discrete Agmon distance ``AGMON_MARGIN``
    of {lambda_cut w >= m^2}, cut by Dirichlet rows.  Mode 0 (whose allowed
    set is every row) and any mode with an empty allowed set keep all of
    their rows.  The first provably empty mode (m = top = mode_cutoff) is
    solved on all of its rows as a runtime witness and must come back empty;
    a nonempty witness means the cutoff logic is broken and raises.

    The modes run on a ``ModeQueue`` of ``worker_count()`` threads; the
    result is bitwise the same for any thread count, and an exception raised
    by a mode's solve (the lowest failing m) propagates unchanged.
    """
    with ModeQueue([(profile, grid)], lambda_cut, probes=probes) as queue:
        return queue.result(0)
