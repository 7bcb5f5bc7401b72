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
end's, under the end conditions of the surface's profile, where a 'cap' end
is Neumann for m = 0 and Dirichlet otherwise; it is the one reader of the
end conditions.  The pencil is assembled on its range only.  Each grid
end's row has a half cell, which only a range carrying that end reaches; a
range that stops short of a grid end is cut by a Dirichlet row.

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
pencil is assembled on the window's rows alone.  The parts of the pencil
that no mode changes belong to the ``Surface``, built (and its weight
checked) once when it is made: each row's lumped mass, w h or, at either
grid end, the half cell w h / 2, and the off-diagonal between every two
rows, on the whole grid and read-only; it reads no end condition.  A mode's
pencil takes views of its rows and computes only its diagonal, (2/h + m^2 h)
/ mass, or (1/h + m^2 h / 2) / mass on a grid end's row.

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
fallback imports scipy.  A call runs on a ``_Workspace``: the buffers LAPACK
writes, its ctypes scalars and the argument tuples of their addresses,
made once and reused, so a call sets n, vl and vu, passes the addresses of
d and e, and copies the eigenvalues out.

Those threads are a ``ModeQueue``: a pool of ``worker_count()`` threads
that takes the (surface, m) tasks of a whole list of ``Surface``s first in,
first out (the surfaces in list order, ascending m within each), with no
barrier between surfaces; a surface's modes are merged in m order when its
result is taken.  A ``Surface`` is the one object of a discretized
surface: a profile (whose end conditions every mode reads), its grid
nodes, its weight sampled once on them and its pencil, all made when it is
made; the queue sets each surface up from them, never samples the weight
again, and hands each surface's ``Eigensystem`` the ``Surface`` itself.
Each thread runs its values-only solves on its own workspace, which lives
as long as the thread.
``solve_modes`` is its one-surface case.  Every mode's result is
independent of the thread that solved it, and the queue holds numpy's
OpenBLAS at one thread while it runs: ``dstein``'s level-1 BLAS splits long
vectors across OpenBLAS threads, which would make eigenvectors of more than
about 10,000 rows follow the machine's CPU count.

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
import traceback
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .geometry import MetricProfile

__all__ = [
    "Surface",
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
    "worker_count",
]

_BC = ("dirichlet", "neumann", "cap")
KERNEL_FLOOR = -1e-9  # lower edge of the bisection window; catches exact kernels
AGMON_MARGIN = 20.0  # discrete Agmon distance kept past the allowed set per mode


def make_grid(profile: MetricProfile, n_nodes: int) -> np.ndarray:
    """Uniform n_nodes grid spanning the profile chart (endpoints included):
    the nodes of a ``Surface`` of the profile."""
    return np.linspace(profile.s_min, profile.s_max, n_nodes)


@dataclass(frozen=True, eq=False)
class Surface:
    """One discretized surface: a profile, the uniform grid ``nodes`` it is
    solved on, and the parts of its pencils that no mode changes, all built
    once when it is made: what ``assemble_mode_operator`` assembles, a
    ``ModeQueue`` solves and an ``Eigensystem`` carries.

    The grid needs at least 8 nodes at uniform spacing (to 1e-14 of its
    largest coordinate, or of 1), and the profile's end conditions must be
    'dirichlet', 'neumann' or 'cap' (ValueError otherwise); ``mode_rows``
    is their one reader.  ``nodes`` is made read-only, ``n`` is its length
    and ``h`` the spacing.  ``weights`` is the profile's weight sampled
    once on ``nodes``, which must be positive and finite there (ValueError
    otherwise).  ``mass`` is each row's lumped mass: w h on a full cell,
    and w h / 2 on the half cell at each grid end.  ``e`` is the
    off-diagonal (-1/h) / sqrt(mass_i mass_{i+1}) between rows i and
    i + 1.  A Dirichlet end's row is carried by no mode, so its ``mass``
    and the ``e`` beside it are never read.  ``weights``, ``mass`` and
    ``e`` are read-only and shared by every mode.
    """

    ROW_BYTES = 3 * 8  # weights, mass and e per row: a plan's memory count

    profile: MetricProfile
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    h: float = field(init=False)
    mass: np.ndarray = field(init=False, repr=False)
    e: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        profile, nodes = self.profile, self.nodes
        if profile.bc_left not in _BC or profile.bc_right not in _BC:
            raise ValueError(f"boundary conditions must be one of {_BC}")
        if len(nodes) < 8:
            raise ValueError("grid needs at least 8 nodes")
        steps = np.diff(nodes)
        scale = max(1.0, abs(float(nodes[0])), abs(float(nodes[-1])))
        if np.max(np.abs(steps - steps[0])) > 1e-14 * scale:
            raise ValueError("grid spacing must be uniform")
        nodes.setflags(write=False)
        # A weight that overflows is rejected by name below, not warned of.
        with np.errstate(over="ignore", invalid="ignore"):
            w = profile.weight(nodes)
        if not (w.min() > 0.0 and w.max() < math.inf):  # a NaN fails the first test
            raise ValueError("weight must be positive and finite on the grid")
        h = float(nodes[1] - nodes[0])
        mass = w * h
        mass[0], mass[-1] = w[0] * (h / 2.0), w[-1] * (h / 2.0)
        e = (-1.0 / h) / np.sqrt(mass[:-1] * mass[1:])
        for array in (w, mass, e):
            array.setflags(write=False)
        for name, value in (("weights", w), ("h", h), ("mass", mass), ("e", e)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.nodes)


def nearest_row(surface: Surface, s: float) -> int:
    """The grid row of ``surface`` nearest the radius ``s``, which must lie
    on the chart (to 1e-12)."""
    nodes = surface.nodes
    if s < nodes[0] - 1e-12 or s > nodes[-1] + 1e-12:
        raise ValueError(f"point s={s} outside the chart [{nodes[0]}, {nodes[-1]}]")
    return int(np.argmin(np.abs(nodes - s)))


def mode_rows(surface: Surface, m: int) -> tuple[int, int]:
    """Grid rows [lo, hi) that mode m carries: every node but a Dirichlet
    end's, under the end conditions of ``surface.profile``.

    A 'cap' end is Neumann for m = 0 (no flux through the smooth tip
    closure) and Dirichlet for m != 0 (those modes decay like e^{-m s} down
    the tip, so the far truncation error is ~ e^{-2 m s_max}).
    """
    if m < 0:
        raise ValueError("mode index must be nonnegative")
    bc_left, bc_right = surface.profile.bc_left, surface.profile.bc_right
    keep_left = bc_left == "neumann" or (bc_left == "cap" and m == 0)
    keep_right = bc_right == "neumann" or (bc_right == "cap" and m == 0)
    return (0 if keep_left else 1), (surface.n if keep_right else surface.n - 1)


@dataclass(frozen=True)
class ModeOperator:
    """Mode m's pencil on grid rows [lo, hi) of ``surface``: the lumped
    ``mass`` and the symmetric tridiagonal (d, e) that the congruence by
    mass^{-1/2} turns the stiffness into.  ``mass`` and ``e`` are
    read-only views of the surface's rows."""

    surface: Surface
    m: int
    lo: int
    hi: int
    d: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)


def assemble_mode_operator(
    surface: Surface,
    m: int,
    *,
    rows: tuple[int, int] | None = None,
    m2_value: float | None = None,
) -> ModeOperator:
    """Assemble the pencil of ``surface`` for mode m on grid rows ``rows``
    = (lo, hi), ``mode_rows(surface, m)`` by default; a narrower range
    is cut by Dirichlet rows.

    ``m2_value`` replaces the exact angular symbol m^2 (used for
    discretization-matched comparisons against 2D stencils, where the
    five-point angular symbol (4/h^2) sin^2(m h / 2) is substituted).

    Only the diagonal depends on the mode: d = (2/h + m^2 h) / mass, and
    (1/h + m^2 h / 2) / mass on a grid end's row, which has one neighbour
    and the half cell the surface's ``mass`` holds.  ``mass`` and ``e`` are
    views of the surface's rows for every range.
    """
    carried = mode_rows(surface, m)
    lo, hi = carried if rows is None else rows
    if not carried[0] <= lo < hi <= carried[1]:
        raise ValueError(f"rows [{lo}, {hi}) must lie within mode {m}'s rows {carried}")
    h = surface.h
    m2 = float(m * m) if m2_value is None else float(m2_value)
    mass, e = surface.mass[lo:hi], surface.e[lo : hi - 1]
    d = np.divide(2.0 / h + m2 * h, mass)
    for at, reached in ((0, lo == 0), (-1, hi == surface.n)):
        if reached:
            d[at] = (1.0 / h + m2 * (h / 2.0)) / mass[at]
    return ModeOperator(surface=surface, m=m, lo=lo, hi=hi, d=d, e=e, mass=mass)


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


class _Workspace:
    """One thread's LAPACK buffers and arguments for tridiagonal problems
    of up to ``rows`` rows, reused call after call.

    It holds ``dstebz``'s outputs ``w``, ``iblock`` and ``isplit``, the
    ``work`` and ``iwork`` arrays both routines share, and the ctypes
    scalars, all with the LAPACK integer type bound when it was made.  The
    argument tuples hold the addresses of all of them, so a call sets only
    n, vl and vu and passes the addresses of d and e.  ``fit(n)`` grows the
    buffers for a larger problem.  A workspace is not shared between
    threads.
    """

    def __init__(self, rows: int):
        c_int, c_double = _LAPACK_INT, ctypes.c_double
        self.int_type = np.dtype(c_int)
        self.n, self.found, self.info = c_int(), c_int(), c_int()
        self.vl, self.vu = c_double(), c_double()
        # il, iu (unused with RANGE='V'), the split count and ABSTOL = 0
        self._fixed = (c_int(1), c_int(1), c_int(), c_double(0.0))
        self.rows = 0
        self.fit(rows)

    def fit(self, rows: int) -> "_Workspace":
        """This workspace, its buffers grown to hold ``rows`` rows."""
        if rows <= self.rows:
            return self
        int_type, at = self.int_type, ctypes.addressof
        self.rows = rows
        self.w = np.empty(rows)
        self.iblock = np.empty(rows, dtype=int_type)
        self.isplit = np.empty(rows, dtype=int_type)
        self.work = np.empty(5 * rows)  # dstebz needs 4n, dstein 5n
        self.iwork = np.empty(3 * rows, dtype=int_type)  # dstebz needs 3n, dstein n
        il, iu, n_split, abstol = self._fixed
        self.n_address, self.info_address = n, info = at(self.n), at(self.info)
        found = at(self.found)
        buffers = (self.w, self.iblock, self.isplit, self.work, self.iwork)
        w, iblock, isplit, work, iwork = (a.ctypes.data for a in buffers)
        # dstebz's arguments N to ABSTOL (before D and E) and M to INFO
        self.stebz_head = (n, at(self.vl), at(self.vu), at(il), at(iu), at(abstol))
        self.stebz_tail = (found, at(n_split), w, iblock, isplit, work, iwork, info)
        # dstein's arguments M to ISPLIT (between E and Z) and LDZ to IWORK
        self.stein_middle = (found, w, iblock, isplit)
        self.stein_tail = (n, work, iwork)
        return self


def _eigh_tridiagonal(
    d: np.ndarray,
    e: np.ndarray,
    lo: float,
    hi: float,
    with_vectors: bool,
    workspace: _Workspace | None = None,
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
    block) need no reorder, and ``dstein``'s own buffer is returned.

    LAPACK runs on ``workspace`` (grown to fit), or on a one-shot one
    without it; d and e are read where they are, and the returned arrays
    never alias the workspace.
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
    ws = _Workspace(n) if workspace is None else workspace.fit(n)
    ws.n.value, ws.vl.value, ws.vu.value = n, lo, hi
    d_address, e_address = d.ctypes.data, e.ctypes.data
    job = b"B" if with_vectors else b"E"  # ORDER: by block (for dstein) or entire matrix
    _DSTEBZ(b"V", job, *ws.stebz_head, d_address, e_address, *ws.stebz_tail)
    if ws.info.value != 0:
        raise LinAlgError(f"dstebz failed (LAPACK info={ws.info.value})")
    vals = ws.w[: ws.found.value]
    if not with_vectors:
        return vals.copy(), None
    z = np.empty((n, len(vals)), order="F")
    ifail = np.empty(len(vals), dtype=ws.int_type)
    _DSTEIN(
        ws.n_address, d_address, e_address, *ws.stein_middle, z.ctypes.data, *ws.stein_tail,
        ifail.ctypes.data, ws.info_address,
    )
    if ws.info.value != 0:
        raise LinAlgError(f"dstein: {ws.info.value} eigenvectors failed to converge")
    if np.all(vals[1:] > vals[:-1]):  # one block, or blocks already in order
        return vals.copy(), z
    order = np.argsort(vals)
    return vals[order], z[:, order]


def solve_mode(
    op: ModeOperator,
    lambda_cut: float,
    *,
    with_vectors: bool = False,
    workspace: _Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """All eigenvalues of the pencil in (KERNEL_FLOOR, lambda_cut], ascending.

    Eigenvectors (when requested) come back on the pencil's rows only, an
    (op.hi - op.lo, k) array whose row i is grid row op.lo + i; they vanish
    on every other grid row.  They are mass-orthonormal,
    u_i^T M u_j = delta_ij, which the diagonal congruence gives for free
    from LAPACK's orthonormal vectors: those are scaled by mass^{-1/2} in
    place.

    ``workspace`` is the calling thread's LAPACK workspace (a
    ``ModeQueue`` worker's own); without it the solve makes a one-shot one.
    """
    vals, vecs = _eigh_tridiagonal(op.d, op.e, KERNEL_FLOOR, lambda_cut, with_vectors, workspace)
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

    ``rows`` = (i, i2) are the grid rows nearest the two probe radii.  For
    each mode m with eigenvalues whose solved rows [lo, hi) hold both probe
    rows, ``modes[m]`` = (a, b, gram): the mass-normalised eigenvectors u_j
    at rows i and i2 (a_j = u_j(i), b_j = u_j(i2), length k) and the k x k
    radial Gram matrix

        gram[j, l] = sum_{lo <= r < hi} rw_r u_j(r) u_l(r),

    with rw_r = w_r cell_r the chart's radial weight (the lumped mass of row
    r).  Every other mode has no entry: its eigenvectors vanish at a probe.
    """

    rows: tuple[int, int]
    modes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)


@dataclass(eq=False)
class Eigensystem:
    """Eigenvalues (<= lambda_cut) of all angular modes of ``surface``, the
    ``Surface`` they were solved on (its profile, nodes and weights).

    mode_eigenvalues[m] holds the ascending eigenvalues of mode m; angular
    multiplicity is 1 for m = 0 and 2 for m >= 1.  rows[m] = (lo, hi) is the
    range of grid rows that mode m was solved on.  ``probes`` (optional)
    holds what the off-diagonal heat kernel needs of the eigenvectors.
    ``vectors`` is always None: no eigenvector array outlives its mode's
    solve, and the field stays only because ``perfbench/tracer.py`` reads
    it.
    """

    surface: Surface
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
            parts += [self.mode_eigenvalues[m]] * self.multiplicity(m)
        if not parts:
            return np.empty(0)
        return np.sort(np.concatenate(parts), kind="stable")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("m,index,multiplicity,eigenvalue\n")
            for m in sorted(self.mode_eigenvalues):
                for j, lam in enumerate(self.mode_eigenvalues[m]):
                    fh.write(f"{m},{j},{self.multiplicity(m)},{float(lam)!r}\n")


def check_resolution(surface: Surface, lambda_cut: float) -> None:
    """Raise ValueError unless the grid of ``surface`` resolves the cutoff
    under its weight.

    The largest wavenumber admitted by the cutoff, k = sqrt(lambda_cut *
    max w), needs a few nodes per wavelength or the top of the requested
    window is pure discretization noise: the capacity k h may not exceed
    0.8 pi (2.5 nodes per wavelength).
    """
    capacity = math.sqrt(lambda_cut * float(np.max(surface.weights))) * surface.h
    if capacity > 0.8 * math.pi:
        raise ValueError(
            "lambda_cut exceeds grid resolution capacity: "
            f"sqrt(lambda_cut * max_w) * h = {capacity:.3f} "
            "> 0.8*pi (fewer than 2.5 nodes per wavelength at the cutoff); "
            "refine the grid or lower lambda_cut"
        )


def _set_up(surface: Surface, lambda_cut: float, probes) -> "_Pending":
    """A surface's ``_Pending`` (Rayleigh bound, witness mode, the
    ``agmon_window`` envelope of its modes m >= 1, and the grid rows nearest
    the ``probes`` radii), after checking the grid's resolution capacity
    and the probes."""
    w = surface.weights
    check_resolution(surface, lambda_cut)
    probe_rows = None if probes is None else tuple(nearest_row(surface, s) for s in probes)
    # Every mode m >= 1 solves within the rows of mode 1 (a cap end is
    # Dirichlet for all of them), so the Rayleigh bound needs the weight on
    # those rows only.
    lo, hi = mode_rows(surface, 1)
    max_weight = float(np.max(w[lo:hi]))
    top = mode_cutoff(lambda_cut, max_weight)
    envelope = _envelope(w[lo:hi], lambda_cut)
    return _Pending(max_weight, envelope, probe_rows, [None] * (top + 1), top + 1)


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


def _solve_one(surface, state, m, lambda_cut, workspace):
    """Mode m of ``surface`` on the ``agmon_window`` of its rows; the
    witness mode (the last of ``state.modes``) on all of them.  ``state``
    is the surface's ``_Pending``, whose envelope is the one of the modes
    m >= 1, whose rows are all the same; mode 0 (m^2 = 0) keeps its rows
    without reading it.  A values-only solve runs LAPACK on ``workspace``,
    the calling thread's.
    Returns the solved rows, the eigenvalues and the mode's ``ProbeModes``
    entry: (a, b, gram) when the rows hold both ``state.probe_rows``, else
    None.  Only such a mode is solved with eigenvectors, and they are
    dropped on return."""
    lo, hi = mode_rows(surface, m)
    if m < len(state.modes) - 1:
        rows = surface.weights[lo:hi]
        a, b = agmon_window(rows, surface.h, float(m * m), lambda_cut, envelope=state.envelope)
        lo, hi = lo + a, lo + b
    op = assemble_mode_operator(surface, m, rows=(lo, hi))
    probe_rows = state.probe_rows
    probed = probe_rows is not None and all(lo <= i < hi for i in probe_rows)
    # A solve with eigenvectors makes a one-shot workspace, freed before its
    # n x k block is scaled and summed: kept, the worker's would add to the
    # memory those steps need.
    vals, vecs = solve_mode(
        op, lambda_cut, with_vectors=probed, workspace=None if probed else workspace
    )
    if not (probed and len(vals)):
        return (lo, hi), vals, None
    at_i, at_i2 = (vecs[i - lo].copy() for i in probe_rows)
    # op.mass is the surface's mass on these rows: the weight times the
    # chart cell, h, or h / 2 on a grid end's row.
    return (lo, hi), vals, (at_i, at_i2, _radial_gram(vecs, op.mass))


@dataclass(eq=False)
class _Pending:
    """A set-up surface: its Rayleigh bound, the ``agmon_window`` envelope
    of its modes m >= 1, its probe rows (None without probes), the outcome
    of each mode m (``_solve_one``'s result or the exception it raised) and
    the number of modes still unsolved."""

    max_weight: float
    envelope: np.ndarray = field(repr=False)
    probe_rows: tuple[int, int] | None
    modes: list
    unsolved: int


class ModeQueue:
    """Every angular mode of a list of ``Surface``s, solved on one set of
    ``worker_count()`` threads.

    The tasks are (surface, m): the surfaces in list order and, within
    each, m = 0 .. witness in ascending order, which is close to largest
    first.  The threads take them one at a time with no barrier between
    surfaces; the thread that takes a surface's first task sets the surface
    up from its sampled weight (capacity guard, probe rows, witness mode,
    Agmon envelope) into its ``_Pending``, which every task of the surface
    reads.  Each thread assembles and solves its modes, on the pencil the
    ``Surface`` built, through ``assemble_mode_operator`` and ``solve_mode``,
    the values-only solves on a LAPACK workspace of its own, sized to the
    largest grid, which the thread drops when the queue stops.
    ``result(i)`` waits for surface i's last mode and merges its modes in m
    order into an ``Eigensystem`` that carries surface i itself.  An
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
        self._surfaces: list[Surface] = list(surfaces)
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
        # A failed mode's traceback keeps its worker's frames and their
        # locals (the LAPACK workspace, the operator).  Now that every such
        # frame has finished, clear them; the text stays.
        for state in self._states:
            for outcome in getattr(state, "modes", ()):
                if isinstance(outcome, BaseException):
                    traceback.clear_frames(outcome.__traceback__)
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
        probes = None
        if state.probe_rows is not None:
            probes = ProbeModes(
                rows=state.probe_rows,
                modes={m: kept for m, (_, _, kept) in enumerate(state.modes) if kept is not None},
            )
        return Eigensystem(
            surface=self._surfaces[index],
            lambda_cut=float(self._lambda_cut),
            m_max=top,
            mode_eigenvalues={m: vals for m, (_, vals, _) in enumerate(state.modes)},
            rows={m: rows for m, (rows, _, _) in enumerate(state.modes)},
            probes=probes,
        )

    def _stream(self):
        """The tasks (surface index, m) in queue order; each surface is set
        up when its first task is taken."""
        for i, surface in enumerate(self._surfaces):
            try:
                self._states[i] = _set_up(surface, self._lambda_cut, self._probes)
            except BaseException as exc:
                self._states[i] = exc
                self._done[i].set()
                continue
            for m in range(len(self._states[i].modes)):
                yield i, m

    def _work(self) -> None:
        # This thread's LAPACK workspace, sized to the largest grid; it dies
        # with the thread.
        workspace = _Workspace(max((s.n for s in self._surfaces), default=1))
        while True:
            with self._lock:
                task = next(self._tasks, None)
            if task is None:
                return
            i, m = task
            state = self._states[i]
            try:
                outcome = _solve_one(self._surfaces[i], state, m, self._lambda_cut, workspace)
            except BaseException as exc:
                outcome = exc
            with self._lock:
                state.modes[m] = outcome
                state.unsolved -= 1
                if state.unsolved == 0:
                    self._done[i].set()


def solve_modes(
    profile: MetricProfile,
    nodes: np.ndarray,
    lambda_cut: float,
    *,
    probes: tuple[float, float] | None = None,
) -> Eigensystem:
    """Solve every angular mode up to the cutoff (inclusive witness mode) of
    ``Surface(profile, nodes)``: the one-surface case of ``ModeQueue``,
    with its ``probes``.

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
    with ModeQueue([Surface(profile, nodes)], lambda_cut, probes=probes) as queue:
        return queue.result(0)
