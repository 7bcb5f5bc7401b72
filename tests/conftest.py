"""Shared fixtures: repo paths and a couple of small solved surfaces.

The heavy end-to-end scenario runs live in test_acceptance.py with module
scope; everything here is cheap enough to build per session without caching
artifacts on disk.
"""
from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from relspec.discretize import make_grid, solve_modes  # noqa: E402
from relspec.geometry import (  # noqa: E402
    BumpSpec,
    EndModel,
    SurfaceSpec,
    Truncation,
    build_weight,
    flat_cylinder,
)


def same_probes(one, other) -> bool:
    """Two ``ProbeModes`` records (or None) with equal rows and bitwise
    equal kept arrays, dtype and shape included."""
    if one is None or other is None:
        return one is other

    def same(x, y):
        return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)

    return (
        one.rows == other.rows
        and one.modes.keys() == other.modes.keys()
        and all(same(x, y) for m in one.modes for x, y in zip(one.modes[m], other.modes[m]))
    )


@pytest.fixture(scope="session")
def repo_root() -> pathlib.Path:
    return ROOT


@pytest.fixture(scope="session")
def configs_dir(repo_root) -> pathlib.Path:
    return repo_root / "configs"


def small_truncation() -> Truncation:
    """Short ends so unit tests stay in the milliseconds range."""
    return Truncation(funnel_depth=0.8, cusp_end=6.0, cap_end=6.0)


def funnel_cusp_spec(bump: BumpSpec | None = None, core_length: float = 0.45) -> SurfaceSpec:
    return SurfaceSpec(
        left_end=EndModel(kind="funnel"),
        right_end=EndModel(kind="cusp"),
        core_length=core_length,
        bump=bump,
    )


def funnel_cap_spec(cap_epsilon: float, bump: BumpSpec | None = None) -> SurfaceSpec:
    return SurfaceSpec(
        left_end=EndModel(kind="funnel"),
        right_end=EndModel(kind="filled_cap", cap_epsilon=cap_epsilon),
        core_length=0.45,
        bump=bump,
    )


@pytest.fixture(scope="session")
def small_bump() -> BumpSpec:
    return BumpSpec(center=0.35, radius=0.09, amplitude=0.3)


@pytest.fixture(scope="session")
def small_pair(small_bump):
    """Bump-vs-plain funnel+cusp pair on short ends (shared chart)."""
    tr = small_truncation()
    a = build_weight(funnel_cusp_spec(small_bump), truncation=tr)
    b = build_weight(funnel_cusp_spec(None), truncation=tr)
    return a, b


@pytest.fixture(scope="session")
def small_systems(small_pair):
    """The small pair solved at a light cutoff on one shared grid."""
    a, b = small_pair
    grid = make_grid(a, 900)
    return solve_modes(a, grid, 25.0), solve_modes(b, grid, 25.0)


@pytest.fixture(scope="session")
def flat_system():
    """Flat Dirichlet cylinder [0, pi] x S^1 solved to lambda = 30."""
    flat = flat_cylinder()
    grid = make_grid(flat, 2000)
    return solve_modes(flat, grid, 30.0)
