"""Weights, surgery factors, areas and distances.

The numeric constants in the "frozen" tests were computed with mpmath at 50
digits from the closed-form definitions and are pinned here so any silent
change to the formulas shows up as a hard failure.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relspec.geometry import (
    BumpSpec,
    EndModel,
    SurfaceSpec,
    Truncation,
    build_weight,
    cap_tip_constant,
    flat_cylinder,
    line_distance,
    plateau_cutoff,
    relative_area,
    smooth01,
    surgery_factor_boundary,
    surgery_factor_point,
)

from conftest import ROOT, funnel_cap_spec, funnel_cusp_spec, small_truncation


# ----------------------------------------------------------------------------
# cutoff profiles
# ----------------------------------------------------------------------------

def test_smooth01_endpoints_exact():
    assert smooth01(-1.0) == 0.0
    assert smooth01(0.0) == 0.0
    assert smooth01(1.0) == 1.0
    assert smooth01(2.0) == 1.0
    assert smooth01(0.5) == 0.5


def test_smooth01_monotone():
    u = np.linspace(-0.5, 1.5, 801)
    v = smooth01(u)
    assert np.all(np.diff(v) >= 0.0)


def test_plateau_cutoff_plateaus_exact():
    assert plateau_cutoff(0.0) == 1.0
    assert plateau_cutoff(0.25) == 1.0
    assert plateau_cutoff(0.5) == 0.0
    assert plateau_cutoff(3.0) == 0.0
    mid = plateau_cutoff(0.375)
    assert 0.0 < mid < 1.0


# ----------------------------------------------------------------------------
# point surgery factor
# ----------------------------------------------------------------------------

POINT_FROZEN = [
    # (epsilon, r, psi) -- mpmath, 50 digits
    (0.1, 0.1, 0.61279720276287362998),
    (0.5, 0.3, 0.41015365201000507660),
    (0.2, 0.35, 0.84664482145052116285),
    (1.0, 0.01, 0.0021207592388894611114),
]


@pytest.mark.parametrize("eps,r,expected", POINT_FROZEN)
def test_point_factor_frozen_values(eps, r, expected):
    got = surgery_factor_point(eps, r)
    assert got == pytest.approx(expected, rel=1e-14)


def test_point_factor_plateau_and_degenerate_cases():
    # identically 1 once r leaves the surgery region, for every epsilon
    assert surgery_factor_point(0.3, 0.6) == 1.0
    assert surgery_factor_point(1.0, 0.5) == 1.0
    # epsilon = 0 is the unsurgered surface: factor 1 everywhere
    assert surgery_factor_point(0.0, 1e-8) == 1.0
    assert surgery_factor_point(0.0, 0.2) == 1.0
    # the cap closes the puncture: weight factor vanishes at r = 0
    assert surgery_factor_point(0.4, 0.0) == 0.0


def test_point_factor_rejects_bad_arguments():
    with pytest.raises(ValueError):
        surgery_factor_point(-0.1, 0.2)
    with pytest.raises(ValueError):
        surgery_factor_point(1.5, 0.2)
    with pytest.raises(ValueError):
        surgery_factor_point(0.3, -1e-3)
    with pytest.raises(ValueError):
        surgery_factor_point(0.0, 0.0)
    # eps^2 underflow: the formula cannot be evaluated, and saying so beats
    # returning NaN (which 0 * NaN would leak through the plateau)
    with pytest.raises(ValueError, match="resolution"):
        surgery_factor_point(1e-199, 1.0)
    with pytest.raises(ValueError, match="resolution"):
        cap_tip_constant(1e-199)


@given(
    eps=st.floats(min_value=0.0, max_value=1.0),
    r=st.floats(min_value=1e-12, max_value=8.0),
)
@settings(max_examples=200, deadline=None)
def test_point_factor_bounded_by_one(eps, r):
    # The denominator dominates the numerator for every cap size, so the
    # surgered weight never exceeds the cusp weight it replaces.
    assume(eps == 0.0 or eps * eps > 0.0)  # inside floating-point resolution
    psi = surgery_factor_point(eps, r)
    assert 0.0 < psi <= 1.0


def test_point_factor_vectorized_matches_scalar():
    r = np.array([0.05, 0.1, 0.3, 0.49, 0.7])
    vec = surgery_factor_point(0.25, r)
    scl = np.array([surgery_factor_point(0.25, ri) for ri in r])
    assert np.array_equal(vec, scl)


# ----------------------------------------------------------------------------
# boundary surgery factor
# ----------------------------------------------------------------------------

BOUNDARY_FROZEN = [
    # (epsilon, r, f_value, psi, rel_tol) -- mpmath, 50 digits
    (0.05, 0.05, 0.0, 200.0, 1e-13),
    (0.3, 0.3, -0.2, 5.4707285791388147703, 1e-13),
    (0.1, 0.2, 0.5, 12.130613194252668472, 1e-13),
]


@pytest.mark.parametrize("eps,r,f,expected,rel", BOUNDARY_FROZEN)
def test_boundary_factor_frozen_values(eps, r, f, expected, rel):
    got = surgery_factor_boundary(eps, r, f_value=f)
    assert got == pytest.approx(expected, rel=rel)


def test_boundary_factor_plateaus():
    assert surgery_factor_boundary(0.2, 0.5, f_value=0.7) == 1.0
    assert surgery_factor_boundary(0.5, 0.01, f_value=-0.3) == 1.0
    assert surgery_factor_boundary(0.9, 0.9, f_value=0.0) == 1.0


@given(
    eps=st.floats(min_value=1e-3, max_value=0.17),
    r=st.floats(min_value=1e-3, max_value=0.17),
    f=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_boundary_factor_deep_identity(eps, r, f):
    # Inside the full-strength region (eps^2 + r^2 < 1/16 keeps both cutoffs
    # at 1) the factor collapses to e^{-f} / (eps^2 + r^2) by construction.
    rho2 = eps * eps + r * r
    if rho2 >= 1.0 / 16.0:
        return
    psi = surgery_factor_boundary(eps, r, f_value=f)
    assert rho2 * psi == pytest.approx(math.exp(-f), rel=1e-12)


# ----------------------------------------------------------------------------
# cap tip constant
# ----------------------------------------------------------------------------

def test_cap_tip_constant_frozen_values():
    assert cap_tip_constant(0.5) == pytest.approx(2.701875684263363985, rel=1e-15)
    assert cap_tip_constant(0.1) == pytest.approx(15.868234974114595445, rel=1e-15)
    assert cap_tip_constant(1.0) == 1.0


def test_cap_tip_constant_rejects_out_of_range():
    for bad in (0.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            cap_tip_constant(bad)


def test_cap_weight_deep_asymptote_matches_tip_constant():
    # Far beyond the truncated chart the surgered cap weight approaches the
    # model c(eps) e^{-2s} (residual ~ e^{-2s}, machine-dead by s = 20); the
    # callable keeps working out there.
    tr = small_truncation()
    s = 20.0
    for eps in (0.1, 0.5, 1.0):
        prof = build_weight(funnel_cap_spec(eps), truncation=tr)
        got = prof.weight(s) * math.exp(2.0 * s)
        assert got == pytest.approx(cap_tip_constant(eps), rel=1e-12)


def test_cap_truncation_stops_at_requested_metric_radius():
    tr = Truncation(funnel_depth=0.8, cusp_end=6.0, cap_end=14.0, cap_tip_radius=0.01)
    prof = build_weight(funnel_cap_spec(0.3), truncation=tr)
    assert prof.s_max < tr.cap_end  # the tip radius, not cap_end, cuts the chart
    # metric radius at the truncation point: sqrt(c) e^{-s_max} = requested radius
    got = math.sqrt(cap_tip_constant(0.3)) * math.exp(-prof.s_max)
    assert got == pytest.approx(tr.cap_tip_radius, rel=1e-12)


# ----------------------------------------------------------------------------
# surface assembly and validation
# ----------------------------------------------------------------------------

def test_cap_epsilon_zero_weight_matches_cusp_weight():
    # With a zero-size cap the weight is the cusp weight; only the boundary
    # condition at the deep end differs (cap vs dirichlet).
    tr = Truncation(funnel_depth=0.8, cusp_end=6.0, cap_end=6.0)
    cap = build_weight(funnel_cap_spec(0.0), truncation=tr)
    cusp = build_weight(funnel_cusp_spec(), truncation=tr)
    assert cap.s_min == cusp.s_min and cap.s_max == cusp.s_max
    s = np.linspace(cap.s_min, cap.s_max, 1025)
    assert np.array_equal(cap.weight(s), cusp.weight(s))
    assert cap.bc_right == "cap"
    assert cusp.bc_right == "dirichlet"


def test_bump_must_stay_inside_the_core():
    with pytest.raises(ValueError):
        build_weight(
            funnel_cusp_spec(BumpSpec(center=0.68, radius=0.1, amplitude=0.2)),
            truncation=small_truncation(),
        )
    with pytest.raises(ValueError):
        flat_cylinder(1.0, bump=BumpSpec(center=0.05, radius=0.1, amplitude=0.2))


def test_end_model_validation():
    with pytest.raises(ValueError):
        EndModel(kind="horn")
    with pytest.raises(ValueError):
        EndModel(kind="cusp", cap_epsilon=0.3)
    with pytest.raises(ValueError):
        EndModel(kind="filled_cap")  # cap size is mandatory here
    with pytest.raises(ValueError):
        EndModel(kind="filled_cap", cap_epsilon=1.5)
    with pytest.raises(ValueError):
        EndModel(kind="cusp", f_value=0.1)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: BumpSpec(center=v, radius=0.1, amplitude=0.2), "center"),
        (lambda v: BumpSpec(center=0.3, radius=v, amplitude=0.2), "radius"),
        (lambda v: BumpSpec(center=0.3, radius=0.1, amplitude=v), "amplitude"),
        (lambda v: EndModel(kind="funnel", funnel_constant=v), "funnel_constant"),
        (lambda v: EndModel(kind="filled_cap", cap_epsilon=v), "cap_epsilon"),
        (lambda v: EndModel(kind="dirichlet_boundary", f_value=v), "f_value"),
        (
            lambda v: SurfaceSpec(EndModel(kind="funnel"), EndModel(kind="cusp"), core_length=v),
            "core_length",
        ),
        (
            lambda v: SurfaceSpec(
                EndModel(kind="dirichlet_boundary"), EndModel(kind="cusp"),
                boundary_surgery_epsilon=v,
            ),
            "boundary_surgery_epsilon",
        ),
    ],
)
def test_geometry_specs_reject_non_numbers_by_field_name(make, field):
    for bad in (math.nan, math.inf, -math.inf, "0.3", True):
        with pytest.raises(ValueError, match=field):
            make(bad)


def test_surface_spec_validation():
    funnel = EndModel(kind="funnel")
    cusp = EndModel(kind="cusp")
    with pytest.raises(ValueError):
        SurfaceSpec(left_end=cusp, right_end=cusp, core_length=0.5)
    with pytest.raises(ValueError):
        SurfaceSpec(left_end=funnel, right_end=funnel, core_length=0.5)
    with pytest.raises(ValueError):
        SurfaceSpec(left_end=funnel, right_end=cusp, core_length=0.0)
    # boundary surgery needs a Dirichlet-boundary left end
    with pytest.raises(ValueError):
        SurfaceSpec(
            left_end=funnel,
            right_end=cusp,
            core_length=0.5,
            boundary_surgery_epsilon=0.2,
        )


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(funnel_depth=0.0)
    with pytest.raises(ValueError):
        Truncation(cusp_end=1.0)
    with pytest.raises(ValueError):
        Truncation(cap_tip_radius=0.5)


def test_core_must_fit_left_of_the_surgery_threshold():
    with pytest.raises(ValueError):
        build_weight(funnel_cusp_spec(core_length=0.69), truncation=small_truncation())


# ----------------------------------------------------------------------------
# rebuilds and labels
# ----------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make",
    [
        lambda: flat_cylinder(),
        lambda: flat_cylinder(2.0, bump=BumpSpec(center=1.0, radius=0.3, amplitude=-0.4)),
        lambda: build_weight(
            funnel_cap_spec(0.3, bump=BumpSpec(center=0.35, radius=0.09, amplitude=0.3)),
            truncation=small_truncation(),
        ),
        lambda: build_weight(
            SurfaceSpec(
                left_end=EndModel(kind="dirichlet_boundary", f_value=0.2),
                right_end=EndModel(kind="cusp"),
                core_length=0.6,
                boundary_surgery_epsilon=0.15,
            ),
            truncation=small_truncation(),
        ),
    ],
    ids=["flat", "flat-bump", "funnel-cap", "boundary-surgery"],
)
def test_profile_roundtrips_bitwise(make):
    # Rebuilding from the profile's own spec and truncation (or length and
    # bump) gives bitwise the same surface and label.
    prof = make()
    if prof.spec is None:
        clone = flat_cylinder(prof.s_max, bump=prof.bump)
    else:
        clone = build_weight(prof.spec, truncation=prof.truncation)
    assert clone.spec == prof.spec and clone.bump == prof.bump
    assert clone.s_min == prof.s_min
    assert clone.s_max == prof.s_max
    assert clone.bc_left == prof.bc_left
    assert clone.bc_right == prof.bc_right
    assert clone.breakpoints == prof.breakpoints
    assert clone.label == prof.label
    s = np.linspace(prof.s_min, prof.s_max, 1025)
    assert np.array_equal(clone.weight(s), prof.weight(s))


# ----------------------------------------------------------------------------
# areas
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("length", [math.pi, 2.0, 7.5])
def test_flat_cylinder_area_is_closed_form(length):
    assert flat_cylinder(length).area == pytest.approx(2.0 * math.pi * length, rel=1e-14)


def test_funnel_cusp_area_is_closed_form():
    # no bump and no funnel_constant: w = 1/s^2 on the whole chart
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())
    s = np.linspace(prof.s_min, prof.s_max, 257)
    assert prof.weight(s) == pytest.approx(1.0 / s**2, rel=1e-14)
    exact = 2.0 * math.pi * (1.0 / prof.s_min - 1.0 / prof.s_max)
    assert prof.area == pytest.approx(exact, rel=1e-12)


def test_relative_area_of_identical_surfaces_is_exactly_zero(small_pair):
    a, _ = small_pair
    assert relative_area(a, a) == 0.0


def test_relative_area_antisymmetric_bitwise(small_pair):
    a, b = small_pair
    assert relative_area(a, b) == -relative_area(b, a)


def test_relative_area_against_direct_quadrature():
    from scipy.integrate import quad

    bump = BumpSpec(center=1.4, radius=0.35, amplitude=0.5)
    a = flat_cylinder(math.pi, bump=bump)
    b = flat_cylinder(math.pi)
    lo, hi = bump.support
    val, err = quad(lambda s: a.weight(s) - 1.0, lo, hi, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    assert relative_area(a, b) == pytest.approx(2.0 * math.pi * val, rel=1e-8)


def test_relative_area_requires_matching_charts():
    a = flat_cylinder(math.pi)
    b = flat_cylinder(2.0)
    with pytest.raises(ValueError):
        relative_area(a, b)


# ----------------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------------

def test_gauss_legendre_literals_are_bitwise_leggauss():
    # The quadrature rule is written out so that importing relspec loads no
    # numpy.polynomial; it must stay the rule that numpy computes.
    from relspec import geometry

    nodes, weights = np.polynomial.legendre.leggauss(8)
    for literal, exact in ((geometry._GL_NODES, nodes), (geometry._GL_WEIGHTS, weights)):
        assert literal.dtype == exact.dtype and literal.shape == exact.shape
        assert np.array_equal(literal.view(np.int64), exact.view(np.int64))


def test_line_distance_flat_is_coordinate_distance():
    flat = flat_cylinder()
    assert line_distance(flat, 0.5, 2.0) == pytest.approx(1.5, rel=1e-12)
    assert line_distance(flat, 2.0, 0.5) == pytest.approx(1.5, rel=1e-12)


def test_line_distance_funnel_region_is_logarithmic():
    prof = build_weight(funnel_cusp_spec(), truncation=small_truncation())
    s0, s1 = 0.12, 0.22  # inside the pure-funnel range of the chart
    got = line_distance(prof, s0, s1)
    assert got == pytest.approx(math.log(s1 / s0), rel=1e-9)


def test_line_distance_raises_on_a_jump_missing_from_the_breakpoints():
    # a weight jump at s = 1 that the profile does not declare: the panel
    # rule converges only linearly across it and must stop at its level cap
    flat = flat_cylinder()
    jumpy = dataclasses.replace(flat, _fn=lambda s: np.where(s < 1.0, 1.0, 4.0))
    assert jumpy.breakpoints == ()
    with pytest.raises(ValueError, match="did not converge"):
        line_distance(jumpy, 0.5, 2.0)


def test_line_distance_rejects_points_off_the_chart():
    flat = flat_cylinder()
    with pytest.raises(ValueError):
        line_distance(flat, -0.5, 1.0)
    with pytest.raises(ValueError):
        line_distance(flat, 0.5, 4.0)


_LABEL_PROBE = """
import json, sys

from relspec.cli import ScenarioConfig

print(json.dumps([p.label for p in ScenarioConfig.from_json(sys.argv[1]).pair(epsilon=0.0)]))
"""


def test_profile_label_is_the_same_in_every_interpreter(configs_dir):
    # A label derived from hash() would change with the hash seed, and the
    # pair_id header of every CSV with it.
    labels = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _LABEL_PROBE, str(configs_dir / "point_sweep.json")],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        labels.append(json.loads(proc.stdout))
    assert labels[0] == labels[1]
    assert all(re.fullmatch("[0-9a-f]{8}", label) for label in labels[0])
    assert labels[0][0] != labels[0][1]
