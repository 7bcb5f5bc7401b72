"""End-to-end acceptance gate.

Each test exercises one advertised guarantee of the laboratory, re-deriving
the quantity from the run artifacts (CSV tables) rather than trusting the
runner's own verdicts, and prints a single [criterion N] PASS/FAIL line.
The scenario runs use the shipped configs under configs/ at full resolution,
so this module is the expensive part of the suite (about a minute).
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from relspec.cli import ScenarioConfig, run_scenario
from relspec.oracle import finite_matrix_relative_det
from relspec.spectral import TraceSeries
from relspec.zeta import determinant_from_series, taylor_invariants

CONTINUITY_LADDER = (0.4, 0.2, 0.1, 0.05)


def _criterion(n: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(
        f"check {name!r} missing from report (failed_stage={report.failed_stage!r}, "
        f"error={report.error!r})"
    )


def _table(out_dir, name):
    return np.genfromtxt(out_dir / name, delimiter=",", names=True)


def _run(configs_dir, tmp_path_factory, config_name):
    cfg = ScenarioConfig.from_json(configs_dir / config_name)
    out = tmp_path_factory.mktemp(cfg.label.replace("-", "_"))
    report = run_scenario(cfg, out)
    return report, out


@pytest.fixture(scope="module")
def validate_run(configs_dir, tmp_path_factory):
    return _run(configs_dir, tmp_path_factory, "validate.json")


@pytest.fixture(scope="module")
def sweep_run(configs_dir, tmp_path_factory):
    return _run(configs_dir, tmp_path_factory, "point_sweep.json")


@pytest.fixture(scope="module")
def isospectral_run(configs_dir, tmp_path_factory):
    return _run(configs_dir, tmp_path_factory, "isospectral.json")


@pytest.fixture(scope="module")
def offdiag_run(configs_dir, tmp_path_factory):
    return _run(configs_dir, tmp_path_factory, "offdiag.json")


@pytest.fixture(scope="module")
def conformal_run(configs_dir, tmp_path_factory):
    return _run(configs_dir, tmp_path_factory, "funnel_conformal.json")


# -- 1 -------------------------------------------------------------------

def test_criterion_01_flat_cylinder_spectrum(validate_run):
    report, out = validate_run
    table = _table(out, "flat_spectrum.csv")
    lams = np.sort(np.repeat(table["eigenvalue"], table["multiplicity"].astype(int)))
    exact = np.array([1, 2, 2, 4, 5, 5, 5, 5, 8, 8, 9, 10], dtype=float)
    rel = float(np.max(np.abs(lams[:12] - exact) / exact))
    ok = rel <= 1e-5 and _check(report, "flat_first12_relative_error").passed
    assert _criterion(1, ok, f"flat Dirichlet cylinder first 12, rel err {rel:.3e} <= 1e-5")
    assert ok


# -- 2 -------------------------------------------------------------------

def test_criterion_02_mode_sum_vs_2d_oracle(validate_run):
    report, out = validate_run
    table = _table(out, "oracle_agreement.csv")
    rel = float(np.max(table["rel_diff"]))
    n = len(table)
    ok = n >= 20 and rel <= 1e-7 and _check(report, "oracle_2d_vs_mode_sum").passed
    assert _criterion(
        2, ok, f"first {n} eigenvalues, mode sum vs 2D five-point solver, rel {rel:.3e} <= 1e-7"
    )
    assert ok


# -- 3 -------------------------------------------------------------------

def test_criterion_03_isospectral_pair_is_exact(isospectral_run):
    report, out = isospectral_run
    # five "# key=value" lines and the column header precede the rows
    values = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=6, usecols=1)
    trace_zero = bool(np.all(values == 0.0))
    checks = [
        _check(report, "trace_identically_zero"),
        _check(report, "invariants_exactly_zero"),
        _check(report, "determinant_exactly_one"),
    ]
    det = checks[2].value
    ok = trace_zero and all(c.passed for c in checks) and det == 1.0
    assert _criterion(
        3, ok, f"A = B: RelTr == 0.0 at all samples, a_k == 0.0, det == {det!r} (exact)"
    )
    assert ok


# -- 4 -------------------------------------------------------------------

def test_criterion_04_gap_lower_bound_across_sweep(sweep_run):
    report, out = sweep_run
    table = _table(out, "sweep.csv")
    lam0 = float(table["lambda1"][table["epsilon"] == 0.0][0])
    # the epsilon = 0 row compares the baseline pair with itself
    base = table[table["epsilon"] == 0.0][0]
    assert base["weight_ratio"] == 1.0 and base["dsup"] == 0.0
    big_c = float(np.max(table["weight_ratio"]))
    min_l1 = float(np.min(table["lambda1"]))
    ok = min_l1 >= lam0 / big_c and _check(report, "gap_lower_bound").passed
    assert _criterion(
        4,
        ok,
        f"min_eps lambda1 = {min_l1:.6f} >= lambda1(0)/C = {lam0 / big_c:.6f} (C = {big_c!r})",
    )
    assert ok


# -- 5 -------------------------------------------------------------------

def test_criterion_05_heat_invariants_stable_across_sweep(sweep_run):
    report, out = sweep_run
    table = _table(out, "sweep.csv")
    base = table[table["epsilon"] == 0.0][0]
    drift = max(
        float(np.max(np.abs(table["a0"] - base["a0"]))),
        float(np.max(np.abs(table["a1"] - base["a1"]))),
    )
    weyl = float(np.max(np.abs(table["a0"] - table["rel_area"] / (4.0 * math.pi))))
    ok = (
        drift <= 5e-3
        and weyl <= 1e-3
        and _check(report, "invariant_drift_a0_a1").passed
        and _check(report, "a0_matches_relative_area").passed
    )
    assert _criterion(
        5, ok, f"a0/a1 drift {drift:.3e} <= 5e-3; |a0 - rel_area/4pi| {weyl:.3e} <= 1e-3"
    )
    assert ok


# -- 6 -------------------------------------------------------------------

def test_criterion_06_determinant_invariance(sweep_run, conformal_run):
    sweep_report, sweep_out = sweep_run
    conf_report, conf_out = conformal_run
    sweep = _table(sweep_out, "sweep.csv")
    base = float(sweep["log_det"][sweep["epsilon"] == 0.0][0])
    sweep_drift = float(np.max(np.abs(sweep["log_det"] - base)))
    conf = _table(conf_out, "conformal.csv")
    conf_drift = float(np.max(np.abs(conf["log_det"] - conf["log_det"][0])))
    ok = (
        sweep_drift <= 1e-2
        and conf_drift <= 1e-2
        and _check(sweep_report, "determinant_invariance").passed
        and _check(conf_report, "determinant_invariance_conformal").passed
    )
    assert _criterion(
        6,
        ok,
        f"|log det| drift: surgery sweep {sweep_drift:.3e}, funnel conformal "
        f"{conf_drift:.3e}, both <= 1e-2",
    )
    assert ok


# -- 7 -------------------------------------------------------------------

@pytest.mark.parametrize("run", ["sweep_run", "conformal_run"])
def test_criterion_07_long_time_exponential_decay(run, request):
    # the surgery sweep's epsilon 0 pair and the conformal check's first pair
    report, out = request.getfixturevalue(run)
    table = _table(out, "decay.csv")
    t, v, bound = table["t"], table["value"], table["bound"]
    assert t[0] >= 10.0 and t[-1] <= 20.0 + 1e-12
    # pointwise |RelTr| <= K e^{-mu t/2}, K fitted at the window start; allow
    # round-off slack at the fitting point itself
    excess = float(np.max(np.abs(v) - bound))
    slack = 1e-11 * float(np.max(bound))
    ok = excess <= slack and _check(report, "long_time_decay").passed
    assert _criterion(
        7,
        ok,
        f"{report.label}: |RelTr| <= K e^(-mu t/2) on [10,20]: max excess {excess:.3e} "
        f"<= {slack:.3e}",
    )
    assert ok


# -- 8 -------------------------------------------------------------------

def test_criterion_08_family_convergence_ladder(sweep_run, repo_root):
    report, out = sweep_run
    table = _table(out, "sweep.csv")
    dsup = []
    for eps in CONTINUITY_LADDER:
        row = table[np.isclose(table["epsilon"], eps)]
        assert len(row) == 1, f"sweep grid lacks epsilon {eps}"
        dsup.append(float(row["dsup"][0]))
    diffs = np.diff(dsup)  # along shrinking epsilon
    worst = float(np.max(diffs))
    baseline = json.loads(
        (repo_root / "tests" / "data" / "continuity_baseline.json").read_text()
    )
    assert tuple(baseline["epsilons"]) == CONTINUITY_LADDER
    pin = float(
        np.max(np.abs(np.array(dsup) / np.array(baseline["dsup"]) - 1.0))
    )
    ok = worst <= 1e-4 and pin <= 1e-6 and _check(report, "dsup_non_increasing").passed
    assert _criterion(
        8,
        ok,
        f"Dsup(0.4..0.05) = {[f'{d:.6e}' for d in dsup]}, max increase {worst:.3e} "
        f"<= 1e-4, drift vs frozen baseline {pin:.2e} <= 1e-6",
    )
    assert ok


# -- 9 -------------------------------------------------------------------

def test_criterion_09_offdiagonal_gaussian_functional(offdiag_run):
    report, out = offdiag_run
    table = _table(out, "offdiag.csv")
    sup = float(np.max(table["log_plus_gaussian"]))
    finite = _check(report, "gaussian_functional_finite")
    refine = _check(report, "gaussian_functional_refinement")
    ok = (
        math.isfinite(sup)
        and finite.passed
        and refine.passed
        and refine.value < 0.05
    )
    assert _criterion(
        9,
        ok,
        f"sup_t [log I(t) + d^2/(8t)] = {sup:.6f} finite; refinement change "
        f"{refine.value:.3%} < 5%",
    )
    assert ok


# -- 10 ------------------------------------------------------------------

def test_criterion_10_zeta_pipeline_vs_exact_products():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(20):
        la = np.sort(1.0 + 4.0 * rng.random(8))
        lb = np.sort(1.0 + 4.0 * rng.random(8))
        series = TraceSeries.from_finite_spectra(la, lb)
        inv = taylor_invariants(la, lb, k_max=6)
        det = determinant_from_series(series, inv)
        exact = finite_matrix_relative_det(la, lb)
        worst = max(worst, abs(det.determinant / exact - 1.0))
    ok = worst <= 1e-6
    assert _criterion(
        10, ok, f"20 random finite pairs: max |det_zeta/det_product - 1| = {worst:.3e} <= 1e-6"
    )
    assert ok


# -- error budgets in the tables -------------------------------------------

BUDGET_COLUMNS = (
    "budget_small_time_truncation",
    "budget_fit_sensitivity",
    "budget_cutoff_leak",
    "budget_total",
)


@pytest.mark.parametrize(
    "run, name", [("sweep_run", "sweep.csv"), ("conformal_run", "conformal.csv")]
)
def test_determinant_tables_carry_error_budgets(run, name, request):
    _, out = request.getfixturevalue(run)
    table = _table(out, name)
    assert table.dtype.names[-len(BUDGET_COLUMNS):] == BUDGET_COLUMNS
    terms = np.stack([table[c] for c in BUDGET_COLUMNS[:-1]])
    assert np.all(terms >= 0.0)
    assert np.allclose(terms.sum(axis=0), table["budget_total"], rtol=1e-15, atol=0.0)
    assert np.all(table["budget_total"] > 0.0)


# -- completeness ---------------------------------------------------------

def test_all_acceptance_scenarios_completed(
    validate_run, sweep_run, isospectral_run, offdiag_run, conformal_run
):
    failures = []
    for report, _ in (
        validate_run,
        sweep_run,
        isospectral_run,
        offdiag_run,
        conformal_run,
    ):
        if not report.passed:
            failures.append(
                f"{report.label}: stage={report.failed_stage!r} error={report.error!r} "
                f"checks={[(c.name, c.passed) for c in report.checks]}"
            )
    assert not failures, "\n".join(failures)
