"""Config parsing, the scenario runner, and the command-line interface."""
from __future__ import annotations

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys

import pytest

from relspec.cli import (
    ConfigError,
    NumericsConfig,
    ScenarioConfig,
    main,
    run_scenario,
)

MINI_SURFACE = {
    "left_end": {"kind": "funnel"},
    "right_end": {"kind": "filled_cap", "cap_epsilon": 0.3},
    "core_length": 0.45,
    "bump": {"center": 0.35, "radius": 0.09, "amplitude": 0.3},
}

# Light numerics: small chart, low cutoff -- the isospectral scenario checks
# exact cancellations, which hold at any resolution.
MINI_NUMERICS = {
    "n_nodes": 600,
    "lambda_cut": 25.0,
    "funnel_depth": 0.8,
    "cusp_end": 6.0,
    "cap_end": 6.0,
}


def mini_isospectral_dict(label="mini-iso"):
    return {
        "kind": "isospectral_check",
        "label": label,
        "surface_a": MINI_SURFACE,
        "numerics": dict(MINI_NUMERICS),
    }


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def checkout_env(repo_root):
    """Environment for a child interpreter that imports relspec from this
    checkout's ``src``, however pytest itself was launched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def declared_console_script(repo_root):
    """The ``relspec`` entry of ``[project.scripts]`` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with open(repo_root / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["relspec"]


# ----------------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------------

def test_config_roundtrip_through_dict(configs_dir):
    cfg = ScenarioConfig.from_json(configs_dir / "point_sweep.json")
    clone = ScenarioConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert isinstance(clone.numerics, NumericsConfig)
    assert clone.epsilons == tuple(k / 20.0 for k in range(21))


def test_all_repo_configs_parse(configs_dir):
    paths = sorted(configs_dir.glob("*.json"))
    assert len(paths) >= 7
    for path in paths:
        cfg = ScenarioConfig.from_json(path)
        cfg.spec_a()  # resolvable surface


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        ScenarioConfig.from_dict({"kind": "validate", "bogus": 1})
    with pytest.raises(ConfigError, match="unknown keys"):
        ScenarioConfig.from_dict(
            {"kind": "validate", "numerics": {"nodes": 5}}
        )
    with pytest.raises(ConfigError, match="unknown keys"):
        ScenarioConfig.from_dict(
            {"kind": "validate", "numerics": {"offdiag_n_theta": 256}}
        )
    with pytest.raises(ConfigError, match="unknown keys"):
        ScenarioConfig.from_dict(
            {"kind": "validate", "numerics": {"zeta_split": 0.5}}
        )
    with pytest.raises(ConfigError, match="unknown keys"):
        ScenarioConfig.from_dict(
            {"kind": "validate", "numerics": {"workers": 2}}
        )
    # numerics keys that nothing set; their values are now library constants
    for key in (
        "boundary_depth", "cap_tip_radius", "t_min", "t_max", "t_points",
        "fit_residual_threshold", "oracle_n_s", "oracle_n_theta", "oracle_count",
        "offdiag_t_lo", "offdiag_t_hi", "offdiag_t_points",
    ):
        with pytest.raises(ConfigError, match="unknown keys"):
            ScenarioConfig.from_dict({"kind": "validate", "numerics": {key: 1.0}})
    with pytest.raises(ConfigError, match="unknown keys"):
        ScenarioConfig.from_dict({"kind": "validate", "seed": 1})


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_nodes", 600.5),
        ("n_nodes", True),
        ("fit_k_max", 3.0),
        ("lambda_cut", float("nan")),
        ("cap_end", float("inf")),
        ("offdiag_y_s", False),
        ("fit_window_lo", "0.05"),
    ],
)
def test_config_rejects_mistyped_or_non_finite_numerics(tmp_path, capsys, key, value):
    data = mini_isospectral_dict()
    data["numerics"][key] = value
    with pytest.raises(ConfigError, match=f"numerics.{key} must be"):
        ScenarioConfig.from_dict(data)
    assert main(["run", str(write_config(tmp_path, data)), "--out", str(tmp_path / "out")]) == 2
    assert f"numerics.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_accepts_an_int_for_a_float_key():
    data = mini_isospectral_dict()
    data["numerics"]["lambda_cut"] = 25
    assert ScenarioConfig.from_dict(data).numerics.lambda_cut == 25


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="scenario kind"):
        ScenarioConfig.from_dict({"kind": "frobnicate"})


def test_config_label_defaults_to_kind():
    cfg = ScenarioConfig.from_dict({"kind": "validate"})
    assert cfg.label == "validate"


def test_surgery_rewrite_requires_a_surgery_end():
    cfg = ScenarioConfig.from_dict(
        {
            "kind": "surgery_sweep",
            "surface_a": {
                "left_end": {"kind": "funnel"},
                "right_end": {"kind": "cusp"},
                "core_length": 0.45,
            },
            "surface_b": {
                "left_end": {"kind": "funnel"},
                "right_end": {"kind": "cusp"},
                "core_length": 0.45,
            },
        }
    )
    with pytest.raises(ConfigError, match="surgery"):
        cfg.pair(epsilon=0.1)


def test_pair_rewrites_both_members():
    cfg = ScenarioConfig.from_dict(
        {
            "kind": "surgery_sweep",
            "surface_a": dict(MINI_SURFACE),
            "surface_b": {k: v for k, v in MINI_SURFACE.items() if k != "bump"},
            "numerics": dict(MINI_NUMERICS),
        }
    )
    pa, pb = cfg.pair(epsilon=0.2)
    assert pa.spec.right_end.cap_epsilon == 0.2
    assert pb.spec.right_end.cap_epsilon == 0.2
    assert (pa.s_min, pa.s_max) == (pb.s_min, pb.s_max)


# ----------------------------------------------------------------------------
# the scenario runner
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_iso")
    cfg = ScenarioConfig.from_dict(mini_isospectral_dict())
    report = run_scenario(cfg, out)
    return cfg, out, report


def test_mini_isospectral_run_passes(mini_run):
    _, out, report = mini_run
    assert report.passed
    assert report.failed_stage is None
    names = {c.name for c in report.checks}
    assert names == {
        "trace_identically_zero",
        "invariants_exactly_zero",
        "determinant_exactly_one",
    }
    assert all(c.passed for c in report.checks)
    assert (out / "trace.csv").exists()
    assert not (out / "FAILED").exists()


def test_summary_json_structure(mini_run):
    _, out, report = mini_run
    data = json.loads((out / "summary.json").read_text())
    assert data["passed"] is True
    assert data["kind"] == "isospectral_check"
    assert data["label"] == "mini-iso"
    assert data["artifacts"] == ["trace.csv"]
    assert data["failed_stage"] is None
    assert data["wall_time_seconds"] > 0.0
    assert {c["name"] for c in data["checks"]} == {c.name for c in report.checks}
    # config is embedded for provenance
    assert data["config"]["numerics"]["n_nodes"] == 600


def test_reruns_are_byte_identical(mini_run, tmp_path):
    _, out, _ = mini_run
    cfg = ScenarioConfig.from_dict(mini_isospectral_dict())
    rerun_dir = tmp_path / "rerun"
    run_scenario(cfg, rerun_dir)
    first = (out / "trace.csv").read_bytes()
    second = (rerun_dir / "trace.csv").read_bytes()
    assert first == second


def test_component_failure_leaves_marker_and_fails(tmp_path):
    cfg = ScenarioConfig.from_dict(
        {
            "kind": "surgery_sweep",
            "label": "no-surgery-end",
            "surface_a": {
                "left_end": {"kind": "funnel"},
                "right_end": {"kind": "cusp"},
                "core_length": 0.45,
            },
            "surface_b": {
                "left_end": {"kind": "funnel"},
                "right_end": {"kind": "cusp"},
                "core_length": 0.45,
            },
            "epsilons": [0.0, 0.1],
            "numerics": dict(MINI_NUMERICS),
        }
    )
    out = tmp_path / "broken"
    report = run_scenario(cfg, out)
    assert not report.passed
    assert report.failed_stage == "baseline pair (epsilon = 0)"
    assert "ConfigError" in report.error
    marker = (out / "FAILED").read_text()
    assert "stage:" in marker and "Traceback" in marker
    data = json.loads((out / "summary.json").read_text())
    assert data["passed"] is False
    assert data["failed_stage"] == report.failed_stage


# ----------------------------------------------------------------------------
# command-line entry point
# ----------------------------------------------------------------------------

def test_cli_run_exit_zero_and_report_verb(tmp_path, capsys):
    cfg_path = write_config(tmp_path, mini_isospectral_dict("cli-iso"))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] isospectral_check :: cli-iso" in stdout
    assert main(["report", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout and "determinant_exactly_one" in stdout


def test_cli_run_exit_one_on_failure(tmp_path, capsys):
    data = {
        "kind": "surgery_sweep",
        "label": "cli-broken",
        "surface_a": {
            "left_end": {"kind": "funnel"},
            "right_end": {"kind": "cusp"},
            "core_length": 0.45,
        },
        "surface_b": {
            "left_end": {"kind": "funnel"},
            "right_end": {"kind": "cusp"},
            "core_length": 0.45,
        },
        "epsilons": [0.0, 0.1],
        "numerics": dict(MINI_NUMERICS),
    }
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "[FAIL]" in stdout
    assert (out / "FAILED").exists()
    # report verb mirrors the failure exit code
    assert main(["report", str(out)]) == 1
    capsys.readouterr()


def test_cli_validate_verb_prints_resolved_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, mini_isospectral_dict("v"))
    assert main(["validate", str(cfg_path)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["kind"] == "isospectral_check"
    assert parsed["numerics"]["lambda_cut"] == 25.0


def test_cli_config_errors_exit_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    unknown = write_config(tmp_path, {"kind": "validate", "zzz": 1}, "unknown.json")
    assert main(["validate", str(unknown)]) == 2
    assert main(["report", str(tmp_path)]) == 2  # no summary.json here
    capsys.readouterr()


def test_cli_report_rejects_a_broken_summary(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text("{not json")
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"not a relspec summary: {summary}: ")
    assert captured.out == ""
    summary.write_text("{}")
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"not a relspec summary: {summary}: missing key 'passed'\n"
    assert captured.out == ""


def test_cli_bad_arguments_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_console_script_is_installed(tmp_path, repo_root):
    """The declared ``relspec`` console script resolves to ``cli.main`` and
    runs the way an installer's generated wrapper runs it."""
    ep = importlib.metadata.EntryPoint(
        name="relspec",
        value=declared_console_script(repo_root),
        group="console_scripts",
    )
    assert ep.load() is main
    # The wrapper pip writes into bin/ for a console_scripts entry point.
    wrapper = (
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "sys.argv[0] = 'relspec'\n"
        f"sys.exit({ep.attr}())\n"
    )
    cfg_path = write_config(tmp_path, mini_isospectral_dict("script"))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "validate", str(cfg_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=checkout_env(repo_root),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["label"] == "script"


@pytest.mark.skipif(
    shutil.which("relspec") is None,
    reason="no installed relspec console script on PATH",
)
def test_installed_console_script_matches_declaration(tmp_path, repo_root, capsys):
    exe = shutil.which("relspec")
    installed = {
        ep.value
        for ep in importlib.metadata.entry_points(
            group="console_scripts", name="relspec"
        )
    }
    # A stale install keeps an old entry point; one from another interpreter
    # leaves none visible here.
    assert installed == {declared_console_script(repo_root)}, (
        f"{exe} is on PATH, but the installed distribution declares {installed}"
    )
    cfg_path = write_config(tmp_path, mini_isospectral_dict("installed"))
    assert main(["validate", str(cfg_path)]) == 0
    expected = capsys.readouterr().out
    # Run the install as a user would: the checkout's src is not on the path.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [exe, "validate", str(cfg_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_module_entry_point(tmp_path, repo_root):
    cfg_path = write_config(tmp_path, mini_isospectral_dict("module"))
    proc = subprocess.run(
        [sys.executable, "-m", "relspec.cli", "validate", str(cfg_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=checkout_env(repo_root),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["label"] == "module"
