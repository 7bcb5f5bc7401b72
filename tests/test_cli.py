"""Config parsing, the scenario runner, and the command-line interface."""
from __future__ import annotations

import contextlib
import dataclasses
import errno
import importlib.metadata
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relspec import cli, discretize
from relspec.cli import (
    ConfigError,
    NumericsConfig,
    ScenarioConfig,
    main,
    run_scenario,
)
from relspec.geometry import BumpSpec, EndModel, MetricProfile

from conftest import ROOT

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
    assert len(paths) >= 6
    for path in paths:
        ScenarioConfig.from_json(path)  # load builds every member surface


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n_nodes", 7, "numerics.n_nodes must be at least 8"),
        ("lambda_cut", 0.0, "numerics.lambda_cut must be positive"),
        ("funnel_depth", -1.0, "numerics.funnel_depth must exceed 0"),
        ("cusp_end", 2.0, "numerics.cusp_end must exceed 2"),
        ("cap_end", 1.0, "numerics.cap_end must exceed 2"),
        ("fit_k_max", 1, "numerics.fit_k_max must be at least 2"),
        ("fit_window_lo", 0.0, "numerics.fit_window_lo must be positive and below"),
        ("fit_window_lo", 0.2, "numerics.fit_window_lo must be positive and below"),
        # the default window (0.05, 0.15) holds 21 samples; K = 7 needs 24
        ("fit_k_max", 7, "holds 21 samples of the default time grid; fit_k_max = 7 needs"),
    ],
)
def test_config_rejects_numerics_out_of_range(key, value, message):
    data = mini_isospectral_dict()
    data["numerics"][key] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        ScenarioConfig.from_dict(data)


def test_config_accepts_an_int_for_a_float_key():
    data = mini_isospectral_dict()
    data["numerics"]["lambda_cut"] = 25
    assert ScenarioConfig.from_dict(data).numerics.lambda_cut == 25


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="scenario kind"):
        ScenarioConfig.from_dict({"kind": "frobnicate"})


def test_a_config_without_a_kind_names_the_config():
    with pytest.raises(ConfigError, match=r"^config: .*'kind'"):
        ScenarioConfig.from_dict({"label": "no kind"})


def test_config_label_defaults_to_kind():
    cfg = ScenarioConfig.from_dict({"kind": "validate", "surface_a": MINI_SURFACE})
    assert cfg.label == "validate"


def test_surgery_rewrite_requires_a_surgery_end():
    cusp_surface = {
        "left_end": {"kind": "funnel"},
        "right_end": {"kind": "cusp"},
        "core_length": 0.45,
    }
    # a sweep over such a surface fails at load
    with pytest.raises(ConfigError, match="surgery"):
        ScenarioConfig.from_dict(
            {"kind": "surgery_sweep", "surface_a": cusp_surface, "surface_b": cusp_surface}
        )
    # and so does a rewrite asked of another kind
    cfg = ScenarioConfig.from_dict(
        {
            "kind": "funnel_conformal_check",
            "surface_a": cusp_surface,
            "surface_b": cusp_surface,
            "conformal_constants": [0.0],
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


CONFIGS = ROOT / "configs"


def shipped_config(name):
    return json.loads((CONFIGS / name).read_text())


def _cusp_right_ends(data):
    for key in ("surface_a", "surface_b"):
        data[key]["right_end"] = {"kind": "cusp"}


def _boundary_left_ends(data):
    for key in ("surface_a", "surface_b"):
        data[key]["left_end"] = {"kind": "dirichlet_boundary"}


def _underflowing_funnels(data):
    """Funnel shifts so low that the weight underflows to 0 on the grid."""
    for key in ("surface_a", "surface_b"):
        data[key]["left_end"]["funnel_constant"] = -800.0
    data["epsilons"] = [0.4]


def _set_what_validate_does_not_read(data):
    data["numerics"].update(lambda_cut=1.0, fit_k_max=5, offdiag_y_s=99.0)
    data.update(epsilons=[0.3], surface_b=data["surface_a"])


@pytest.mark.parametrize(
    "name, mutate, key",
    [
        ("point_sweep.json", lambda d: d.update(epsilons=[0.0, 5.0]), "epsilons"),
        ("point_sweep.json", lambda d: d.update(epsilons=[0.0, math.nan]), "epsilons value nan"),
        ("point_sweep.json", _cusp_right_ends, "epsilons"),
        ("funnel_conformal.json", _boundary_left_ends, "conformal_constants"),
        ("point_sweep.json", lambda d: d["surface_a"]["bump"].update(amplitude=math.nan),
         "surface_a.bump: amplitude"),
        ("point_sweep.json", lambda d: d.update(numerics={"fit_window_hi": 0.07}),
         "fit_window_hi"),
        # chart layouts that only a built surface shows
        ("point_sweep.json", lambda d: d["surface_a"]["bump"].update(center=0),
         "surface_a: bump support [center - radius, center + radius]"),
        ("point_sweep.json", lambda d: d["surface_a"].update(core_length=0.7),
         "surface_a: core_length 0.7 leaves no room for the funnel"),
        ("offdiag.json", lambda d: d.update(numerics={"offdiag_y2_s": 500.0}),
         "numerics.offdiag_y2_s = 500.0 lies outside the chart [0.0, "),
        ("offdiag.json", lambda d: d.update(numerics={"offdiag_y_s": -0.5}),
         "numerics.offdiag_y_s = -0.5 lies outside the chart"),
        # grids that cannot resolve the cutoff, which only the sampled weight shows
        ("point_sweep.json", lambda d: d.update(numerics={"n_nodes": 200}),
         "numerics.n_nodes = 200, numerics.lambda_cut = 400.0: on the 200-node grid of "
         "surface_a at epsilons value 0.0, lambda_cut exceeds grid resolution capacity"),
        ("offdiag.json", lambda d: d.update(numerics={"n_nodes": 300}),
         "numerics.n_nodes = 300, numerics.lambda_cut = 400.0: on the 300-node grid of "
         "surface_a, lambda_cut exceeds"),
        ("isospectral.json", lambda d: d.update(numerics={"lambda_cut": 1e6}),
         "numerics.lambda_cut = 1000000.0: on the 4000-node grid of surface_a, lambda_cut"),
        ("funnel_conformal.json", lambda d: d.update(conformal_constants=[0.0, 1.5]),
         "on the 5000-node grid of surface_a at conformal_constants value 1.5, lambda_cut"),
        # a weight that underflows to 0, which only the sampled weight shows
        ("point_sweep.json", _underflowing_funnels,
         "surface_a at epsilons value 0.0: weight must be positive and finite on the grid"),
        ("offdiag.json", lambda d: d["surface_a"]["left_end"].update(f_value=-800.0),
         "surface_a: weight must be positive and finite on the grid"),
        ("validate.json", lambda d: d["surface_a"]["left_end"].update(funnel_constant=-800.0),
         "surface_a: weight must be positive and finite on the grid"),
        # a weight that overflows to inf, which numpy would warn of first
        ("point_sweep.json", lambda d: d["surface_a"]["left_end"].update(funnel_constant=800),
         "surface_a at epsilons value 0.0: weight must be positive and finite on the grid"),
        ("point_sweep.json", lambda d: d["surface_a"]["bump"].update(amplitude=800),
         "surface_a at epsilons value 0.0: weight must be positive and finite on the grid"),
        ("point_sweep.json", lambda d: d.update(numerics={"cap_end": 1e300}),
         "surface_a at epsilons value 0.0: weight must be positive and finite on the grid"),
        # a bump the 400-node oracle grid cannot resolve
        ("validate.json", lambda d: d["surface_a"]["bump"].update(radius=0.07),
         "surface_a: bump of radius 0.07 spans fewer than 8 radial nodes at h_s=0.01978; "
         "refine the oracle grid"),
        # families with no member to compare
        ("funnel_conformal.json", lambda d: d.update(conformal_constants=[]),
         "conformal_constants = []: a funnel_conformal_check needs a value"),
        ("point_sweep.json", lambda d: d.update(epsilons=[]),
         "epsilons = []: a surgery_sweep needs a value"),
        # pairs whose members the run could not solve on one grid
        ("point_sweep.json", lambda d: d["surface_b"].update(core_length=0.4),
         "surface_b at epsilons value 0.0: pair members live on different charts"),
        # retired kinds: point_sweep's sweep.csv holds the one's table, and
        # its decay.csv the other's check
        ("point_sweep.json", lambda d: d.update(kind="continuity_check"),
         "unknown scenario kind 'continuity_check'"),
        ("point_sweep.json", lambda d: d.update(kind="decay_check"),
         "unknown scenario kind 'decay_check'"),
        # a key the kind does not read, one kind each
        ("validate.json", lambda d: d["numerics"].update(lambda_cut=1.0),
         "config error: numerics.lambda_cut: a validate run does not read this key\n"),
        ("validate.json", lambda d: d["numerics"].update(n_nodes=100),
         "config error: numerics.n_nodes: a validate run does not read this key\n"),
        ("validate.json", _set_what_validate_does_not_read,
         "config error: epsilons, surface_b, numerics.lambda_cut, numerics.fit_k_max, "
         "numerics.offdiag_y_s: a validate run does not read these keys\n"),
        ("isospectral.json", lambda d: d.update(surface_b={"nonsense": 1}),
         "config error: surface_b: an isospectral_check run does not read this key\n"),
        ("offdiag.json", lambda d: d.update(numerics={"fit_k_max": 4}),
         "config error: numerics.fit_k_max: an offdiag_check run does not read this key\n"),
        ("point_sweep.json", lambda d: d.update(conformal_constants=[0.0, 0.2]),
         "config error: conformal_constants: a surgery_sweep run does not read this key\n"),
        ("funnel_conformal.json", lambda d: d["numerics"].update(offdiag_y2_theta=1.0),
         "config error: numerics.offdiag_y2_theta: a funnel_conformal_check run does not "
         "read this key\n"),
        ("isospectral.json",
         lambda d: d.update(numerics={"fit_window_lo": 0.06, "fit_window_hi": 0.2}),
         "config error: numerics.fit_window_lo, numerics.fit_window_hi: an isospectral_check "
         "run does not read these keys\n"),
        # an unread key of the wrong type reports its type first
        ("validate.json", lambda d: d.update(epsilons="0.3"),
         "config error: epsilons must be a list of numbers, got '0.3'\n"),
        # a funnel tip that underflows to s = 0, and a grid no memory holds
        ("point_sweep.json", lambda d: d.update(numerics={"funnel_depth": 800.0}),
         "config error: surface_a: funnel_depth 800.0 puts the funnel tip"),
        ("point_sweep.json", lambda d: d.update(numerics={"n_nodes": 10**13}),
         "config error: numerics.n_nodes = 10000000000000: one surface's grid arrays take "
         "320000000000000 bytes, more than the "),
    ],
    ids=["epsilon-above-1", "epsilon-nan", "no-surgery-end", "no-funnel-end",
         "bump-amplitude-nan", "fit-window-too-short", "bump-outside-core",
         "no-room-for-funnel", "probe-beyond-chart", "probe-before-chart",
         "sweep-grid-too-coarse", "kernel-grid-too-coarse", "cutoff-too-high",
         "conformal-weight-too-large", "sweep-weight-underflows", "offdiag-weight-underflows",
         "validate-weight-underflows", "funnel-weight-overflows", "bump-weight-overflows",
         "cap-weight-overflows", "validate-bump-below-oracle-grid",
         "no-conformal-constant", "no-sweep-epsilon", "members-on-different-charts",
         "retired-continuity-kind", "retired-decay-kind", "validate-reads-no-cutoff",
         "validate-reads-no-grid", "validate-five-unread-keys",
         "isospectral-reads-no-surface-b", "offdiag-reads-no-fit",
         "sweep-reads-no-constants", "conformal-reads-no-probe",
         "isospectral-reads-no-fit-window", "unread-and-mistyped", "funnel-tip-underflows",
         "grid-beyond-memory"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds the error alone
def test_unusable_shipped_config_exits_two_before_any_solve(tmp_path, capsys, name, mutate, key):
    data = shipped_config(name)
    mutate(data)
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and err.count("\n") == 1
    assert not out.exists()  # no summary.json, nothing solved
    assert main(["validate", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_a_load_out_of_memory_exits_two_on_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "make_grid", exhausted)
    path = write_config(tmp_path, shipped_config("point_sweep.json"))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path}: ran out of memory while loading\n"
    assert not out.exists()


def test_a_plan_beyond_memory_exits_two_before_any_profile(tmp_path, capsys, monkeypatch):
    # 51 distinct points of 4000 nodes: 6 arrays a point and the master grid
    # take 9.8 MB, one surface's four arrays 128 kB.
    def built(*args, **kwargs):
        raise AssertionError("a profile was built")

    monkeypatch.setattr(cli, "_memory_limit", lambda: 4 * 2**20)
    monkeypatch.setattr(cli, "build_weight", built)
    data = shipped_config("point_sweep.json")
    data["epsilons"] = [k / 50.0 for k in range(1, 51)]
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: numerics.n_nodes = 4000, epsilons (51 distinct values): the plan's "
        "grid arrays take 9824000 bytes, more than the 4194304 bytes this process may hold\n"
    )
    assert not out.exists()
    # one point is named by its grid alone
    data["epsilons"] = [0.0]
    monkeypatch.setattr(cli, "_memory_limit", lambda: 200_000)
    assert main(["validate", str(write_config(tmp_path, data))]) == 2
    assert capsys.readouterr().err.startswith("config error: numerics.n_nodes = 4000: the plan's")


def test_the_memory_limit_is_the_lower_of_memory_and_address_space(monkeypatch):
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(cli.resource, "getrlimit", lambda _: (cli.resource.RLIM_INFINITY,) * 2)
    assert cli._memory_limit() == physical
    monkeypatch.setattr(cli.resource, "getrlimit", lambda _: (2**20, cli.resource.RLIM_INFINITY))
    assert cli._memory_limit() == 2**20


# The values each kind accepts, ``kind`` aside: 57 of the 5 x 19 settable.
ACCEPTED_VALUES = {
    "validate": 7,
    "isospectral_check": 9,
    "offdiag_check": 13,
    "surgery_sweep": 14,
    "funnel_conformal_check": 14,
}


def test_each_kind_reads_its_own_keys_and_every_kind_the_common_ones():
    settable = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"kind", "numerics"}
    settable |= {f"numerics.{f.name}" for f in dataclasses.fields(NumericsConfig)}
    assert len(settable) == 19
    assert cli._KINDS.keys() == ACCEPTED_VALUES.keys()
    for name, kind in cli._KINDS.items():
        assert kind.reads - {"kind"} <= settable, name
        assert len(kind.reads - {"kind"}) == ACCEPTED_VALUES[name], name
        assert {"kind", "label", "notes", "output_dir", "surface_a"} <= kind.reads, name
        assert {kind.b, kind.family} - {None} <= kind.reads, name
    assert sum(ACCEPTED_VALUES.values()) == 57


def test_a_validate_run_builds_no_profile_grid_or_surface(tmp_path, monkeypatch):
    cfg = ScenarioConfig.from_json(CONFIGS / "validate.json")
    flat, surface = cfg.plan.surfaces
    assert (flat.n, surface.n) == (cli.FLAT_S_NODES, cli.ORACLE_S_NODES)
    assert (flat.profile.s_min, flat.profile.s_max) == (0.0, math.pi)

    def built(*args, **kwargs):
        raise AssertionError("the run built what its plan holds")

    for name in ("flat_cylinder", "make_grid", "build_weight", "Surface"):
        monkeypatch.setattr(cli, name, built)
    monkeypatch.setattr(discretize, "Surface", built)
    assert run_scenario(cfg, tmp_path).passed
    assert not hasattr(cli, "solve_modes")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("label", 0, "label must be a string, got 0"),
        ("notes", ["a"], "notes must be a string, got ['a']"),
        ("output_dir", [1], "output_dir must be a string or null, got [1]"),
    ],
)
def test_validate_rejects_non_string_text_keys(tmp_path, capsys, key, value, message):
    data = shipped_config("point_sweep.json")
    data[key] = value
    assert main(["validate", str(write_config(tmp_path, data))]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_validate_accepts_a_null_output_dir(tmp_path, capsys):
    data = shipped_config("point_sweep.json")
    data["output_dir"] = None
    assert main(["validate", str(write_config(tmp_path, data))]) == 0
    assert json.loads(capsys.readouterr().out)["output_dir"] is None


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_the_resolved_config_that_validate_prints_loads_back(tmp_path, capsys, path):
    # The echo sets every key, those its kind does not read at their
    # defaults, and a default is never flagged.
    assert main(["validate", str(path)]) == 0
    echo = capsys.readouterr().out
    resolved = tmp_path / "resolved.json"
    resolved.write_text(echo)
    assert main(["validate", str(resolved)]) == 0
    assert capsys.readouterr().out == echo


def test_an_unread_key_at_its_default_loads():
    data = shipped_config("validate.json")
    data["numerics"].update(lambda_cut=400, fit_k_max=3)
    data.update(surface_b={}, conformal_constants=[0.0, 0.2, 0.4])
    assert ScenarioConfig.from_dict(data) == ScenarioConfig.from_json(CONFIGS / "validate.json")


def _leaf_paths(node, path=()):
    """Key paths of every scalar in a config, list elements included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


SHIPPED_LEAVES = [
    (path.name, leaf)
    for path in sorted(CONFIGS.glob("*.json"))
    for leaf in _leaf_paths(json.loads(path.read_text()))
]


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(SHIPPED_LEAVES),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, 0, -1.0, 1.5, "x", True, None]),
)
def test_validate_exits_zero_or_names_the_mutated_key(case, bad):
    # One field of a shipped config set to NaN, an infinity, 0, a negative
    # number, an epsilon above 1 or the wrong type: validate accepts it or
    # exits 2 naming the key, and never raises.
    name, leaf = case
    data = shipped_config(name)
    node = data
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = bad
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp), data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert [k for k in leaf if isinstance(k, str)][-1] in err.getvalue()


def _load_keys(data):
    """Key paths that a load of ``data`` reads: every ``numerics`` key, the
    end fields of each member and its bump's fields, each family as a whole
    and as its one element (the trailing 0)."""
    keys = [("numerics", f.name) for f in dataclasses.fields(NumericsConfig)]
    for member in ("surface_a", "surface_b"):
        if member in data:
            keys += [
                (member, end, f.name)
                for end in ("left_end", "right_end")
                for f in dataclasses.fields(EndModel)
            ]
            if "bump" in data[member]:
                keys += [(member, "bump", f.name) for f in dataclasses.fields(BumpSpec)]
    families = ("epsilons", "conformal_constants")
    return keys + [(family, *tail) for family in families for tail in ((), (0,))]


LOAD_KEYS = [
    (path.name, key)
    for path in sorted(CONFIGS.glob("*.json"))
    for key in _load_keys(json.loads(path.read_text()))
]
LOAD_VALUES = [
    math.nan, math.inf, -math.inf, 0, -1, 1e300, -1e300, 10**13, 800.0,
    "", [], {}, True, None, [1, "x"],
]


# A weight that overflows to inf is rejected with no numpy warning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(LOAD_KEYS), bad=st.sampled_from(LOAD_VALUES))
def test_a_load_never_ends_in_a_traceback(case, bad):
    # One key of a shipped config, set or added, takes a non-finite, huge,
    # negative or wrongly typed value: validate accepts it or exits 2 with a
    # config error, and nothing raises.
    name, key = case
    data = shipped_config(name)
    if key[-1] == 0:
        data[key[0]] = [bad]
    else:
        node = data
        for part in key[:-1]:
            node = node.setdefault(part, {})
        node[key[-1]] = bad
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp), data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().splitlines()[-1].startswith("config error: ")


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


def light_sweep_dict(label):
    """A sweep that loads and solves in a fraction of a second."""
    return {
        "kind": "surgery_sweep",
        "label": label,
        "surface_a": MINI_SURFACE,
        "surface_b": {k: v for k, v in MINI_SURFACE.items() if k != "bump"},
        "epsilons": [0.0, 0.1],
        "numerics": dict(MINI_NUMERICS),
    }


TRACE_FAILURE = "ArithmeticError: relative trace failed"


def fail_relative_traces(monkeypatch):
    """Make every pair's relative trace raise: a run then fails in the stage
    of its first pair, after that pair's members are solved."""

    def failing(sys_a, sys_b):
        raise ArithmeticError("relative trace failed")

    monkeypatch.setattr(cli, "relative_trace_series", failing)


def test_component_failure_leaves_marker_and_fails(tmp_path, monkeypatch):
    cfg = ScenarioConfig.from_dict(light_sweep_dict("broken"))
    fail_relative_traces(monkeypatch)
    out = tmp_path / "broken"
    report = run_scenario(cfg, out)
    assert not report.passed
    assert report.failed_stage == "pair epsilon = 0.0"
    assert report.error == TRACE_FAILURE
    marker = (out / "FAILED").read_text()
    assert "stage:" in marker and "Traceback" in marker
    data = json.loads((out / "summary.json").read_text())
    assert data["passed"] is False
    assert data["failed_stage"] == report.failed_stage


MINI_PLAIN = {k: v for k, v in MINI_SURFACE.items() if k != "bump"}

# The mini chart with a cutoff the heat-invariant fit can use, so that every
# pair kind solves all of its pairs.
MINI_PAIR_NUMERICS = dict(MINI_NUMERICS, n_nodes=800, lambda_cut=400.0)

# One mini config per pair kind; each family repeats or reorders a point.
MINI_PAIR_KINDS = {
    "surgery_sweep": {"epsilons": [0.0, 0.2]},
    "isospectral_check": {},
    "funnel_conformal_check": {"conformal_constants": [0.0, 0.2, 0.0]},
}


def mini_pair_dict(kind, **extra):
    data = {
        "kind": kind,
        "surface_a": MINI_SURFACE,
        "surface_b": MINI_PLAIN,
        "numerics": dict(MINI_PAIR_NUMERICS),
        **extra,
    }
    if kind == "isospectral_check":  # compares surface_a against itself
        del data["surface_b"]
    return data


def record_solves(monkeypatch):
    """Replace the ModeQueue that cli builds by a pass-through that records,
    for each queue, every pair's member specs and the grid nodes of A and B."""
    queues = []
    make = cli.ModeQueue

    def recorder(surfaces, lambda_cut, **kwargs):
        queues.append([
            ((a.profile.spec, b.profile.spec), a.nodes, b.nodes)
            for a, b in zip(surfaces[::2], surfaces[1::2])
        ])
        return make(surfaces, lambda_cut, **kwargs)

    monkeypatch.setattr(cli, "ModeQueue", recorder)
    return queues


@pytest.mark.parametrize("kind", sorted(MINI_PAIR_KINDS))
def test_a_run_solves_each_distinct_point_once_on_the_first_grid(tmp_path, monkeypatch, kind):
    cfg = ScenarioConfig.from_dict(mini_pair_dict(kind, **MINI_PAIR_KINDS[kind]))
    queues = record_solves(monkeypatch)
    assert run_scenario(cfg, tmp_path).failed_stage is None
    points = cfg.points()
    distinct = [p for i, p in enumerate(points) if p not in points[:i]]
    [pairs] = queues
    assert [specs for specs, _, _ in pairs] == [
        tuple(m.spec for m in cfg.pair(**p)) for p in distinct
    ]
    first = pairs[0][1]
    assert len(first) == cfg.numerics.n_nodes
    for _, grid_a, grid_b in pairs:
        assert grid_b is grid_a and np.array_equal(grid_a, first[: len(grid_a)])


def test_each_solved_system_carries_its_planned_surface():
    cfg = ScenarioConfig.from_dict(mini_pair_dict("surgery_sweep", epsilons=[0.0, 0.2]))
    plan = cfg.plan
    assert len(plan.surfaces) == 4
    with discretize.ModeQueue(plan.surfaces, cfg.numerics.lambda_cut) as queue:
        for i in range(len(plan.surfaces)):
            assert queue.result(i).surface is plan.surfaces[i]


@pytest.mark.parametrize("kind", ["surgery_sweep", "funnel_conformal_check"])
def test_a_family_run_checks_the_decay_of_its_first_pair_last(tmp_path, monkeypatch, kind):
    cfg = ScenarioConfig.from_dict(mini_pair_dict(kind, **MINI_PAIR_KINDS[kind]))
    traces, decayed = [], []
    trace, check = cli.relative_trace_series, cli._check_decay

    def traced(sys_a, sys_b):
        traces.append(trace(sys_a, sys_b))
        return traces[-1]

    def checked(series, *args):
        decayed.append(series)
        check(series, *args)

    monkeypatch.setattr(cli, "relative_trace_series", traced)
    monkeypatch.setattr(cli, "_check_decay", checked)
    report = run_scenario(cfg, tmp_path)
    assert report.failed_stage is None
    assert len(decayed) == 1 and decayed[0] is traces[0]
    assert report.checks[-1].name == "long_time_decay" and report.checks[-1].passed
    assert "decay.csv" in report.artifacts
    rows = (tmp_path / "decay.csv").read_text().splitlines()
    assert rows[0] == "t,value,bound" and len(rows) > 1


def test_points_list_each_family_in_run_order():
    def points(kind):
        return ScenarioConfig.from_dict(mini_pair_dict(kind, **MINI_PAIR_KINDS[kind])).points()

    assert points("surgery_sweep") == [{"epsilon": e} for e in (0.0, 0.0, 0.2)]
    assert points("funnel_conformal_check") == [{"constant": c} for c in (0.0, 0.2, 0.0)]
    assert points("isospectral_check") == [{}]
    validate = ScenarioConfig.from_dict({"kind": "validate", "surface_a": MINI_SURFACE})
    assert validate.points() == []


def test_a_repeated_epsilon_is_solved_once_and_written_twice(tmp_path, monkeypatch):
    cfg = ScenarioConfig.from_dict(mini_pair_dict("surgery_sweep", epsilons=[0.0, 0.1, 0.1]))
    queues = record_solves(monkeypatch)
    report = run_scenario(cfg, tmp_path)
    assert report.failed_stage is None
    [pairs] = queues
    assert len(pairs) == 2
    assert (tmp_path / "trace_eps_01.csv").read_bytes() == (
        tmp_path / "trace_eps_02.csv"
    ).read_bytes()
    assert not (tmp_path / "trace_eps_00.csv").exists()  # epsilon 0 is trace_baseline.csv
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 3


def test_a_surface_failing_in_the_second_pair_fails_that_pairs_stage(tmp_path, monkeypatch):
    # Every member is queued before the first pair is taken; the error still
    # surfaces in the stage of the pair that owns the surface.
    cfg = ScenarioConfig.from_dict(mini_pair_dict("surgery_sweep", epsilons=[0.0, 0.2]))
    target = cfg.pair(epsilon=0.2)[1].spec
    error = ArithmeticError("member B at epsilon 0.2 failed")
    assemble = discretize.assemble_mode_operator

    def failing(surface, m, **kwargs):
        if surface.profile.spec == target and m == 1:
            raise error
        return assemble(surface, m, **kwargs)

    monkeypatch.setattr(discretize, "assemble_mode_operator", failing)
    before = threading.active_count()
    report = run_scenario(cfg, tmp_path)
    assert threading.active_count() == before
    assert report.failed_stage == "pair epsilon = 0.2"
    assert report.error == f"ArithmeticError: {error}"


def test_a_family_chart_off_the_first_left_end_is_named_at_plan():
    cfg = ScenarioConfig.from_dict(mini_pair_dict("surgery_sweep", epsilons=[0.0, 0.2]))
    shifted = tuple(
        dataclasses.replace(p, s_min=p.s_min + 0.1) for p in cfg.pair(epsilon=0.2)
    )
    family = [
        (f"pair epsilon = {e}", f"surface_a at epsilons value {e!r}",
         f"surface_b at epsilons value {e!r}", pair)
        for e, pair in ((0.0, cfg.pair(epsilon=0.0)), (0.2, shifted))
    ]
    message = "surface_a at epsilons value 0.2: family members must share the left chart endpoint"
    with pytest.raises(ConfigError, match=re.escape(message)):
        cli._pair_plan(family, cfg.numerics.n_nodes)


def test_a_run_leaves_no_thread_behind(tmp_path, monkeypatch):
    for label, cfg in (
        ("passing", ScenarioConfig.from_dict(mini_pair_dict("surgery_sweep", epsilons=[0.0, 0.2]))),
        ("failing", ScenarioConfig.from_dict(light_sweep_dict("broken"))),
    ):
        if label == "failing":
            fail_relative_traces(monkeypatch)
        before = threading.active_count()
        report = run_scenario(cfg, tmp_path / label)
        assert report.passed is (label == "passing")
        assert threading.active_count() == before, label


def light_offdiag_dict():
    """The shipped off-diagonal check on a 400-node grid."""
    data = shipped_config("offdiag.json")
    data["numerics"] = {"n_nodes": 400}
    return data


def test_an_offdiag_run_solves_both_resolutions_on_one_queue(tmp_path, monkeypatch):
    cfg = ScenarioConfig.from_dict(light_offdiag_dict())
    queues = []
    make = cli.ModeQueue

    def recorder(surfaces, lambda_cut, **kwargs):
        queues.append((surfaces, kwargs))
        return make(surfaces, lambda_cut, **kwargs)

    monkeypatch.setattr(cli, "ModeQueue", recorder)
    before = threading.active_count()
    report = run_scenario(cfg, tmp_path)
    assert threading.active_count() == before
    assert report.passed
    [(surfaces, kwargs)] = queues
    num = cfg.numerics
    assert kwargs == {"probes": (num.offdiag_y_s, num.offdiag_y2_s)}
    assert surfaces is cfg.plan.surfaces
    assert [surface.n for surface in surfaces] == [400, 600]
    assert all(surface.profile is surfaces[0].profile for surface in surfaces)
    assert surfaces[0].profile.spec == cfg.member("surface_a").spec


def test_load_and_run_sample_each_planned_weight_once(tmp_path, monkeypatch):
    # Load builds each surface and samples its weight on its grid; the run
    # solves those surfaces and samples nothing on their grids again.
    calls = []
    weight = MetricProfile.weight

    def counting(profile, s):
        calls.append((profile, s))
        return weight(profile, s)

    monkeypatch.setattr(MetricProfile, "weight", counting)
    for label, data, count in (
        ("sweep", mini_pair_dict("surgery_sweep", epsilons=[0.0, 0.2, 0.2]), 4),
        ("offdiag", light_offdiag_dict(), 2),
        ("validate", shipped_config("validate.json"), 2),
    ):
        calls.clear()
        cfg = ScenarioConfig.from_dict(data)
        assert run_scenario(cfg, tmp_path / label).passed, label
        surfaces = cfg.plan.surfaces
        assert len(surfaces) == count, label
        for surface in surfaces:
            once = [p is surface.profile and s is surface.nodes for p, s in calls]
            assert sum(once) == 1, label
        on_planned_grids = [s for _, s in calls if any(s is o.nodes for o in surfaces)]
        assert len(on_planned_grids) == count, label


def test_a_failing_refined_offdiag_surface_fails_refinement_stability(tmp_path, monkeypatch):
    # The n_nodes integrals are finished and written before the refined
    # surface's error is taken from the queue.
    cfg = ScenarioConfig.from_dict(light_offdiag_dict())
    passing = run_scenario(cfg, tmp_path / "passing")
    error = ArithmeticError("a mode of the refined surface failed")
    solve = discretize.solve_mode

    def failing(op, cut, **kwargs):
        if op.surface.n == 600 and op.m == 1:
            raise error
        return solve(op, cut, **kwargs)

    monkeypatch.setattr(discretize, "solve_mode", failing)
    before = threading.active_count()
    report = run_scenario(cfg, tmp_path / "failing")
    assert threading.active_count() == before
    assert report.failed_stage == "refinement stability"
    assert report.error == f"ArithmeticError: {error}"
    assert [c.to_dict() for c in report.checks] == [passing.checks[0].to_dict()]
    assert passing.checks[0].name == "gaussian_functional_finite"
    assert (tmp_path / "failing" / "offdiag.csv").read_bytes() == (
        tmp_path / "passing" / "offdiag.csv"
    ).read_bytes()
    assert sorted(report.artifacts) == ["FAILED", "offdiag.csv"]


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


def test_cli_run_exit_one_on_failure(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, light_sweep_dict("cli-broken"))
    fail_relative_traces(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "[FAIL]" in stdout
    assert (out / "FAILED").exists()
    # report verb mirrors the failure exit code
    assert main(["report", str(out)]) == 1
    capsys.readouterr()


def test_a_rerun_removes_the_artifacts_the_earlier_summary_lists(tmp_path):
    out = tmp_path / "out"
    first = ScenarioConfig.from_dict(mini_pair_dict("surgery_sweep", epsilons=[0.1, 0.2]))
    assert run_scenario(first, out).passed
    assert (out / "trace_eps_01.csv").exists()
    # Names that are not plain file names in ``out`` are left alone.
    summary = json.loads((out / "summary.json").read_text())
    summary["artifacts"] += ["../outside.txt", "sub/inner.txt", "sub"]
    (out / "summary.json").write_text(json.dumps(summary))
    (tmp_path / "outside.txt").write_text("kept\n")
    (out / "sub").mkdir()
    (out / "sub" / "inner.txt").write_text("kept\n")
    (out / "notes.txt").write_text("kept\n")
    second = ScenarioConfig.from_dict(mini_pair_dict("surgery_sweep", epsilons=[0.1]))
    assert run_scenario(second, out).passed
    assert (out / "trace_eps_00.csv").exists()
    assert not (out / "trace_eps_01.csv").exists()
    for kept in (tmp_path / "outside.txt", out / "sub" / "inner.txt", out / "notes.txt"):
        assert kept.read_text() == "kept\n"
    listed = json.loads((out / "summary.json").read_text())["artifacts"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*listed, "notes.txt", "sub", "summary.json"]
    )


def test_a_malformed_earlier_summary_removes_only_the_failed_marker(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for summary in ("{not json", '{"artifacts": "trace.csv"}', '["trace.csv"]'):
        (out / "summary.json").write_text(summary)
        for name in ("FAILED", "trace_eps_05.csv"):
            (out / name).write_text("stale\n")
        cfg = ScenarioConfig.from_dict(mini_isospectral_dict())
        assert run_scenario(cfg, out).passed
        assert not (out / "FAILED").exists()
        assert (out / "trace_eps_05.csv").read_text() == "stale\n"


def test_a_passing_rerun_removes_a_stale_failed_marker(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    broken = write_config(tmp_path, light_sweep_dict("cli-broken"), "broken.json")
    passing = write_config(tmp_path, mini_isospectral_dict("cli-iso"), "passing.json")
    with monkeypatch.context() as patch:
        fail_relative_traces(patch)
        assert main(["run", str(broken), "--out", str(out)]) == 1
    assert (out / "FAILED").exists()
    (out / "notes.txt").write_text("kept\n")
    assert main(["run", str(passing), "--out", str(out)]) == 0
    assert not (out / "FAILED").exists()
    assert (out / "notes.txt").read_text() == "kept\n"  # only the marker goes
    assert main(["report", str(out)]) == 0
    assert "[PASS] isospectral_check :: cli-iso" in capsys.readouterr().out


@pytest.mark.parametrize(
    "errno_code", [errno.EEXIST, errno.ENOTDIR], ids=["a-file", "under-a-file"]
)
def test_an_output_directory_that_cannot_be_created_exits_two(tmp_path, capsys, errno_code):
    cfg_path = write_config(tmp_path, mini_isospectral_dict("cli-iso"))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    out = blocker if errno_code == errno.EEXIST else blocker / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot create output directory {out}: {os.strerror(errno_code)}\n"
    assert blocker.read_text() == "a file\n"


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
    for top, name in (([1], "list"), (42, "int"), ("abc", "str"), (None, "NoneType")):
        capsys.readouterr()
        not_object = write_config(tmp_path, top, "top.json")
        assert main(["validate", str(not_object)]) == 2
        assert f"config: expected an object, got {name}" in capsys.readouterr().err
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


# ----------------------------------------------------------------------------
# start-up: what importing the command line loads
# ----------------------------------------------------------------------------

_STARTUP_PROBE = """
import json, sys

import relspec.cli

def heavy():
    return [
        m for m in ("scipy", "scipy.linalg", "scipy.linalg.cython_lapack", "scipy.special",
                    "scipy.sparse", "numpy.f2py", "numpy.polynomial", "_hashlib")
        if m in sys.modules
    ]

imported = heavy()
for path in sys.argv[1:]:
    relspec.cli.ScenarioConfig.from_json(path)
print(json.dumps({"imported": imported, "loaded": heavy()}))
"""


def test_importing_the_cli_loads_no_heavy_scipy_or_numpy_subpackage(repo_root):
    # Nor does loading a config of a kind other than validate, whose plan
    # alone needs the 2D oracle and so scipy.sparse.
    configs = [str(CONFIGS / name) for name in ("point_sweep.json", "offdiag.json")]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, *configs],
        capture_output=True,
        text=True,
        timeout=120,
        env=checkout_env(repo_root),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"imported": [], "loaded": []}


_FOOTPRINT_PROBE = """
import json, os, sys, tempfile

from relspec.cli import ScenarioConfig, run_scenario

cfg = ScenarioConfig.from_dict(json.loads(sys.argv[1]))
with tempfile.TemporaryDirectory() as out:
    passed = run_scenario(cfg, out).passed
with open("/proc/self/maps") as fh:
    files = {os.path.basename(line.split()[-1]) for line in fh if "/" in line}
print(json.dumps({
    "passed": passed,
    "openblas": sorted(f for f in files if "openblas" in f),
    "libcrypto": sorted(f for f in files if "libcrypto" in f),
    "modules": [m for m in ("scipy", "scipy.linalg.cython_lapack", "_hashlib") if m in sys.modules],
}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/maps")
def test_a_sweep_maps_one_openblas_and_no_openssl(repo_root):
    # The mode solves run on the LAPACK in numpy's own OpenBLAS, and the
    # surface labels need no hashlib: a run maps no second BLAS and no
    # libcrypto, and imports no scipy.
    sweep = mini_pair_dict("surgery_sweep", epsilons=[0.0, 0.2])
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(sweep)],
        capture_output=True,
        text=True,
        timeout=120,
        env=checkout_env(repo_root),
    )
    assert proc.returncode == 0, proc.stderr
    footprint = json.loads(proc.stdout)
    assert footprint["passed"] is True
    assert len(footprint["openblas"]) == 1, footprint["openblas"]
    assert footprint["libcrypto"] == []
    assert footprint["modules"] == []


_OPENBLAS_PROBE = """
import json, os

import numpy, scipy

before = len(os.listdir("/proc/self/task"))
import relspec.cli

print(json.dumps({
    "added": len(os.listdir("/proc/self/task")) - before,
    "value": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


def openblas_probe(repo_root, preset):
    """Native threads that ``import relspec.cli`` adds after numpy and
    scipy, and OPENBLAS_NUM_THREADS afterwards, with the variable unset or
    preset to ``preset``."""
    env = checkout_env(repo_root)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _OPENBLAS_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_loading_lapack_starts_no_blas_thread_and_keeps_the_environment(repo_root):
    assert openblas_probe(repo_root, None) == {"added": 0, "value": None}
    assert openblas_probe(repo_root, "3")["value"] == "3"
