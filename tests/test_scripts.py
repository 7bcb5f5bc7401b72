"""Every script under scripts/ imports cleanly against the current package.

The scripts guard their work behind ``if __name__ == "__main__"``, so loading
them as modules runs nothing; it only resolves their imports, so a script
that uses a removed name fails here instead of at its next use.
"""
from __future__ import annotations

import importlib.util
import json
import shutil
import sys

import pytest

from conftest import ROOT

SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_directory_is_not_empty():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports_without_running(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src/
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _load(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_shifts_and_gates_on_the_budget(tmp_path, capsys):
    compare = _load("compare_outputs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("t,value\n0.1,2.0\n")
    header = "# gap=0.5\nepsilon,log_det,budget_total\n"
    (parent / "run" / "sweep.csv").write_text(header + "0.0,1.0,0.01\n0.1,2.0,0.001\n")
    (change / "run" / "sweep.csv").write_text(header + "0.0,1.005,0.01\n0.1,2.0,0.001\n")

    assert compare.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "run/same.csv: identical" in out
    assert "log_det" in out and "epsilon" not in out.split("run/sweep.csv:")[1]
    assert "/ parent budget_total = 5.00e-01 (ok)" in out

    # a shift that reaches the parent's budget fails
    (change / "run" / "sweep.csv").write_text(header + "0.0,1.0,0.01\n0.1,2.002,0.001\n")
    assert compare.main([str(parent), str(change)]) == 1
    assert "2.00e+00 (FAIL)" in capsys.readouterr().out

    # tables that cannot be lined up row by row fail too
    (change / "run" / "sweep.csv").write_text(header + "0.0,1.0,0.01\n")
    assert compare.main([str(parent), str(change)]) == 1
    assert "cannot compare" in capsys.readouterr().out

    # a changed non-numeric cell is reported as changed, not as a shift
    (change / "run" / "sweep.csv").write_text(
        "# gap=0.5\n# pair_id=b\nepsilon,log_det,budget_total\n0.0,1.0,0.01\n0.1,2.0,0.001\n"
    )
    (parent / "run" / "sweep.csv").write_text(
        "# gap=0.5\n# pair_id=a\nepsilon,log_det,budget_total\n0.0,1.0,0.01\n0.1,2.0,0.001\n"
    )
    assert compare.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "# pair_id" in out and "changed" in out and "inf" not in out

    # a CSV lost from the change tree fails; one only in the change does not
    (change / "run" / "new.csv").write_text("t,value\n0.1,2.0\n")
    assert compare.main([str(parent), str(change)]) == 0
    assert "run/new.csv: only in the change tree\n" in capsys.readouterr().out
    (change / "run" / "new.csv").unlink()
    (change / "run" / "same.csv").unlink()
    assert compare.main([str(parent), str(change)]) == 1
    assert "run/same.csv: only in the parent tree (FAIL)" in capsys.readouterr().out
    (change / "run" / "same.csv").write_text("t,value\n0.1,2.0\n")

    # summary check tables: identical, moved, and a lost pass
    def summary(root, *checks):
        rows = [dict(zip(("name", "passed", "value", "tolerance", "detail"), c)) for c in checks]
        (root / "run" / "summary.json").write_text(json.dumps({"checks": rows}))

    summary(parent, ("gap", True, 0.5, 1.0, "a"), ("drift", True, float("nan"), None, ""))
    summary(change, ("gap", True, 0.5, 1.0, "b"), ("drift", True, float("nan"), None, ""))
    assert compare.main([str(parent), str(change)]) == 0
    assert "run/summary.json: checks identical" in capsys.readouterr().out
    summary(change, ("gap", True, 0.6, 1.0, ""), ("drift", True, float("nan"), None, ""))
    assert compare.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "  gap: pass value=0.5 tolerance=1.0 -> pass value=0.6 tolerance=1.0\n" in out
    assert "drift" not in out
    summary(change, ("gap", False, 1.5, 1.0, ""))
    assert compare.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "gap: pass value=0.5 tolerance=1.0 -> fail value=1.5 tolerance=1.0 (FAIL)" in out
    assert "drift: pass value=nan tolerance=None -> absent (FAIL)" in out


def test_truncation_study_runs_on_a_shipped_config(capsys):
    # Only the truncations that the pair's ends read are varied.
    study = _load("truncation_study")
    for config, variants in (
        ("point_sweep.json", ("funnel deeper", "cap +4")),  # funnel + filled cap
        ("boundary_sweep.json", ("cusp x2",)),  # Dirichlet boundary + cusp
    ):
        assert study.main(["--config", str(ROOT / "configs" / config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        shown = [line[:14].strip() for line in lines if "log_det=" in line]
        assert shown == ["baseline", *variants], config


def test_run_all_scenarios_on_one_config(tmp_path, capsys):
    runner = _load("run_all_scenarios")
    configs = tmp_path / "configs"
    configs.mkdir()
    shutil.copy(ROOT / "configs" / "isospectral.json", configs)
    code = runner.main(["--configs", str(configs), "--out", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS  isospectral") for line in lines)


def test_run_all_scenarios_reports_a_bad_config_and_runs_the_rest(tmp_path, capsys):
    runner = _load("run_all_scenarios")
    configs = tmp_path / "configs"
    configs.mkdir()
    # sorts before isospectral.json, so the good config runs after the bad one
    (configs / "a_stale.json").write_text(
        '{"kind": "validate", "numerics": {"t_max": 30.0}}'
    )
    shutil.copy(ROOT / "configs" / "isospectral.json", configs)
    code = runner.main(["--configs", str(configs), "--out", str(tmp_path / "out")])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("CONFIG a_stale.json: numerics: unknown keys ['t_max']")
    assert any(line.startswith("PASS  isospectral") for line in lines[1:])
