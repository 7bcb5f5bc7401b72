"""The benchmark's generated configs still load.

``perfbench/workloads.py`` derives each workload's config from a shipped one
and sets a few keys by seed.  A config that no longer loads would end every
benchmark pass as a failed run without failing any other test.  The module
is compiled from its source and run unedited, writing nothing beside it.
"""
from __future__ import annotations

import json
import types

import pytest

from relspec import cli
from relspec.cli import ScenarioConfig

from conftest import ROOT


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("_perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads = _load_workloads()

# The keys a workload may set beyond its shipped config.
SEEDED_KEYS = {
    "label", "notes", "epsilons",
    "numerics.n_nodes", "numerics.lambda_cut",
    "numerics.fit_k_max", "numerics.fit_window_lo", "numerics.fit_window_hi",
    "numerics.offdiag_y_s", "numerics.offdiag_y_theta",
    "numerics.offdiag_y2_s", "numerics.offdiag_y2_theta",
}


def _keys(data: dict) -> set[str]:
    return {k for k in data if k != "numerics"} | {
        f"numerics.{k}" for k in data.get("numerics", {})
    }


def _value(data: dict, key: str):
    if key.startswith("numerics."):
        return data.get("numerics", {}).get(key.removeprefix("numerics."))
    return data.get(key)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3, 2601])
def test_every_workload_config_loads(configs_dir, workload, seed):
    data = workloads.generate(workload, seed, configs_dir)
    cfg = ScenarioConfig.from_dict(data)
    assert cfg.label == f"bench-{workload}-seed{seed}"
    assert _keys(data) <= cli._KINDS[cfg.kind].reads


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2601])
def test_a_workload_sets_only_seeded_keys_its_kind_reads(configs_dir, workload, seed):
    shipped_name, _ = workloads.WORKLOADS[workload]
    shipped = json.loads((configs_dir / shipped_name).read_text())
    data = workloads.generate(workload, seed, configs_dir)
    set_here = {k for k in _keys(data) - {"surface_a"} if _value(data, k) != _value(shipped, k)}
    assert set_here <= SEEDED_KEYS
    assert set_here <= cli._KINDS[data["kind"]].reads
