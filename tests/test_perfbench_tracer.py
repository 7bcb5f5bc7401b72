"""The benchmark's span tracer still finds the layer functions it wraps.

``perfbench/tracer.py`` patches relspec's layer functions by name from
outside the package, so a rename in ``src/`` would break
``perfbench/run.py --trace 1`` without failing any other test.  The tracer
is loaded from its file and used unedited.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys

from conftest import ROOT


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(tracer_mod):
    """Every relspec module and every class the tracer patches, by name."""
    for name in ("relspec.cli", "relspec.oracle"):
        importlib.import_module(name)
    owners = {k: m for k, m in sys.modules.items() if k == "relspec" or k.startswith("relspec.")}
    for mod_name, cls_name, *_ in tracer_mod.METHODS:
        owners[f"{mod_name}.{cls_name}"] = getattr(sys.modules[mod_name], cls_name)
    owners["MetricProfile"] = sys.modules["relspec.geometry"].MetricProfile
    return owners


def test_tracer_spans_every_mode_solve_and_uninstalls_cleanly(small_pair):
    tracer_mod = _load_tracer()
    owners = _namespaces(tracer_mod)
    before = {name: dict(vars(owner)) for name, owner in owners.items()}
    discretize = sys.modules["relspec.discretize"]
    profile, _ = small_pair
    grid = discretize.make_grid(profile, 900)

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for mod_name, fn_name, _ in tracer_mod.FUNCTIONS:
            assert getattr(sys.modules[mod_name], fn_name) is not before[mod_name][fn_name]
        system = discretize.solve_modes(profile, grid, 25.0)
    finally:
        tracer.uninstall()

    names = [span[2] for span in tracer.spans]
    assert system.m_max > 5
    assert names.count("discretize.solve_mode") == system.m_max + 1
    assert names.count("discretize.assemble_mode_operator") == system.m_max + 1
    assert names.count("discretize.solve_modes") == 1
    assert tracer.counts["discretize.eigenvalues"] == sum(
        len(vals) for vals in system.mode_eigenvalues.values()
    )
    for name, owner in owners.items():
        after = vars(owner)
        assert after.keys() == before[name].keys(), name
        assert all(after[key] is value for key, value in before[name].items()), name


def test_tracer_spans_every_mode_solve_of_a_probe_queue(small_pair):
    # An off-diagonal check solves its two grids on one queue, outside
    # ``solve_modes``: the per-mode spans and the eigenvalue count still see
    # every mode of both surfaces.
    tracer_mod = _load_tracer()
    discretize = sys.modules["relspec.discretize"]
    profile, _ = small_pair
    surfaces = [discretize.Surface(profile, discretize.make_grid(profile, n)) for n in (600, 900)]

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with discretize.ModeQueue(surfaces, 25.0, probes=(0.35, 0.9)) as queue:
            systems = [queue.result(i) for i in range(len(surfaces))]
    finally:
        tracer.uninstall()

    names = [span[2] for span in tracer.spans]
    modes = sum(system.m_max + 1 for system in systems)
    assert all(system.m_max > 5 and system.probes.modes for system in systems)
    assert all(system.vectors is None for system in systems)
    assert names.count("discretize.solve_mode") == modes
    assert names.count("discretize.assemble_mode_operator") == modes
    assert names.count("discretize.solve_modes") == 0
    assert tracer.counts["discretize.eigenvalues"] == sum(
        len(vals) for system in systems for vals in system.mode_eigenvalues.values()
    )


def test_tracer_spans_every_mode_solve_of_a_values_only_queue(small_pair):
    # A pair run solves its members' eigenvalues on one queue, outside
    # ``solve_modes``, each mode on its worker's workspace and its surface's
    # shared pencil base: every mode still goes through the two traced names.
    tracer_mod = _load_tracer()
    discretize = sys.modules["relspec.discretize"]
    profile_a, profile_b = small_pair
    grid = discretize.make_grid(profile_a, 900)
    surfaces = [discretize.Surface(profile_a, grid), discretize.Surface(profile_b, grid)]

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with discretize.ModeQueue(surfaces, 25.0) as queue:
            systems = [queue.result(i) for i in range(len(surfaces))]
    finally:
        tracer.uninstall()

    names = [span[2] for span in tracer.spans]
    modes = sum(system.m_max + 1 for system in systems)
    assert all(system.m_max > 5 and system.probes is None for system in systems)
    assert names.count("discretize.solve_mode") == modes
    assert names.count("discretize.assemble_mode_operator") == modes
    assert names.count("discretize.solve_modes") == 0
    assert tracer.counts["discretize.eigenvalues"] == sum(
        len(vals) for system in systems for vals in system.mode_eigenvalues.values()
    ) > 0
