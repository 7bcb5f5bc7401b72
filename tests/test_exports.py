"""Each library module's ``__all__`` lists exactly what it defines in public."""
from __future__ import annotations

import importlib
import inspect

import pytest

MODULES = ["geometry", "discretize", "spectral", "zeta", "oracle"]


@pytest.mark.parametrize("name", MODULES)
def test_a_module_exports_every_public_function_and_class_it_defines(name):
    module = importlib.import_module(f"relspec.{name}")
    exported = set(module.__all__)
    assert len(exported) == len(module.__all__), "a name is listed twice"
    assert sorted(n for n in exported if not hasattr(module, n)) == []
    defined = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - exported) == []
