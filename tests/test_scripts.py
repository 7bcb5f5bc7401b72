"""Every script under scripts/ imports cleanly against the current package.

The scripts guard their work behind ``if __name__ == "__main__"``, so loading
them as modules runs nothing; it only resolves their imports, so a script
that uses a removed name fails here instead of at its next use.
"""
from __future__ import annotations

import importlib.util
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
