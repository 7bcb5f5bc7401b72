"""Every ```python block of README.md runs as written, from the repo root.

Each block runs in a fresh namespace, so a block that leans on a name another
block defined, or on a name or a shape the package no longer has, fails here
instead of in a reader's session.
"""
from __future__ import annotations

import re

import pytest

from conftest import ROOT

BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": f"readme_block_{index}"})
