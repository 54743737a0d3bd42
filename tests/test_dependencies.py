"""The third-party packages the package imports are exactly its declared
runtime dependencies."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def third_party_imports(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def test_scan_finds_third_party_imports():
    source = "import os\nimport numpy.linalg\nfrom scipy import special\nfrom . import stats\ndef f():\n    import requests\n"
    assert third_party_imports(source) == {"numpy", "scipy", "requests"}


def test_runtime_imports_equal_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8")) for p in ROOT.glob("src/dial/*.py")))
    assert imported == declared
