"""One dataset-to-gate assembly in the package: the pool, matrix, fit and
proposal steps are each called from one function, so a second copy of
the path cannot come back unnoticed."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/dial/*.py"))
ASSEMBLY_CALLS = ("build_pool", "build_matrix", "fit_gate", "propose")


def callers(source: str, module: str) -> dict:
    """Each assembly step called in ``source`` -> the set of functions
    (``module.qualname``, or ``module`` at top level) that call it."""
    found: dict = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ASSEMBLY_CALLS:
                    found.setdefault(name, set()).add(scope)
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_scan_finds_callers():
    source = (
        "from dial import features\nX = build_matrix([], [])\n"
        "def a():\n    return fit_gate(build_matrix(r, build_pool()))\n"
        "class K:\n    def m(self):\n        def inner():\n            features.build_pool(None)\n"
    )
    assert callers(source, "mod") == {
        "build_matrix": {"mod", "mod.a"},
        "fit_gate": {"mod.a"},
        "build_pool": {"mod.a", "mod.K.m.inner"},
    }


def test_each_assembly_step_has_one_caller_in_the_package():
    found: dict = {}
    for path in MODULES:
        for name, scopes in callers(path.read_text(encoding="utf-8"), path.stem).items():
            found.setdefault(name, set()).update(scopes)
    assert found == {name: {"cli.fit_dataset"} for name in ASSEMBLY_CALLS}
