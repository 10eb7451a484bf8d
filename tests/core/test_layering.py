"""Layering guard: ``repro.core`` is the DSL and its scalar semantics only.

Columnar evaluation lives in :mod:`repro.exec`; a numpy import in the
core would be the first step of a second evaluator.
"""

import ast
from pathlib import Path

import pytest

import repro.core

CORE_MODULES = sorted(Path(repro.core.__path__[0]).glob("*.py"))


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_core_modules_found():
    assert {p.name for p in CORE_MODULES} >= {"operators.py", "expressions.py"}


@pytest.mark.parametrize("path", CORE_MODULES, ids=lambda p: p.name)
def test_core_imports_no_numpy(path):
    assert "numpy" not in _imported_roots(path)
