"""Layering guards.

``repro.core`` is the DSL and its scalar semantics only: columnar
evaluation lives in :mod:`repro.exec`, and a numpy import in the core
would be the first step of a second evaluator.

The batch engines and the runtime never decide a string column's kind
from its name: the field registry (:mod:`repro.core.fields`) gives trace
columns their kind, a :class:`~repro.exec.Vocab` carries it from there,
and the per-packet oracle keeps its own rule in
:mod:`repro.packets.packet`. A field-name literal in :mod:`repro.exec` or
:mod:`repro.runtime` would be the first step back to a rule that a map's
rename breaks.

One process pool: :mod:`repro.parallel.pool` alone imports
``concurrent.futures`` or ``multiprocessing``; every fan-out in the tree
goes through its ``parallel_map``.

Packets sit below everything that replays them: :mod:`repro.packets`
imports only :mod:`repro.core`, :mod:`repro.utils`, :mod:`repro.obs` and
itself.

One production interpreter: the row-wise :mod:`repro.streaming.rowops`
is the ``engine="rowwise"`` oracle's alone. Every production path —
stream processor, planner costs, ground truth, plan measurement, network
collector — filters, aggregates and joins on :mod:`repro.exec` through
:mod:`repro.streaming.batchops`; a production import of ``rowops`` would
be the first step back to a second set of semantics.
"""

import ast
from pathlib import Path

import pytest

import repro
import repro.core
import repro.exec
import repro.runtime

CORE_MODULES = sorted(Path(repro.core.__path__[0]).glob("*.py"))
ENGINE_MODULES = sorted(
    path
    for package in (repro.exec, repro.runtime)
    for path in Path(package.__path__[0]).glob("*.py")
)
STRING_FIELD_NAMES = {"payload", "dns.rr.name"}
SRC_ROOT = Path(repro.__path__[0])
POOL_MODULE = SRC_ROOT / "parallel" / "pool.py"
PROCESS_MODULES = {"concurrent", "multiprocessing"}
PACKETS_DEPENDENCIES = {"repro.core", "repro.utils", "repro.obs", "repro.packets"}
ROWOPS = "repro.streaming.rowops"
#: What ``repro.streaming`` re-exports of ``rowops``.
ROWOPS_NAMES = {"rowops", "apply_operator", "apply_operators"}
#: The row-wise oracle's modules, and the package that re-exports it.
ORACLE_MODULES = {
    "streaming/__init__.py",
    "streaming/engine.py",
    "runtime/emitter.py",
    "runtime/runtime.py",
}


def _imported_modules(path: Path) -> set[str]:
    """Modules ``path`` imports by absolute name, at any depth of its code."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module)
    return modules


def _imported_roots(path: Path) -> set[str]:
    """Top-level packages ``path`` imports, at any depth of its code."""
    return {name.split(".")[0] for name in _imported_modules(path)}


def test_only_the_pool_starts_processes():
    assert POOL_MODULE.is_file()
    assert PROCESS_MODULES <= _imported_roots(POOL_MODULE)
    offenders = sorted(
        str(path.relative_to(SRC_ROOT))
        for path in SRC_ROOT.rglob("*.py")
        if path != POOL_MODULE and _imported_roots(path) & PROCESS_MODULES
    )
    assert not offenders, f"process pools outside repro.parallel.pool: {offenders}"


def test_packets_imports_only_lower_layers():
    paths = sorted((SRC_ROOT / "packets").glob("*.py"))
    assert {p.name for p in paths} >= {"generator.py", "trace.py"}
    stray = {}
    for path in paths:
        packages = {
            ".".join(name.split(".")[:2])
            for name in _imported_modules(path)
            if name.startswith("repro.")
        }
        if packages - PACKETS_DEPENDENCIES:
            stray[path.name] = sorted(packages - PACKETS_DEPENDENCIES)
    assert not stray, f"repro.packets imports layers above it: {stray}"


def _imports_rowops(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            if any(alias.name == ROWOPS for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == ROWOPS or (node.level and node.module == "rowops"):
                return True
            if node.module == "repro.streaming" and any(
                alias.name in ROWOPS_NAMES for alias in node.names
            ):
                return True
    return False


def test_only_the_oracle_imports_rowops():
    importers = {
        str(path.relative_to(SRC_ROOT))
        for path in SRC_ROOT.rglob("*.py")
        if path.name != "rowops.py" and _imports_rowops(path)
    }
    assert "runtime/runtime.py" in importers  # the guard sees the oracle
    stray = sorted(importers - ORACLE_MODULES)
    assert not stray, f"production modules import repro.streaming.rowops: {stray}"


def test_core_modules_found():
    assert {p.name for p in CORE_MODULES} >= {"operators.py", "expressions.py"}


@pytest.mark.parametrize("path", CORE_MODULES, ids=lambda p: p.name)
def test_core_imports_no_numpy(path):
    assert "numpy" not in _imported_roots(path)


def test_engine_modules_found():
    assert {p.name for p in ENGINE_MODULES} >= {"columns.py", "kernels.py", "wire.py"}


@pytest.mark.parametrize(
    "path", ENGINE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_engine_names_no_string_field(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in STRING_FIELD_NAMES
    ]
    assert not lines, f"string field name literal on line(s) {lines}"
