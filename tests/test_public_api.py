"""The public names: every name a module exports exists, the package
namespace re-exports only names its modules export, and the kernel
modules define nothing, top level or class member, that only the tests
reach."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bishadow

MODULES = sorted(m.name for m in pkgutil.iter_modules(bishadow.__path__))
PACKAGE = Path(bishadow.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
KERNEL = [m for m in MODULES if m != "oracle"]  # oracle holds the references


def package_imports():
    """(module, name) for every relative import in bishadow/__init__.py."""
    tree = ast.parse(Path(bishadow.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"bishadow.{name}")
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports), "duplicate names in __all__"
    assert [n for n in exports if not hasattr(module, n)] == []


def test_package_imports_only_exports():
    imports = package_imports()
    assert imports
    stray = [(mod, name) for mod, name in imports
             if name not in getattr(importlib.import_module(f"bishadow.{mod}"), "__all__", ())]
    assert stray == []


LIBRARIES = {"np", "numpy", "math"}


def names_used(path):
    """Every ast.Name id and ast.Attribute attr in the file, leaving out
    attributes read off numpy or math (np.log does not reach Phase.log) and
    a top-level function's or class's references to its own name."""
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) or (isinstance(node, ast.Attribute) and not (
                     isinstance(node.value, ast.Name) and node.value.id in LIBRARIES))}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def members(cls: ast.ClassDef):
    """Non-dunder methods, properties and annotated fields of a class body."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
            yield node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_kernel_defines_nothing_only_tests_reach():
    # __init__.py only re-exports; a test-only reference belongs in tests/_oracles.py
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(names_used(p) for p in callers))
    unused = []
    for mod in KERNEL:
        for stmt in ast.parse((PACKAGE / f"{mod}.py").read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in used:
                unused.append((mod, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                unused += [(mod, f"{stmt.name}.{name}") for name in members(stmt) if name not in used]
    assert unused == []


def inverse_readers(path):
    """Top-level definitions in the file that read linalg.inv, one entry per read."""
    return [getattr(stmt, "name", "<module>")
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and node.attr == "inv"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]


def test_only_splitting_bases_are_inverted():
    # no kernel path inverts Df; the one inverse is a splitting's basis_inv
    readers = [(mod, name) for mod in KERNEL for name in inverse_readers(PACKAGE / f"{mod}.py")]
    assert readers == [("splitting", "_checked_basis")]
