"""The public names: every name a module exports exists, and the package
namespace re-exports only names its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bishadow

MODULES = sorted(m.name for m in pkgutil.iter_modules(bishadow.__path__))


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
