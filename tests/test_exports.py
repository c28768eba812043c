"""Every exported and re-exported name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import mapprox


def test_module_all_names_resolve():
    checked = 0
    for info in pkgutil.iter_modules(mapprox.__path__):
        module = importlib.import_module(f"mapprox.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"mapprox.{info.name}.__all__ lists {name!r}"
            checked += 1
    assert checked > 0


def test_package_imports_resolve():
    tree = ast.parse(Path(mapprox.__file__).read_text())
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"mapprox.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"mapprox.{node.module}.{alias.name}"
                assert hasattr(mapprox, alias.asname or alias.name)
                checked += 1
    assert checked > 0
