"""Every exported and re-exported name of the package resolves, and every
function reads each of its parameters."""

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


def test_every_parameter_is_read():
    # A parameter no body reads is a knob that is reported but ignored.
    unread = []
    for path in sorted(Path(mapprox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                name.id
                for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.lineno} {node.name}({a.arg})"
                for a in params
                if a.arg != "self" and a.arg not in read
            ]
    assert unread == []
