"""Every exported and re-exported name of the package resolves, `import
mapprox` loads every traced layer and neither module it defers, every
function reads each of its parameters, every private module-level name
is used, no module but localtypes names the type kernel's engine, every
function the traced benchmark wraps still exists with the
parameters its counters bind, and every module parses under the grammar
of the oldest declared Python."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
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
    # Names the package loads on first access: each is its module's own.
    for name, home in mapprox._LAZY.items():
        module = importlib.import_module(f"mapprox.{home}")
        assert getattr(mapprox, name) is getattr(module, name), f"mapprox.{home}.{name}"
        assert name in dir(mapprox)
        checked += 1
    assert checked > 0


def test_modules_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.  This checks the
    # grammar only, not library calls new since 3.10.
    files = sorted(Path(mapprox.__file__).parent.glob("*.py"))
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    assert len(files) > 1


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


def test_every_private_name_is_used():
    # A private helper that a simplification left behind: defined at
    # module level, named nowhere else in the package.
    texts = {
        path: path.read_text()
        for path in sorted(Path(mapprox.__file__).parent.glob("*.py"))
    }
    defined = []
    for path, text in texts.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [
                (path.name, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    unused = [
        f"{module}:{name}"
        for module, name in defined
        if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts.values()) < 2
    ]
    assert defined
    assert unused == []



def test_only_localtypes_names_the_engine():
    # Every game enters the type kernel through a public TypeTable method,
    # behind the one depth guard in TypeTable._play: no other module names
    # the guard, the engine or the per-structure cache they read.
    private = {"_nv", "_play", "_structure_cache"}
    named = []
    for path in sorted(Path(mapprox.__file__).parent.glob("*.py")):
        if path.name == "localtypes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in private:
                named.append(f"{path.name}:{node.lineno} {name}")
    assert named == []

def load_spans(monkeypatch):
    """perfbench/spans.py as a module, loaded without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_import_loads_traced_layers_not_deferred_ones(monkeypatch):
    # The traced benchmark reads every layer it wraps from sys.modules right
    # after `import mapprox`; logic and randgen load on first use.  A fresh
    # interpreter, as this process has imported both already.
    layers = load_spans(monkeypatch).LAYERS
    script = (
        "import sys, mapprox; "
        "print(' '.join(sorted(k for k in sys.modules if k.startswith('mapprox.')))); "
        "mapprox.parse, mapprox.random_mapping; "
        "print(mapprox.logic.__name__, mapprox.randgen.__name__)"
    )
    src = str(Path(mapprox.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded, resolved = result.stdout.splitlines()
    loaded = set(loaded.split())
    assert {f"mapprox.{layer}" for layer in layers} <= loaded
    assert not {"mapprox.logic", "mapprox.randgen"} & loaded
    assert resolved == "mapprox.logic mapprox.randgen"


def test_traced_benchmark_names_resolve(monkeypatch):
    # perfbench/spans.py wraps functions by name and its counter hooks read
    # call arguments by parameter name; a renamed function or parameter
    # breaks every traced run.
    spans = load_spans(monkeypatch)
    wrapped, bound_total = {}, 0
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"mapprox.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mapprox.{layer}.{name}"
            wrapped[f"{layer}.{name}"] = getattr(module, name)
    for span, hook in spans.COUNTERS.items():
        assert span in wrapped, span
        tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
        bound = {
            node.slice.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
            and isinstance(node.slice, ast.Constant)
        }
        parameters = inspect.signature(wrapped[span]).parameters
        assert bound <= parameters.keys(), (span, bound - parameters.keys())
        bound_total += len(bound)
    assert bound_total > 0  # the hooks do read arguments
