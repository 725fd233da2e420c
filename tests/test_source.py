"""Checks on the source tree itself, which running the package would not
make."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves(monkeypatch):
    # A traced benchmark run wraps each `LAYERS` name in its grasspace
    # module; a name moved elsewhere would silently drop its span.  The
    # tracing module is loaded from its file with bytecode writing off, so
    # nothing is written under perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.LAYERS.items():
        namespace = importlib.import_module(f"grasspace.{module}")
        for name in names:
            getattr(namespace, name)  # AttributeError names what a traced run would miss


def test_importing_the_package_loads_no_dataclasses():
    # Every command and script is a fresh process that pays for what
    # `import grasspace` loads before its first verdict; `dataclasses` alone
    # brings inspect, ast, dis and tokenize and runs generated code per class.
    probe = (
        "import sys; before = set(sys.modules); import grasspace, grasspace.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "grasspace.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_no_assert_statement_in_the_package():
    # `python -O` strips assert statements, so every check in the package
    # raises explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "grasspace").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_private_helper_is_read():
    # `src/` is the program: a top-level `_name` function or class that no
    # module of the package reads, as a name, an attribute or an import,
    # is dead code or serves only tests and tools.
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted((ROOT / "src" / "grasspace").glob("*.py"))
    ]
    helpers = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    ]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert helpers and [name for name in helpers if name not in read] == []
