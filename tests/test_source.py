"""Checks on the source tree itself, which running the package would not
make."""

import ast
import importlib
import importlib.util
import pathlib
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
