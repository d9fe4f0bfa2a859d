"""The CLI turns values into text in one module: no module of
src/zetaforms but cli.py defines a `to_json_dict` or `describe` view,
calls `fraction_str` or `decimal_str`, or imports `decimal_str`, and the
oscillation and criterion records carry exact values only, so those two
modules import no text formatter at all."""

import ast
from pathlib import Path

import zetaforms

SOURCES = sorted(Path(zetaforms.__file__).parent.glob("*.py"))
VIEWS = {"to_json_dict", "describe"}
FORMATTERS = {"decimal_str", "fraction_str"}
VALUES_ONLY = {"oscillation.py", "criterion.py"}


def _defined(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _imported(tree: ast.Module) -> set[str]:
    return {alias.name.rpartition(".")[2] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def _called(tree: ast.Module) -> set[str]:
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_only_cli_formats_output():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    views = {name: _defined(tree) & VIEWS for name, tree in trees.items()}
    assert {name for name, found in views.items() if found} <= {"cli.py"}, views
    importers = {name for name, tree in trees.items() if "decimal_str" in _imported(tree)}
    assert importers == {"cli.py"}
    callers = {name for name, tree in trees.items() if _called(tree) & FORMATTERS}
    assert callers == {"cli.py"}
    for name in VALUES_ONLY:
        assert _imported(trees[name]) & FORMATTERS == set(), name
