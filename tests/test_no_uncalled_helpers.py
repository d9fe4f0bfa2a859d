"""Every function and method in src/zetaforms has a caller in the package:
each module-level function and each non-dunder method is named (as an
`ast.Name` or an `ast.Attribute`) somewhere in src/zetaforms outside its own
body, or is exported through `__init__.py`."""

import ast
from collections import Counter
from pathlib import Path

import zetaforms

SOURCES = sorted(Path(zetaforms.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(node: ast.AST) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    exported = {
        alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if node.name in exported:
                continue
            if everywhere[node.name] - _references(node)[node.name] <= 0:
                uncalled.append(f"{module}:{node.lineno} {qualname}")
    assert uncalled == [], "no caller in src/zetaforms: " + ", ".join(uncalled)
