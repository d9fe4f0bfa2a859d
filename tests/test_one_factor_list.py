"""The linear factors t + c of a factored function's rising blocks are
expanded in one place, `forms._linear_factors`: no other function in
src/zetaforms calls `range` on a block's `.length`.  Every other reader
(the pole cover, the exact evaluation, and the cutoff, zeros, seeds,
steps, sums and exact terms of direct_sum's walk) takes its constants
from that list."""

import ast
from pathlib import Path

import zetaforms

SOURCES = sorted(Path(zetaforms.__file__).parent.glob("*.py"))
EXPANDER = "_linear_factors"


def _ranges_over_a_length(tree: ast.Module):
    """(function name, line) of every `range(...)` call whose arguments
    read an attribute named `length`, inside a module-level function or a
    method."""
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [item for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            scopes.append(node)
    for scope in scopes:
        for call in ast.walk(scope):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "range"):
                continue
            if any(isinstance(sub, ast.Attribute) and sub.attr == "length"
                   for arg in call.args for sub in ast.walk(arg)):
                yield scope.name, call.lineno


def test_only_linear_factors_expands_a_block():
    found = [
        (path.name, name, line)
        for path in SOURCES
        for name, line in _ranges_over_a_length(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [name for _, name, _ in found] == [EXPANDER], found
