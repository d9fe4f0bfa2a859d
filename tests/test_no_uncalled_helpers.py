"""Every function and method in src/zetaforms has a caller in the package:
each module-level function and each non-dunder method is named (as an
`ast.Name` or an `ast.Attribute`) somewhere in src/zetaforms outside its own
body.  Being exported through `__init__.py` is no excuse; the only
exceptions are the names in `OUTSIDE_CALLERS`, each with the caller outside
src/zetaforms that keeps it.

Likewise every module-level constant (each non-dunder name a module-level
assignment binds) is read somewhere in src/zetaforms, except the names in
`UNREAD_CONSTANTS`, each with the file outside src/zetaforms that reads it.

The stages of Zudilin's forms are composed once, in
`forms.zudilin_pipeline`: cli.py names none of `PIPELINE_STAGES`, not even
in an import."""

import ast
from collections import Counter
from pathlib import Path

import zetaforms

SOURCES = sorted(Path(zetaforms.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
ROOT = Path(__file__).resolve().parents[1]
# name -> (the file that keeps it, why)
OUTSIDE_CALLERS = {
    "zudilin_linear_form": ("bench/child.py", "calls it for the exact_ladder workload"),
    "hypothesis_multi": ("bench/tracer.py", "wraps it as the oscillation.hypothesis span"),
    "harmonic_power_sum": ("bench/tracer.py", "wraps it as the exact.harmonic_power_sum span"),
    "zeta_euler_maclaurin": ("bench/tracer.py", "wraps it as the zeta.em span; the "
                             "tests' oracle of the table's integers"),
    "power_tail_scaled": ("bench/tracer.py", "wraps it for the zeta.power_tail counters; "
                          "the tail of the Euler-Maclaurin oracle"),
    "terms": ("bench/tracer.py", "counts forms.pf_terms and forms.poles from it; the "
              "engine reads the per-pole integers, and terms stays public as their view"),
}
PIPELINE_STAGES = {"build_zudilin", "partial_fractions", "second_derivative",
                   "sum_over_k", "check_zudilin_vanishing"}
UNREAD_CONSTANTS = {
    "EXIT_USAGE": ("tests/test_cli.py", "argparse exits 2 itself on a usage error; "
                   "the tests compare against it"),
}


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
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if node.name in OUTSIDE_CALLERS:
                continue
            if everywhere[node.name] - _references(node)[node.name] <= 0:
                uncalled.append(f"{module}:{node.lineno} {qualname}")
    assert uncalled == [], "no caller in src/zetaforms: " + ", ".join(uncalled)


def _constants(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, node


def test_every_constant_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    reads = Counter()
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                reads[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                reads[sub.attr] += 1
    unread = [
        f"{module}:{node.lineno} {name}"
        for module, tree in trees.items()
        for name, node in _constants(tree)
        if name not in UNREAD_CONSTANTS and reads[name] == 0
    ]
    assert unread == [], "never read in src/zetaforms: " + ", ".join(unread)


def test_outside_callers_still_call():
    for name, (path, _) in {**OUTSIDE_CALLERS, **UNREAD_CONSTANTS}.items():
        assert name in (ROOT / path).read_text(encoding="utf-8"), (name, path)


def test_cli_composes_no_pipeline_stage():
    cli = Path(zetaforms.__file__).parent / "cli.py"
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    imported = {
        name for node in ast.walk(tree) if isinstance(node, ast.alias)
        for name in (node.name.rpartition(".")[2], node.asname)
    }
    named = (set(_references(tree)) | imported) & PIPELINE_STAGES
    assert named == set(), "cli.py composes the stages itself: " + ", ".join(sorted(named))
