"""Every name the benchmark tracer wraps still exists in zetaforms.

`bench/tracer.install` looks up each `SPANS` entry and the `zeta.<name>`
attributes it patches by hand; a deleted or renamed one would crash every
traced benchmark run.  The tracer source is read, never imported or run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _spans(tree: ast.Module) -> list[tuple[str, str]]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py has no SPANS tuple")


def _zeta_attributes(tree: ast.Module) -> set[str]:
    install = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    return {
        node.attr for node in ast.walk(install)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "zeta"
    }


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(f"zetaforms.{module}")
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_traced_names_resolve():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    names = _spans(tree) + [("zeta", attr) for attr in sorted(_zeta_attributes(tree))]
    assert ("zeta", "bernoulli") in names and ("zeta", "power_tail_scaled") in names
    missing = [f"{module}.{attr}" for module, attr in names if not _resolves(module, attr)]
    assert missing == [], "traced by bench/tracer.py but gone: " + ", ".join(missing)
