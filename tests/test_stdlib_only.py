"""The package runs on the standard library alone: every absolute import
in src/zetaforms names a standard-library module (mpmath and hypothesis
are test-only oracles)."""

import ast
import sys
from pathlib import Path

import zetaforms

SOURCES = sorted(Path(zetaforms.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "forms.py", "cli.py"}


def test_runtime_imports_are_stdlib_only():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
