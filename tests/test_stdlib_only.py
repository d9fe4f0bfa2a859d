"""The package runs on the standard library alone: every absolute import
in src/zetaforms names a standard-library module (mpmath and hypothesis
are test-only oracles)."""

import ast
import os
import subprocess
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


def test_cli_import_loads_only_the_package():
    # a fresh interpreter, as every CLI run starts: importing zetaforms.cli
    # adds the package and __future__ to what json, argparse, fractions and
    # typing already loaded (dataclasses pulled in inspect, ast, dis and
    # tokenize, about 20 ms of each start)
    code = (
        "import sys, json, argparse, fractions, typing\n"
        "before = set(sys.modules)\n"
        "import zetaforms.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parents[1])}
    new = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split()
    assert "zetaforms.cli" in new
    assert [m for m in new if m != "__future__" and m.split(".")[0] != "zetaforms"] == []
