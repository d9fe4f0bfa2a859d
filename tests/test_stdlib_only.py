"""The package runs on the standard library alone: every absolute import
in src/zetaforms names a standard-library module (mpmath and hypothesis
are test-only oracles).  A fresh process loads only the modules of the
layers its command runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


BASE = {"zetaforms", "zetaforms.cli", "zetaforms.errors", "zetaforms.exact",
        "zetaforms.fixedpoint"}
LAYERS = {f"zetaforms.{p.stem}" for p in SOURCES if p.stem != "__init__"}
CLI_RUN = "import zetaforms.cli\nzetaforms.cli.main({argv!r})\n"


@pytest.mark.parametrize("code, loaded", [
    ("import zetaforms\n", {"zetaforms"}),
    (f"import {', '.join(sorted(LAYERS))}\n", {"zetaforms"} | LAYERS),
    ("import zetaforms.cli\nzetaforms.cli.build_parser()\n", BASE),
    (CLI_RUN.format(argv=["form", "--n", "1"]),
     BASE | {"zetaforms.forms", "zetaforms.zeta", "zetaforms.criterion"}),
    (CLI_RUN.format(argv=["subseq", "--omega", "sqrt2", "--phi", "0", "--count", "20"]),
     BASE | {"zetaforms.oscillation"}),
    (CLI_RUN.format(argv=["density", "--theta", "sqrt2,e", "--box", "0.1:0.35,0.2:0.7",
                          "--kmax", "1000"]),
     BASE | {"zetaforms.oscillation"}),
    (CLI_RUN.format(argv=["criterion", "--zudilin"]), BASE | {"zetaforms.criterion"}),
    (CLI_RUN.format(argv=["criterion", "--zudilin", "--omega", "sqrt2", "--phi", "0"]),
     BASE | {"zetaforms.criterion", "zetaforms.oscillation"}),
    # bench/child.py's exact op: the library path, after importing the CLI
    ("import zetaforms.cli\nfrom zetaforms import forms\n"
     "forms.common_denominator(forms.zudilin_linear_form(2, max_n=2))\n",
     BASE | {"zetaforms.forms"}),
], ids=["package", "every-module", "parser", "form", "subseq", "density", "criterion",
        "criterion-pairs", "exact"])
def test_each_command_loads_only_its_layers(code, loaded):
    # a fresh interpreter per case, as every CLI run starts: the package
    # binds __version__ alone, each command imports the layers it runs, and
    # nothing else is new but __future__ beyond what json, argparse (locale,
    # once a parser is built), fractions and typing already loaded
    # (dataclasses pulled in inspect, ast, dis and tokenize, about 20 ms of
    # each start)
    code = ("import sys, json, argparse, fractions, typing\n"
            "argparse.ArgumentParser()\n"
            "before = set(sys.modules)\n" + code +
            "print(*sorted(set(sys.modules) - before), file=sys.stderr)\n")
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parents[1])}
    new = set(subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stderr.split())
    assert {m for m in new if m.split(".")[0] == "zetaforms"} == loaded
    assert {m for m in new if m.split(".")[0] != "zetaforms"} <= {"__future__"}
