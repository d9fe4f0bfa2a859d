"""Every op the benchmark can run prints the bytes recorded for it.

`bench/expected.json` holds the SHA-256 of the stdout of each op in
`bench/workloads.full_pool()`: the `cli` ops through `zetaforms.cli.main`
and the `exact` ops through `bench/child.py`'s `run_exact`.  Here both run
in this process, so a changed byte fails tier-1, not only a benchmark
run.  The two bench files are loaded by path and only read."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from zetaforms import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["digests"]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads, child = _load("workloads"), _load("child")
OPS = [op for ops in workloads.full_pool().values() for op in ops]


def test_every_op_has_a_digest():
    assert sorted(op.key for op in OPS) == sorted(DIGESTS)


@pytest.mark.parametrize("op", OPS, ids=[op.key for op in OPS])
def test_stdout_matches_its_digest(capsys, op):
    if op.kind == "cli":
        code = cli.main(list(op.argv))
    else:
        code = child.run_exact(int(op.argv[0]))
    assert code == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DIGESTS[op.key]
