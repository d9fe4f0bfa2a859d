"""README's command-line examples: every `zetaforms` line of its `sh`
blocks exits 0, and each `# psi = [...], ratio r` comment matches the
psi values and the ratio that the line prints."""

import json
import re
import shlex
from pathlib import Path

import pytest

from zetaforms.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LINES = [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
         for line in block.splitlines() if line.startswith("zetaforms ")]
PSI_CLAIM = re.compile(r"# psi = \[([\d, ]+), \.\.\.\], ratio ([\d.]+)$")


def test_readme_lists_its_examples():
    assert len(LINES) == 9
    assert sum(bool(PSI_CLAIM.search(line)) for line in LINES) == 2


@pytest.mark.parametrize("line", LINES)
def test_readme_example_runs(capsys, line):
    assert main(shlex.split(line, comments=True)[1:]) == EXIT_OK
    out = capsys.readouterr().out
    claim = PSI_CLAIM.search(line)
    if claim:
        psi = [int(x) for x in claim.group(1).split(", ")]
        doc = json.loads(out)
        assert doc["psi"][: len(psi)] == psi
        assert float(doc["verification"]["ratio"]) == float(claim.group(2))
