"""Record the expected stdout digest of every op any seed can produce.

    python3 bench/record_expected.py

Runs each op of workloads.full_pool() once, untraced, at the checked-out
commit (about 3 minutes on one core), requires exit code 0 and the
output's own self-checks, and writes bench/expected.json.  The CLI
promises byte-identical output for inputs that already work, so this is
rerun only when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys

import run
from workloads import full_pool


def main() -> int:
    env = run.child_env(run.BUILD / "pycache-record")
    digests = {}
    for shape, ops in full_pool().items():
        for op in ops:
            stdout, code, latency, _, killed = run.spawn(run.child_cmd(op), env, 600)
            problem = "timed out" if killed else (
                f"exit code {code}" if code else run.output_self_check(op, stdout))
            if problem:
                print(f"{op.key}: {problem}", file=sys.stderr)
                return 1
            digests[op.key] = hashlib.sha256(stdout).hexdigest()
            print(f"{latency:8.3f} s  {op.key}", flush=True)
    doc = {"python": platform.python_version(), "digests": dict(sorted(digests.items()))}
    run.EXPECTED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
