"""One benchmark op in a fresh process.

    python3 bench/child.py [--trace FILE OP_ID] cli ARGV...
    python3 bench/child.py [--trace FILE OP_ID] exact N

`cli` runs `zetaforms.cli.main(ARGV)` and exits with its code, as the
`zetaforms` console script does.  `exact` runs the library path
`zudilin_linear_form(N, max_n=N)` plus `common_denominator` and prints the
form as JSON.  With `--trace`, the calls into the package are wrapped
(see tracer.py) before the op starts and the spans are written to FILE
after it ends; stdout is the same either way.  The last stderr line is the
process's peak RSS in KiB.
"""

from __future__ import annotations

import json
import sys

PEAK_RSS_TAG = "bench-peak-rss-kb "  # starts the last stderr line


def run_exact(n: int) -> int:
    from zetaforms import forms

    form = forms.zudilin_linear_form(n, max_n=n)
    denominator, report = forms.common_denominator(form)
    doc = {
        "n": n,
        "ell0": forms.fraction_str(form.ell0),
        "coeffs": {str(s): forms.fraction_str(c)
                   for s, c in sorted(form.coefficients.items())},
        "denominator": str(denominator),
        "denominator_report": report,
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def report_peak_rss() -> None:
    """This process's peak RSS (VmHWM), as the last stderr line."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    print(f"{PEAK_RSS_TAG}{line.split()[1]}", file=sys.stderr)
    except OSError:
        pass  # no procfs: peak RSS is reported as 0


def main(argv: list[str]) -> int:
    trace = None
    if argv[:1] == ["--trace"]:
        trace, argv = argv[1:3], argv[3:]
    kind, rest = argv[0], argv[1:]

    import zetaforms.cli

    if kind == "cli":
        op = lambda: zetaforms.cli.main(rest)  # noqa: E731 - looked up after install
    elif kind == "exact":
        op = lambda: run_exact(int(rest[0]))  # noqa: E731
    else:
        raise SystemExit(f"unknown op kind {kind!r}")
    if trace is None:
        code = op()
    else:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
        code = recorder.call("child.op", op)
        sys.stdout.flush()
        recorder.dump(*trace)
    report_peak_rss()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
