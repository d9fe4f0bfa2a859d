"""CLI fuzz: every argv of `form`, `subseq`, `density` and `criterion`, and
every `subseq --relations` file, ends in a documented exit code, and every
error exit prints a JSON error document.

Runs in process on small sizes: `--count` up to 30, `--kmax` small or past
the walk budget, at most two relation generators, and `form` past its caps
or at n = 1 with the default digits.  Pi-multiples keep denominators up to
6, since a pi-rational omega of denominator d costs one 60-digit cosine per
residue in 1..d.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zetaforms.cli import (
    EXIT_BUDGET,
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_FORM_DIGITS,
    main,
)
from zetaforms.exact import fraction_str
from zetaforms.oscillation import parse_angle

ERROR_KINDS = {EXIT_DOMAIN: "domain", EXIT_BUDGET: "budget", EXIT_INTERNAL: "internal"}

# decimal exponents: ordinary ones, the double range's edge, the 1/pi pin
# and cosine budgets near 10^3960, and the literal cap past 20000
exponents = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([-4400, -3990, -310, 300, 308, 309, 310, 400, 3900, 3960,
                     3967, 3990, 4100, 20_001, -20_001, 99_999_999]),
)
mantissas = st.one_of(
    st.integers(0, 999).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 99), st.integers(0, 99)),
    st.builds(lambda m, x: f"{m}e{x}", st.integers(0, 99), exponents),
    st.builds(lambda m, f, x: f"{m}.{f}E{x}", st.integers(0, 9), st.integers(0, 999),
              exponents),
)
pi_multiples = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}*pi", st.integers(-24, 24), st.integers(0, 6)),
    st.builds(lambda m, x: f"{m}e{x}*pi", st.integers(1, 9),
              st.one_of(st.integers(0, 400), st.integers(-4400, -31))),
)
terms = st.one_of(
    mantissas,
    pi_multiples,
    st.sampled_from(["pi", "sqrt2", "e", "-e", "1/2*sqrt2"]),
    st.builds(lambda m, name: f"{m}*{name}", mantissas, st.sampled_from(["sqrt2", "e"])),
)


def mostly(valid, malformed):
    """`valid` nine draws in ten, `malformed` the tenth."""
    return st.sampled_from([valid] * 9 + [malformed]).flatmap(lambda chosen: chosen)


angles = mostly(st.lists(terms, min_size=1, max_size=3).map("+".join),
                st.sampled_from(["x", "", "1/0", "--1", "0.3e", "pi*2", "1e5e5"]))

counts = st.integers(1, 30).map(str)
# one box axis counts any k_max by floor sums; two or more walk up to
# KW_MAX_WALK = 10^8 and refuse more
kmaxes = st.one_of(st.integers(1, 300), st.integers(10**8 + 1, 10**40)).map(str)
box_ends = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 9), st.integers(1, 9)),
    st.sampled_from(["0", "0.25", "0.5", "1", "1e-400", "1e310", "-2.5"]),
)
intervals = mostly(st.builds(lambda lo, hi: f"{lo}:{hi}", box_ends, box_ends),
                   st.sampled_from(["", "0.1", "0:1/0", "0.3e:1", "1:2:3"]))
formats = st.sampled_from([[], ["--format", "csv"], ["--format", "text"]])


def _pair_flags(pairs):
    return [f"--{flag}={text}" for omega, phi in pairs
            for flag, text in (("omega", omega), ("phi", phi))]


pair_lists = st.lists(st.tuples(angles, angles), min_size=1, max_size=2)
subseq_argv = st.builds(
    lambda pairs, count, fmt: ["subseq", *_pair_flags(pairs), "--count", count, *fmt],
    pair_lists, counts, formats,
)
density_argv = st.integers(1, 2).flatmap(lambda axes: st.builds(
    lambda thetas, box, kmax, fmt: ["density", f"--theta={','.join(thetas)}",
                                    f"--box={','.join(box)}", "--kmax", kmax, *fmt],
    st.lists(angles, min_size=axes, max_size=axes),
    st.lists(intervals, min_size=axes, max_size=axes), kmaxes, formats,
))
HUGE_BITS = "1" + "0" * 399  # past the double range
growth_flags = st.one_of(
    st.just(["--zudilin"]),
    st.builds(lambda a, b: ["--alpha", a, "--beta", b],
              st.sampled_from(["0.5", "1e-400", "nan", "inf", "1", "0.3679"]),
              st.sampled_from(["2", "1e400", "nan", "0.5", "2.7183"])),
    st.builds(lambda c0, c1, bits: ["--c0", c0, "--c1", c1, "--bits", bits],
              st.sampled_from(["1", "300", "1e308", "nan", "-inf"]),
              st.sampled_from(["1", "300", "1e308", "nan"]),
              st.sampled_from(["1", "513", "-3", "10000000000", HUGE_BITS])),
)
criterion_argv = st.builds(
    lambda growth, pairs, fmt: ["criterion", *growth, *_pair_flags(pairs), *fmt],
    growth_flags, st.lists(st.tuples(angles, angles), max_size=2), formats,
)


# form: every draw exits 2, 3 or 4 before any work, or runs n = 1 with the
# default digits.  An n of 2 or more is past its --max-n, and --digits is
# below n = 1's budget of 314, past the cap, a huge literal or malformed
form_index = st.sampled_from([
    ["--n", "1"], ["--n", "1", "--max-n", "3"], ["--n", "2", "--max-n", "1"],
    ["--n", "3"], ["--n", "7", "--max-n", "5"], ["--n", "0"], ["--n", "x"],
    ["--n", "1", "--max-n", "0"],
])
form_digits = st.one_of(
    st.just([]),
    st.one_of(
        st.integers(10, 313).map(str),
        st.integers(MAX_FORM_DIGITS + 1, 10**12).map(str),
        st.sampled_from(["9" * 400, "1" + "0" * 5000, "9", "-3", "1e5", "x", ""]),
    ).map(lambda digits: ["--digits", digits]),
)
form_argv = st.builds(lambda index, digits, fmt: ["form", *index, *digits, *fmt],
                      form_index, form_digits, formats)


def _run(argv):
    """main(argv) in process: (exit code, stdout); argparse's usage exit
    gives its SystemExit code.  Python's int-to-str limit, which main lifts
    for its process, is put back."""
    out = io.StringIO()
    limit = sys.get_int_max_str_digits()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.set_int_max_str_digits(limit)
    return code, out.getvalue()


def _check(argv):
    code, out = _run(argv)
    if code == EXIT_USAGE:
        assert out == "", argv
        return
    assert code in (EXIT_OK, *ERROR_KINDS), (argv, code)
    if code != EXIT_OK:
        doc = json.loads(out)
        assert doc["command"] == argv[0]
        assert doc["error"]["kind"] == ERROR_KINDS[code], argv
    elif "--format" not in argv:
        assert json.loads(out)["command"] == argv[0]
    else:
        assert out.endswith("\n") and out.strip(), argv


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(form_argv)
@example(["form", "--n", "1", "--format", "csv"])
@example(["form", "--n", "1", "--digits", "9" * 400])
@example(["form", "--n", "2", "--max-n", "1", "--digits", str(MAX_FORM_DIGITS + 1)])
def test_form_fuzz(argv):
    _check(argv)


@FUZZ
@given(subseq_argv)
@example(["subseq", "--omega", "1e310", "--phi", "0", "--count", "3"])
@example(["subseq", "--omega", "1e3960", "--phi", "0"])
@example(["subseq", "--omega", "1", "--phi", "1e3990", "--count", "3"])
@example(["subseq", "--omega", "1e-10", "--phi", "1", "--count", "3"])
def test_subseq_fuzz(argv):
    _check(argv)


@FUZZ
@given(density_argv)
@example(["density", "--theta", "1e310", "--box", "0.1:0.35", "--kmax", "1000"])
@example(["density", "--theta", "sqrt2,e", "--box", "0.1:0.35,0.2:0.7",
          "--kmax", str(10**8 + 1)])
def test_density_fuzz(argv):
    _check(argv)


@FUZZ
@given(criterion_argv)
@example(["criterion", "--zudilin", "--omega", "1e310", "--phi", "0"])
@example(["criterion", "--c0", "2", "--c1", "1", "--bits", HUGE_BITS])
def test_criterion_fuzz(argv):
    _check(argv)


# --relations files.  A generator or row entry is mostly a literal string:
# an ordinary or huge one, or omega/pi of sqrt2 or e at the 120-digit pin,
# which makes rows such as ["0", "3"] against 3*sqrt2 consistent; now and
# then it is a JSON value of another type.  Rows mostly have the s + 1
# entries a relation needs, and generators repeat often.
OMEGA_OVER_PI = [fraction_str(parse_angle(name).over_pi()) for name in ("sqrt2", "e")]
relation_omegas = st.sampled_from(
    ["sqrt2", "3*sqrt2", "e", "sqrt2+e", "sqrt2+1/3*pi", "1/4*pi", "1"])
literals = st.one_of(
    mantissas,
    st.sampled_from(OMEGA_OVER_PI),
    st.integers(-3, 3).map(str),
    st.sampled_from(["1e400", "-1e310", "9" * 20_001, "1" + "0" * 4400, "",
                     "x", "1/0"]),
)
entries = mostly(literals, st.one_of(
    st.integers(), st.floats(), st.none(), st.booleans(),
    st.lists(st.integers(), max_size=2),
))
generator_lists = st.lists(entries, max_size=2)


def _rows(generators):
    width = len(generators) + 1
    lengths = st.sampled_from([width] * 8 + [max(width - 1, 0), width + 1])
    return st.lists(lengths.flatmap(
        lambda n: st.lists(entries, min_size=n, max_size=n)), min_size=1, max_size=3)


relation_docs = mostly(
    generator_lists.flatmap(lambda g: _rows(g).map(
        lambda rows: {"generators": g, "rows": rows})),
    st.sampled_from([[], "x", 3, None, {"generators": []}, {"rows": []},
                     {"generators": "1/2", "rows": []}]),
)
relation_runs = st.tuples(
    st.lists(st.tuples(relation_omegas, st.sampled_from(["0", "1/5", "1/2*pi"])),
             min_size=1, max_size=2),
    relation_docs, counts,
)


@FUZZ
@given(relation_runs)
@example(([("sqrt2", "0"), ("3*sqrt2", "0")],
          {"generators": [OMEGA_OVER_PI[0]], "rows": [["0", "1"], ["0", "3"]]}, "5"))
# no generators, with r_0 alone matching omega/pi: exit 3 that names the
# relation data, not the plan's missing box
@example(([("sqrt2", "0")], {"generators": [], "rows": [[OMEGA_OVER_PI[0]]]}, "3"))
# a repeated generator: exit 3 that names both indices, before the box search
@example(([("sqrt2", "0"), ("sqrt2", "1/2*pi")], {
    "generators": OMEGA_OVER_PI[:1] * 2, "rows": [["0", "1", "0"], ["0", "0", "1"]]}, "5"))
def test_relations_fuzz(run):
    pairs, doc, count = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "relations.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _check(["subseq", *_pair_flags(pairs), "--count", count,
                "--relations", str(path)])
