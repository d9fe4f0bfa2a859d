"""Seeded op lists for the three benchmark workloads.

An op is one fresh child process: either a CLI invocation (`cli`, run
through `zetaforms.cli.main`, as the `zetaforms` console script does) or
the exact library path (`exact`, `zudilin_linear_form(n, max_n=n)` plus
`common_denominator`).  A workload's *cycle* is a fixed list of ops built
from the seed; a run repeats the cycle, whole, for the measured seconds.

Every op a seed can produce comes from a finite pool, so every op has a
recorded expected stdout digest (`expected.json`, written by
`record_expected.py`).  The seed decides which pool variant fills each
slot of the cycle and the order of the slots.  Slot k of a shape with s
slots draws from the variants whose index is k mod s, and the generators
vary the kind of angle (sqrt2, e, plain rational) with the variant index,
so every cycle has the same mix of kinds.  With the slot sizes (counts,
k_max, form index) fixed, the cost of a cycle barely depends on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("form_cli", "exact_ladder", "orbit_cli")


@dataclass(frozen=True)
class Op:
    shape: str  # what kind of op this is; metrics are grouped by it
    kind: str  # "cli" or "exact"
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        """Lookup key of the expected stdout digest."""
        return " ".join((self.kind,) + self.argv)


# -- form_cli ---------------------------------------------------------------
#
# zeta is about 85-90% of every op here: each process starts with a cold
# Bernoulli cache, as a CLI user's does.  n = 1 comes three times per
# cycle, once as JSON and twice as csv or text (seeded), so that rendering
# is covered and the median of the four ops is the mean of two n = 1 runs,
# not the slower of two.

def form_cli_pool() -> dict[str, list[Op]]:
    return {
        "form_n1": [Op("form_n1", "cli", ("form", "--n", "1"))],
        "form_n1_fmt": [
            Op("form_n1_fmt", "cli", ("form", "--n", "1", "--format", fmt))
            for fmt in ("csv", "text")
        ],
        "form_n2": [Op("form_n2", "cli", ("form", "--n", "2"))],
    }


FORM_CLI_SLOTS = {"form_n1": 1, "form_n1_fmt": 2, "form_n2": 1}


# -- exact_ladder -----------------------------------------------------------
#
# The forms and exact layers alone (zeta never runs): n = 1 .. top, one
# fresh process per n.  The top index is a function of the run length
# only, through the costs measured at the commit that defined this
# benchmark (one core of a 2-core x86-64 container, Python 3.11): the
# largest ladder of which five fit in the run (top = 5 for 30 s).  Five
# ladders make `exact_top_s` a median of five, which single ops on that
# machine (+-15% from one run of the same op to the next) need, and an odd
# top index puts the median op on one n rather than between two.  A faster
# program runs the same ladder more times rather than a different ladder,
# so `exact_top_s` stays comparable across commits.

EXACT_COST_S = {1: 0.06, 2: 0.39, 3: 0.94, 4: 1.62, 5: 2.22, 6: 3.39,
                7: 6.23, 8: 8.79, 9: 12.9, 10: 18.1}
EXACT_MAX_N = max(EXACT_COST_S)
PROCESS_START_S = 0.15
LADDERS_PER_RUN = 5


def exact_top_index(seconds: float) -> int:
    """Largest top index of which LADDERS_PER_RUN ladders fit in `seconds`
    at the recorded costs."""
    top, total = 1, 0.0
    for n in sorted(EXACT_COST_S):
        total += EXACT_COST_S[n] + PROCESS_START_S
        if LADDERS_PER_RUN * total > seconds:
            break
        top = n
    return top


def exact_pool(top: int = EXACT_MAX_N) -> dict[str, list[Op]]:
    return {f"exact_n{n}": [Op(f"exact_n{n}", "exact", (str(n),))]
            for n in range(1, top + 1)}


# -- orbit_cli --------------------------------------------------------------
#
# oscillation and fixedpoint do the work; zeta and forms never run.  Each
# shape is there for a reason:
#   subseq_rational    omega = p/q*pi: memoised cosines, psi = n d + a, no
#                      orbit scan (so an orbit-engine change is flat here)
#   subseq_irrational  r*sqrt2, r*e or a plain rational such as 1 (which is
#                      pi-irrational): the one-box orbit scan, run twice
#                      per op (cmd_subseq and verify_plan), and one
#                      cos_pi_argument per checked psi value
#   subseq_general     one rational pair plus one irrational pair: residue
#                      class times torus box, with the box search
#   density_1d         the k_max loop in one dimension (the case a floor-sum
#                      shortcut would take)
#   density_2d         two dimensions, which no 1-D shortcut covers
#   criterion_zudilin  almost no work: interpreter start-up and import
#   criterion_pairs    start-up plus one plan build per call
# Inputs avoid omega = 0 with phi = pi/2 (mod pi) (exit 3), exponent
# literals such as 1e-50 (misparsed at this commit), and the --count and
# --kmax sizes that run for minutes without a budget exit.

SUBSEQ_RATIONAL_COUNT = 5000
SUBSEQ_IRRATIONAL_COUNT = 2000
DENSITY_1D_KMAX = 1_000_000
DENSITY_2D_KMAX = 400_000
ORBIT_VARIANTS = 12

_MULTIPLIERS = ("1", "1/2", "3/4", "2/3", "0.7", "5/4", "3/2")
_PHASES = ("0", "1/3", "2/5", "1/4*pi", "1/6*pi", "3/7")


def _rational_pi_angle(rng: random.Random) -> str:
    q = rng.randint(2, 12)
    p = rng.choice([p for p in range(1, 2 * q) if math.gcd(p, q) == 1])
    return f"{p}/{q}*pi"


_FORMS = ("sqrt2", "e", "plain")


def _irrational_angle(rng: random.Random, form: str) -> str:
    """An omega with omega/pi irrational; a plain rational omega counts."""
    r = rng.choice(_MULTIPLIERS)
    if form == "plain":
        return r
    return form if r == "1" else f"{r}*{form}"


def _box(rng: random.Random) -> str:
    lo = rng.randint(0, 60)
    width = rng.randint(10, 40)
    return f"{lo / 100:.2f}:{(lo + width) / 100:.2f}"


def _subseq_rational(rng, i):
    phi = rng.choice(_PHASES + ("1/2*pi",))
    return ("subseq", "--omega", _rational_pi_angle(rng), "--phi", phi,
            "--count", str(SUBSEQ_RATIONAL_COUNT))


def _subseq_irrational(rng, i):
    return ("subseq", "--omega", _irrational_angle(rng, _FORMS[i % 3]),
            "--phi", rng.choice(_PHASES), "--count", str(SUBSEQ_IRRATIONAL_COUNT))


def _subseq_general(rng, i):
    return ("subseq",
            "--omega", _rational_pi_angle(rng), "--phi", rng.choice(_PHASES),
            "--omega", _irrational_angle(rng, _FORMS[i % 3]), "--phi", rng.choice(_PHASES),
            "--count", str(SUBSEQ_IRRATIONAL_COUNT))


def _density_1d(rng, i):
    # theta is a value, not a multiple of pi: a plain rational would be a
    # rational rotation
    return ("density", "--theta", _irrational_angle(rng, _FORMS[i % 2]),
            "--box", _box(rng), "--kmax", str(DENSITY_1D_KMAX))


def _density_2d(rng, i):
    # one sqrt2 and one e generator, so the two axes are independent
    a = rng.choice(_MULTIPLIERS)
    b = rng.choice(_MULTIPLIERS)
    theta = f"{'' if a == '1' else a + '*'}sqrt2,{'' if b == '1' else b + '*'}e"
    return ("density", "--theta", theta, "--box", f"{_box(rng)},{_box(rng)}",
            "--kmax", str(DENSITY_2D_KMAX))


def _criterion_pairs(rng, i):
    argv = ["criterion", "--zudilin",
            "--omega", _irrational_angle(rng, _FORMS[i % 3]), "--phi", rng.choice(_PHASES)]
    if rng.random() < 0.5:
        argv += ["--omega", _rational_pi_angle(rng), "--phi", rng.choice(_PHASES)]
    return tuple(argv)


_ORBIT_GENERATORS = {
    "subseq_rational": _subseq_rational,
    "subseq_irrational": _subseq_irrational,
    "subseq_general": _subseq_general,
    "density_1d": _density_1d,
    "density_2d": _density_2d,
    "criterion_pairs": _criterion_pairs,
}


def orbit_pool() -> dict[str, list[Op]]:
    pool = {
        shape: [Op(shape, "cli", gen(random.Random(f"{shape}/{i}"), i))
                for i in range(ORBIT_VARIANTS)]
        for shape, gen in _ORBIT_GENERATORS.items()
    }
    pool["criterion_zudilin"] = [
        Op("criterion_zudilin", "cli", ("criterion", "--zudilin", "--format", fmt))
        for fmt in ("json", "csv", "text")
    ]
    return pool


# Sizes and slots are chosen so that 10 of the 15 ops cost about the same
# (0.5-0.7 s at the defining commit) and the median op falls inside that
# group, not on the edge between two groups of different cost.
ORBIT_SLOTS = {
    "subseq_rational": 3,
    "subseq_irrational": 3,
    "subseq_general": 3,
    "density_1d": 2,
    "density_2d": 2,
    "criterion_zudilin": 1,
    "criterion_pairs": 1,
}


# -- cycles -------------------------------------------------------------------

def full_pool() -> dict[str, list[Op]]:
    """Every op any seed can produce (what `expected.json` covers)."""
    return {**form_cli_pool(), **exact_pool(), **orbit_pool()}


def cycle(workload: str, seed: int, seconds: float) -> list[Op]:
    """The seeded op list that one pass of `workload` runs."""
    if workload == "form_cli":
        pool, slots = form_cli_pool(), FORM_CLI_SLOTS
    elif workload == "exact_ladder":
        pool = exact_pool(exact_top_index(seconds))
        slots = {shape: 1 for shape in pool}
    elif workload == "orbit_cli":
        pool, slots = orbit_pool(), ORBIT_SLOTS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    ops = [rng.choice(pool[shape][slot::slots[shape]])
           for shape in slots for slot in range(slots[shape])]
    rng.shuffle(ops)
    return ops
