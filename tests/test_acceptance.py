"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS line with its measured runtime; a failed
assertion is the corresponding FAIL.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.

Growth-rate quantities that are only defined asymptotically (log|S_n|/n,
log(D_n)/n) are reported, not asserted; see criterion 4's output.
"""

import json
import random
import time
from fractions import Fraction

from zetaforms.cli import EXIT_OK, main
from zetaforms.criterion import (
    GrowthData,
    dimension_bound,
    exponent_threshold,
)
from zetaforms.exact import log10_fraction
from zetaforms.forms import common_denominator, direct_sum, evaluate_numeric
from zetaforms.oscillation import (
    Angle,
    AnglePair,
    CosEvaluator,
    build_plan_general,
    enumerate_psi,
    hypothesis_multi,
    kw_density,
    named_constant,
    parse_angle,
    verify_plan,
)
from zetaforms.zeta import ZetaTable, zeta_alternating, zeta_euler_maclaurin


def report(number, name, t0, detail=""):
    took = time.time() - t0
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({took:.2f}s){detail}")


def test_criterion_01_exponent_reproduction(capsys):
    t0 = time.time()
    code = main(["criterion", "--zudilin"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(out)
    kappa = float(doc["report"]["kappa_threshold"])
    assert abs(kappa - 438.2213) <= 0.001
    assert doc["report"]["kappa_published_rounding"] == "438.23"
    assert time.time() - t0 < 1.0
    with capsys.disabled():
        report(1, "exponent 438.2213 reproduced", t0, f" kappa={kappa:.5f}")


def test_criterion_02_coefficient_size_identity():
    t0 = time.time()
    assert 3 * (27 + 37 + 27) + sum(13 + 2 * j for j in range(1, 11)) == 513
    report(2, "identity 3(27+37+27) + sum(13+2j) = 513", t0)


def test_criterion_03_structural_vanishing(pipeline1):
    t0 = time.time()
    form = pipeline1.form
    for s in (3, 4, 6, 8, 10, 12):
        assert form.coefficients[s] == 0  # exact rational zero
    assert form.ell0 != 0
    for s in (5, 7, 9, 11):
        assert form.coefficients[s] != 0
    assert time.time() - t0 < 300
    report(3, "vanishing/nonvanishing pattern of the n=1 form", t0)


def test_criterion_04_oracle_equivalence(pipeline1, table400):
    t0 = time.time()
    value = evaluate_numeric(pipeline1.form, table400)
    direct = direct_sum(pipeline1.factored, 160)
    delta = abs(value.to_fraction() - direct.to_fraction())
    assert delta < Fraction(1, 10**50)
    assert value.scaled != 0  # S_1 is nonzero at guaranteed precision
    assert abs(value.to_fraction()) < Fraction(1, 10**30)
    log_s1 = log10_fraction(value.to_fraction())
    _, den_report = common_denominator(pipeline1.form)
    assert time.time() - t0 < 600
    report(
        4,
        "evaluate_numeric vs direct_sum oracle pair",
        t0,
        f" log10|S_1|={log_s1:.4f} (informational: /n per-index scale),"
        f" log(D_1)/n={den_report['log_denominator_over_n']:.4f}",
    )


def test_criterion_05_rational_branch():
    t0 = time.time()
    rng = random.Random(513)
    cases = 0
    while cases < 6:
        d = rng.randint(1, 20)
        c = rng.randint(1, 3 * d)
        omega = Angle.pi_multiple(Fraction(c, d))
        phi = Angle(Fraction(0), Fraction(rng.randint(-250, 250), 101))
        if omega.pi_mult.denominator == 1 and phi.addend == 0:
            continue  # keep clear of the excluded case
        pair = AnglePair(omega, phi)
        plan = build_plan_general([pair])
        assert plan.mode == "rational"
        reduced_d = Fraction(c, d).denominator
        assert plan.d == reduced_d
        psi = enumerate_psi(plan, 10**4)
        ev = CosEvaluator(pair)
        eps = plan.epsilon
        for k in psi:
            assert abs(ev.abs_cos(k).to_fraction() - eps) < Fraction(1, 10**30)
        ratio = Fraction(psi[-1], 10**4)
        assert abs(ratio - reduced_d) <= Fraction(reduced_d, 20)
        cases += 1
    assert time.time() - t0 < 10
    report(5, "rational branch: |cos| exactly periodic, psi(n)/n = d", t0,
           f" cases={cases}")


def test_criterion_06_irrational_branch():
    t0 = time.time()
    sqrt2_half = Fraction(
        named_constant("sqrt2").numerator, 2 * named_constant("sqrt2").denominator
    )
    for text in ("1", "sqrt2", "e"):
        pair = AnglePair(parse_angle(text), Angle())
        plan = build_plan_general([pair])
        assert plan.mode == "irrational_single"
        verification = verify_plan(plan, [pair], 10**4)
        # canonical sqrt2/2 pin is itself accurate to 10^-118
        assert verification.min_abs_cos >= sqrt2_half - Fraction(1, 10**25)
        ratio = float(verification.ratio)
        assert 1.9 <= ratio <= 2.1, (text, ratio)
    assert time.time() - t0 < 30
    report(6, "irrational branch: floor sqrt2/2, lambda near 2", t0)


def test_criterion_07_equidistribution_density():
    t0 = time.time()
    result = kw_density(
        [named_constant("sqrt2")],
        [(Fraction(1, 10), Fraction(35, 100))],
        10**6,
    )
    assert abs(result.empirical - 0.25) <= 0.01
    assert time.time() - t0 < 30
    report(7, "Kronecker-Weyl density in [0.1, 0.35] at k=10^6", t0,
           f" empirical={result.empirical:.5f}")


def test_criterion_08_two_pair_hypothesis_truth_table():
    t0 = time.time()
    entries = {"A": ("0", "0"), "B": ("0", "1/2*pi"),
               "C": ("1/2*pi", "0"), "D": ("1/2*pi", "1/2*pi")}

    def expected(k1, k2):
        # hand-derived from the four exclusions: B alone already fails;
        # C excludes odd n, D excludes even n, so {C, D} jointly fail
        if "B" in (k1, k2):
            return False
        return {k1, k2} != {"C", "D"}

    checked = 0
    for k1, (o1, p1) in entries.items():
        for k2, (o2, p2) in entries.items():
            pairs = [
                AnglePair(parse_angle(o1), parse_angle(p1)),
                AnglePair(parse_angle(o2), parse_angle(p2)),
            ]
            assert hypothesis_multi(pairs) is expected(k1, k2), (k1, k2)
            checked += 1
    assert checked == 16
    report(8, "N=2 hypothesis truth table on {0, pi/2} tuples", t0,
           f" tuples={checked}")


def test_criterion_09_lambda_invariance():
    t0 = time.time()
    rng = random.Random(438)
    for _ in range(100):
        lam = rng.uniform(1, 12)
        alpha = rng.uniform(0.005, 0.995)
        beta = rng.uniform(1.005, 80)
        base = GrowthData.from_alpha_beta(alpha, beta)
        powered = GrowthData.from_alpha_beta(alpha**lam, beta**lam)
        for bound in (dimension_bound, exponent_threshold):
            rel = abs(bound(base) - bound(powered)) / abs(bound(base))
            assert rel <= 1e-12
    assert time.time() - t0 < 1.0
    report(9, "bounds invariant under (alpha, beta) -> (alpha^l, beta^l)", t0)


def test_criterion_10_zeta_engine():
    t0 = time.time()
    from zetaforms.fixedpoint import pi_fixed
    from tests.test_zeta import EVEN_CLOSED_FORMS

    table = ZetaTable(range(2, 13), 200)  # construction re-verifies entries
    pi_value = pi_fixed(230).to_fraction()
    em_route = zeta_euler_maclaurin(range(2, 13), 200)
    alt_route = zeta_alternating(range(2, 13), 200)
    for s in range(2, 13):
        em = em_route[s].to_fraction()
        alt = alt_route[s].to_fraction()
        assert abs(em - alt) < Fraction(1, 10**195), s
        assert abs(table[s].to_fraction() - em) <= Fraction(1, 10**198)
        if s % 2 == 0:
            closed = EVEN_CLOSED_FORMS[s] * pi_value**s
            assert abs(em - closed) < Fraction(1, 10**195), s
    assert time.time() - t0 < 30
    report(10, "zeta(2..12) at 200 digits, dual method + closed forms", t0)
