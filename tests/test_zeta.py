"""Zeta engine: dual-method agreement, closed forms, telescoping."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from zetaforms import zeta
from zetaforms.errors import DomainError
from zetaforms.exact import harmonic_power_sum
from zetaforms.fixedpoint import pi_fixed
from zetaforms.zeta import (
    ZetaTable,
    bernoulli,
    zeta_alternating,
    zeta_euler_maclaurin,
)

# zeta(2m) = pi^(2m) * coefficient; textbook values
EVEN_CLOSED_FORMS = {
    2: Fraction(1, 6),
    4: Fraction(1, 90),
    6: Fraction(1, 945),
    8: Fraction(1, 9450),
    10: Fraction(1, 93555),
    12: Fraction(691, 638512875),
}


def test_bernoulli_known_values():
    known = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, value in known.items():
        assert bernoulli(n) == value


def test_bernoulli_matches_defining_recurrence():
    # oracle: sum_{k=0}^{n} C(n+1, k) B_k = 0, solved for B_n
    oracle = [Fraction(1)]
    for m in range(1, 301):
        acc = sum(math.comb(m + 1, k) * bk for k, bk in enumerate(oracle) if bk)
        oracle.append(-acc / (m + 1))
    assert [bernoulli(n) for n in range(301)] == oracle


@pytest.mark.parametrize(
    "s, digits", [(5, 657), (7, 657), (9, 657), (11, 657), (2, 30), (3, 30)]
)
def test_both_routes_match_mpmath(s, digits):
    with mp.workdps(digits + 20):
        want = Fraction(mp.nstr(mp.zeta(s), digits + 15, strip_zeros=False))
    for route in (zeta_euler_maclaurin, zeta_alternating):
        got = route(s, digits).to_fraction()
        assert abs(got - want) < Fraction(1, 10 ** (digits - 7)), route.__name__


def test_table_tail_converges_first_try(monkeypatch):
    # counts work instead of timing it: one tail per s, few Bernoulli numbers
    monkeypatch.setattr(zeta, "_BERNOULLI_EVEN", [Fraction(1)])
    tails, indices = [], []
    power_tail_scaled, bernoulli_number = zeta.power_tail_scaled, zeta.bernoulli

    def counting_tail(start, s, work):
        tails.append(s)
        return power_tail_scaled(start, s, work)

    def counting_bernoulli(n):
        indices.append(n)
        return bernoulli_number(n)

    monkeypatch.setattr(zeta, "power_tail_scaled", counting_tail)
    monkeypatch.setattr(zeta, "bernoulli", counting_bernoulli)
    ZetaTable((5, 7, 9, 11), 657)
    assert tails == [5, 7, 9, 11]
    assert max(indices) <= 400


def test_power_tail_builds_each_term_once(monkeypatch):
    # each correction term serves first as the remainder bound, then as
    # the term: one request per Bernoulli index
    indices = []
    bernoulli_number = zeta.bernoulli

    def counting_bernoulli(n):
        indices.append(n)
        return bernoulli_number(n)

    monkeypatch.setattr(zeta, "bernoulli", counting_bernoulli)
    for s, work in ((2, 40), (5, 300), (11, 675)):
        indices.clear()
        zeta.power_tail_scaled(4 * work, s, work)
        assert len(indices) > 5
        assert indices == list(range(2, 2 * len(indices) + 1, 2)), (s, work)


def test_zeta2_matches_pi_squared_over_6_independent_pi():
    # independent pi oracle: mpmath
    with mp.workdps(50):
        pi_sq_over_6 = Fraction(mp.nstr(mp.pi**2 / 6, 45, strip_zeros=False))
    got = zeta_euler_maclaurin(2, 30).to_fraction()
    assert abs(got - pi_sq_over_6) < Fraction(1, 10**29)


def test_zeta5_prefix_and_dual_method():
    em = zeta_euler_maclaurin(5, 100)
    alt = zeta_alternating(5, 100)
    assert em.to_decimal().startswith("1.0369277551")
    assert abs(em.to_fraction() - alt.to_fraction()) < Fraction(1, 10**95)


def test_zeta12_closed_form_from_pi():
    got = zeta_euler_maclaurin(12, 50).to_fraction()
    pi12 = pi_fixed(70).to_fraction() ** 12
    assert abs(got - EVEN_CLOSED_FORMS[12] * pi12) < Fraction(1, 10**49)


def test_even_closed_forms_at_200_digits(table200):
    pi_value = pi_fixed(230).to_fraction()
    for s, coeff in EVEN_CLOSED_FORMS.items():
        want = coeff * pi_value**s
        assert abs(table200[s].to_fraction() - want) < Fraction(1, 10**195), s


def test_two_precisions_agree_on_common_prefix():
    lo = zeta_euler_maclaurin(7, 60)
    hi = zeta_euler_maclaurin(7, 120)
    assert abs(lo.to_fraction() - hi.to_fraction()) < Fraction(2, 10**60)


def test_telescoping_against_numeric_tail():
    # harmonic_power_sum(m, s) + sum_{k>m} k^-s == zeta(s)
    from zetaforms.zeta import power_tail_scaled

    rng = random.Random(4134)
    digits = 40
    work = digits + 10
    for _ in range(8):
        m = rng.randint(0, 50)
        s = rng.randint(2, 12)
        partial = harmonic_power_sum(m, s)
        zeta = zeta_euler_maclaurin(s, digits).to_fraction()
        split = max(m + 1, 64)
        tail_scaled = sum(10**work // k**s for k in range(m + 1, split))
        tail_scaled += power_tail_scaled(split, s, work)
        tail = Fraction(tail_scaled, 10**work)
        assert abs(partial + tail - zeta) < Fraction(1, 10 ** (digits - 5))


def test_table_verifies_and_guards(table200):
    assert 5 in table200
    assert 13 not in table200
    with pytest.raises(DomainError):
        table200[13]
    with pytest.raises(DomainError):
        ZetaTable([1], 50)
    with pytest.raises(DomainError):
        zeta_euler_maclaurin(5, 5)


def test_alternating_handles_s2():
    got = zeta_alternating(2, 60).to_fraction()
    want = zeta_euler_maclaurin(2, 60).to_fraction()
    assert abs(got - want) < Fraction(1, 10**55)
