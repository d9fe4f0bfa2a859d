"""Zeta engine: dual-method agreement, closed forms, telescoping."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaforms import zeta
from zetaforms.errors import BudgetError, DomainError, InternalCheckError
from zetaforms.exact import harmonic_power_sum
from zetaforms.fixedpoint import GUARD_DIGITS, FixedReal, _div_nearest, pi_fixed
from zetaforms.zeta import (
    ZetaTable,
    bernoulli,
    power_tail_scaled,
    zeta_alternating,
    zeta_euler_maclaurin,
    zeta_lambert,
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


def tangent_table_oracle(n):
    """Oracle: [0, T_1, ..., T_n], the whole table at once by Brent & Harvey
    (2013), algorithm TangentNumbers (row by row, in place)."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


TANGENTS = tangent_table_oracle(400)


def bernoulli_from_tangents(n):
    """B_n from the oracle table: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    if n == 0 or n % 2:
        return {0: Fraction(1), 1: Fraction(-1, 2)}.get(n, Fraction(0))
    k = n // 2
    return Fraction((-1) ** (k - 1) * 2 * k * TANGENTS[k], 4**k * (4**k - 1))


def test_tangent_numbers_match_the_full_table(monkeypatch):
    monkeypatch.setattr(zeta, "_TANGENT", ([0], []))
    assert [zeta.tangent_number(k) for k in range(1, 401)] == TANGENTS[1:]
    assert TANGENTS[1:6] == [1, 2, 16, 272, 7936]


def test_tangent_index_below_one_is_refused():
    assert zeta.tangent_number(5) == 7936
    for k in (0, -1, -5):
        with pytest.raises(DomainError, match="tangent index must be >= 1"):
            zeta.tangent_number(k)


RESET = None  # an access-order step that empties the tangent cache
access_steps = st.one_of(
    st.tuples(st.just("tangent"), st.integers(1, 400)),
    st.tuples(st.just("bernoulli"), st.integers(0, 800)),
    st.just(RESET),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(access_steps, max_size=12), st.booleans())
@example([("tangent", 400), ("tangent", 1), ("bernoulli", 798), ("bernoulli", 2)], False)
@example([("tangent", 300), RESET, ("tangent", 5), ("bernoulli", 20), RESET,
          ("bernoulli", 400)], False)
def test_any_access_order_gives_the_oracle_values(steps, descending):
    # indices in any order (drawn, or sorted from the top down), the cache
    # emptied in between or not, always give the full table's values
    if descending:
        steps = sorted((step for step in steps if step), key=lambda step: -step[1])
    saved = zeta._TANGENT
    zeta._TANGENT = ([0], [])
    try:
        for step in steps:
            if step is RESET:
                zeta._TANGENT = ([0], [])
            elif step[0] == "tangent":
                assert zeta.tangent_number(step[1]) == TANGENTS[step[1]], step
            else:
                assert bernoulli(step[1]) == bernoulli_from_tangents(step[1]), step
    finally:
        zeta._TANGENT = saved


@pytest.mark.parametrize(
    "s, digits", [(5, 657), (7, 657), (9, 657), (11, 657), (2, 30), (3, 30)]
)
def test_both_routes_match_mpmath(s, digits):
    with mp.workdps(digits + 20):
        want = Fraction(mp.nstr(mp.zeta(s), digits + 15, strip_zeros=False))
    for route in (zeta_lambert, zeta_euler_maclaurin, zeta_alternating):
        got = route([s], digits)[s].to_fraction()
        assert abs(got - want) < Fraction(1, 10 ** (digits - 7)), route.__name__


def fraction_tail_oracle(start, s, work):
    """Oracle: sum_{k >= start} k^(-s) scaled by 10**work, one Fraction
    Bernoulli term B_2j (s)_(2j-1) / ((2j)! start^(s+2j-1)) at a time, with
    the same stop rule and BudgetError as power_tail_scaled."""
    scale = 10**work
    total = _div_nearest(scale, (s - 1) * start ** (s - 1))
    total += _div_nearest(scale, 2 * start**s)
    poch = s  # (s)_{2j-1}
    j = 1
    term = bernoulli(2) / 2 * poch / start ** (s + 1)
    while True:
        total += _div_nearest(scale * term.numerator, term.denominator)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        j += 1
        following = bernoulli(2 * j) / math.factorial(2 * j) * poch
        following /= start ** (s + 2 * j - 1)
        if 2 * abs(following) * scale < 1:
            return total
        if j > 2 and abs(following) > abs(term):
            raise BudgetError(f"tail for s={s} does not converge at {start}")
        term = following


def per_s_euler_maclaurin_oracle(s, digits):
    """Oracle: zeta(s) alone, its own head sum scale // k**s to the cutoff
    4 * work and the Fraction tail."""
    work = digits + GUARD_DIGITS + 8
    scale = 10**work
    cutoff = 4 * work
    tail = fraction_tail_oracle(cutoff, s, work)
    total = sum(scale // k**s for k in range(1, cutoff)) + tail
    return FixedReal(_div_nearest(total, 10 ** (work - digits)), digits)


def per_s_alternating_oracle(s, digits):
    """Oracle: zeta(s) alone from the accelerated alternating series, the
    weights rebuilt for this s."""
    work = digits + GUARD_DIGITS + 5
    scale = 10**work
    n = int(work / math.log10(3 + math.sqrt(8))) + 6
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, acc = -1, -d, 0
    for k in range(n):
        c = b - c
        acc += _div_nearest(c * scale, (k + 1) ** s)
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    half = 2 ** (s - 1)
    return FixedReal(
        _div_nearest(acc * half, d * (half - 1) * 10 ** (work - digits)), digits
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 14), st.integers(20, 400), st.integers(1, 3200))
@example(2, 20, 1)  # far too small to converge
@example(14, 400, 3)
@example(2, 400, 100)  # shrinks to about 10^-270, then grows
@example(11, 400, 1600)  # the table's cutoff
def test_integer_tail_matches_the_fraction_oracle(s, work, start):
    try:
        want = fraction_tail_oracle(start, s, work)
    except BudgetError:
        with pytest.raises(BudgetError):
            power_tail_scaled(start, s, work)
    else:
        assert power_tail_scaled(start, s, work) == want


@pytest.mark.parametrize(
    "digits, s_values", [(30, range(2, 13)), (404, (5, 7, 9, 11)), (657, (5, 7, 9, 11))]
)
def test_batched_routes_equal_the_per_s_oracles(digits, s_values):
    em = zeta_euler_maclaurin(s_values, digits)
    alt = zeta_alternating(s_values, digits)
    assert sorted(em) == sorted(alt) == list(s_values)
    for s in s_values:
        assert em[s].scaled == per_s_euler_maclaurin_oracle(s, digits).scaled, s
        assert alt[s].scaled == per_s_alternating_oracle(s, digits).scaled, s


class AppendLog(list):
    """A list that logs the index of every value appended to it."""

    def __init__(self, values):
        super().__init__(values)
        self.log = []

    def append(self, value):
        self.log.append(len(self))
        super().append(value)


def cold_tangent_cache(monkeypatch):
    """Empty the tangent cache; returns the log of the indices it computes."""
    values = AppendLog([0])
    monkeypatch.setattr(zeta, "_TANGENT", (values, []))
    return values.log


def count_calls(monkeypatch, name, record):
    """Wrap zeta.<name> so that each call's arguments land in `record`."""
    original = getattr(zeta, name)

    def counting(*args):
        record.append(args)
        return original(*args)

    monkeypatch.setattr(zeta, name, counting)


def test_table_tail_converges_first_try(monkeypatch):
    # counts work instead of timing it: one tail per s, each tangent index
    # computed once and none past the deepest one a tail reads
    computed = cold_tangent_cache(monkeypatch)
    tails, requests = [], []
    count_calls(monkeypatch, "power_tail_scaled", tails)
    count_calls(monkeypatch, "tangent_number", requests)
    zeta_euler_maclaurin((5, 7, 9, 11), 657)
    assert [s for _, s, _ in tails] == [5, 7, 9, 11]
    deepest = max(k for k, in requests)
    assert 2 * deepest <= 400  # the Bernoulli index 2j
    assert computed == list(range(1, deepest + 1))
    # a second table at a higher precision computes only the new indices
    computed.clear()
    requests.clear()
    zeta_euler_maclaurin((5, 7, 9, 11), 1000)
    deeper = max(k for k, in requests)
    assert deeper > deepest
    assert computed == list(range(deepest + 1, deeper + 1))


def test_a_failing_tail_leaves_the_table(monkeypatch):
    # no retry: a tail forced to raise BudgetError ends the table, and each
    # s asked for its tail once, at the one cutoff
    digits = 404
    cutoff = 4 * (digits + GUARD_DIGITS + 8)
    tail, calls = zeta.power_tail_scaled, []

    def failing_last(start, s, work):
        calls.append((start, s))
        if s == 11:
            raise BudgetError("forced")
        return tail(start, s, work)

    monkeypatch.setattr(zeta, "power_tail_scaled", failing_last)
    with pytest.raises(BudgetError, match="forced"):
        zeta_euler_maclaurin((5, 7, 9, 11), digits)
    assert calls == [(cutoff, s) for s in (5, 7, 9, 11)]


@pytest.mark.parametrize("digits", [10, 11, 60, 404, 657, 1000])
def test_the_one_cutoff_serves_every_argument(digits):
    # zeta_euler_maclaurin's bound, swept: at N = 4 * work the tail
    # returns (0 once s is large), for s far past what the table asks for
    work = digits + GUARD_DIGITS + 8
    for s in [*range(2, 41), 64, 200, 1000]:
        assert 0 <= power_tail_scaled(4 * work, s, work) < 10**work, s


def test_power_tail_builds_each_term_once(monkeypatch):
    # each correction term serves first as the remainder bound, then as
    # the term: one request per tangent index
    requests = []
    count_calls(monkeypatch, "tangent_number", requests)
    for s, work in ((2, 40), (5, 300), (11, 675)):
        requests.clear()
        zeta.power_tail_scaled(4 * work, s, work)
        assert len(requests) > 5
        assert requests == [(k,) for k in range(1, len(requests) + 1)], (s, work)


@pytest.mark.parametrize("route", ["zeta_lambert", "zeta_alternating"])
@pytest.mark.parametrize("shift, fails", [(10**ZetaTable.VERIFY_MARGIN, False), (10**6, True)])
def test_table_refuses_routes_that_disagree(monkeypatch, route, shift, fails):
    # one route's zeta(7) moved by `shift` units of the last digit
    original = getattr(zeta, route)

    def shifted(s_values, digits):
        values = original(s_values, digits)
        values[7] = FixedReal(values[7].scaled + shift, digits)
        return values

    monkeypatch.setattr(zeta, route, shifted)
    if fails:
        with pytest.raises(InternalCheckError, match=r"^zeta\(7\) methods disagree at 60 digits$"):
            ZetaTable((5, 7, 9), 60)
    else:
        assert 7 in ZetaTable((5, 7, 9), 60)


def test_zeta2_matches_pi_squared_over_6_independent_pi():
    # independent pi oracle: mpmath
    with mp.workdps(50):
        pi_sq_over_6 = Fraction(mp.nstr(mp.pi**2 / 6, 45, strip_zeros=False))
    got = zeta_euler_maclaurin([2], 30)[2].to_fraction()
    assert abs(got - pi_sq_over_6) < Fraction(1, 10**29)


def test_zeta5_prefix_and_dual_method():
    em = zeta_euler_maclaurin([5], 100)[5]
    alt = zeta_alternating([5], 100)[5]
    assert em.to_decimal().startswith("1.0369277551")
    assert abs(em.to_fraction() - alt.to_fraction()) < Fraction(1, 10**95)


def test_zeta12_closed_form_from_pi():
    got = zeta_euler_maclaurin([12], 50)[12].to_fraction()
    pi12 = pi_fixed(70).to_fraction() ** 12
    assert abs(got - EVEN_CLOSED_FORMS[12] * pi12) < Fraction(1, 10**49)


def test_even_closed_forms_at_200_digits(table200):
    pi_value = pi_fixed(230).to_fraction()
    for s, coeff in EVEN_CLOSED_FORMS.items():
        want = coeff * pi_value**s
        assert abs(table200[s].to_fraction() - want) < Fraction(1, 10**195), s


def test_two_precisions_agree_on_common_prefix():
    lo = zeta_euler_maclaurin([7], 60)[7]
    hi = zeta_euler_maclaurin([7], 120)[7]
    assert abs(lo.to_fraction() - hi.to_fraction()) < Fraction(2, 10**60)


def test_telescoping_against_numeric_tail():
    # harmonic_power_sum(m, s) + sum_{k>m} k^-s == zeta(s)
    rng = random.Random(4134)
    digits = 40
    work = digits + 10
    for _ in range(8):
        m = rng.randint(0, 50)
        s = rng.randint(2, 12)
        partial = harmonic_power_sum(m, s)
        zeta = zeta_euler_maclaurin([s], digits)[s].to_fraction()
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
    with pytest.raises(DomainError, match="at least 10 digits"):
        ZetaTable([5], 9)
    with pytest.raises(DomainError):
        zeta_euler_maclaurin([5], 5)
    for route in (zeta_euler_maclaurin, zeta_alternating):
        with pytest.raises(DomainError):
            route([1, 5], 50)


def test_alternating_handles_s2():
    got = zeta_alternating([2], 60)[2].to_fraction()
    want = zeta_euler_maclaurin([2], 60)[2].to_fraction()
    assert abs(got - want) < Fraction(1, 10**55)


# the Lambert route against the Euler-Maclaurin oracle: the same integers

@pytest.mark.parametrize(
    "digits", [10, 11, 12, 17, 30, 45, 60, 99, 200, 404, 657, 1000, 1301, 1671, 1700]
)
def test_lambert_integers_equal_the_euler_maclaurin_oracle(digits):
    s_values = range(2, 13)
    assert zeta_lambert(s_values, digits) == zeta_euler_maclaurin(s_values, digits)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(10, 700))
@example(2, 10)
@example(16, 700)
@example(5, 404)
def test_both_routes_give_the_oracle_integers(s, digits):
    want = zeta_euler_maclaurin([s], digits)[s]
    assert zeta_lambert([s], digits)[s] == want
    assert zeta_alternating([s], digits)[s] == want


@pytest.mark.parametrize("work", [36, 100, 301, 1000, 3000])
def test_lambert_values_lie_within_their_bound(work):
    # _lambert_scaled's docstring: zeta(s) * 2**work within 2 s + 8 (M + 2)^2
    # units, for even s and both odd lines
    values, cutoff = zeta._lambert_scaled(range(2, 18), work)
    assert cutoff == work // 9 + 1
    with mp.workprec(work + 100):
        for s, value in values.items():
            error = abs(value - mp.zeta(s) * mp.mpf(2) ** work)
            assert error <= 2 * s + 8 * (cutoff + 2) ** 2, s


@pytest.mark.parametrize("bits", [30, 64, 200, 2000])
def test_exp_neg_within_its_bound(bits):
    # the pi multiples the Lambert route and its neighbours would feed in,
    # and the ends of the domain; the argument is exact here
    with mp.workprec(bits + 100):
        for x in (0, 1, 2**bits // 3, int(2 * mp.pi * 2**bits), 8 * 2**bits - 1):
            want = mp.exp(-mp.mpf(x) / 2**bits) * 2**bits
            got = zeta._exp_neg(x, bits)
            assert abs(got - want) < 1.2, x


def test_a_narrow_guard_retries_to_the_same_integers(monkeypatch):
    # a one-bit guard leaves every value undecided at first: the route
    # doubles the guard, recomputes only what is left, and ends with the
    # oracle's integers
    monkeypatch.setattr(zeta, "LAMBERT_GUARD_BITS", 1)
    calls = []
    count_calls(monkeypatch, "_lambert_scaled", calls)
    for digits in (10, 60, 404):
        calls.clear()
        s_values = range(2, 13)
        assert zeta_lambert(s_values, digits) == zeta_euler_maclaurin(s_values, digits)
        assert len(calls) > 1, digits
        assert list(calls[0][0]) == list(s_values)
        works = [work for _, work in calls]
        bits = (10**digits).bit_length()
        assert works == [bits + 2**i for i in range(len(calls))], digits
        for (earlier, _), (later, _) in zip(calls, calls[1:]):
            assert set(later) <= set(earlier)


def test_an_undecided_value_ends_the_route(monkeypatch):
    monkeypatch.setattr(zeta, "LAMBERT_GUARD_BITS", 1)
    monkeypatch.setattr(zeta, "LAMBERT_TRIES", 1)
    with pytest.raises(InternalCheckError, match="undecided after 1 tries at 60 digits"):
        zeta_lambert((5, 7), 60)
    with pytest.raises(InternalCheckError, match="undecided"):
        ZetaTable((5, 7), 60)
