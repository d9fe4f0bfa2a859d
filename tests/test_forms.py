"""Factored rational functions, partial fractions, and the exact forms.

Expected values are frozen from independent oracles: degree counts from
the block bookkeeping, pole multiplicities from an interval cover count,
reconstruction by exact evaluation at sample points.
"""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zetaforms import cli
from zetaforms.errors import BudgetError, DomainError
from zetaforms.exact import harmonic_power_sum
from zetaforms.forms import (
    FactoredRationalFunction,
    PartialFractionExpansion,
    RisingBlock,
    ZetaLinearForm,
    build_zudilin,
    common_denominator,
    direct_sum,
    evaluate_numeric,
    fraction_str,
    partial_fractions,
    reconstruction_check,
    reflection_check,
    required_digits,
    second_derivative,
    sum_over_k,
    zudilin_linear_form,
    zudilin_pipeline,
)
from zetaforms.fixedpoint import GUARD_DIGITS, FixedReal, _div_nearest
from zetaforms.forms import (
    _linear_factors,
    _second_derivative_terms,
    _tail_cutoff,
    _three_terms,
)
from zetaforms.zeta import ZetaTable


def expansion_of(terms):
    """The PartialFractionExpansion with the given (m, j) -> a terms, zero
    ones dropped: each pole's scale is 1 over the lcm of its denominators,
    its numerators the a times that lcm, from its largest order j down to
    its smallest, over dens of 1."""
    poles = {}
    for m in dict.fromkeys(m for m, _ in terms):
        orders = {j: Fraction(a) for (mm, j), a in terms.items() if mm == m and a}
        if orders:
            top, common = max(orders), math.lcm(*(a.denominator for a in orders.values()))
            numerators = [orders.get(top - i, 0) * common for i in range(top - min(orders) + 1)]
            poles[m] = (Fraction(1, common), top, tuple(map(int, numerators)))
    size = max((len(numerators) for _, _, numerators in poles.values()), default=0)
    return PartialFractionExpansion(poles, (1,) * size)


def cover_count_oracle(n, m):
    """Independent oracle: how many of the ten intervals
    [(12-j)n, (25+j)n] contain m."""
    return sum(1 for j in range(1, 11) if (12 - j) * n <= m <= (25 + j) * n)


def sampled_reflection_oracle(f, p):
    """Independent oracle: exact evaluation of the factored f at sampled
    rational points, t against -T - t, with T = min m + max m over the
    poles (the only centre a reflection can have).  The sign, or None."""
    poles = [m for m, _ in p.terms] or [0]
    total = min(poles) + max(poles)
    rng = random.Random(97)
    sign = None
    for _ in range(5):
        t = rng.randint(-400, 400) + Fraction(1, rng.choice([2, 3, 5, 7, 11]))
        lhs, rhs = f.evaluate(-total - t), f.evaluate(t)
        if rhs == 0:
            continue
        if lhs not in (rhs, -rhs) or sign not in (None, lhs / rhs):
            return None
        sign = lhs / rhs
    return sign


def test_build_degrees_and_properness():
    for n in (1, 2, 3):
        f = build_zudilin(n)
        assert f.numerator_degree == 162 * n + 1
        assert f.denominator_degree == 240 * n + 10
        # properness margin
        assert f.denominator_degree - f.numerator_degree == 78 * n + 9
        assert f.is_proper
    assert build_zudilin(1).numerator_degree == 163
    assert build_zudilin(1).denominator_degree == 250
    with pytest.raises(DomainError):
        build_zudilin(0)


def pole_orders(f):
    """m -> the top order j among the partial-fraction terms at t = -m."""
    orders = {}
    for m, j in partial_fractions(f).terms:
        orders[m] = max(orders.get(m, 0), j)
    return orders


def test_pole_set_n1():
    spectrum = pole_orders(build_zudilin(1))
    assert sorted(spectrum) == list(range(2, 36))


def test_pole_multiplicities_match_cover_oracle():
    for n in (1, 2):
        spectrum = pole_orders(build_zudilin(n))
        for m in range(1, 36 * n + 2):
            expected = cover_count_oracle(n, m)
            if n % 2 == 0 and 2 * m == 37 * n:
                expected -= 1  # the linear prefactor vanishes at t = -37n/2
            assert spectrum.get(m, 0) == expected, (n, m)


def test_pole_extremes_n1():
    spectrum = pole_orders(build_zudilin(1))
    assert max(spectrum.values()) == 10
    # all ten intervals [(12-j), (25+j)] cover exactly [11, 26]
    assert [m for m, mult in spectrum.items() if mult == 10] == list(range(11, 27))
    assert spectrum[2] == 1  # only j = 10 reaches down to 2


def test_pole_spectrum_generic():
    f = FactoredRationalFunction((1, 0), (), (RisingBlock(1, 2, 1),))
    assert pole_orders(f) == {1: 1, 2: 1}
    # the numerator zero at t = -2 lowers that pole from order 2 to 1
    f = FactoredRationalFunction((2, 1), (), (RisingBlock(1, 2, 2),))
    assert pole_orders(f) == {1: 2, 2: 1}


def test_denominator_cover_counts_every_factor():
    # (t - 2)^2 (t - 1)^2 t^2 * t (t + 1) * (t + 1)^3, and a numerator that
    # cancels nothing in the count
    f = FactoredRationalFunction(
        (1, 0),
        (RisingBlock(-9, 4, 3),),
        (RisingBlock(-2, 3, 2), RisingBlock(0, 2, 1), RisingBlock(1, 1, 3)),
    )
    assert Counter(_linear_factors(f.denominator)) == {-2: 2, -1: 2, 0: 3, 1: 4}
    for n in (1, 2):
        counts = {m: cover_count_oracle(n, m) for m in range(40 * n)}
        by_hand = {m: count for m, count in counts.items() if count}
        assert Counter(_linear_factors(build_zudilin(n).denominator)) == by_hand


def factor_product_oracle(f, t):
    """Independent oracle: the numerator and denominator of f at t, one
    Fraction factor t + shift + i at a time."""
    c0, c1 = f.prefactor
    top, bottom = f.scalar * (c0 + c1 * t), Fraction(1)
    for b in f.numerator:
        for i in range(b.length):
            top *= (t + b.shift + i) ** b.power
    for b in f.denominator:
        for i in range(b.length):
            bottom *= (t + b.shift + i) ** b.power
    return top, bottom


signed_blocks = st.builds(
    RisingBlock, st.integers(-6, 6), st.integers(1, 4), st.integers(1, 3)
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(signed_blocks, max_size=3),
    st.lists(signed_blocks, max_size=3),
    st.tuples(st.integers(-5, 5), st.integers(-3, 3)),
    st.fractions(min_value=-10, max_value=10, max_denominator=20),
    st.one_of(
        st.integers(-12, 12).map(Fraction),
        st.fractions(min_value=-12, max_value=12, max_denominator=9),
    ),
)
@example([RisingBlock(-3, 4, 3)], [RisingBlock(0, 2, 2)], (1, 2), Fraction(3, 7), Fraction(-1))
@example([RisingBlock(-3, 4, 3)], [], (1, 2), Fraction(3, 7), Fraction(5, 3))
@example([], [RisingBlock(-6, 4, 2)], (0, 1), Fraction(-1, 2), Fraction(11, 4))
def test_evaluate_matches_the_factor_product_oracle(num, den, prefactor, scalar, t):
    f = FactoredRationalFunction(prefactor, tuple(num), tuple(den), scalar)
    top, bottom = factor_product_oracle(f, t)
    if bottom == 0:
        with pytest.raises(DomainError, match=rf"^evaluation at pole t={t}$"):
            f.evaluate(t)
    else:
        assert f.evaluate(t) == top / bottom


def termwise_expansion_oracle(p, t):
    """Independent oracle: the expansion at t, one Fraction a/(t+m)^j per
    term (ZeroDivisionError at a pole)."""
    t = Fraction(t)
    return sum((a / (t + m) ** j for (m, j), a in p.terms.items()), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(1, 4)),
        st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool),
        max_size=12,
    ),
    st.one_of(
        st.integers(-8, 8).map(Fraction),
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
    ),
)
@example({(2, 1): Fraction(3, 4), (2, 3): Fraction(-5, 6), (-1, 2): Fraction(7)},
         Fraction(-5, 3))
@example({(2, 1): Fraction(3, 4), (-1, 2): Fraction(7)}, Fraction(1))
@example({}, Fraction(1, 2))
def test_expansion_evaluate_matches_the_termwise_oracle(terms, t):
    p = expansion_of(terms)
    if any(t + m == 0 for m, _ in terms):
        with pytest.raises(ZeroDivisionError):
            p.evaluate(t)
        with pytest.raises(ZeroDivisionError):
            termwise_expansion_oracle(p, t)
    else:
        assert p.evaluate(t) == termwise_expansion_oracle(p, t)


def test_expansion_reads_dens_that_do_not_divide_each_other():
    # partial_fractions' dens i! Lambda^i each divide the next; these do not,
    # and evaluate, sum_over_k and the terms view still read them exactly
    p = PartialFractionExpansion(
        {1: (Fraction(2, 3), 4, (5, 7, 11)), 4: (Fraction(-1, 5), 4, (3, 0, -2))},
        (2, 6, 4),
    )
    assert p.terms == {(1, 2): Fraction(11, 6), (1, 3): Fraction(7, 9),
                       (1, 4): Fraction(5, 3), (4, 2): Fraction(1, 10),
                       (4, 4): Fraction(-3, 10)}
    for t in (Fraction(1, 2), Fraction(-7, 3), Fraction(5)):
        assert p.evaluate(t) == termwise_expansion_oracle(p, t)
    form = sum_over_k(p)
    assert (form.ell0, list(form.coefficients.items())) == fraction_sum_oracle(p)


def test_non_integer_pole_rejected():
    with pytest.raises(DomainError):
        RisingBlock(Fraction(1, 2), 2, 1)


def test_partial_fractions_toy_telescoping():
    f = FactoredRationalFunction((1, 0), (), (RisingBlock(1, 2, 1),))
    p = partial_fractions(f)
    assert p.terms == {(1, 1): Fraction(1), (2, 1): Fraction(-1)}


def test_partial_fractions_double_pole():
    f = FactoredRationalFunction((1, 0), (), (RisingBlock(1, 1, 2),))
    p = partial_fractions(f)
    assert p.terms == {(1, 2): Fraction(1)}


def test_partial_fractions_triple_pole_next_to_simple():
    # 1/((t+1)^3 (t+2)): u = t+1 gives u^-3 (1 - u + u^2 - ...), and the
    # simple pole at t = -2 has residue 1/(-1)^3
    f = FactoredRationalFunction(
        (1, 0), (), (RisingBlock(1, 1, 3), RisingBlock(2, 1, 1))
    )
    p = partial_fractions(f)
    assert p.terms == {(1, 3): 1, (1, 2): -1, (1, 1): 1, (2, 1): -1}


blocks = st.builds(
    RisingBlock, st.integers(0, 6), st.integers(1, 3), st.integers(1, 3)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(blocks, min_size=1, max_size=3),
    st.one_of(st.none(), blocks),
    st.tuples(st.integers(-5, 5), st.integers(-3, 3)),
    st.fractions(min_value=-10, max_value=10, max_denominator=20),
)
def test_partial_fractions_reconstruct_random_functions(den, num, prefactor, scalar):
    numerator = () if num is None else (num,)
    f = FactoredRationalFunction(prefactor, numerator, tuple(den), scalar)
    assume(f.is_proper)
    p = partial_fractions(f)
    assert reconstruction_check(f, p) is True
    assert reflection_check(p) == sampled_reflection_oracle(f, p)


@st.composite
def reflected_functions(draw):
    """A block (t + a)_L is mapped to +-itself by t -> -T - t when
    T = 2a + L - 1, so blocks sharing one T give a symmetric pole set;
    the prefactor 1 or 2t + T is even or odd about -T/2."""
    total = draw(st.integers(0, 12))

    def centred_blocks(max_size):  # lengths up to 7
        shifts = st.integers(max(0, (total - 5) // 2), total // 2)
        return st.lists(
            st.builds(
                lambda a, power: RisingBlock(a, total - 2 * a + 1, power),
                shifts,
                st.integers(1, 3),
            ),
            max_size=max_size,
        )

    den = draw(centred_blocks(3).filter(bool))
    num = tuple(draw(centred_blocks(1)))
    prefactor = draw(st.sampled_from([(1, 0), (total, 2)]))
    return FactoredRationalFunction(prefactor, num, tuple(den), Fraction(1))


@settings(max_examples=60, deadline=None)
@given(reflected_functions())
def test_reflection_matches_sampled_evaluation_symmetric(f):
    assume(f.is_proper)
    p = partial_fractions(f)
    sign = reflection_check(p)
    assert sign == sampled_reflection_oracle(f, p)
    assert sign is not None or not p.terms


def per_pole_rebuild_oracle(f):
    """Oracle: the per-pole rebuild.  At each pole t = -m every linear
    factor (t + c) becomes (c - m) + u, num and den are multiplied out from
    all factors (den without the vanishing ones) truncated at order mu - 1,
    and local[k] = (num[k] - sum_{i=1..k} den[i] local[k-i]) / den[0] is
    divided in Fractions, step by step; a_{j,m} = scalar * local[mu - j]."""

    def mul_linear(coeffs, const):
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = const * coeffs[k] + coeffs[k - 1]
        coeffs[0] *= const

    cover = {}
    for b in f.denominator:
        for m in range(b.shift, b.shift + b.length):
            cover[m] = cover.get(m, 0) + b.power
    c0, c1 = f.prefactor
    out = {}
    for m, mu in sorted(cover.items()):
        num = [c0 - c1 * m, c1][:mu] + [0] * (mu - 2)
        if num[0] == 0 and c1 == 0:
            continue  # zero prefactor: the whole function is 0
        for b in f.numerator:
            for c in range(b.shift - m, b.shift - m + b.length):
                for _ in range(b.power):
                    mul_linear(num, c)
        den = [1] + [0] * (mu - 1)
        for b in f.denominator:
            for c in range(b.shift - m, b.shift - m + b.length):
                if c != 0:
                    for _ in range(b.power):
                        mul_linear(den, c)
        local = []
        for k in range(mu):
            acc = num[k] - sum(den[i] * local[k - i] for i in range(1, k + 1))
            local.append(Fraction(acc, den[0]))
        for j in range(1, mu + 1):
            a = f.scalar * local[mu - j]
            if a != 0:
                out[(m, j)] = a
    return out


def test_partial_fractions_matches_rebuild_oracle_zudilin(pipelines):
    # same dict, same key order; even n puts the prefactor zero 37n + 2t
    # on the pole m = 37n/2; n = 5 is the largest n of the bench's exact ladder
    for pipe in map(pipelines, range(1, 6)):
        want = per_pole_rebuild_oracle(pipe.factored)
        assert list(pipe.expansion.terms.items()) == list(want.items()), pipe.n


# SHA-256 of the lines "m j a" of the terms, in key order, recorded from
# the engine that formed one normalised Fraction per term: they pin n
# past the rebuild oracle's reach (about 6 s at n = 9), at under a second
TERMS_SHA256 = {
    9: (2170, "bb3f4846f6bfc5843ea26c4b7f8b00fe0bb14a766f8377bbfaf8c93c7c86bffb"),
    13: (3130, "1f4c7ea8f241abaf00486514cb67572f8c3f4b2abc5b38988f4ae677cb18acf3"),
}


@pytest.mark.parametrize("n", sorted(TERMS_SHA256))
def test_partial_fractions_terms_match_recorded_digests(n):
    terms = partial_fractions(build_zudilin(n)).terms
    text = "".join(f"{m} {j} {a}\n" for (m, j), a in terms.items())
    assert (len(terms), hashlib.sha256(text.encode()).hexdigest()) == TERMS_SHA256[n]


def test_pipeline_forms_no_fraction_per_term(monkeypatch):
    # the engine keeps integers from the recurrence to the sum: Fractions
    # are the slid pole scales and the values that leave it (ell0, ell_s),
    # O(poles + orders), where one per term would be 730 at n = 3
    import zetaforms.forms as forms

    made, real = [], forms.Fraction

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(forms, "Fraction", counting)
    _, expansion, form = forms.zudilin_pipeline(3)
    monkeypatch.undo()
    terms = expansion.terms
    poles, orders = len({m for m, _ in terms}), len(form.coefficients)
    assert (len(terms), poles, orders) == (730, 100, 10)
    assert len(made) <= 2 * (poles + orders)


@st.composite
def edge_case_functions(draw, min_shift=-8):
    """Poles at m < 0 (negative shifts, unless min_shift >= 0), denominator
    blocks 50 or more apart (a long gap between poles), numerator
    zeros on poles, c0 - c1 m = 0 at a pole, powers
    1..3 on both sides."""
    powers = st.integers(1, 3)
    den = draw(
        st.lists(
            st.builds(RisingBlock, st.integers(min_shift, 8), st.integers(1, 4), powers),
            min_size=1,
            max_size=3,
        )
    )
    if draw(st.booleans()):
        last = max(b.shift + b.length - 1 for b in den)
        den.append(
            RisingBlock(last + draw(st.integers(50, 60)), draw(st.integers(1, 3)),
                        draw(powers))
        )
    poles = sorted({m for b in den for m in range(b.shift, b.shift + b.length)})
    num = []
    for _ in range(draw(st.integers(0, 2))):
        length = draw(st.integers(1, 3))
        zero = draw(st.sampled_from(poles))  # the block vanishes at t = -zero
        num.append(RisingBlock(zero - draw(st.integers(0, length - 1)), length,
                               draw(powers)))
    c1 = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        c0 = c1 * draw(st.sampled_from(poles))
    else:
        c0 = draw(st.integers(-5, 5))
    scalar = draw(st.fractions(min_value=-10, max_value=10, max_denominator=20))
    return FactoredRationalFunction((c0, c1), tuple(num), tuple(den), scalar)


@settings(max_examples=80, deadline=None)
@given(edge_case_functions())
@example(
    # poles -5..-3 and 60, 61; numerator zeros at -4, -3; prefactor zero at -5
    FactoredRationalFunction(
        (-5, 1),
        (RisingBlock(-4, 2, 1),),
        (RisingBlock(-5, 3, 2), RisingBlock(60, 2, 3)),
        Fraction(-7, 3),
    )
)
# scalar 0: no term at all, not zero-valued ones
@example(FactoredRationalFunction((1, 2), (), (RisingBlock(0, 3, 2),), Fraction(0)))
# numerator zeros z = mu at t = -2 and z > mu at t = -3: no term there
@example(
    FactoredRationalFunction(
        (1, 0),
        (RisingBlock(2, 2, 2), RisingBlock(3, 1, 1)),
        (RisingBlock(1, 3, 2),),
        Fraction(5, 2),
    )
)
# the prefactor root 6 + 2t = 0 on the double pole t = -3
@example(FactoredRationalFunction((6, 2), (), (RisingBlock(2, 3, 2),), Fraction(-3, 4)))
# triple poles at t = 2, 3, 4 (m < 0) only
@example(
    FactoredRationalFunction(
        (1, 1), (RisingBlock(-1, 2, 1),), (RisingBlock(-4, 3, 3),), Fraction(2, 3)
    )
)
def test_partial_fractions_edge_cases_match_rebuild_oracle(f):
    assume(f.is_proper)
    p = partial_fractions(f)
    assert list(p.terms.items()) == list(per_pole_rebuild_oracle(f).items())
    assert reconstruction_check(f, p) is True


def nonzero_product(lo, hi):
    """Oracle: the product of the nonzero integers lo..hi, as two falling
    factorials."""
    pos, neg = max(hi - max(lo, 1) + 1, 0), max(min(hi, -1) - lo + 1, 0)  # their counts
    return (-1) ** neg * math.perm(max(hi, 0), pos) * math.perm(max(-lo, 0), neg)


def pole_scale_oracle(f, m):
    """Oracle: scalar * prod_{c != m} (c - m)^w(c) rebuilt at m, block by
    block, each block's factors one nonzero_product."""
    def part(blocks):
        return math.prod(nonzero_product(b.shift - m, b.shift + b.length - 1 - m) ** b.power
                         for b in blocks)
    return f.scalar * Fraction(part(f.numerator), part(f.denominator))


def slid_scales(f):
    """(m, scale) for each pole at which partial_fractions slides its scale."""
    import zetaforms.forms as forms

    slide, seen = forms._pole_scales, []

    def recording(scalar, spans, poles):
        for m, scale in zip(poles, slide(scalar, spans, poles)):
            seen.append((m, scale))
            yield scale

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms, "_pole_scales", recording)
        terms = forms.partial_fractions(f).terms
    assert {m for m, _ in terms} <= {m for m, _ in seen}
    return seen


def test_slid_scales_match_oracle_zudilin(pipelines):
    # the poles 2n..35n, each slid from the one before
    for pipe in map(pipelines, range(1, 6)):
        seen = slid_scales(pipe.factored)
        assert [m for m, _ in seen] == list(range(2 * pipe.n, 35 * pipe.n + 1))
        assert seen == [(m, pole_scale_oracle(pipe.factored, m)) for m, _ in seen]


@settings(max_examples=80, deadline=None)
@given(edge_case_functions())
@example(
    # poles -5..-3 and 60, 61: a gap of 62, poles at m < 0
    FactoredRationalFunction(
        (-5, 1),
        (RisingBlock(-4, 2, 1),),
        (RisingBlock(-5, 3, 2), RisingBlock(60, 2, 3)),
        Fraction(-7, 3),
    )
)
# the numerator's (t + 2)^2 cancels the double pole t = -2: poles 1 and 3
@example(FactoredRationalFunction((1, 0), (RisingBlock(2, 1, 2),), (RisingBlock(1, 3, 2),),
                                  Fraction(5, 2)))
# scalar 0: no pole is slid
@example(FactoredRationalFunction((1, 2), (), (RisingBlock(0, 3, 2),), Fraction(0)))
def test_slid_scales_match_oracle(f):
    assume(f.is_proper)
    seen = slid_scales(f)
    assert seen == [(m, pole_scale_oracle(f, m)) for m, _ in seen]
    zeros = Counter(_linear_factors(f.numerator))
    cover = Counter(_linear_factors(f.denominator))
    poles = [m for m, mu in sorted(cover.items()) if mu > zeros[m]]
    assert [m for m, _ in seen] == (poles if f.scalar else [])


def ball_zeta3(n):
    """Ball's well-poised series for zeta(3): n!^2 (t + n/2) (t - n)_n
    (t + n + 1)_n / (t)_{n+1}^4, with four-fold poles at m = 0..n.  Its sum
    over t = 1, 2, ... is b_n zeta(3) - a_n, Apery's numbers."""
    return FactoredRationalFunction(
        (n, 2),
        (RisingBlock(-n, n, 1), RisingBlock(n + 1, n, 1)),
        (RisingBlock(0, n + 1, 4),),
        Fraction(math.factorial(n) ** 2, 2),
    )


def apery_oracle(n):
    """Oracle: Apery's binomial sums b_n = sum_k w_k and a_n = sum_k w_k
    c_{n,k}, with w_k = C(n,k)^2 C(n+k,k)^2 and c_{n,k} = H_n(3) +
    sum_{m=1..k} (-1)^(m-1) / (2 m^3 C(n,m) C(n+m,m))."""
    b, a = 0, Fraction(0)
    for k in range(n + 1):
        w = (math.comb(n, k) * math.comb(n + k, k)) ** 2
        c = harmonic_power_sum(n, 3) + sum(
            Fraction((-1) ** (m - 1), 2 * m**3 * math.comb(n, m) * math.comb(n + m, m))
            for m in range(1, k + 1)
        )
        b, a = b + w, a + w * c
    return b, a


APERY_B = (5, 73, 1445, 33001, 819005, 21460825)
APERY_A = (6, Fraction(351, 4), Fraction(62531, 36), Fraction(11424695, 288))


@pytest.mark.parametrize("n", range(1, 7))
def test_partial_fractions_of_ball_series_give_apery(n):
    # a control family with every constant known: zeta(s) gets sum_m a_{m,s},
    # which is 0, 0, b_n, 0 for s = 1..4, and the constant -sum a_{m,s}
    # H_m(s) is -a_n
    f = ball_zeta3(n)
    p = partial_fractions(f)
    assert {m for m, _ in p.terms} == set(range(n + 1))
    b, a = apery_oracle(n)
    assert b == APERY_B[n - 1]
    if n <= len(APERY_A):
        assert a == APERY_A[n - 1]
    ell = [sum(c for (_, j), c in p.terms.items() if j == s) for s in range(1, 5)]
    assert ell == [0, 0, b, 0]

    def harmonic(m, s):  # harmonic_power_sum takes s >= 2 only
        if s == 1:
            return sum((Fraction(1, l) for l in range(1, m + 1)), Fraction(0))
        return harmonic_power_sum(m, s)

    assert -sum(c * harmonic(m, s) for (m, s), c in p.terms.items()) == -a
    assert reflection_check(p) == -1
    assert reconstruction_check(f, p) is True
    # the order-1 terms sum to 0 (from n = 2 on they are nonzero), so
    # sum_over_k telescopes them into the constant
    form = sum_over_k(p)
    assert (form.ell0, form.coefficients[3]) == (-a, b)
    assert form.coefficients == {2: 0, 3: b, 4: 0}
    assert predicted_zero_orders(f, p, 0) == {2, 4}
    for summed in (p, second_derivative(p)):
        got = sum_over_k(summed)
        assert (got.ell0, list(got.coefficients.items())) == fraction_sum_oracle(summed)


@pytest.mark.parametrize("n", range(3, 7))
def test_direct_sum_of_ball_series_matches_exact_route(n):
    # a numerator zero on the walk that leaves it: (t - n)_n vanishes at
    # t = 1..n, one factor each, so the zero count drops from 1 to 0 on the
    # slide from n to n + 1.  n = 1 and 2 are left out: the terms fall only
    # like k^-(2n + 5), so n = 2 walks 36,370 terms and n = 1 far more
    f = ball_zeta3(n)
    form = sum_over_k(second_derivative(partial_fractions(f)))
    exact = evaluate_numeric(form, ZetaTable(form.nonzero_arguments(), 70))
    direct = direct_sum(f, 30)
    assert abs(direct.to_fraction() - exact.to_fraction()) < Fraction(1, 10**30)


def test_three_terms_counts_zero_factors_apart():
    # (2 + u)(3 + u)(5 + u)^2 to u^2, the factors of the constants at t = u
    assert _three_terms([2, 3, 5, 5], 0) == ((150, 185, 81), 0)
    assert _three_terms([2, 3, 5, 5], 1) == _three_terms([3, 4, 6, 6], 0)
    # a constant that the shift makes 0 is a factor u, counted apart
    assert _three_terms([0, 1], 0) == ((1, 1, 0), 1)
    assert _three_terms([-1, 2], 0) == ((-2, 1, 1), 0)
    assert _three_terms([0, 3], 0) == ((3, 1, 0), 1)
    assert _three_terms([-1, 2], 1) == ((3, 1, 0), 1)


def rebuilt_series(f, k):
    """Oracle: (p, d) of f at t = k + u from _three_terms rebuilt at that k,
    no slide: d the denominator's series, p the prefactor (c0 + c1 k) +
    c1 u times the numerator's, shifted up by its zero factors."""
    c0, c1 = f.prefactor
    top, zeros = _three_terms([c + k for c in _linear_factors(f.numerator)], 0)
    x0, x1, x2 = ((0,) * zeros + top)[:3]
    p0 = c0 + c1 * k
    bottom, _ = _three_terms([c + k for c in _linear_factors(f.denominator)], 0)
    return (p0 * x0, p0 * x1 + c1 * x0, p0 * x2 + c1 * x1), bottom


@st.composite
def walk_functions(draw):
    """(f, digits) for the walk: triple numerator zeros at t = 1..lead, then
    zeros of order 1 or 2 or the prefactor's root further on (where the
    walk takes the exact route and re-seeds past it), other numerator
    blocks with negative and zero constants, powers up to 3, denominator
    blocks with every pole at t <= 0, a prefactor with c1 = 0 or not, a
    nonzero scalar of either sign and 10 to 1,000 digits."""
    def blocks(low, least, most):
        return st.lists(
            st.builds(RisingBlock, st.integers(low, 6), st.integers(1, 5), st.integers(1, 3)),
            min_size=least, max_size=most,
        )
    lead = draw(st.integers(0, 4))
    numerator = [RisingBlock(-lead, lead, 3)] if lead else []
    for _ in range(draw(st.integers(0, 2))):
        numerator.append(RisingBlock(-draw(st.integers(lead + 1, lead + 12)), 1,
                                     draw(st.integers(1, 2))))
    numerator += draw(blocks(-12, 0, 2))
    c1 = draw(st.integers(-2, 2))
    if c1 and draw(st.booleans()):
        c0 = -c1 * draw(st.integers(lead + 1, lead + 12))
    else:
        c0 = draw(st.integers(-6, 6).filter(lambda c: c or c1))
    scalar = draw(st.fractions(min_value=-10, max_value=10, max_denominator=20).filter(bool))
    f = FactoredRationalFunction((c0, c1), tuple(numerator), tuple(draw(blocks(0, 1, 4))), scalar)
    return f, draw(st.integers(10, 1000))


@settings(max_examples=80, deadline=None)
@given(walk_functions())
@example((FactoredRationalFunction(
    (1, 1), (RisingBlock(-3, 3, 2), RisingBlock(-2, 1, 3)), (RisingBlock(0, 2, 1),)
), 200))
# c1 = 0, a negative scalar, a triple zero run, then zeros of order 1 and 2
@example((FactoredRationalFunction(
    (3, 0), (RisingBlock(-2, 2, 3), RisingBlock(-5, 1, 1), RisingBlock(-7, 1, 2)),
    (RisingBlock(1, 4, 2),), Fraction(-5, 3)
), 1000))
# the prefactor's root at t = 6, past a triple zero at t = 1
@example((FactoredRationalFunction(
    (-12, 2), (RisingBlock(-1, 1, 3),), (RisingBlock(0, 3, 3),), Fraction(7, 2)
), 10))
def test_walk_matches_rebuilt_series(case):
    # each of the first 24 terms is _div_nearest(a 10^work, b) of the [u^2]
    # rational on the series rebuilt at that k, whatever route it took
    f, digits = case
    work = digits + GUARD_DIGITS + 5
    want = [_div_nearest(a * 10**work, b) for a, b in full_walk_terms(f, 24)]
    assert list(islice(_second_derivative_terms(f, work), 24)) == want


@st.composite
def staircase_functions(draw):
    """(f, digits) whose walk steps runs of two or more consecutive
    constants of one weight: a staircase of 2..4 nested denominator blocks
    (t + s - i)_(length + 2i), all of one power p, whose lower ends make a
    run of weight +p and whose upper ends one of -p; maybe a numerator
    staircase (t - r - i)_(2i + 1) of power 1..3, with runs of both signs
    that end next to its roots at t = r - i .. r + i; a prefactor whose
    root may sit at a positive integer; a nonzero scalar and 10 to 300
    digits.  The denominator blocks are long enough to keep f proper."""
    numerator = []
    if draw(st.booleans()):
        height, power = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        r = draw(st.integers(height, height + 8))
        numerator = [RisingBlock(-r - i, 2 * i + 1, power) for i in range(height)]
    c1 = draw(st.integers(-2, 2))
    if c1 and draw(st.booleans()):
        c0 = -c1 * draw(st.integers(1, 12))
    else:
        c0 = draw(st.integers(-6, 6).filter(lambda c: c or c1))
    degree = sum(b.degree for b in numerator) + 1
    height, power = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    shift = draw(st.integers(height - 1, height + 5))
    length = draw(st.integers(0, 4)) + -(-(degree + 1) // (height * power))
    denominator = [RisingBlock(shift - i, length + 2 * i, power) for i in range(height)]
    scalar = draw(st.fractions(min_value=-10, max_value=10, max_denominator=20).filter(bool))
    f = FactoredRationalFunction((c0, c1), tuple(numerator), tuple(denominator), scalar)
    return f, draw(st.integers(10, 300))


def recorded_runs(monkeypatch):
    """The runs _second_derivative_terms steps, one list per walk begun."""
    import zetaforms.forms as forms

    split, seen = forms._step_runs, []

    def recording(steps):
        runs, *rest = split(steps)
        seen.append(runs)
        return (runs, *rest)

    monkeypatch.setattr(forms, "_step_runs", recording)
    return seen


def test_zudilin_steps_its_nested_block_ends_as_runs(monkeypatch):
    # at n = 1 the ten denominator blocks start at 2..11 and end at 26..35,
    # so the walk steps those ends as two runs of ten; from n = 2 on they
    # lie n apart and every boundary constant is stepped on its own
    seen = recorded_runs(monkeypatch)
    for n in (1, 2, 3):
        next(_second_derivative_terms(build_zudilin(n), 10))
    assert seen == [[(2, 11, 1), (27, 36, -1)], [], []]


STAIRCASE_EXAMPLES = [
    # weight 1 of both signs: block starts at 0..2, ends at 4..6
    (FactoredRationalFunction(
        (1, 0), (), (RisingBlock(2, 3, 1), RisingBlock(1, 5, 1), RisingBlock(0, 7, 1))
    ), 50),
    # runs of weight -2 and +2 from the numerator, the second ending next to
    # its root at t = 5 (order 2; 4 at t = 6, 2 at t = 7), weights +-3 from
    # the denominator and the prefactor's root at t = 9
    (FactoredRationalFunction(
        (-9, 1), (RisingBlock(-6, 1, 2), RisingBlock(-7, 3, 2)),
        (RisingBlock(1, 10, 3), RisingBlock(0, 12, 3)), Fraction(-5, 3)
    ), 200),
    # a numerator run of weight -1 at -3..-2 that merges with nothing and a
    # denominator run of weight +1 that starts at 0
    (FactoredRationalFunction(
        (3, 2), (RisingBlock(-3, 1, 1), RisingBlock(-2, 1, 1)),
        (RisingBlock(1, 6, 1), RisingBlock(0, 8, 1)), Fraction(7, 2)
    ), 30),
]


@settings(max_examples=60, deadline=None)
@given(staircase_functions())
@example(STAIRCASE_EXAMPLES[0])
@example(STAIRCASE_EXAMPLES[1])
@example(STAIRCASE_EXAMPLES[2])
def test_walk_steps_runs_like_the_rebuilt_series(case):
    # the first 40 terms of a function with runs are the oracle's, from the
    # series rebuilt at each k
    f, digits = case
    work = digits + GUARD_DIGITS + 5
    want = [_div_nearest(a * 10**work, b) for a, b in full_walk_terms(f, 40)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = recorded_runs(monkeypatch)
        assert list(islice(_second_derivative_terms(f, work), 40)) == want
    assert seen[0], "the function has no run"


def test_reseeds_rebuild_the_runs(monkeypatch):
    # with the guard bits at -8 the walk of a function with runs of weights
    # +-2 and +-3 also re-seeds where no root forces it, rebuilding its
    # prefix sums and running products there, and every term is still the
    # oracle's
    import zetaforms.forms as forms

    class CountedScalar(Fraction):
        """A scalar counting reads of its denominator: the walk reads it
        once to set up and once at every seed."""

        reads = 0

        @property
        def denominator(self):
            CountedScalar.reads += 1
            return Fraction.denominator.fget(self)

    f = FactoredRationalFunction((-9, 1), (RisingBlock(-6, 1, 2), RisingBlock(-7, 3, 2)),
                                 (RisingBlock(1, 10, 3), RisingBlock(0, 12, 3)),
                                 CountedScalar(-5, 3))
    seen, work, seeds = recorded_runs(monkeypatch), 200 + GUARD_DIGITS + 5, []
    want = [_div_nearest(a * 10**work, b) for a, b in full_walk_terms(f, 300)]
    for guard in (forms.WALK_GUARD_BITS, -8):
        monkeypatch.setattr(forms, "WALK_GUARD_BITS", guard)
        CountedScalar.reads = 0
        assert list(islice(_second_derivative_terms(f, work), 300)) == want, guard
        seeds.append(CountedScalar.reads - 1)
    # at t = 1 and past the roots at t = 5..7 and 9, and at -8 again mid-walk
    assert seeds[0] == 3 and seeds[1] > 3, seeds
    assert seen == [[(-7, -6, -2), (-5, -4, 2), (0, 1, 3), (11, 12, -3)]] * 2


def test_partial_fractions_rejects_improper():
    f = FactoredRationalFunction((0, 1), (RisingBlock(1, 2, 1),), (RisingBlock(5, 2, 1),))
    with pytest.raises(DomainError):
        partial_fractions(f)
    with pytest.raises(DomainError, match="proper"):
        direct_sum(f, 50)  # and the direct sum, whose cutoff needs decay >= 3


def test_partial_fractions_scalar_included():
    f = FactoredRationalFunction(
        (1, 0), (), (RisingBlock(1, 2, 1),), scalar=Fraction(3, 7)
    )
    p = partial_fractions(f)
    assert p.terms[(1, 1)] == Fraction(3, 7)


def test_reconstruction_zudilin_n1(pipeline1):
    assert reconstruction_check(pipeline1.factored, pipeline1.expansion) is True


def test_reconstruction_at_explicit_random_rationals(pipeline1):
    rng = random.Random(991)
    for _ in range(3):
        t = rng.randint(-50, 50) + Fraction(1, rng.choice([3, 7]))
        assert pipeline1.factored.evaluate(t) == pipeline1.expansion.evaluate(t)


def test_second_derivative_trivia():
    p = expansion_of({(1, 1): Fraction(1)})
    assert second_derivative(p).terms == {(1, 3): Fraction(2)}
    assert second_derivative(expansion_of({})).terms == {}
    p = expansion_of({(2, 10): Fraction(3, 5)})
    assert second_derivative(p).terms == {(2, 12): Fraction(66)}  # 110 * 3/5


def test_second_derivative_order_shift(pipeline1):
    before = pipeline1.expansion
    after = pipeline1.differentiated
    assert min(j for _, j in after.terms) == min(j for _, j in before.terms) + 2
    assert max(j for _, j in after.terms) == max(j for _, j in before.terms) + 2
    for (m, j), a in before.terms.items():
        assert after.terms[(m, j + 2)] == j * (j + 1) * a


def test_sum_over_k_trivia():
    form = sum_over_k(expansion_of({(0, 3): Fraction(1)}))
    assert form.ell0 == 0 and form.coefficients == {3: Fraction(1)}
    form = sum_over_k(expansion_of({(2, 3): Fraction(2)}))
    assert form.ell0 == Fraction(-9, 4) and form.coefficients == {3: Fraction(2)}
    form = sum_over_k(
        expansion_of({(1, 2): Fraction(1), (0, 2): Fraction(-1)})
    )
    assert form.coefficients == {2: Fraction(0)} and form.ell0 == -1


def test_sum_over_k_rejects_divergent():
    with pytest.raises(DomainError):
        sum_over_k(expansion_of({(1, 1): Fraction(1)}))
    with pytest.raises(DomainError):
        sum_over_k(expansion_of({(-2, 3): Fraction(1)}))
    # the error names the first bad term in sorted (m, s) order
    bad = {(4, 1): Fraction(1), (-1, 3): Fraction(1), (-3, 2): Fraction(1)}
    with pytest.raises(DomainError, match=r"^pole at positive integer t=3 "):
        sum_over_k(expansion_of(bad))
    bad = {(9, 0): Fraction(1), (2, 5): Fraction(1), (7, 1): Fraction(1)}
    with pytest.raises(DomainError, match=r"^divergent order 1 at pole -7$"):
        sum_over_k(expansion_of(bad))
    # a pole at t = 1 is reported as such even when its order is 1
    with pytest.raises(DomainError, match=r"^pole at positive integer t=1 "):
        sum_over_k(expansion_of({(-1, 1): Fraction(1)}))
    # order-1 terms whose coefficients do not sum to 0 diverge: the error
    # names the first of them, even when a later one would cancel part
    bad = {(3, 1): Fraction(2), (5, 1): Fraction(-1), (1, 2): Fraction(1)}
    with pytest.raises(DomainError, match=r"^divergent order 1 at pole -3$"):
        sum_over_k(expansion_of(bad))


def test_sum_over_k_telescopes_order_one():
    # 1/(t+1) - 1/(t+3) summed over t >= 1 is 1/2 + 1/3 = H_3 - H_1, the
    # constant -sum a_{m,1} H_m(1); an order-2 term keeps its zeta(2)
    p = expansion_of(
        {(1, 1): Fraction(1), (3, 1): Fraction(-1), (2, 2): Fraction(4)}
    )
    form = sum_over_k(p)
    assert form.coefficients == {2: Fraction(4)}
    assert form.ell0 == Fraction(5, 6) - 4 * (1 + Fraction(1, 4))


def per_term_sum_oracle(p):
    """Oracle: ell_s = sum_m a_{m,s} and ell0 = -sum a_{m,s} H_m(s), one
    harmonic sum per term, with ell in sorted (m, s) order."""
    ell, ell0 = {}, Fraction(0)
    for (m, s), a in sorted(p.terms.items()):
        ell[s] = ell.get(s, Fraction(0)) + a
        ell0 -= a * harmonic_power_sum(m, s)
    return ell0, list(ell.items())


def fraction_sum_oracle(p):
    """Oracle: sum_over_k one normalised Fraction at a time, (ell0, the
    (s, ell_s) in key order): each term checked in sorted (m, s) order and
    added to its ell_s, then the tails A_s(l) walked down the poles,
    ell0 -= A_s(l) / l^s for every l and s."""
    ell, by_pole = {}, {}
    order_one = sum(a for (_, s), a in p.terms.items() if s == 1)
    for (m, s), a in sorted(p.terms.items()):
        if m < 0:
            raise DomainError(f"pole at positive integer t={-m} hits the sum range")
        if s < 1 or (s == 1 and order_one != 0):
            raise DomainError(f"divergent order {s} at pole -{m}")
        if s > 1:
            ell[s] = ell.get(s, Fraction(0)) + a
        by_pole.setdefault(m, []).append((s, a))
    tails, ell0 = {}, Fraction(0)
    for l in range(max(by_pole, default=0), 0, -1):
        for s, a in by_pole.get(l, ()):
            tails[s] = tails.get(s, Fraction(0)) + a
        ell0 -= sum(tail / l**s for s, tail in tails.items())
    return ell0, list(ell.items())


def test_sum_over_k_matches_fraction_oracle_zudilin(pipelines):
    for pipe in map(pipelines, range(1, 6)):
        form = sum_over_k(pipe.differentiated, pipe.n)
        assert (form.ell0, list(form.coefficients.items())) == fraction_sum_oracle(
            pipe.differentiated
        ), pipe.n


# denominators that share some primes and not others, up to 2^40
MIXED_DENOMINATORS = (1, 2, 3, 4, 9, 12, 25, 49, 1331, 2**20 * 3, 10**9 + 7, 6**15, 2**40)


@st.composite
def mixed_expansions(draw):
    """Terms at m = 0..30 of orders 1..9 over MIXED_DENOMINATORS, the
    order-1 terms balanced to sum 0 or not, and at times a term at a
    negative pole or of order 0 added."""
    value = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
                      st.sampled_from(MIXED_DENOMINATORS))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 30), st.integers(1, 9)), value,
                                 max_size=25))
    ones = [key for key in terms if key[1] == 1]
    if ones and draw(st.booleans()):  # telescoping: the order-1 terms sum to 0
        terms[ones[0]] = -sum(terms[key] for key in ones[1:])
    fault = draw(st.sampled_from([None, None, "pole", "order 0"]))
    if fault == "pole":
        terms[(draw(st.integers(-5, -1)), draw(st.integers(0, 9)))] = draw(value)
    elif fault == "order 0":
        terms[(draw(st.integers(0, 30)), 0)] = draw(value)
    return expansion_of(terms)


@settings(max_examples=200, deadline=None)
@given(mixed_expansions())
# the first bad term in sorted order raises: a pole at t = 2 before the
# unbalanced order 1, order 0 at m = 0 before it, the order 1 at m = 3
@example(expansion_of({(3, 1): Fraction(2, 3), (5, 1): Fraction(-1, 9),
                                   (-2, 4): Fraction(1, 4), (7, 0): Fraction(5)}))
@example(expansion_of({(0, 0): Fraction(1, 6), (2, 1): Fraction(1, 4)}))
@example(expansion_of({(3, 1): Fraction(2, 3), (5, 1): Fraction(-1, 9),
                                   (1, 2): Fraction(7, 12), (4, 0): Fraction(5)}))
# telescoping order 1 next to orders 2 and 9 with coprime denominators
@example(expansion_of({(1, 1): Fraction(1, 3), (30, 1): Fraction(-1, 3),
                                   (0, 2): Fraction(5, 2**40), (17, 9): Fraction(-3, 1331)}))
def test_sum_over_k_matches_fraction_oracle(p):
    try:
        want = fraction_sum_oracle(p)
    except DomainError as error:
        with pytest.raises(DomainError) as raised:
            sum_over_k(p)
        assert str(raised.value) == str(error)
    else:
        form = sum_over_k(p)
        assert (form.ell0, list(form.coefficients.items())) == want


def test_sum_over_k_matches_per_term_oracle_zudilin(pipeline1, pipeline2):
    for pipe in (pipeline1, pipeline2):
        form = sum_over_k(pipe.differentiated, pipe.n)
        want = per_term_sum_oracle(pipe.differentiated)
        assert (form.ell0, list(form.coefficients.items())) == want


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 40), st.integers(2, 12)),
        st.fractions(max_denominator=10**6).filter(bool),
        max_size=25,
    )
)
@example(
    {(0, 2): Fraction(1), (0, 12): Fraction(-2, 3), (7, 5): Fraction(5),
     (30, 2): Fraction(1, 9)}
)
def test_sum_over_k_matches_per_term_oracle(terms):
    # m = 0 terms, gaps between poles and every order 2..12
    p = expansion_of(terms)
    form = sum_over_k(p)
    assert (form.ell0, list(form.coefficients.items())) == per_term_sum_oracle(p)


def predicted_zero_orders(f, summed, shift):
    """The orders s whose zeta(s) coefficient must vanish when `summed`, the
    expansion of f differentiated `shift` times, is summed over t, as keys
    of the form (order 1 is telescoped, never a key).  Reflection sign -1
    (+1) pairs a_{s,m} with -a_{s,T-m} for every even (odd) s, so those
    orders sum to 0; a degree gap of at least 2 makes the residues of f,
    the order 1 + shift, sum to 0."""
    sign = reflection_check(summed)
    orders = {s for _, s in summed.terms} - {1}
    zero = {s for s in orders if sign is not None and (-1) ** s == -sign}
    if f.denominator_degree - f.numerator_degree >= 2:
        zero.add(1 + shift)
    return zero & orders


def test_vanishing_pattern_is_derived(pipelines):
    # the zeros are predicted from the reflection sign and the degrees, not
    # listed, and kept as zero-valued keys
    for pipe in map(pipelines, range(1, 10)):
        zero = predicted_zero_orders(pipe.factored, pipe.differentiated, 2)
        assert zero == {3, 4, 6, 8, 10, 12}, pipe.n
        assert {s for s, c in pipe.form.coefficients.items() if c == 0} == zero, pipe.n


def test_zudilin_form_structure(pipeline1):
    form = pipeline1.form
    assert form.nonzero_arguments() == [5, 7, 9, 11]
    for s in (3, 4, 6, 8, 10, 12):
        assert form.coefficients[s] == 0
    assert form.ell0 != 0


def test_zudilin_form_structure_n2(pipeline2):
    form = pipeline2.form
    assert form.nonzero_arguments() == [5, 7, 9, 11]
    for s in (3, 4, 6, 8, 10, 12):
        assert form.coefficients[s] == 0


def test_zudilin_linear_form_is_the_pipeline_form():
    # the reference: the four stages composed by hand
    for n in (1, 2):
        factored = build_zudilin(n)
        expansion = partial_fractions(factored)
        form = sum_over_k(second_derivative(expansion), n)
        assert zudilin_pipeline(n) == (factored, expansion, form)
        assert zudilin_linear_form(n, max_n=n) == form


def test_budget_cap():
    with pytest.raises(BudgetError):
        zudilin_linear_form(3, max_n=2)
    with pytest.raises(DomainError, match="index must be >= 1, got 0"):
        zudilin_linear_form(0, max_n=2)


def test_coefficient_height_report(pipeline1, pipeline2):
    # soft coefficient-size check: 513 bits per unit n, with documented
    # slack 60 for the o(n) term at desk scale
    for pipe in (pipeline1, pipeline2):
        assert pipe.form.log2_height() / pipe.n <= 513 + 60


# (2t + 3) / ((t+1)(t+2))^2 is odd about t = -3/2
ODD_ABOUT_THREE_HALVES = FactoredRationalFunction((3, 2), (), (RisingBlock(1, 2, 2),))
# 1 / ((t+1)(t+2)) is even about t = -3/2
EVEN_ABOUT_THREE_HALVES = FactoredRationalFunction((1, 0), (), (RisingBlock(1, 2, 1),))


def test_well_poised_reflection(pipeline1, pipeline2):
    # a_{j,37n-m} = (-1)^(j+1) a_{j,m} on every coefficient
    for pipe in (pipeline1, pipeline2):
        assert reflection_check(pipe.expansion) == -1
        for (m, j), a in pipe.expansion.terms.items():
            assert pipe.expansion.terms[(37 * pipe.n - m, j)] == (-1) ** (j + 1) * a


def test_reflection_detects_asymmetric():
    even = partial_fractions(EVEN_ABOUT_THREE_HALVES)
    assert reflection_check(even) == 1
    odd = partial_fractions(ODD_ABOUT_THREE_HALVES)
    assert reflection_check(odd) == -1
    # 1/((t+1)^2 (t+2)): the double pole has no partner
    lopsided = FactoredRationalFunction(
        (1, 0), (), (RisingBlock(1, 1, 2), RisingBlock(2, 1, 1))
    )
    assert reflection_check(partial_fractions(lopsided)) is None
    # the zero function has no sign
    assert reflection_check(expansion_of({})) is None


def test_reflection_is_exact_on_every_coefficient(pipeline1):
    # one coefficient off by 10^-300 breaks the symmetry
    terms = dict(pipeline1.expansion.terms)
    key = max(terms)
    terms[key] += Fraction(1, 10**300)
    assert reflection_check(expansion_of(terms)) is None


def test_reflection_matches_sampled_evaluation(pipeline1, pipeline2):
    cases = [(pipe.factored, pipe.expansion) for pipe in (pipeline1, pipeline2)]
    cases += [
        (f, partial_fractions(f))
        for f in (EVEN_ABOUT_THREE_HALVES, ODD_ABOUT_THREE_HALVES)
    ]
    for f, p in cases:
        assert reflection_check(p) == sampled_reflection_oracle(f, p)


def test_evaluate_numeric_trivia(table400):
    zero = ZetaLinearForm(0, Fraction(0), {})
    assert evaluate_numeric(zero, table400).scaled == 0
    simple = ZetaLinearForm(0, Fraction(-1), {5: Fraction(1)})
    got = evaluate_numeric(simple, table400)
    assert got.to_decimal().startswith("0.0369277551")


def test_evaluate_numeric_budget(pipeline1):
    assert required_digits(1) == 314
    small = ZetaTable([5, 7, 9, 11], 60)
    with pytest.raises(BudgetError):
        evaluate_numeric(pipeline1.form, small)


def test_direct_sum_two_cutoffs(pipeline1):
    # the production cutoff at two precisions: each stops where its own
    # tail bound allows, and the two sums agree to the coarser one
    a = direct_sum(pipeline1.factored, 140)
    b = direct_sum(pipeline1.factored, 160)
    assert abs(a.to_fraction() - b.to_fraction()) < Fraction(1, 10**138)


def per_pole_direct_sum_oracle(digits, expansion, count):
    """Oracle: the per-pole direct sum of the first `count` terms.  Each
    pole's terms of `expansion` (a twice-differentiated partial-fraction
    expansion) are one integer polynomial over a common denominator,
    evaluated exactly at every t = k and rounded per pole."""
    work = digits + GUARD_DIGITS + 5
    scale = 10**work
    poles = []
    for m in sorted({m for m, _ in expansion.terms}):
        orders = {j: a for (mm, j), a in expansion.terms.items() if mm == m}
        big_j = max(orders)
        den = math.lcm(*(a.denominator for a in orders.values()))
        coeffs = [0] * (big_j + 1)  # coeffs[d] multiplies x^d
        for j, a in orders.items():
            coeffs[big_j - j] = a.numerator * (den // a.denominator)
        poles.append((m, den, coeffs, big_j))
    total = 0
    for k in range(1, count + 1):
        for m, den, coeffs, big_j in poles:
            value = 0
            for c in reversed(coeffs):
                value = value * (k + m) + c
            total += _div_nearest(value * scale, den * (k + m) ** big_j)
    return FixedReal(_div_nearest(total, 10 ** (work - digits)), digits)


def test_direct_sum_matches_per_pole_oracle(pipeline1, pipeline2, monkeypatch):
    # the same 200 digits as the per-pole route over as many terms as
    # direct_sum consumed
    import zetaforms.forms as forms

    terms = forms._second_derivative_terms
    used = []

    def counted(f, work):
        used.append(0)
        for term in terms(f, work):
            used[-1] += 1
            yield term

    monkeypatch.setattr(forms, "_second_derivative_terms", counted)
    cases = [(pipe.n, pipe.factored, pipe.differentiated) for pipe in (pipeline1, pipeline2)]
    f3 = build_zudilin(3)
    cases.append((3, f3, second_derivative(partial_fractions(f3))))
    for n, f, differentiated in cases:
        got = direct_sum(f, 200).to_decimal()
        assert got == per_pole_direct_sum_oracle(200, differentiated, used[-1]).to_decimal(), n


def test_direct_sum_cutoff_follows_the_decay(monkeypatch):
    # R = 1/((t+1)(t+2)) = 1/(t+1) - 1/(t+2), so sum R''(k) = 2/2^3 = 1/4
    # exactly.  Its proved tail bound 2 (k + 3) / (k^2 (k - 2)^2) falls like
    # k^-3 and meets 10^-10 / (2 10^4) first at k = 73,683, so the walk
    # sums 73,682 terms
    import zetaforms.forms as forms

    terms = forms._second_derivative_terms

    def capped(f, work):
        for k, term in enumerate(terms(f, work), 1):
            assert k <= 10**5, "direct_sum walked past 10^5 terms"
            yield term

    monkeypatch.setattr(forms, "_second_derivative_terms", capped)
    f = FactoredRationalFunction((1, 0), (), (RisingBlock(1, 2, 1),))
    assert direct_sum(f, 10).to_decimal() == "0.2500000000"


# SHA-256 of direct_sum(build_zudilin(n), 200).to_decimal() for every n that
# `form` accepts, at the one precision `form` runs the oracle at, recorded
# from the walk that stepped each boundary constant on its own: n = 1's
# digits, and from n = 2 on 200 zeros (every term rounds to 0 there)
DIRECT_SUM_200_SHA256 = {
    1: "e403130a8dca0d2264a29a0d21e164619c63a44a5bb4bef0e82405257687b9cb",
    **dict.fromkeys(range(2, 32),
                    "bfbe95cc84bedb5d3a800ed98667a2a2f10f0ef9275f78166d2d2384bcdb6c41"),
}


def test_direct_sum_at_200_digits_matches_recorded_digests():
    accepted = [n for n in range(1, 100) if required_digits(n) <= cli.MAX_FORM_DIGITS]
    assert accepted == sorted(DIRECT_SUM_200_SHA256)
    for n in accepted:
        text = direct_sum(build_zudilin(n), cli.DIRECT_SUM_DIGITS).to_decimal()
        assert hashlib.sha256(text.encode()).hexdigest() == DIRECT_SUM_200_SHA256[n], n


def recorded_direct_sum(f, digits):
    """direct_sum(f, digits) and the terms it consumed, in order, read
    through a wrapped _second_derivative_terms."""
    import zetaforms.forms as forms

    terms, consumed = forms._second_derivative_terms, []

    def recording(f, work):
        for term in terms(f, work):
            consumed.append(term)
            yield term

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(forms, "_second_derivative_terms", recording)
        return direct_sum(f, digits), consumed


# (t - 50)^3 / (t + 1)_8: R''(50) = 0 lies past the hump of the terms
ROOT_PAST_HUMP = FactoredRationalFunction((1, 0), (RisingBlock(-50, 1, 3),),
                                          (RisingBlock(1, 8, 1),))


@pytest.fixture(scope="module")
def root_past_hump_sum():
    """direct_sum(ROOT_PAST_HUMP, 30) and the 872,136 terms it consumed, the
    longest walk in the suite, walked once for the two tests that read it."""
    return recorded_direct_sum(ROOT_PAST_HUMP, 30)


def test_direct_sum_sums_past_a_root_past_the_hump(root_past_hump_sum):
    # the walk runs on past R''(50) = 0 to the proved cutoff and keeps all
    # 30 digits: a sum stopped at that root gives -1.523365255437328...,
    # against -1.523365255437334... from the exact route
    value, _ = root_past_hump_sum
    form = sum_over_k(second_derivative(partial_fractions(ROOT_PAST_HUMP)))
    assert set(form.coefficients) == {3}
    exact = form.ell0 + form.coefficients[3] * ZetaTable([3], 60)[3].to_fraction()
    assert abs(value.to_fraction() - exact) < Fraction(1, 10**29)


def test_direct_sum_consumes_the_proved_cutoffs_terms(root_past_hump_sum):
    # direct_sum sums the terms k = 1 .. K - 1 for K = _tail_cutoff(f,
    # digits), fixed before the walk: at every n that `form` accepts that is
    # 1,578 terms at n = 1, 322 at n = 2 and 244 at n = 3; from n = 4 on the
    # bound holds at the first k past reach = 64n, the numerator's largest
    # constant.  Likewise past the root above and on the staircase examples
    accepted = [n for n in range(1, 100) if required_digits(n) <= cli.MAX_FORM_DIGITS]
    cases = [(build_zudilin(n), cli.DIRECT_SUM_DIGITS) for n in accepted] + STAIRCASE_EXAMPLES
    walks = [(f, digits, len(recorded_direct_sum(f, digits)[1])) for f, digits in cases]
    assert [count for _, _, count in walks[:len(accepted)]] == [1578, 322, 244] + [
        64 * n for n in accepted[3:]]
    walks.append((ROOT_PAST_HUMP, 30, len(root_past_hump_sum[1])))
    assert walks[-1][2] == 872_136
    for f, digits, count in walks:
        assert count == _tail_cutoff(f, digits) - 1, f


def test_cutoff_lies_past_the_prefactor_root():
    # at scalar 10^-300 the bound meets the target at the first k past
    # reach, here set by the prefactor's root: 40 for t - 40, and
    # ceil(81/2) = 41 for 2t - 81, past every constant of the factors
    for prefactor, count in [((-40, 1), 40), ((-81, 2), 41)]:
        f = FactoredRationalFunction(prefactor, (RisingBlock(-3, 2, 1),),
                                     (RisingBlock(1, 5, 1),), Fraction(1, 10**300))
        value, consumed = recorded_direct_sum(f, 30)
        assert (value.scaled, len(consumed)) == (0, count), prefactor


def test_direct_sum_tail_telescopes_below_the_target():
    # R'' = 2/(t+1)^3 - 2/(t+2)^3 for R = 1/((t+1)(t+2)), so the tail from
    # t = k is exactly 2/(k+1)^3.  At 10 digits it lies below 10^-10 /
    # (2 10^4) at direct_sum's k, whose bound spends at most 20 more terms
    # than the least valid k, 73,680
    f = FactoredRationalFunction((1, 0), (), (RisingBlock(1, 2, 1),))
    value, consumed = recorded_direct_sum(f, 10)
    k, target = len(consumed) + 1, Fraction(1, 2 * 10**14)

    def tail(k):
        return Fraction(2, (k + 1) ** 3)

    assert tail(k) < target
    assert tail(73_680) < target <= tail(73_679)
    assert k <= 73_700
    assert value.to_decimal() == "0.2500000000"


@settings(max_examples=60, deadline=None)
@given(staircase_functions())
@example(STAIRCASE_EXAMPLES[0])
@example(STAIRCASE_EXAMPLES[1])
@example(STAIRCASE_EXAMPLES[2])
def test_partial_tail_stays_below_the_target(case):
    # the 51 exact terms past the cutoff, |R''(t)| for t = K .. K + 50 from
    # the differentiated partial fractions, sum to less than the whole
    # tail's target 10^-digits / (2 10^4); a function the budget refuses
    # is skipped
    f, digits = case
    try:
        k = _tail_cutoff(f, digits)
    except BudgetError:
        assume(False)
    d = second_derivative(partial_fractions(f))
    partial = sum(abs(d.evaluate(Fraction(t))) for t in range(k, k + 51))
    assert partial < Fraction(1, 2 * 10 ** (digits + 4))


def test_direct_sum_budget_refuses_before_any_term():
    # at 1,000 digits n = 1's bound needs more than 10^7 terms, and a pole
    # at t = -10^7 puts even the first k past reach beyond them, however
    # small the scalar: each BudgetError comes before the walk yields a term
    import zetaforms.forms as forms

    walk, consumed = forms._second_derivative_terms, []

    def recording(f, work):
        for term in walk(f, work):
            consumed.append(term)
            yield term

    far = FactoredRationalFunction((1, 0), (), (RisingBlock(10**7, 2, 1),), Fraction(1, 10**300))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(forms, "_second_derivative_terms", recording)
        for f, digits in [(build_zudilin(1), 1000), (far, 10)]:
            with pytest.raises(BudgetError, match="budget exceeded at k=10000000"):
                direct_sum(f, digits)
    assert consumed == []


def full_walk_terms(f, count):
    """Oracle: the first `count` (a, b) of the [u^2] formula on the series
    rebuilt at every k = 1, 2, ... (rebuilt_series), skipping nothing."""
    sn2, sd = 2 * f.scalar.numerator, f.scalar.denominator
    return [
        (sn2 * (d0 * (p2 * d0 - p1 * d1 - p0 * d2) + p0 * d1 * d1), sd * d0**3)
        for (p0, p1, p2), (d0, d1, d2) in map(rebuilt_series, [f] * count,
                                              range(1, count + 1))
    ]


def second_derivative_value(f, p, d):
    """Oracle: 2 scalar [u^2] p/d by exact series division in Fractions,
    c_k = (p_k - sum_{i=1..k} d_i c_(k-i)) / d_0."""
    c0 = Fraction(p[0], d[0])
    c1 = (p[1] - d[1] * c0) / d[0]
    c2 = (p[2] - d[1] * c1 - d[2] * c0) / d[0]
    return 2 * f.scalar * c2


def routed_to_exact(monkeypatch):
    """The k of every term _second_derivative_terms forms from the exact
    rational, appended as they come."""
    import zetaforms.forms as forms

    exact, routed = forms._exact_term, []

    def recording(f, k, *args):
        routed.append(k)
        return exact(f, k, *args)

    monkeypatch.setattr(forms, "_exact_term", recording)
    return routed


def test_second_derivative_skips_only_exact_zeros(monkeypatch):
    # the k where the numerator vanishes to order >= 3 come out as 0 with
    # no exact route: 27n of them for Zudilin's forms, and 2 for t (t-1)^3
    # (t-2)^3 (t-3)^2 over (t+1)_5^3, whose order drops to 2 at t = 3 (the
    # exact route there), and for (1 - t) (t-1)^2 (t-2)^3, where the
    # prefactor's root makes the third zero at t = 1; every term is the
    # oracle's from the series rebuilt at each k
    routed = routed_to_exact(monkeypatch)
    cases = [(build_zudilin(n), 27 * n, []) for n in (1, 2, 3)]
    cases.append((FactoredRationalFunction(
        (0, 1), (RisingBlock(-3, 3, 2), RisingBlock(-2, 2, 1)), (RisingBlock(1, 5, 3),)
    ), 2, [3]))
    cases.append((FactoredRationalFunction(
        (1, -1), (RisingBlock(-1, 1, 2), RisingBlock(-2, 1, 3)), (RisingBlock(1, 5, 3),)
    ), 2, []))
    for f, skipped, exact in cases:
        routed.clear()
        count = skipped + 30
        full = full_walk_terms(f, count)
        terms = list(islice(_second_derivative_terms(f, 30), count))
        assert all(a == 0 for a, _ in full[:skipped])
        assert terms == [_div_nearest(a * 10**30, b) for a, b in full]
        assert full[skipped][0] != 0
        assert routed == exact


def test_second_derivative_terms_exact_zudilin(pipeline1, pipeline2):
    # the oracle's series and the walk's 200-digit terms against the
    # twice-differentiated partial fractions, evaluated exactly
    work = 200 + GUARD_DIGITS + 5
    for pipe in (pipeline1, pipeline2):
        n, f = pipe.n, pipe.factored
        terms = list(islice(_second_derivative_terms(f, work), 140 * n))
        assert terms[: 27 * n] == [0] * (27 * n)  # triple zeros at t = 1..27n
        for k in (1, 27 * n, 27 * n + 1, 35 * n, 140 * n):
            value = pipe.differentiated.evaluate(k)
            assert second_derivative_value(f, *rebuilt_series(f, k)) == value, (n, k)
            value *= 10**work
            assert terms[k - 1] == _div_nearest(value.numerator, value.denominator), (n, k)
        assert terms[27 * n] != 0


@settings(max_examples=60, deadline=None)
@given(edge_case_functions(min_shift=0))
def test_second_derivative_terms_exact(f):
    # every pole at t <= 0, so t = 1..10 are regular points; each term,
    # scaled by 1 or 10^30, is rounded to the nearest integer of its value
    assume(f.is_proper)
    d = second_derivative(partial_fractions(f))
    for k in range(1, 11):
        assert second_derivative_value(f, *rebuilt_series(f, k)) == d.evaluate(k), k
    for work in (0, 30):
        terms = islice(_second_derivative_terms(f, work), 10)
        for k, term in enumerate(terms, 1):
            want = d.evaluate(k) * 10**work
            assert term == _div_nearest(want.numerator, want.denominator), (k, work)


def recorded_terms(monkeypatch, f, digits):
    """direct_sum(f, digits) with every term and the k of every exact one
    recorded: (value, terms, routed)."""
    import zetaforms.forms as forms

    walk, terms = forms._second_derivative_terms, []

    def recording(f, work):
        for term in walk(f, work):
            terms.append(term)
            yield term

    routed = routed_to_exact(monkeypatch)
    monkeypatch.setattr(forms, "_second_derivative_terms", recording)
    return direct_sum(f, digits), terms, routed


def test_direct_sum_terms_are_the_nearest_integers(monkeypatch):
    # every term up to the cutoff is _div_nearest(a scale, b) of the exact
    # [u^2] rational, and the walk decides every one of them: no term of
    # n = 1..6 at 200 digits, nor of n = 1, 2 at 30, takes the exact route
    for n, digits in [(n, 200) for n in range(1, 7)] + [(1, 30), (2, 30)]:
        scale = 10 ** (digits + GUARD_DIGITS + 5)
        f = build_zudilin(n)
        _, terms, routed = recorded_terms(monkeypatch, f, digits)
        want = [_div_nearest(a * scale, b) for a, b in full_walk_terms(f, len(terms))]
        assert terms == want, (n, digits)
        assert routed == [], (n, digits)
        monkeypatch.undo()
    # the first 300 terms of Ball's series at 30 digits: (t - n)_n vanishes
    # once at t = 1..n, so each of those k takes the exact route, and the
    # walk seeds again past them
    routed, work = routed_to_exact(monkeypatch), 30 + GUARD_DIGITS + 5
    for n in range(1, 7):
        f = ball_zeta3(n)
        want = [_div_nearest(a * 10**work, b) for a, b in full_walk_terms(f, 300)]
        assert list(islice(_second_derivative_terms(f, work), 300)) == want, n
    assert routed == [k for n in range(1, 7) for k in range(1, n + 1)]


def test_screen_decides_the_first_terms_at_1000_digits(monkeypatch):
    # a 1,000-digit direct_sum of n = 1 needs more than its 10^7-term budget
    # and refuses before the walk, so these are the terms it would round at
    # 1,000 digits for the first 2,000 k, the hump and the start of the
    # tail: each the nearest integer, and all decided by the walk.  The
    # term at k = 1,942 of n = 1 lies 1/2 + 6.0e-6 past an integer, about
    # 2^-17.3 units from the tie, and the walk's bound stays below
    # 2^-WALK_GUARD_BITS = 2^-20 units
    routed, work = routed_to_exact(monkeypatch), 1000 + GUARD_DIGITS + 5
    for n in (1, 2):
        f = build_zudilin(n)
        want = [_div_nearest(a * 10**work, b) for a, b in full_walk_terms(f, 2000)]
        assert list(islice(_second_derivative_terms(f, work), 2000)) == want, n
    assert routed == []


def test_walk_keeps_its_terms_as_r_grows_from_below_a_unit(monkeypatch):
    # n = 3 at 10^280: 10^work R(k) is about 2^-48 at the walk's seed (k =
    # 82) and 2^54 at its hump (k = 122), so the walk carries v with more
    # fractional bits than F0 and shifts them out as R grows; the terms
    # past the hump are up to 50 bits long, and each of the first 200 is
    # the oracle's, at the default guard bits and at -8
    import zetaforms.forms as forms

    f, work = build_zudilin(3), 280
    want = [_div_nearest(a * 10**work, b) for a, b in full_walk_terms(f, 200)]
    assert sum(map(bool, want)) > 100
    for guard in (forms.WALK_GUARD_BITS, -8):
        monkeypatch.setattr(forms, "WALK_GUARD_BITS", guard)
        assert list(islice(_second_derivative_terms(f, work), 200)) == want, guard


def test_rounded_term_falls_back_at_an_exact_tie(monkeypatch):
    # scalar / ((t+1)(t+2)) has R''(1) = scalar (2/8 - 2/27) = scalar
    # 19/108: at scalar +-54/19 and work 0 the first term is +-1/2 exactly,
    # the walk's interval straddles the tie, and the exact route rounds it
    # away from zero; at 1/2 + 2^-10 the guard bits decide it
    routed = routed_to_exact(monkeypatch)

    def first(scalar):
        f = FactoredRationalFunction((1, 0), (), (RisingBlock(1, 2, 1),), scalar)
        return next(_second_derivative_terms(f, 0))

    assert first(Fraction(54, 19)) == 1
    assert first(Fraction(-54, 19)) == -1
    assert routed == [1, 1]
    assert first((Fraction(1, 2) + Fraction(1, 2**10)) * Fraction(108, 19)) == 1
    assert routed == [1, 1]


def test_direct_sum_is_exact_when_the_guard_bits_run_out(monkeypatch):
    # with the guard bits lowered to -8 the walk's bound passes them again
    # and again: n = 1 re-seeds past its first seed and rounds dozens of
    # terms from the exact rational, yet every term is still the oracle's
    # and the sum keeps every digit
    import zetaforms.forms as forms

    class CountedScalar(Fraction):
        """A scalar counting reads of its denominator: the walk reads it
        once to set up and once at every seed."""

        reads = 0

        @property
        def denominator(self):
            CountedScalar.reads += 1
            return Fraction.denominator.fget(self)

    f = build_zudilin(1)
    walked = direct_sum(f, 200)
    counted = f._replace(scalar=CountedScalar(f.scalar))
    monkeypatch.setattr(forms, "WALK_GUARD_BITS", -8)
    value, terms, routed = recorded_terms(monkeypatch, counted, 200)
    seeds = CountedScalar.reads - 1
    assert value.to_decimal() == walked.to_decimal()
    scale = 10 ** (200 + GUARD_DIGITS + 5)
    assert terms == [_div_nearest(a * scale, b) for a, b in full_walk_terms(f, len(terms))]
    assert seeds > 2 and len(routed) > 20, (seeds, routed)


def test_second_derivative_terms_reject_positive_pole():
    # (t - 3)(t - 2) vanishes at t = 2, 3: the same error as sum_over_k's
    f = FactoredRationalFunction((1, 0), (), (RisingBlock(-3, 2, 1),))
    message = "pole at positive integer t=3 hits the sum range"
    with pytest.raises(DomainError, match=message):
        next(_second_derivative_terms(f, 0))
    with pytest.raises(DomainError, match=message):
        direct_sum(f, 50)
    with pytest.raises(DomainError, match=message):
        sum_over_k(second_derivative(partial_fractions(f)))


def test_oracle_pair_tight(pipeline1, table400):
    value = evaluate_numeric(pipeline1.form, table400)
    direct = direct_sum(pipeline1.factored, 160)
    # far tighter than the acceptance tolerance: ~50 significant digits
    assert abs(value.to_fraction() - direct.to_fraction()) < Fraction(1, 10**155)


def test_common_denominator():
    integral = ZetaLinearForm(0, Fraction(2), {5: Fraction(3)})
    assert common_denominator(integral)[0] == 1
    mixed = ZetaLinearForm(0, Fraction(1, 6), {5: Fraction(1, 4)})
    assert common_denominator(mixed)[0] == 12


def _prime_order(x, p):
    """The exponent of the prime p in the integer x != 0."""
    order = 0
    while x % p == 0:
        x, order = x // p, order + 1
    return order


# n -> the first prime p at which ord_p(D_n) reaches the bound
# 10 ord_p(d_35n); at n = 2 none does
BOUND_REACHED_AT = {1: 19, 3: 59, 4: 79, 5: 97, 6: 113, 7: 131, 8: 149, 9: 167}


def test_zudilin_denominator_within_the_arithmetic_bound(pipelines):
    # D_n divides d_35n^10, with d_N = lcm(1..N): no prime factor of D_n
    # exceeds 35n, and the exponent 10 is reached (ord_p(d_N) = floor(log_p N))
    for n in range(1, 10):
        d, _ = common_denominator(pipelines(n).form)
        big_n = 35 * n
        d_big_n = math.lcm(*range(1, big_n + 1))
        assert d_big_n**10 % d == 0, n
        rest, reached = d, []
        for p in range(2, big_n + 1):
            # only a prime p divides rest: its smaller factors are divided out
            if rest % p == 0 and _prime_order(d, p) == 10 * _prime_order(d_big_n, p):
                reached.append(p)
            while rest % p == 0:
                rest //= p
        assert rest == 1, n
        assert reached[:1] == ([BOUND_REACHED_AT[n]] if n in BOUND_REACHED_AT else []), n


# ROADMAP's exact ladder: n -> (ln D_n / n, ln max|l| / n) to 2 decimals,
# l over the nonzero coefficients l0, l5, l7, l9, l11
LADDER = {
    1: (205.69, 321.81), 2: (199.71, 328.97), 3: (212.12, 331.97),
    4: (215.55, 333.66), 5: (215.82, 334.76), 6: (216.28, 335.54),
    7: (213.70, 336.12), 8: (216.37, 336.57), 9: (213.76, 336.93),
}


def test_exact_ladder_growth_rates(pipelines):
    for n, (log_d, log_height) in LADDER.items():
        form = pipelines(n).form
        d, _ = common_denominator(form)
        assert math.log(d) / n == pytest.approx(log_d, abs=0.005), n
        assert form.log2_height() * math.log(2) / n == pytest.approx(log_height, abs=0.005), n


def test_common_denominator_clears_zudilin(pipeline1):
    d, report = common_denominator(pipeline1.form)
    assert (d * pipeline1.form.ell0).denominator == 1
    for coeff in pipeline1.form.coefficients.values():
        assert (d * coeff).denominator == 1
    assert report["log_denominator_over_n"] > 0


def test_zero_form_has_no_height():
    zero = sum_over_k(expansion_of({}))
    with pytest.raises(DomainError, match="zero form"):
        zero.log2_height()


def test_json_document_shape(pipeline1, capsys):
    form = pipeline1.form
    d, height = common_denominator(form)[0], form.log2_height()
    assert cli.main(["form", "--n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)["form"]
    assert list(doc) == ["n", "ell0", "coeffs", "denominator", "log2_height", "checks"]
    assert doc["denominator"] == str(d)
    assert doc["log2_height"] == round(height, 6)
    assert doc["checks"]["vanishing_ok"] is True
    assert doc["coeffs"]["3"] == "0"
    assert doc["coeffs"]["5"].lstrip("-").split("/")[0].isdigit()
    assert fraction_str(Fraction(-3, 7)) == "-3/7"
    assert fraction_str(Fraction(4)) == "4"
