"""Subsequence plans, hypothesis checking, enumeration, density counting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zetaforms import oscillation
from zetaforms.errors import (
    BudgetError,
    DomainError,
    HypothesisViolation,
    UndecidableAtPrecision,
)
from zetaforms.fixedpoint import cos_pi_argument
from zetaforms.oscillation import (
    BOUNDARY_GUARD,
    COS_DIGITS,
    ETA_GRID,
    KW_MAX_WALK,
    Angle,
    AnglePair,
    CosEvaluator,
    PlanVerification,
    RelationData,
    SubsequencePlan,
    TorusBox,
    build_plan_general,
    detect_pi_rational,
    enumerate_psi,
    hypothesis_multi,
    kw_density,
    named_constant,
    parse_angle,
    verify_plan,
)


def pair(omega: str, phi: str) -> AnglePair:
    return AnglePair(parse_angle(omega), parse_angle(phi))


# -- angle grammar ----------------------------------------------------


def test_parse_angle_grammar():
    a = parse_angle("1/3*pi")
    assert a.pi_mult == Fraction(1, 3) and a.addend == 0
    a = parse_angle("1/2*pi + 1/4")
    assert (a.pi_mult, a.addend) == (Fraction(1, 2), Fraction(1, 4))
    assert parse_angle("-0.75").addend == Fraction(-3, 4)
    a = parse_angle("2*pi-1/3")
    assert (a.pi_mult, a.addend) == (2, Fraction(-1, 3))
    assert parse_angle("pi").pi_mult == 1
    # a sign after the exponent marker of a literal belongs to the literal
    assert parse_angle("1e-50").addend == Fraction(1, 10**50)
    assert parse_angle("1e+5").addend == 100000
    assert parse_angle("2.5E-3").addend == Fraction(1, 400)
    assert parse_angle("1e-2*pi-1").pi_mult == Fraction(1, 100)
    assert parse_angle("1e-2*pi-1").addend == -1
    assert parse_angle("2*e-1").addend == 2 * parse_angle("e").addend - 1
    assert float(parse_angle("sqrt2").addend) == pytest.approx(2**0.5)
    assert float(parse_angle("e").addend) == pytest.approx(2.718281828459045)
    with pytest.raises(DomainError):
        parse_angle("two*pi")
    with pytest.raises(DomainError):
        parse_angle("")


def test_angle_arithmetic():
    a = parse_angle("1/2*pi+1/3")
    assert a.scaled(6) == Angle(Fraction(3), Fraction(2))
    assert (a + parse_angle("1/2*pi")).pi_mult == 1
    assert parse_angle("1/4*pi").over_pi() == Fraction(1, 4)  # exact, no rounding


# -- rationality detection ---------------------------------------------


def test_detect_pi_rational_trivia():
    assert detect_pi_rational(parse_angle("1/3*pi")) == Fraction(1, 3)
    assert detect_pi_rational(parse_angle("2*pi")) == 2
    assert detect_pi_rational(parse_angle("0")) == 0
    # a tiny addend leaves the convergent 1/3 within RATIONAL_TOL
    assert detect_pi_rational(parse_angle("1/3*pi+1e-40")) == Fraction(1, 3)
    assert detect_pi_rational(parse_angle("1/3*pi+1e-20")) is None


def continued_fraction_convergents(x: Fraction, q_limit: int):
    """Oracle: convergents p/q of x in continued-fraction order, while
    q <= q_limit."""
    p_back, p_last = 0, 1  # h_{-2}, h_{-1}
    q_back, q_last = 1, 0
    rest = Fraction(x)
    while True:
        a = math.floor(rest)
        p_back, p_last = p_last, a * p_last + p_back
        q_back, q_last = q_last, a * q_last + q_back
        if q_last > q_limit:
            return
        yield p_last, q_last
        frac_part = rest - a
        if frac_part == 0:
            return
        rest = 1 / frac_part


def first_close_convergent(omega: Angle):
    """Oracle: the first convergent of omega/pi with q <= D_MAX within
    RATIONAL_TOL, or None."""
    x = omega.over_pi()
    for p, q in continued_fraction_convergents(x, oscillation.D_MAX):
        if abs(x - Fraction(p, q)) < oscillation.RATIONAL_TOL:
            return Fraction(p, q)
    return None


def test_detect_pi_rational_omega_1_is_irrational():
    # oracle: enumerate every convergent of 1/pi below denominator 10^6
    # and check none is accurate to 10^-30
    x = parse_angle("1").over_pi()
    best = min(
        abs(x - Fraction(p, q)) for p, q in continued_fraction_convergents(x, 10**6)
    )
    assert best > Fraction(1, 10**13)
    assert detect_pi_rational(parse_angle("1")) is None


def _oracle_angles(rng: random.Random):
    def ratio(d_max):
        d = rng.randint(1, d_max)
        return Fraction(rng.randint(-3 * d, 3 * d), d)

    sqrt2, e = named_constant("sqrt2"), named_constant("e")
    for _ in range(500):
        yield Angle(ratio(10**6))  # exact pi-rationals, d <= D_MAX
        yield Angle(ratio(10**12))  # mostly d > D_MAX
        # around the tolerance: addends of 10^-29 .. 10^-31, and a pi_mult
        # exactly RATIONAL_TOL away, which the strict < rejects
        scale = Fraction(rng.randint(1, 99), 10 ** rng.randint(30, 32))
        yield Angle(ratio(10**6), rng.choice((1, -1)) * scale)
        yield Angle(ratio(10**6) + rng.choice((1, -1)) * oscillation.RATIONAL_TOL)
        yield Angle(ratio(10**3), ratio(50) * rng.choice((sqrt2, e)))
        huge = Fraction(rng.randint(1, 10**200), rng.randint(1, 10**6))
        yield Angle(ratio(10**3), huge)  # addends up to 10^200


def test_detect_pi_rational_matches_first_close_convergent():
    omegas = list(_oracle_angles(random.Random(20121)))
    got = [detect_pi_rational(omega) for omega in omegas]
    # Fraction equality compares the reduced numerator and denominator
    assert got == [first_close_convergent(omega) for omega in omegas]
    rational = sum(ratio is not None for ratio in got)
    assert len(omegas) == 3000 and 500 < rational < 2500  # both branches run


def test_witness_is_reduced():
    ratio = detect_pi_rational(parse_angle("6/4*pi"))
    assert (ratio.numerator, ratio.denominator) == (3, 2)


# -- hypothesis --------------------------------------------------------


def plan_violates(pairs) -> bool:
    """Does build_plan_general reject the pairs with HypothesisViolation?"""
    try:
        build_plan_general(pairs)
    except HypothesisViolation:
        return True
    return False


def test_hypothesis_single_trivia():
    assert hypothesis_multi([pair("0", "1/2*pi")]) is False
    assert plan_violates([pair("0", "1/2*pi")]) is True
    assert hypothesis_multi([pair("1", "0")]) is True
    assert plan_violates([pair("1", "0")]) is False
    assert hypothesis_multi([pair("pi", "1/2*pi")]) is False
    assert plan_violates([pair("pi", "1/2*pi")]) is True
    assert hypothesis_multi([pair("pi", "3/2*pi")]) is False  # phi = pi/2 mod pi
    assert plan_violates([pair("pi", "3/2*pi")]) is True
    assert hypothesis_multi([pair("1/2*pi", "1/2*pi")]) is True
    assert plan_violates([pair("1/2*pi", "1/2*pi")]) is False


def test_hypothesis_undecidable_band():
    # 3 (1/2 - phi/pi) lies 3*10^-25 from an integer: inside the band
    # around the 10^-25 phase tolerance
    near_boundary = AnglePair(
        parse_angle("1/3*pi"), Angle(Fraction(1, 2) + Fraction(1, 10**25))
    )
    with pytest.raises(UndecidableAtPrecision, match="phase congruence"):
        hypothesis_multi([near_boundary])


def test_hypothesis_multi_known_cases():
    assert hypothesis_multi([pair("1/2*pi", "1/2*pi"), pair("1/2*pi", "0")]) is False
    assert hypothesis_multi([pair("0", "1/2*pi")]) is False
    assert hypothesis_multi([pair("1", "0"), pair("1/3*pi", "0")]) is True


def expected_two_pair_truth(kind1, kind2):
    # by hand from the four exclusions: (0, pi/2) kills everything;
    # (pi/2, 0) excludes odd n, (pi/2, pi/2) excludes even n, so their
    # combination in either order excludes every n
    if "B" in (kind1, kind2):
        return False
    return {kind1, kind2} != {"C", "D"}


KINDS = {"A": ("0", "0"), "B": ("0", "1/2*pi"), "C": ("1/2*pi", "0"), "D": ("1/2*pi", "1/2*pi")}


def test_hypothesis_multi_boundary_truth_table():
    for k1, (o1, p1) in KINDS.items():
        for k2, (o2, p2) in KINDS.items():
            got = hypothesis_multi([pair(o1, p1), pair(o2, p2)])
            assert got is expected_two_pair_truth(k1, k2), (k1, k2)
            assert plan_violates([pair(o1, p1), pair(o2, p2)]) is not got, (k1, k2)


def test_plan_classifies_each_pair_once(monkeypatch):
    calls = {"detect": 0, "excluded": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oscillation, "detect_pi_rational",
                        counting("detect", oscillation.detect_pi_rational))
    monkeypatch.setattr(oscillation, "_excluded_residue",
                        counting("excluded", oscillation._excluded_residue))
    plan = build_plan_general(
        [pair("1/3*pi", "0"), pair("2/5*pi", "1/7"), pair("sqrt2", "0")]
    )
    assert plan.mode == "general" and plan.d == 15
    assert calls == {"detect": 3, "excluded": 2}


# -- plans ---------------------------------------------------------------


def residue_oracle(pairs):
    """(a, epsilon) by brute force over every a in 1..d, d the plan's
    modulus, the lcm of the denominators detect_pi_rational gives (a
    pi_mult within 10^-30 of a fraction counts as that fraction): the
    smallest a whose least |cos(a omega_i + phi_i)|, each an exact Fraction
    from cos_pi_argument, is largest.  None when that floor is below
    10^-30, i.e. every class is excluded."""
    d = math.lcm(*(detect_pi_rational(p.omega).denominator for p in pairs))

    def floor(a):
        return min(
            abs(cos_pi_argument(a * p.omega.pi_mult + p.phi.pi_mult,
                                a * p.omega.addend + p.phi.addend,
                                COS_DIGITS).to_fraction())
            for p in pairs
        )

    best = max(range(1, d + 1), key=floor)
    epsilon = floor(best)
    return None if epsilon < Fraction(1, 10**30) else (best, epsilon)


def residue_cases():
    fixed = [
        # every residue ties at sqrt(2)/2 on the first pair
        [("1/2*pi", "1/4*pi"), ("1/3*pi", "0")],
        # a = 1 mod 3 is phase-congruent (a pi/3 + pi/6 = pi/2 mod pi)
        [("1/3*pi", "1/6*pi"), ("1/2*pi", "1/4*pi")],
        [("1/3*pi+1e-40", "1/6*pi"), ("2/5*pi", "1/7")],
        [("1/4*pi", "0"), ("1/6*pi", "1/2*pi"), ("2/3*pi", "1/3")],
        [("1/2*pi", "1/2*pi"), ("1/2*pi", "0")],  # every class excluded
        # d = 97 * 89; a = 0 mod 89 is phase-congruent on the second pair
        [("1/97*pi", "1/4*pi"), ("3/89*pi", "1/2*pi")],
        # about half of the 997 classes tie at sqrt(2)/2 on the first pair
        [("0", "1/4*pi"), ("1/997*pi", "0")],
        [("1/2*pi", "1/4*pi"), ("5/1009*pi", "1/3*pi")],
        # 504 and 505 are mirror images about 3 10^-43 apart, 505 the larger;
        # 1009 is excluded
        [("1/1009*pi", "1/2*pi-1e-40")],
        [("5/997*pi+1e-40", "1/3*pi"), ("1/3*pi", "0")],
        [("2/7*pi", "sqrt2"), ("3/11*pi", "-1/2*e")],
        [("1/7*pi", "1/5"), ("3/11*pi", "sqrt2"), ("2/13*pi", "1/4*pi")],
        [("7/2003*pi", "e"), ("1/2*pi", "1/2*pi")],  # the even classes excluded
        # mirror pairs whose |cos| differ by about 10^-40 at every residue,
        # which the screen may order the other way round
        [("2/11*pi", "74/33"), ("-2/11*pi", "-74/33+1e-40")],
        [("1/3*pi", "27/29"), ("-1/3*pi", "-27/29+1e-40")],
        # detected as 1/3 but with no period 3: the pair is screened at each
        # residue of d = 15, not from a table of 3
        [("1/3*pi+1e-40*pi", "1/7"), ("1/5*pi", "1/4*pi+1/9")],
        [("1/3*pi-1e-40*pi", "1/7"), ("1/5*pi", "1/4*pi+1/9")],
    ]
    rng = random.Random(20261018)
    phases = ["0", "1/4*pi", "1/6*pi", "1/2*pi", "-1/3*pi", "2/7", "1/2*pi+1e-40"]
    for _ in range(8):
        fixed.append([
            (f"{rng.randint(1, 20)}/{rng.choice([2, 3, 4, 5, 6, 7, 9, 11])}*pi",
             rng.choice(phases))
            for _ in range(rng.choice([2, 3]))
        ])
    return fixed


@pytest.mark.parametrize("spec", residue_cases())
def test_residue_search_matches_fraction_oracle(spec):
    pairs = [pair(omega, phi) for omega, phi in spec]
    expected = residue_oracle(pairs)
    if expected is None:
        with pytest.raises(HypothesisViolation):
            build_plan_general(pairs)
        return
    plan = build_plan_general(pairs)
    assert plan.mode == "rational"
    assert (plan.a, plan.epsilon) == expected


def test_residue_search_confirms_a_handful_of_cosines(monkeypatch):
    # of the 99,991 residues, the float screen leaves only the least free
    # one and the best to COS_DIGITS
    calls = []

    def counted(*args):
        calls.append(args)
        return exact_cos(*args)

    exact_cos = oscillation.cos_pi_argument
    monkeypatch.setattr(oscillation, "cos_pi_argument", counted)
    plan = build_plan_general([pair("1/99991*pi", "0")])
    assert (plan.d, plan.a, plan.epsilon) == (99991, 99991, 1)
    assert len(calls) == 2


def test_plan_rational_pi_over_3():
    plan = build_plan_general([pair("1/3*pi", "0")])
    assert plan.mode == "rational"
    assert (plan.d, plan.a) == (3, 3)
    assert plan.epsilon == 1
    assert plan.lambda_predicted == 3
    assert enumerate_psi(plan, 3) == [6, 9, 12]


def test_plan_degenerate_nonoscillating():
    plan = build_plan_general([pair("0", "0")])
    assert (plan.mode, plan.d, plan.a) == ("rational", 1, 1)
    assert plan.epsilon == 1 and plan.lambda_predicted == 1


def test_plan_irrational_omega_1():
    plan = build_plan_general([pair("1", "0")])
    assert plan.mode == "irrational_single"
    assert plan.box.center == (Fraction(0),)
    assert plan.box.eta == Fraction(1, 4)
    assert float(plan.epsilon) == pytest.approx(0.7071067811865476)
    assert plan.lambda_predicted == 2
    assert enumerate_psi(plan, 3) == [3, 6, 7]


def test_plan_rejects_hypothesis_violation():
    with pytest.raises(HypothesisViolation):
        build_plan_general([pair("0", "1/2*pi")])
    with pytest.raises(HypothesisViolation):
        build_plan_general([pair("1/2*pi", "1/2*pi"), pair("1/2*pi", "0")])


def test_general_mixed_rational_irrational():
    pairs = [pair("1", "0"), pair("1/3*pi", "0")]
    plan = build_plan_general(pairs)
    assert plan.mode == "general"
    assert (plan.d, plan.a) == (3, 3)
    assert plan.big_d == 1
    report = verify_plan(plan, pairs, 400)
    assert report.cosine_ok and report.lambda_ok and report.passed


def test_general_with_supplied_relation():
    pairs, relations = supplied_relation_case()
    plan = build_plan_general(pairs, relations)
    assert plan.mode == "general"
    assert plan.big_d == 1 and plan.box.eta == Fraction(1, 4)
    assert len(plan.theta) == 1
    report = verify_plan(plan, pairs, 400)
    assert report.passed


def test_relation_validation_rejects_garbage():
    relations = RelationData((Fraction(1, 3),), ((Fraction(0), Fraction(1)),))
    with pytest.raises(DomainError):
        build_plan_general(
            [pair("1", "0"), pair("sqrt2", "0")], relations
        )


def test_relation_generators_must_differ():
    # generators 1 and 3 are equal; the rows alone are consistent
    theta, e = parse_angle("1").over_pi(), parse_angle("e").over_pi()
    zero, one = Fraction(0), Fraction(1)
    relations = RelationData((theta, e, theta), ((zero, one, zero, zero),))
    with pytest.raises(DomainError, match=r"^relation generators 1 and 3 are equal$"):
        build_plan_general([pair("1", "0"), pair("1/3*pi", "0")], relations)


# -- enumeration contracts -----------------------------------------------


def test_enumerate_monotone_and_floor_exhaustive():
    cases = [pair("1", "0"), pair("sqrt2", "1/4"), pair("2/7*pi", "0.3")]
    for p in cases:
        plan = build_plan_general([p])
        psi = enumerate_psi(plan, 300)
        assert all(b > a for a, b in zip(psi, psi[1:]))
        ev = CosEvaluator(p)
        floor = plan.epsilon - Fraction(1, 10**30)
        for k in psi:
            assert ev.abs_cos(k).to_fraction() >= floor, (p, k)


def fraction_oracle_psi(plan, last):
    """psi up to `last` by the Fraction box test the integer walker
    replaced: n hits when every (n theta_j) mod 1 lies within
    eta - BOUNDARY_GUARD of the centre, boundary included."""
    limit = plan.box.eta - BOUNDARY_GUARD
    out = []
    for n in range(1, last + 1):
        psi = plan.big_d * n * plan.d + plan.a
        if psi > last:
            break
        for t, c in zip(plan.theta, plan.box.center):
            delta = ((n * t) % 1 - c) % 1
            if min(delta, 1 - delta) > limit:
                break
        else:
            out.append(psi)
    return out


def orbit_hits_oracle(steps, moduli, lows, widths, limit):
    """`_orbit_hits` by the per-n walk its jumps replaced: every axis's
    shifted position advances by one step at every n in 1..limit, and n is
    kept when each of them is at most its width."""
    shifted = [(-low) % m for low, m in zip(lows, moduli)]
    axes = range(len(shifted))
    out = []
    for n in range(1, limit + 1):
        hit = True
        for j in axes:
            q = shifted[j] + steps[j]
            if q >= moduli[j]:
                q -= moduli[j]
            shifted[j] = q
            if q > widths[j]:
                hit = False
        if hit:
            out.append(n)
    return out


@st.composite
def orbit_axis(draw):
    # modulus g * m0, so that a step g * r shares the factor g with it
    g = draw(st.integers(1, 12))
    m0 = draw(st.one_of(st.integers(1, 40), st.integers(1, 10**30 // 12)))
    m = g * m0
    step = draw(st.sampled_from(["zero", "one", "minus_one", "half", "random", "shared"]))
    step = {
        "zero": 0, "one": 1 % m, "minus_one": m - 1, "half": m // 2,
        "random": draw(st.integers(0, m - 1)), "shared": g * draw(st.integers(0, m0 - 1)),
    }[step]
    width = draw(st.one_of(st.sampled_from([0, m - 1]), st.integers(0, m - 1)))
    return step, m, draw(st.integers(0, m - 1)), width


@settings(max_examples=200, deadline=None)
@given(st.lists(orbit_axis(), min_size=1, max_size=4), st.integers(0, 3000))
# the lead axis's forward return a is past limit; its backward return is 1
@example([(471632, 471633, 438629, 87122)], 2)
# the lead axis's backward return b is past limit
@example([(18901, 455812, 403470, 151937), (0, 1, 0, 0)], 5)
def test_orbit_hits_match_the_per_n_oracle(axes, limit):
    steps, moduli, lows, widths = (list(column) for column in zip(*axes))
    expected = orbit_hits_oracle(steps, moduli, lows, widths, limit)
    assert list(oscillation._orbit_hits(steps, moduli, lows, widths, limit)) == expected


def test_orbit_hits_match_the_oracle_on_every_small_axis():
    # every step, low end and width of one axis mod M <= 8, over several
    # multiples of M: every jump a, b and a + b runs, with a < b, a = b and
    # a > b, and with a return past the limit
    for m in range(1, 9):
        for step in range(m):
            for low in range(m):
                for width in range(m):
                    for limit in (0, 1, 3, 3 * m + 2):
                        args = ([step], [m], [low], [width], limit)
                        assert list(oscillation._orbit_hits(*args)) == orbit_hits_oracle(*args)


def test_enumerate_psi_matches_the_walk_oracle_on_a_relations_plan():
    # a two-generator --relations plan walks a 2-D box
    pairs, relations = two_generator_relations_case()
    plan = build_plan_general(pairs, relations)
    assert plan.box.dimension == 2
    psi = enumerate_psi(plan, 400)
    half = plan.box.eta - BOUNDARY_GUARD
    arcs = [(t, c - half, 2 * half) for t, c in zip(plan.theta, plan.box.center)]
    hits = orbit_hits_oracle(*oscillation._exact_axes(arcs), 10**4)[:400]
    assert psi == [plan.big_d * n * plan.d + plan.a for n in hits]
    assert psi == fraction_oracle_psi(plan, psi[-1])


def supplied_relation_case():
    # omega2 = 1 + pi, so omega2/pi = omega1/pi + 1: one generator serves both
    theta1 = parse_angle("1").over_pi()
    relations = RelationData(
        (theta1,), ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
    )
    pairs = [pair("1", "0"), AnglePair(Angle(Fraction(1), Fraction(1)), Angle())]
    return pairs, relations


@pytest.mark.parametrize(
    "pairs, relations, mode, dimension",
    [
        ([pair("sqrt2", "1/3")], None, "irrational_single", 1),
        ([pair("4/5*pi", "2/5"), pair("2/3*e", "3/7")], None, "general", 1),
        ([pair("1", "0"), pair("sqrt2", "1/4")], None, "general", 2),
        (*supplied_relation_case(), "general", 1),
    ],
    ids=["single", "rational_and_irrational", "two_dimensional", "supplied_relation"],
)
def test_enumerate_psi_matches_fraction_oracle(pairs, relations, mode, dimension):
    plan = build_plan_general(pairs, relations)
    assert plan.mode == mode and plan.box.dimension == dimension
    psi = enumerate_psi(plan, 300)
    assert psi == fraction_oracle_psi(plan, psi[-1])


def test_enumerate_psi_closed_box_boundary():
    # centre 0, eta 1/4: the arc is |x| <= 1/4 - BOUNDARY_GUARD, closed
    half = Fraction(1, 4) - BOUNDARY_GUARD

    def plan_for(theta):
        return SubsequencePlan(
            mode="irrational_single", box=TorusBox((Fraction(0),), Fraction(1, 4)),
            theta=(theta,),
        )

    # n = 1 sits on the upper edge, n = 4 at distance 4 * BOUNDARY_GUARD
    assert enumerate_psi(plan_for(half), 2) == [1, 4]
    # 3/4 + BOUNDARY_GUARD is the lower edge -half mod 1
    assert enumerate_psi(plan_for(Fraction(3, 4) + BOUNDARY_GUARD), 1) == [1]
    # a hair past the edge misses
    assert enumerate_psi(plan_for(half + Fraction(1, 10**40)), 1)[0] > 1


def test_rational_mode_constant_cosine():
    rng = random.Random(20260810)
    for _ in range(6):
        d = rng.randint(2, 12)
        c = rng.randint(1, 3 * d)
        p = AnglePair(
            Angle(Fraction(c, d)), Angle(Fraction(0), Fraction(rng.randint(-200, 200), 97))
        )
        plan = build_plan_general([p])
        if plan.mode != "rational":
            continue
        ev = CosEvaluator(p)
        values = {ev.abs_cos(k).to_fraction() for k in enumerate_psi(plan, 50)}
        lo, hi = min(values), max(values)
        assert hi - lo < Fraction(1, 10**30)


def test_verify_plan_rational_case():
    p = pair("1/3*pi", "0")
    report = verify_plan(build_plan_general([p]), [p], 2000)
    assert report.min_abs_cos == 1  # cos((3n+3) pi/3) = +-1, memoised exactly
    assert abs(float(report.ratio) - 3.0) < 0.01
    assert report.passed


@pytest.mark.parametrize("texts", [
    [("1/3*pi", "0")],
    [("0", "0")],
    [("1/4*pi", "1/3"), ("2/5*pi", "1/7*pi")],
])
def test_lambda_check_reads_psi_less_its_offset(texts):
    # psi(count)/count = d + a/count for a rational plan misses lambda = d
    # by more than 5% whenever count < 20 a/d, so the check drops the a
    pairs = [pair(*t) for t in texts]
    plan = build_plan_general(pairs)
    for count in range(1, 31):
        report = verify_plan(plan, pairs, count)
        assert report.ratio == Fraction(plan.d * count + plan.a, count)
        assert report.passed, count


def test_lambda_check_still_fails_dependent_omegas():
    # sqrt2 and 3 sqrt2 without relations: the box assumes independent
    # generators, and the orbit hits it at a rate far from 1/lambda
    pairs = [pair("sqrt2", "0"), pair("3*sqrt2", "0")]
    plan = build_plan_general(pairs)
    report = verify_plan(plan, pairs, 4000)
    assert (plan.a, plan.lambda_predicted, report.ratio) == (0, 4, Fraction(5999, 1000))
    assert report.cosine_ok and not report.lambda_ok


def test_verify_plan_adversarial():
    plan = build_plan_general([pair("1", "0")])
    pairs = [pair("1", "1/2*pi")]
    report = verify_plan(plan, pairs, 200)
    assert not report.cosine_ok
    assert not report.passed
    assert report == exhaustive_verify_plan(plan, pairs, 200)


@pytest.mark.parametrize("texts", [
    [("3/7*pi", "1/4*pi")],
    [("sqrt2", "0")],
    [("1/3*pi", "0"), ("2/5*pi", "1/7")],
])
def test_verify_plan_screens_each_psi_and_pair_once(monkeypatch, texts):
    # in a rational plan every psi is a candidate: it is still screened once
    pairs = [pair(*t) for t in texts]
    plan = build_plan_general(pairs)
    expected = exhaustive_verify_plan(plan, pairs, 500)
    calls = []

    def counted(w, b, k):
        calls.append(k)
        return screen(w, b, k)

    screen = oscillation._screened_abs_cos
    monkeypatch.setattr(oscillation, "_screened_abs_cos", counted)
    assert verify_plan(plan, pairs, 500) == expected
    assert len(calls) == 500 * len(pairs)


def exhaustive_verify_plan(plan, pairs, count):
    """verify_plan by the loop its float screen replaced:
    `CosEvaluator.abs_cos` at every (psi, pair), the least kept."""
    psi = enumerate_psi(plan, count)
    evaluators = [CosEvaluator(p) for p in pairs]
    min_cos = None
    for k in psi:
        for ev in evaluators:
            v = ev.abs_cos(k)
            if min_cos is None or v.scaled < min_cos.scaled:
                min_cos = v
    ratio = Fraction(psi[-1], count)
    min_frac = min_cos.to_fraction()
    lam = plan.lambda_predicted
    return PlanVerification(
        count=count,
        min_abs_cos=min_frac,
        epsilon=plan.epsilon,
        ratio=ratio,
        lambda_predicted=lam,
        cosine_ok=min_frac >= plan.epsilon - Fraction(1, 10**30),
        lambda_ok=abs(ratio - Fraction(plan.a, count) - lam) <= lam * Fraction(5, 100),
    )


def _ratio_text(p, q):
    return f"{p}/{q}"


# omega families: pi-irrational multiples of sqrt2 or of e, plain
# rationals and addends up to 1e300, and pi-rational omegas, whose |cos|
# ties exactly across a residue class.  A two-pair plan draws from two
# families: without relation data, two omegas of one family are dependent
# and the plan's box may lie off their orbit.
small_ratios = st.builds(_ratio_text, st.integers(-50, 50), st.integers(1, 9))
OMEGA_FAMILIES = (
    small_ratios.map(lambda c: f"{c}*sqrt2"),
    small_ratios.map(lambda c: f"{c}*e"),
    st.one_of(
        st.builds(_ratio_text, st.integers(1, 10**6), st.integers(1, 1000)),
        st.builds(lambda m, x: f"{m}e{x}", st.integers(1, 99), st.integers(0, 298)),
    ),
    st.builds(lambda c, d: f"{c}/{d}*pi", st.integers(-30, 30), st.integers(1, 12)),
)
# phi: plain rationals, pi-rational phases, and phases near a pi/2 offset
screen_phases = st.one_of(
    st.builds(_ratio_text, st.integers(-1000, 1000), st.integers(1, 97)),
    st.builds(lambda c, d: f"{c}/{d}*pi", st.integers(-12, 12), st.integers(1, 12)),
    st.builds(lambda c, m, x: f"{c}/2*pi+{m}e-{x}",
              st.sampled_from([-3, -1, 1, 3]), st.integers(-9, 9), st.integers(3, 40)),
)
screen_pairs = st.tuples(st.one_of(OMEGA_FAMILIES), screen_phases)
screen_plans = st.lists(
    st.sampled_from(range(len(OMEGA_FAMILIES))), min_size=1, max_size=2, unique=True
).flatmap(lambda families: st.tuples(
    *(st.tuples(OMEGA_FAMILIES[f], screen_phases) for f in families)
))


@settings(max_examples=60, deadline=None)
@given(screen_plans, st.integers(1, 120))
@example([("sqrt2", "0")], 120)
@example([("1/3*pi", "0")], 120)  # every psi ties at |cos| = 1
@example([("4/5*pi", "2/5"), ("2/3*e", "3/7")], 120)  # ties on the first pair
@example([("1e300", "0")], 40)
@example([("1", "1/2*pi+1e-20")], 120)
@example([("1", "0"), ("sqrt2", "1/4")], 60)
def test_verify_plan_matches_exhaustive_oracle(texts, count):
    pairs = [pair(o, p) for o, p in texts]
    try:
        plan = build_plan_general(pairs)
    except (HypothesisViolation, UndecidableAtPrecision):
        assume(False)
    assert verify_plan(plan, pairs, count) == exhaustive_verify_plan(plan, pairs, count)


@pytest.mark.parametrize("omega", ["sqrt2", "e", "1", "3/7"])
@pytest.mark.parametrize("offset", ["1e-40", "-1e-40", "1e-20", "-1e-20"])
def test_verify_plan_mirror_near_ties(omega, offset):
    # t = psi omega/pi and its mirror -t + offset/pi: at every psi the two
    # |cos| differ by about the offset, far below a float's resolution,
    # and the screen's truncation of t errs upward on one and downward on
    # the other, so the screened order can be the reverse of the exact
    # one; only the 2 delta band confirms the right pair
    plan = build_plan_general([pair(omega, "0")])
    pairs = [pair(omega, "0"), pair(f"-{omega}", offset)]
    for count in (20, 200):
        assert verify_plan(plan, pairs, count) == exhaustive_verify_plan(plan, pairs, count)


@settings(max_examples=40, deadline=None)
@given(screen_pairs, st.lists(st.integers(1, 10**15), min_size=1, max_size=6))
@example(("1e300", "0"), [10**15])
@example(("sqrt2", "1/2*pi+1e-20"), [1, 10**15 - 1])
def test_screen_within_its_error_bound(texts, ks):
    p = pair(*texts)
    w, b = oscillation._screen_terms(p)
    ev = CosEvaluator(p)
    for k in ks:
        screened = Fraction(oscillation._screened_abs_cos(w, b, k))
        gap = abs(screened - ev.abs_cos(k).to_fraction())
        assert gap <= Fraction(oscillation._screen_error(k)), (texts, k)


def test_screen_error_bound_is_small_and_saturates():
    assert oscillation._screen_error(2000) < 2**-39
    assert oscillation._screen_error(10**15) < 10**-11
    # past 10^34 steps the bound exceeds 1 and stops growing
    assert 1 < oscillation._screen_error(10**34) == oscillation._screen_error(10**400)


# -- density -------------------------------------------------------------


def test_kw_density_sqrt2_quarter_box():
    report = kw_density(
        [named_constant("sqrt2")], [(Fraction(1, 10), Fraction(35, 100))], 10**5
    )
    assert abs(report.empirical - 0.25) <= 0.01
    assert report.predicted == pytest.approx(0.25)
    assert not report.rational_theta


def fraction_count(thetas, box, k_max):
    """Independent oracle: the n <= k_max with every frac(n theta_j) on the
    arc from lo_j to hi_j (wrapping past 1; an axis of width 1 or more
    always hits), recounted in exact Fractions."""
    return sum(
        1 for n in range(1, k_max + 1)
        if all(hi - lo >= 1 or (n * t - lo) % 1 <= hi - lo
               for t, (lo, hi) in zip(thetas, box))
    )


def walked_count(theta, lo, hi, k_max):
    """The same exact count through the orbit walk: a second axis with
    theta = 0 and the box [0, 1/2] hits at every n, but it is not full
    width, so two axes are left and kw_density walks `_orbit_hits`."""
    box = [(lo, hi), (Fraction(0), Fraction(1, 2))]
    return kw_density([theta, Fraction(0)], box, k_max).hits


def test_kw_density_direct_count_oracle():
    theta = named_constant("sqrt2")
    lo, hi = Fraction(1, 10), Fraction(35, 100)
    k_max = 2000
    expected = fraction_count([theta], [(lo, hi)], k_max)
    report = kw_density([theta], [(lo, hi)], k_max)
    assert report.hits == expected
    # two dimensions, the second axis full width: only the first one counts
    report = kw_density(
        [theta, named_constant("e")], [(lo, hi), (Fraction(0), Fraction(1))], k_max
    )
    assert report.hits == expected


def test_floor_sum_matches_direct_sum():
    rng = random.Random(12)
    cases = [(0, 7, 3, 2), (1, 7, 3, 2), (1, 5, 12, 31), (6, 1, 0, 0), (9, 4, 0, 9)]
    for _ in range(300):
        m = rng.randrange(1, 60)
        # a and b range past m, so the whole-part split runs too
        a, b = rng.randrange(0, 3 * m), rng.randrange(0, 3 * m)
        cases.append((rng.randrange(0, 40), m, a, b))
    for _ in range(20):
        m = rng.randrange(1, 10**40)
        a, b = rng.randrange(0, 2 * m), rng.randrange(0, 2 * m)
        cases.append((rng.randrange(0, 300), m, a, b))
    for n, m, a, b in cases:
        assert oscillation._floor_sum(n, m, a, b) == sum(
            (a * i + b) // m for i in range(n)
        ), (n, m, a, b)


SQRT2 = named_constant("sqrt2")


@pytest.mark.parametrize("theta,lo,hi,k_max", [
    (SQRT2, Fraction(1, 3), Fraction(1, 3), 3000),  # width 0
    (SQRT2, Fraction(1, 5), Fraction(6, 5), 500),  # width 1: every n
    (SQRT2, Fraction(-3, 2), Fraction(7, 4), 500),  # width above 1
    (SQRT2, Fraction(9, 10), Fraction(6, 5), 3000),  # wraps past 1
    (-SQRT2, Fraction(1, 10), Fraction(35, 100), 3000),
    (-named_constant("e"), Fraction(-7, 10), Fraction(-1, 4), 3000),
    (Fraction(1, 3), Fraction(1, 10), Fraction(35, 100), 300),
    (Fraction(2, 7), Fraction(9, 10), Fraction(6, 5), 300),
    (Fraction(-2, 7), Fraction(1, 10), Fraction(1, 5), 300),
    (SQRT2, Fraction(1, 10), Fraction(1, 2), 1),
    (SQRT2, Fraction(1, 2), Fraction(3, 5), 1),
])
def test_kw_density_one_axis_matches_walk_and_fractions(theta, lo, hi, k_max):
    hits = kw_density([theta], [(lo, hi)], k_max).hits
    assert hits == fraction_count([theta], [(lo, hi)], k_max)
    assert hits == walked_count(theta, lo, hi, k_max)


small_fractions = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)
)


@settings(max_examples=80, deadline=None)
@given(
    small_fractions,
    small_fractions,
    st.fractions(0, 3, max_denominator=60),
    st.integers(1, 400),
)
@example(Fraction(1, 3), Fraction(1, 3), Fraction(0), 30)  # orbit points on the edges
@example(Fraction(1, 3), Fraction(0), Fraction(1, 3), 30)
def test_kw_density_one_axis_matches_walk(theta, lo, width, k_max):
    # the floor sums, the walk and the Fraction recount agree, edge ties included
    hi = lo + width
    hits = kw_density([theta], [(lo, hi)], k_max).hits
    assert hits == walked_count(theta, lo, hi, k_max)
    assert hits == fraction_count([theta], [(lo, hi)], k_max)


def test_kw_density_budgets_raise_before_work(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked past the budget")

    monkeypatch.setattr(oscillation, "_orbit_hits", no_walk)
    # one axis has no budget: the floor sums count far past any walk
    box = (Fraction(1, 10), Fraction(35, 100))
    report = kw_density([SQRT2], [box], 10**50)
    assert abs(report.empirical - 0.25) < 1e-6
    with pytest.raises(BudgetError):
        kw_density([SQRT2, named_constant("e")], [box, box], KW_MAX_WALK + 1)
    # a full-width axis drops out before the budget is read
    full = (Fraction(0), Fraction(1))
    assert kw_density([SQRT2, named_constant("e")], [full, full], 10**50).hits == 10**50
    two = kw_density([SQRT2, named_constant("e")], [box, full], 10**50)
    assert two.hits == report.hits


def test_kw_density_rational_orbit_flagged():
    report = kw_density([Fraction(1, 2)], [(Fraction(1, 10), Fraction(35, 100))], 1000)
    assert report.empirical == 0.0
    assert report.rational_theta


def test_kw_density_full_and_empty_boxes():
    assert kw_density([named_constant("e")], [(Fraction(0), Fraction(1))], 500).empirical == 1.0
    assert (
        kw_density(
            [named_constant("e")], [(Fraction(1, 3), Fraction(1, 3))], 500
        ).empirical
        == 0.0
    )


def test_kw_density_two_dimensional():
    report = kw_density(
        [named_constant("sqrt2"), named_constant("e")],
        [(Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))],
        20000,
    )
    assert report.predicted == pytest.approx(0.25)
    assert abs(report.empirical - 0.25) < 0.02


THIRD, TWO_SEVENTHS = Fraction(1, 3), Fraction(2, 7)


@pytest.mark.parametrize("thetas,box,k_max", [
    # rational orbits with points on both edges of each box
    ([THIRD, TWO_SEVENTHS], [(THIRD, Fraction(2, 3)), (TWO_SEVENTHS, Fraction(4, 7))], 300),
    ([THIRD, TWO_SEVENTHS, Fraction(3, 5)],
     [(Fraction(0), THIRD), (Fraction(1, 7), Fraction(5, 7)), (Fraction(1, 5), Fraction(4, 5))],
     400),
    ([-THIRD, TWO_SEVENTHS], [(Fraction(-1, 3), Fraction(1, 3)), (Fraction(6, 7), Fraction(9, 7))],
     300),
    # an axis of width 0: only the n with n/3 = 1/3 mod 1 can hit
    ([THIRD, SQRT2], [(THIRD, THIRD), (Fraction(1, 10), Fraction(3, 5))], 2000),
    ([SQRT2, named_constant("e"), TWO_SEVENTHS],
     [(Fraction(1, 10), Fraction(35, 100)), (Fraction(1, 5), Fraction(7, 10)),
      (Fraction(4, 7), Fraction(4, 7))], 2000),
    # a full-width axis drops out and leaves two axes to walk
    ([THIRD, TWO_SEVENTHS, named_constant("e")],
     [(THIRD, Fraction(2, 3)), (TWO_SEVENTHS, Fraction(4, 7)), (Fraction(-1, 2), Fraction(1, 2))],
     300),
    ([SQRT2, named_constant("e"), Fraction(1, 2)],
     [(Fraction(1, 10), Fraction(35, 100)), (Fraction(1, 5), Fraction(7, 10)),
      (Fraction(0), Fraction(3, 2))], 2000),
], ids=["edges_2d", "edges_3d", "wrapping_2d", "width_0_2d", "width_0_3d",
        "full_width_rational", "full_width_irrational"])
def test_kw_density_several_axes_match_fractions(thetas, box, k_max):
    assert kw_density(thetas, box, k_max).hits == fraction_count(thetas, box, k_max)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(small_fractions, small_fractions, st.fractions(0, 3, max_denominator=60)),
             min_size=2, max_size=3),
    st.integers(1, 300),
)
@example([(THIRD, THIRD, Fraction(1, 3)), (TWO_SEVENTHS, TWO_SEVENTHS, Fraction(2, 7))], 60)
def test_kw_density_several_axes_match_fractions_fuzz(axes, k_max):
    thetas = [t for t, _, _ in axes]
    box = [(lo, lo + width) for _, lo, width in axes]
    assert kw_density(thetas, box, k_max).hits == fraction_count(thetas, box, k_max)


def test_kw_density_guards():
    with pytest.raises(DomainError):
        kw_density([Fraction(1, 3)], [], 100)
    with pytest.raises(DomainError):
        kw_density([Fraction(1, 3)], [(Fraction(1, 2), Fraction(1, 4))], 100)


def test_irrational_density_matches_reciprocal_lambda():
    # box measure 1/2 <-> lambda 2: hit density of the plan's own box
    plan = build_plan_general([pair("1", "0")])
    lo = plan.box.center[0] - plan.box.eta
    hi = plan.box.center[0] + plan.box.eta
    report = kw_density(plan.theta, [(lo, hi)], 10**6)
    assert abs(report.empirical - 0.5) <= 0.01


# -- torus box search ------------------------------------------------------


def _distance_to_integers(x: Fraction) -> Fraction:
    f = x % 1
    return min(f, 1 - f)


def grid_box_oracle(int_rows, phases):
    """The product-grid walk `_box_search` replaced, its budget lifted:
    every centre of the grid, decoded from its index (axis 0 fastest), is
    tested against every row."""
    s = len(int_rows[0])
    weights = [sum(abs(v) for v in row) for row in int_rows]
    for eta in ETA_GRID:
        grid = 2 * math.ceil(1 / eta)
        margin = eta / 2

        def admissible(center):
            for row, w, phase in zip(int_rows, weights, phases):
                val = sum(v * z for v, z in zip(row, center)) + phase - Fraction(1, 2)
                if _distance_to_integers(val) <= eta * w + margin:
                    return False
            return True

        for index in range(grid**s):
            center = []
            rest = index
            for _ in range(s):
                center.append(Fraction(rest % grid, grid))
                rest //= grid
            if admissible(center):
                return TorusBox(tuple(center), eta), margin
    raise BudgetError(
        "no admissible torus box found down to eta = 1/32; the relation "
        "coefficients are too steep for the default grid"
    )


def box_outcome(search, int_rows, phases):
    try:
        return search(int_rows, phases)
    except BudgetError as exc:
        return str(exc)


@st.composite
def box_rows(draw):
    """Integer rows over s = 1..3 axes, each reading one axis, two axes or
    none, coefficients -3..3, with phases p/q.  All-zero rows come only with
    s <= 2: one that fails at every eta sends the oracle over the whole
    grid, 299,520 centres (6-17 s) at s = 3."""
    s = draw(st.integers(1, 3))
    nonzero = st.integers(-3, 3).filter(bool)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [0] * s
        axes = draw(st.sampled_from({1: [1, 0], 2: [1, 2, 0], 3: [1, 2]}[s]))
        for j in draw(st.lists(st.integers(0, s - 1), min_size=axes,
                               max_size=axes, unique=True)):
            row[j] = draw(nonzero)
        rows.append(row)
    phases = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for _ in rows]
    return rows, phases


@settings(max_examples=60, deadline=None)
@given(box_rows())
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]))
@example(([[1, 0], [0, 1]], [Fraction(-3, 8)] * 2))
@example(([[2, -1, 3]], [Fraction(1, 4)]))
@example(([[1, 1], [0, 1]], [Fraction(1, 3), Fraction(2, 5)]))
@example(([[0, 0], [1, 0]], [Fraction(0), Fraction(1, 3)]))
@example(([[1, 0], [0, 0]], [Fraction(1, 3), Fraction(1, 2)]))
@example(([[0, 0, 0], [0, 2, -1]], [Fraction(1, 4), Fraction(1, 3)]))
def test_box_search_matches_the_grid_oracle(case):
    # the same first admissible centre and margin, or the same "no
    # admissible torus box" error once both have walked every eta
    int_rows, phases = case
    assert box_outcome(oscillation._box_search, int_rows, phases) == box_outcome(
        grid_box_oracle, int_rows, phases)


def test_a_failing_all_zero_row_empties_every_axis_list(monkeypatch):
    # a row reading no axis is tested in every axis's list: one that fails
    # leaves no product point, so the search ends without spending its budget
    monkeypatch.setattr(oscillation, "BOX_MAX_CENTERS", 0)
    for s in (3, 4):
        with pytest.raises(BudgetError, match="^no admissible torus box"):
            oscillation._box_search([[1] + [0] * (s - 1), [0] * s], [Fraction(0), Fraction(1, 2)])


def two_generator_relations_case():
    # omega/pi = theta_1 + theta_2 and theta_1 - theta_2: both rows read both
    # axes, so no per-axis list prunes and every grid point is a product point
    theta = (parse_angle("sqrt2").over_pi(), parse_angle("e").over_pi())
    zero, one = Fraction(0), Fraction(1)
    relations = RelationData(theta, ((zero, one, one), (zero, one, -one)))
    return [pair("sqrt2+e", "1/3"), pair("sqrt2-e", "2/5")], relations


def test_box_search_stops_at_its_center_budget(monkeypatch):
    # the two-generator relations case finds its box at the 65th product
    # point, the first of the eta = 1/8 grid: a budget of 65 keeps that
    # plan, 64 stops the search
    pairs, relations = two_generator_relations_case()
    plan = build_plan_general(pairs, relations)
    assert plan.box == TorusBox((Fraction(0), Fraction(0)), Fraction(1, 8))
    monkeypatch.setattr(oscillation, "BOX_MAX_CENTERS", 65)
    assert build_plan_general(pairs, relations) == plan
    monkeypatch.setattr(oscillation, "BOX_MAX_CENTERS", 64)
    with pytest.raises(BudgetError, match=r"^torus box search tried 64 centers .*"
                                          r"\(2 generators, eta = 1/8\)$"):
        build_plan_general(pairs, relations)


def test_independent_pairs_take_the_first_product_point(monkeypatch):
    # without relations every row reads one axis: the first product point is
    # the box, or the lists leave none and the search moves to the next eta
    pairs = [pair("sqrt2", "1/3"), pair("e", "2/5"), pair("1", "1/7")]
    plan = build_plan_general(pairs)
    assert plan.box.eta == Fraction(1, 4)
    monkeypatch.setattr(oscillation, "BOX_MAX_CENTERS", 1)
    assert build_plan_general(pairs) == plan
    monkeypatch.setattr(oscillation, "BOX_MAX_CENTERS", 0)
    with pytest.raises(BudgetError, match=r"^torus box search tried 0 centers "):
        build_plan_general(pairs)


INDEPENDENT_OMEGAS = ("sqrt2", "e", "1", "3*sqrt2+1", "2*e", "5/4*sqrt2", "7/3*e",
                      "2/3*sqrt2")


def test_five_independent_pairs_match_the_grid_oracle():
    # the grid walk reaches this box at its 14,044th centre (3 on every axis)
    pairs = [pair(omega, "-3/8*pi") for omega in INDEPENDENT_OMEGAS[:5]]
    plan = build_plan_general(pairs)
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    box, margin = grid_box_oracle(identity, [Fraction(-3, 8)] * 5)
    assert plan.box == box and plan.epsilon == oscillation._arc_floor(margin)
    assert box == TorusBox((Fraction(3, 8),) * 5, Fraction(1, 4))
