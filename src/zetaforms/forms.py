"""Exact linear forms in 1 and zeta values from factored rational functions.

The pipeline: build the factored function (a linear prefactor, rising-
factorial blocks in the numerator and denominator, one scalar), decompose
it exactly into partial fractions, shift orders for the second derivative,
and sum over positive integer arguments using sum_{k>=1} (k+m)^(-s) =
zeta(s) - H_m(s).  From the per-pole recurrence to the sum the
coefficients stay integers, one rational scale per pole over
denominators all poles share (PartialFractionExpansion): a Fraction is
formed for each pole's scale and for the values that leave the engine,
ell0 and each ell_s, never per term.

A block list is read as its linear factors t + c, listed once by
_linear_factors for the pole cover, the zeros at a pole, evaluate (P + cQ
at t = P/Q) and all that direct_sum reads: its cutoff, zeros, seeds,
steps, log-derivative sums and exact terms.  Only partial_fractions'
sweep also reads each block whole, as an interval of constants.

The two numeric routes share no series code and act as oracles for one
another: the exact coefficients (partial_fractions, an integer recurrence
per pole on power sums of the factors) times the zeta table, and
direct_sum, which reads only the factored function (_second_derivative_terms
walks R(k) and its log-derivatives up t = 1, 2, ... in binary fixed point,
each term rounded exactly) and derives its cutoff from it, so it checks
partial_fractions, sum_over_k and the zeta table at once.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, defaultdict
from collections.abc import Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import BudgetError, DomainError, InternalCheckError
from .exact import fraction_str, log2_fraction
from .fixedpoint import GUARD_DIGITS, FixedReal, SlottedValue, _div_nearest

if TYPE_CHECKING:
    from .zeta import ZetaTable


class RisingBlock(SlottedValue):
    """(t + shift)_length ** power, a block of consecutive linear factors."""

    __slots__ = ("shift", "length", "power")

    def __init__(self, shift: int, length: int, power: int):
        for value in (shift, length, power):
            if not isinstance(value, int):
                raise DomainError(
                    f"rising blocks take integer parameters (integer poles "
                    f"only), got {value!r}"
                )
        if length < 1 or power < 1:
            raise DomainError("rising block needs positive length and power")
        self.shift, self.length, self.power = shift, length, power

    @property
    def degree(self) -> int:
        return self.length * self.power


class FactoredRationalFunction(NamedTuple):
    """scalar * (c0 + c1 t) * prod(numerator) / prod(denominator)."""

    prefactor: tuple[int, int]  # (c0, c1) meaning c0 + c1*t
    numerator: tuple[RisingBlock, ...]
    denominator: tuple[RisingBlock, ...]
    scalar: Fraction = Fraction(1)

    @property
    def numerator_degree(self) -> int:
        d = sum(b.degree for b in self.numerator)
        c0, c1 = self.prefactor
        return d + (1 if c1 != 0 else 0)

    @property
    def denominator_degree(self) -> int:
        return sum(b.degree for b in self.denominator)

    @property
    def is_proper(self) -> bool:
        return self.numerator_degree < self.denominator_degree

    def evaluate(self, t: Fraction) -> Fraction:
        """Exact value at a rational point t = P/Q away from the poles, from
        the integers P + cQ = Q (t + c) of its linear factors."""
        t = Fraction(t)
        big_p, big_q = t.as_integer_ratio()
        c0, c1 = self.prefactor
        top, bottom = _linear_factors(self.numerator), _linear_factors(self.denominator)
        num = (c0 * big_q + c1 * big_p) * math.prod(big_p + c * big_q for c in top)
        den = math.prod(big_p + c * big_q for c in bottom)
        if den == 0:
            raise DomainError(f"evaluation at pole t={t}")
        excess = len(bottom) - len(top) - 1  # the powers of Q left over
        return Fraction(self.scalar.numerator * num * big_q ** max(excess, 0),
                        self.scalar.denominator * den * big_q ** max(-excess, 0))


def build_zudilin(n: int) -> FactoredRationalFunction:
    """The degree-(162n+1 over 240n+10) well-poised rational function whose
    twice-differentiated values at t = 1, 2, ... sum to a linear form in
    1, zeta(5), zeta(7), zeta(9), zeta(11).

    Shape: (37n + 2t) (t - 27n)_{27n}^3 (t + 37n + 1)_{27n}^3 over
    prod_{j=1..10} (t + (12-j)n)_{(13+2j)n+1}, all times the scalar
    (1/2) prod_{j=1..10} ((13+2j)n)! / (27n)!^6.
    """
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    numerator = (
        RisingBlock(-27 * n, 27 * n, 3),
        RisingBlock(37 * n + 1, 27 * n, 3),
    )
    denominator = tuple(
        RisingBlock((12 - j) * n, (13 + 2 * j) * n + 1, 1) for j in range(1, 11)
    )
    scalar = Fraction(1, 2)
    for j in range(1, 11):
        scalar *= math.factorial((13 + 2 * j) * n)
    scalar /= math.factorial(27 * n) ** 6
    return FactoredRationalFunction((37 * n, 2), numerator, denominator, scalar)


def _linear_factors(blocks: tuple[RisingBlock, ...]) -> list[int]:
    """The constant c of every linear factor t + c of the blocks, block by
    block, each repeated `power` times."""
    return [c for b in blocks for c in range(b.shift, b.shift + b.length)
            for _ in range(b.power)]


class _TermView(Mapping):
    """(m, j) -> a_{j,m} of an expansion, zero terms omitted, pole by pole
    in increasing j.  Each value is one normalised Fraction, made when it is
    read, so that counting or listing the terms makes none."""

    __slots__ = ("_expansion",)

    def __init__(self, expansion: PartialFractionExpansion):
        self._expansion = expansion

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        (m, j), (poles, dens) = key, self._expansion
        scale, top, numerators = poles.get(m, (0, 0, ()))
        if not (0 <= top - j < len(numerators) and numerators[top - j]):
            raise KeyError(key)
        return scale * Fraction(numerators[top - j], dens[top - j])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for m, (_, top, numerators) in self._expansion.poles.items():
            yield from ((m, top - i) for i in range(len(numerators) - 1, -1, -1)
                        if numerators[i])

    def __len__(self) -> int:
        return sum(map(bool, itertools.chain.from_iterable(
            numerators for _, _, numerators in self._expansion.poles.values())))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class PartialFractionExpansion(NamedTuple):
    """Exact coefficients a_{j,m} of 1/(t+m)^j, kept as integers per pole.

    poles maps m to (scale, top, numerators), and the term of order top - i
    at m is a_{top-i,m} = scale * numerators[i] / dens[i]: one rational
    scale per pole, integers over denominators that every pole shares
    (i! Lambda^i from partial_fractions), unreduced.  A zero numerator is
    no term.  `terms` is the view as normalised Fractions.  Treated as
    immutable once built (safe to share across tasks)."""

    poles: dict[int, tuple[Fraction, int, tuple[int, ...]]]  # m -> (scale, top, numerators)
    dens: tuple[int, ...]

    @property
    def terms(self) -> Mapping[tuple[int, int], Fraction]:
        """(m, j) -> a_{j,m}, zero terms omitted, pole by pole in increasing
        j, for callers outside the engine: a read-only mapping whose values
        are normalised Fractions, each made when it is read."""
        return _TermView(self)

    def evaluate(self, t: Fraction) -> Fraction:
        """Exact value at a rational t = P/Q, ZeroDivisionError at a pole.
        Pole m's terms become one integer over its known denominator
        v C_k (P + mQ)^top, scale = u/v, k its last index and C_k =
        lcm(dens[:k+1]) (dens[k] itself for partial_fractions' dens, each
        of which divides the next), by Horner's rule on the C_i / C_(i-1).
        The poles are added as integers over V C_K (V the lcm of the v, K
        the largest k) times the lcm of the (P + mQ)^top, merged pairwise so
        that each sum carries only its own poles' factors: one Fraction in
        all."""
        big_p, big_q = Fraction(t).as_integer_ratio()
        if not self.poles:
            return Fraction(0)
        last = max(len(numerators) for _, _, numerators in self.poles.values()) - 1
        common = math.lcm(*(scale.denominator for scale, _, _ in self.poles.values()))
        commons = list(itertools.accumulate(self.dens, math.lcm))  # the C_i
        steps = [0] + [b // a * big_q for a, b in zip(commons, commons[1:])]
        lifts = [c // d for c, d in zip(commons, self.dens)]
        parts = []  # (numerator, (P + mQ)^top) of each pole, over V C_K
        for m, (scale, top, numerators) in self.poles.items():
            x, k, acc = big_p + m * big_q, len(numerators) - 1, 0
            for i, (a, step, lift) in enumerate(zip(numerators, steps, lifts)):
                acc = acc * step + a * lift * x**i
            weight = scale.numerator * (common // scale.denominator) * (commons[last] // commons[k])
            parts.append((weight * acc * big_q ** (top - k), x**top))
        while len(parts) > 1:
            merged = [(a * (d // g) + c * (b // g), b // g * d)
                      for (a, b), (c, d) in zip(parts[::2], parts[1::2])
                      for g in [math.gcd(b, d)]]
            parts = merged + parts[2 * len(merged):]
        numerator, bottom = parts[0]
        return Fraction(numerator, common * commons[last] * bottom)


def _pole_scales(scalar: Fraction, spans, poles) -> Iterator[Fraction]:
    """scalar * L_m, L_m = prod_{c != m} (c - m)^w(c) over the signed spans
    (lo, hi, w), at each m of the increasing poles: multiplied out at the
    first, then slid one m at a time (gaps too), each span gaining lo - m and
    losing hi + 1 - m, |w| times, zeros left out: one small Fraction a step."""
    m, ratio = poles[0], [1, 1]  # the numerator and denominator sides
    for lo, hi, w in spans:
        ratio[w < 0] *= math.prod(filter(None, range(lo - m, hi + 1 - m))) ** abs(w)
    scale = scalar * Fraction(*ratio)
    for pole in poles:
        while m < pole:
            m, ratio = m + 1, [1, 1]
            for lo, hi, w in spans:
                ratio[w < 0] *= (lo - m or 1) ** abs(w)
                ratio[w > 0] *= (hi + 1 - m or 1) ** abs(w)
            scale *= Fraction(*ratio)
        yield scale


def partial_fractions(f: FactoredRationalFunction) -> PartialFractionExpansion:
    """Exact partial fractions of a proper factored function from the log-
    derivative of each pole's local factor (Ball-Rivoal 2001, Zudilin 2004).
    w(c), the numerator factors t + c minus the denominator ones, is read per
    block as a signed interval (lo, hi, +-power).  At the pole t = -m, with
    cover mu and z numerator zeros, t = u - m gives
    R = scalar (p0 + c1 u) u^(z - mu) L_m exp(sum_k (-1)^(k-1) P_k u^k / k),
    p0 = c0 - c1 m, L_m = prod_{c != m} (c - m)^w(c), P_k = sum_{c != m}
    w(c) / (c - m)^k.  Q_k = Lambda^k P_k, with Lambda = lcm(1..X) and X the
    largest |c - m|, and B_i = i! Lambda^i [u^i] exp(...) are integers:
    B_0 = 1, and for i = mu - j - z >= 0

        B_i = sum_{k=1..i} (-1)^(k-1) (i-1)!/(i-k)! Q_k B_(i-k),
        a_{j,m} = scalar L_m (p0 B_i + c1 i Lambda B_(i-1)) / (i! Lambda^i),

    kept as pole m's (scale, top, numerators) = (scalar L_m, mu - z,
    p0 B_i + c1 i Lambda B_(i-1) for i = 0..top-1) over the shared dens
    i! Lambda^i: one Fraction scalar L_m per pole, slid from pole to pole
    (_pole_scales), integers unreduced, no gcd per term, and the poles in
    increasing m, those with no nonzero term left out.
    One sweep over x = -X..X keeps S_k(x) = sum_{0 != y <= x} (Lambda/y)^k,
    adding +-w S_k at x = hi - m and lo - 1 - m to pole m's vector of Q_k."""
    if not f.is_proper:
        raise DomainError("partial fractions of a non-proper function would have a "
                          f"polynomial part (degrees {f.numerator_degree} >= "
                          f"{f.denominator_degree})")
    cover, zeros = Counter(_linear_factors(f.denominator)), Counter(_linear_factors(f.numerator))
    tops = {m: mu - zeros[m] for m, mu in sorted(cover.items()) if mu > zeros[m]}
    poles: dict[int, tuple[Fraction, int, tuple[int, ...]]] = {}
    if not tops or not f.scalar:
        return PartialFractionExpansion(poles, ())
    spans = [(b.shift, b.shift + b.length - 1, b.power) for b in f.numerator]
    spans += [(b.shift, b.shift + b.length - 1, -b.power) for b in f.denominator]
    reach = max(max(hi for _, hi, _ in spans) - min(tops),
                max(tops) - min(lo for lo, _, _ in spans))
    lam, size = math.lcm(*range(1, reach + 1)), max(tops.values())
    power_sums, ends = {m: [0] * (top - 1) for m, top in tops.items()}, defaultdict(list)
    for (m, q), (lo, hi, w) in itertools.product(power_sums.items(), spans):
        ends[hi - m].append((q, w))  # x -> (pole m's vector of Q_k, +-w)
        ends[lo - 1 - m].append((q, -w))
    sums = [0] * (size - 1)
    for x in range(-reach, reach + 1):
        if x:
            powers = itertools.accumulate([lam // x] * (size - 1), operator.mul)
            sums = [s + p for s, p in zip(sums, powers)]
        for q, w in ends.get(x, ()):
            q[:] = [a + w * s for a, s in zip(q, sums)]
    c0, c1 = f.prefactor
    dens = [math.factorial(i) * lam**i for i in range(size)]
    weights = [[(-1) ** k * math.perm(i - 1, k) for k in range(i)] for i in range(size)]
    for (m, top), scale in zip(tops.items(), _pole_scales(f.scalar, spans, list(tops))):
        q, b = power_sums[m], [1]
        for i in range(1, top):
            b.append(sum(v * x * y for v, x, y in zip(weights[i], q, reversed(b))))
        numerators = tuple((c0 - c1 * m) * b[i] + (c1 * i * lam * b[i - 1] if i else 0)
                           for i in range(top))
        if any(numerators):
            poles[m] = (scale, top, numerators)
    return PartialFractionExpansion(poles, tuple(dens))


def second_derivative(p: PartialFractionExpansion) -> PartialFractionExpansion:
    """d^2/dt^2 termwise: a/(t+m)^j -> j(j+1) a/(t+m)^(j+2), on each pole's
    numerators, its top raised by 2 and its scale and the dens kept."""
    return p._replace(poles={
        m: (scale, top + 2, tuple(t * (top - i) * (top - i + 1) for i, t in enumerate(numerators)))
        for m, (scale, top, numerators) in p.poles.items()
    })


class ZetaLinearForm(NamedTuple):
    """ell0 + sum_s ell_s zeta(s) with exact rational coefficients.

    Treated as immutable once built; zero coefficients are kept on purpose
    (the vanishing pattern is part of the result)."""

    n: int
    ell0: Fraction
    coefficients: dict[int, Fraction]  # s -> ell_s

    def nonzero_arguments(self) -> list[int]:
        return sorted(s for s, c in self.coefficients.items() if c != 0)

    def log2_height(self) -> float:
        vals = [v for v in (self.ell0, *self.coefficients.values()) if v != 0]
        if not vals:
            raise DomainError("the zero form (every coefficient 0) has no height")
        return max(map(log2_fraction, vals))


def sum_over_k(p: PartialFractionExpansion, n: int = 0) -> ZetaLinearForm:
    """Sum the expansion over t = 1, 2, 3, ... into a zeta linear form.

    Uses sum_{k>=1} (k+m)^(-s) = zeta(s) - H_m(s), so every m must be >= 0
    and every order >= 2 (absolute convergence), or 1 when the order-1
    coefficients sum to 0: then sum_k sum_m a_{m,1} / (k+m) telescopes to
    -sum_m a_{m,1} H_m(1), and no zeta(1) coefficient is kept.  The
    constant is -sum a_{m,s} H_m(s), H_m(s) = h_m(s) / M^s with the
    integers h_m(s) = sum_{l<=m} (M/l)^s, M = lcm(1..max m), kept in one
    walk up the poles.  The expansion's integers are read as they are: a
    term scale t / dens[i], scale = u/v, is the integer u (V/v) t over
    V dens[i], V the lcm of the poles' v, summed with and without its
    h_m(s) into its (s, i) pair, with no gcd per term.  Each order s then
    lifts its pairs to one integer over d_s = V lcm(its dens), and a
    Fraction is formed only for each ell_s and each order's part of ell0.
    """
    poles = sorted(p.poles.items())
    common = math.lcm(*(scale.denominator for _, (scale, _, _) in poles))  # V
    big_m = math.lcm(*range(1, max(p.poles, default=0) + 1))
    harmonic = [0] * (max((top for _, (_, top, _) in poles), default=0) + 1)  # h_l(s)
    keys, at, l = [], {}, 0  # the (m, s) in order; s -> the i of its terms
    sums, walked = Counter(), Counter()  # (s, i) -> sum of u (V/v) t, and times h_m(s)
    for m, (scale, top, numerators) in poles:
        while l < m:
            l, power = l + 1, 1
            for s in range(1, len(harmonic)):
                power *= big_m // l
                harmonic[s] += power
        lifted = scale.numerator * (common // scale.denominator)
        for i in range(len(numerators) - 1, -1, -1):
            if numerators[i]:
                s, x = top - i, lifted * numerators[i]
                keys.append((m, s))
                at.setdefault(s, set()).add(i)
                sums[s, i] += x
                walked[s, i] += x * harmonic[max(s, 0)]  # an order < 1 raises below
    den = {s: math.lcm(*(p.dens[i] for i in used)) for s, used in at.items()}  # d_s / V

    def total(acc: Counter, s: int) -> int:  # order s over d_s
        return sum(acc[s, i] * (den[s] // p.dens[i]) for i in at[s])

    order_one = total(sums, 1) if 1 in at else 0
    for m, s in keys:
        if m < 0:
            raise DomainError(f"pole at positive integer t={-m} hits the sum range")
        if s < 1 or (s == 1 and order_one != 0):
            raise DomainError(f"divergent order {s} at pole -{m}")
    ell0 = -sum((Fraction(total(walked, s), common * den[s] * big_m**s) for s in den),
                Fraction(0))
    return ZetaLinearForm(n, ell0, {s: Fraction(total(sums, s), common * den[s])
                                    for s in den if s > 1})


ZUDILIN_ZETA_ARGUMENTS = (5, 7, 9, 11)
DEFAULT_MAX_N = 2


def check_form_budget(n: int, max_n: int = DEFAULT_MAX_N) -> None:
    if n > max_n:
        raise BudgetError(
            f"n={n} exceeds the configured cap {max_n}; pole count and "
            "precision grow ~34n and ~260n digits"
        )


def check_zudilin_vanishing(form: ZetaLinearForm) -> None:
    """Raise unless every zeta coefficient outside {5,7,9,11} is exactly 0
    (the strongest structural self-check of the whole pipeline)."""
    for s, coeff in form.coefficients.items():
        if s not in ZUDILIN_ZETA_ARGUMENTS and coeff != 0:
            raise InternalCheckError(
                f"zeta({s}) coefficient failed to vanish for n={form.n}"
            )


def zudilin_pipeline(
    n: int,
) -> tuple[FactoredRationalFunction, PartialFractionExpansion, ZetaLinearForm]:
    """Zudilin's n-th factored function, its partial fractions and its exact
    linear form (build -> partial fractions -> second derivative -> sum), with
    the vanishing pattern asserted.  No index cap is checked here."""
    factored = build_zudilin(n)
    expansion = partial_fractions(factored)
    form = sum_over_k(second_derivative(expansion), n)
    check_zudilin_vanishing(form)
    return factored, expansion, form


def zudilin_linear_form(n: int, max_n: int = DEFAULT_MAX_N) -> ZetaLinearForm:
    """The exact n-th linear form in 1, zeta(5), zeta(7), zeta(9), zeta(11),
    for an n within the cap max_n."""
    check_form_budget(n, max_n)
    return zudilin_pipeline(n)[2]


def required_digits(n: int) -> int:
    """Working precision needed to evaluate the n-th form numerically.

    Budget rule: 154.5n digits for coefficient size (513n bits) plus 99n
    for the e^(-C0 n) cancellation plus 60 headroom.
    """
    if n < 1:
        return 10
    return math.ceil(253.5 * n + 60)


def evaluate_numeric(form: ZetaLinearForm, table: ZetaTable) -> FixedReal:
    """ell0 + sum ell_s zeta(s) with rigorous error accounting.

    The result is rescaled to the number of digits actually guaranteed:
    table digits minus the cancellation budget log10(sum |ell_s|) minus one
    safety digit.
    """
    digits = table.digits
    if digits < required_digits(form.n):
        raise BudgetError(
            f"table precision {digits} below required {required_digits(form.n)}"
            f" for n={form.n}"
        )
    scale = 10**digits
    acc = _div_nearest(form.ell0.numerator * scale, form.ell0.denominator)
    weight = abs(form.ell0)
    for s, ell in sorted(form.coefficients.items()):
        if ell == 0:
            continue
        if s not in table:
            raise DomainError(f"table lacks zeta({s})")
        acc += _div_nearest(ell.numerator * table[s].scaled, ell.denominator)
        weight += abs(ell)
    # each table entry is good to 1 ulp, each product adds <= 1 ulp rounding
    lost = max(0.0, log2_fraction(weight + len(form.coefficients) + 2) * math.log10(2))
    out_digits = digits - math.ceil(lost) - 1
    if out_digits < 1:
        raise BudgetError("precision budget exhausted by coefficient size")
    return FixedReal(acc, digits).rescale(out_digits)


def _three_terms(constants, shift: int) -> tuple[tuple[int, int, int], int]:
    """prod (c + shift + u) over the constants c with c + shift != 0, as the
    integers of its terms up to u^2, and the number of c with c + shift = 0."""
    a0, a1, a2, zeros = 1, 0, 0, 0
    for c in constants:
        c += shift
        if c:
            a0, a1, a2 = c * a0, c * a1 + a0, c * a2 + a1
        else:
            zeros += 1
    return (a0, a1, a2), zeros


def _exact_term(f: FactoredRationalFunction, k: int, num: int, den: int) -> int:
    """_div_nearest(num * a, den * b), den > 0, for a / b = [u^2] p(u) / d(u)
    and R(k + u) = scalar * p(u) / d(u): d the denominator's _three_terms at
    t = k + u and p the prefactor times the numerator's, its zero factors a
    power of u.  [u^2] p/d = (d0 (p2 d0 - p1 d1 - p0 d2) + p0 d1^2) / d0^3,
    formed from scratch at k."""
    (x0, x1, x2), zeros = _three_terms(_linear_factors(f.numerator), k)
    (d0, d1, d2), _ = _three_terms(_linear_factors(f.denominator), k)
    x0, x1, x2 = ((0,) * zeros + (x0, x1, x2))[:3]
    c0, c1 = f.prefactor
    a = c0 + c1 * k
    p0, p1, p2 = a * x0, a * x1 + c1 * x0, a * x2 + c1 * x1
    return _div_nearest(
        num * (d0 * (p2 * d0 - p1 * d1 - p0 * d2) + p0 * d1 * d1), den * d0**3
    )


class _Reciprocals(dict):
    """x -> floor(2^bits / |x|^power) for integers x != 0, negated for x < 0
    when power is 1, each computed when first read: within one unit of
    2^bits / x^power."""

    def __init__(self, bits: int, power: int):
        super().__init__()
        self.one, self.power = 1 << bits, power

    def __missing__(self, x: int) -> int:
        value = self.one // abs(x) ** self.power
        self[x] = value = -value if x < 0 and self.power == 1 else value
        return value


# bits by which the walk keeps its error bound below a unit of the rounded
# term: a seed aims about 2 WALK_GUARD_BITS bits below it and the walk
# re-seeds once the bound passes 2^-WALK_GUARD_BITS units
WALK_GUARD_BITS = 20


def _second_derivative_terms(f: FactoredRationalFunction, work: int) -> Iterator[int]:
    """Yield _div_nearest of 10^work R''(k), k = 1, 2, ..., for R = f, each
    the exact nearest integer, from the factors alone.

    With R = scalar G, R''(k) = scalar G(k) (H1^2 - H2) for H1 = G'/G =
    sum +-1/(k + c) and H2 = -(G'/G)' = sum +-1/(k + c)^2 over the linear
    factors t + c (+ numerator, - denominator), the prefactor's c1/(c0 +
    c1 k) and its square included.  The walk carries V = 10^work scalar
    G(k) as v = floor(V 2^F) to within ev units, and H1, H2 at W bits as h1
    = s1 + floor(c1 2^W / (c0 + c1 k)), h2 likewise, where s1 and s2 are sums
    of the table entries floor(2^W/x) and floor(2^W/x^2) (_Reciprocals) over
    the factors' x = k + c.  With w(c) the multiplicity of t + c (numerator
    minus denominator), G(k + 1) / G(k) = A/B is the prefactor's ratio times
    prod (k + c)^(w(c - 1) - w(c)), small integer products over the c where
    w changes, v becomes floor(v A / B) and ev |A/B| + 1 bounds its error,
    and s1, s2 add and drop the same table entries: they stay the exact
    table sums, each of the e1 - 1 = sum |w(c)| entries (and the
    prefactor's floor) off by less than one unit.  So |h1 - 2^W
    H1| < e1, |h2 - 2^W H2| < e1, and q = floor(h1^2 / 2^W) - h2 is within
    eq = floor(e1 (2 |h1| + e1) / 2^W) + e1 + 2 units of 2^W Q, Q = H1^2 -
    H2.  The product v q is then within E = |v| eq + |q| ev + ev eq units of
    2^(F + W) V Q, strictly, and the term is rounded at t - E and t + E: if
    the two agree, so does the exact value between them (Ziv's strategy);
    if not, the term is formed from the exact rational (_exact_term).

    A seed computes V exactly, as the unreduced integers 10^work scalar
    times the products of the factors at k, with F = max(F0, F0 - log2
    |V|) and W = F0 + max(log2 |V| + 1, 0), F0 = 2 guard + 2 bitlen(e1) +
    2: |Q| < 2^(2 bitlen(e1) + 1) and eq about 2 e1 |H1|, so
    E starts near 2^-(2 guard) units.  While F exceeds F0 (|V| below 1), v
    is shifted down to keep about F0 significant bits.  When E passes
    2^-guard units (V has grown since the seed, or ev has) the walk
    re-seeds at that k, W only ever growing.  A k where a numerator factor
    or the prefactor vanishes is no step: to order 3 or more R''(k) is
    exactly 0 (no pole sits at a positive integer, checked here), to order
    1 or 2 it is _exact_term, and the walk re-seeds past it."""
    top, bottom = _linear_factors(f.numerator), _linear_factors(f.denominator)
    if min(bottom, default=0) < 0:
        raise DomainError(f"pole at positive integer t={-min(bottom)} hits the sum range")
    (c0, c1), scalar = f.prefactor, f.scalar
    if not (scalar and (c0 or c1)):
        yield from itertools.repeat(0)
        return
    roots = Counter(-c for c in top)
    if c1 and c0 % c1 == 0:
        roots[-c0 // c1] += 1
    tens = 10**work
    num, den = 2 * scalar.numerator * tens, scalar.denominator
    present = Counter(top)  # c -> w(c)
    present.subtract(bottom)
    steps = Counter({c + 1: m for c, m in present.items()})  # c -> w(c - 1) - w(c)
    steps.subtract(present)
    ups = [c for c, w in steps.items() for _ in range(w)]
    downs = [c for c, w in steps.items() for _ in range(-w)]
    present = [(c, m) for c, m in present.items() if m]
    e1 = sum(abs(m) for _, m in present) + 1
    guard = WALK_GUARD_BITS
    floor_bits = max(2 * guard + 2 * e1.bit_length() + 2, 0)  # F0
    bits, v = 0, None  # W, and no walk state
    for k in itertools.count(1):
        if roots[k]:
            v = None
            yield 0 if roots[k] >= 3 else _exact_term(f, k, num, den)
            continue
        pre, fresh = c0 + c1 * k, v is None
        while True:
            if v is None:
                big = scalar.numerator * tens * pre * math.prod(k + c for c in top)
                small = scalar.denominator * math.prod(k + c for c in bottom)
                scale = big.bit_length() - small.bit_length()  # log2 |V|, within 1
                frac = max(floor_bits, floor_bits - scale)
                v, ev = (big << frac) // small, 1
                if max(floor_bits + scale + 1, floor_bits, 1) > bits:
                    bits = max(floor_bits + scale + 1, floor_bits, 1)
                    inv1, inv2 = _Reciprocals(bits, 1), _Reciprocals(bits, 2)
                s1 = sum(m * inv1[k + c] for c, m in present)
                s2 = sum(m * inv2[k + c] for c, m in present)
            h1 = s1 + (c1 << bits) // pre
            h2 = s2 + (c1 * c1 << bits) // (pre * pre)
            q = (h1 * h1 >> bits) - h2
            eq = (e1 * (2 * abs(h1) + e1) >> bits) + e1 + 2
            err, shift = abs(v) * eq + abs(q) * ev + ev * eq, frac + bits
            if fresh or not err >> max(shift - guard, 0):
                break
            v, fresh = None, True
        t, half = v * q, 1 << (shift - 1)
        low = (t - err + half) >> shift
        yield low if low == (t + err + half) >> shift else _exact_term(f, k, num, den)
        if roots[k + 1]:
            continue
        xs, ys = [k + c for c in ups], [k + c for c in downs]
        a, b = (pre + c1) * math.prod(xs), pre * math.prod(ys)
        if b < 0:
            a, b = -a, -b
        v, ev = v * a // b, -(-ev * abs(a) // b) + 1
        if frac > floor_bits and v.bit_length() > floor_bits + 64:  # 64 bits at a time
            s = min(frac - floor_bits, v.bit_length() - floor_bits)
            v, ev, frac = v >> s, (ev >> s) + 2, frac - s
        s1 += sum(map(inv1.__getitem__, xs)) - sum(map(inv1.__getitem__, ys))
        s2 += sum(map(inv2.__getitem__, xs)) - sum(map(inv2.__getitem__, ys))


def direct_sum(f: FactoredRationalFunction, digits: int) -> FixedReal:
    """Numeric value of sum_{k>=1} R''(k) for the factored R = f, term by
    term from the factors themselves (_second_derivative_terms: R(k) and
    its log-derivatives walked in binary fixed point, each term the exact
    rational rounded once, from scratch only where the walk's error bound
    cannot decide it).

    It reads neither the output of partial_fractions nor the zeta reduction
    in sum_over_k, so it is the oracle side of the oracle/evaluation pair.
    The cutoff comes from the crude tail bound |R''(k)| <= C k^-decay, where
    decay = deg den - deg num + 2 and C is measured from the computed terms
    past the hump, k >= 4 x the largest pole, times a 10^4 safety factor.

    At 200 digits, for Zudilin's forms (2 vCPUs, Python 3.11, in process,
    best of 5): n = 1 (1,459 terms) takes 0.015 s, n = 2 0.004 s, n = 3
    0.006 s and n = 6 0.011 s; n = 13 0.026 s and n = 25 0.046 s (best of
    3).  No term of n = 1..6 needs the exact route.
    """
    if not f.is_proper:
        raise DomainError("the direct sum needs a proper function")
    work = digits + GUARD_DIGITS + 5
    guard = 10 ** (work - digits)
    decay = f.denominator_degree - f.numerator_degree + 2
    k_min = 4 * max(_linear_factors(f.denominator))  # past the hump
    acc = 0
    # c_run = max |term| k^decay (10**-work units) is kept as the pair
    # top = (|term|, k) that attains it and its log2 top_log; the walk stops
    # once 2 c_run 10^4 < stop k^(decay-1).  Comparisons use the log2s, off
    # by far under 1e-6, and the exact integers only where two log2s lie
    # within 1e-6 of each other
    top, top_log = (0, 1), -math.inf
    stop = (decay - 1) * guard
    stop_log = math.log2(stop) - math.log2(2 * 10**4)
    limit = 10**7
    for k, term in zip(range(1, limit + 1), _second_derivative_terms(f, work)):
        acc += term
        if term:
            term_log = math.log2(abs(term)) + decay * math.log2(k)
            if term_log > top_log + 1e-6 or (
                term_log > top_log - 1e-6
                and abs(term) * k**decay > top[0] * top[1] ** decay
            ):
                top, top_log = (abs(term), k), term_log
        if k >= k_min:
            gap = stop_log + (decay - 1) * math.log2(k) - top_log
            if gap > 1e-6 or (gap > -1e-6 and 2 * 10**4 * top[0] * top[1] ** decay
                              < stop * k ** (decay - 1)):
                break
    else:
        raise BudgetError(f"direct sum cutoff budget exceeded at k={limit}")
    return FixedReal(_div_nearest(acc, guard), digits)


def common_denominator(form: ZetaLinearForm) -> tuple[int, dict]:
    """LCM of all coefficient denominators, with a growth report.

    log(D_n)/n is informational: the asymptotic denominator growth rate is
    only an n -> infinity statement.
    """
    dens = [form.ell0.denominator] + [c.denominator for c in form.coefficients.values()]
    d = math.lcm(*dens)
    log_d = log2_fraction(Fraction(d)) * math.log(2) if d > 1 else 0.0
    report = {
        "log_denominator": round(log_d, 6),
        "log_denominator_over_n": round(log_d / form.n, 6) if form.n >= 1 else None,
    }
    return d, report


# integer + 1/q is never an integer, so never a pole
RECONSTRUCTION_POINTS = tuple(map(Fraction, "-139/2 -73/2 173/2 2069/11 63/2".split()))


def reconstruction_check(f: FactoredRationalFunction, p: PartialFractionExpansion) -> dict:
    """Exact equality of the expansion and the factored original at the
    RECONSTRUCTION_POINTS, rationals that are no pole."""
    checked = [fraction_str(t) for t in RECONSTRUCTION_POINTS]
    ok = all(f.evaluate(t) == p.evaluate(t) for t in RECONSTRUCTION_POINTS)
    return {"ok": ok, "points": checked}


def reflection_check(p: PartialFractionExpansion) -> dict:
    """Does t -> -T - t map the expanded function to +f or -f?  Reported
    here (`form` asserts sign -1), and exact on the coefficients: a/(t+m)^j becomes
    (-1)^j a/(t+T-m)^j, so f(-T-t) = sign * f(t) exactly when every
    a_{j,T-m} = sign * (-1)^j a_{j,m}.  A symmetric pole set forces
    T = min m + max m (37n for Zudilin's forms, with sign -1).  The zero
    function (no terms) has no sign."""
    poles = {m: pole for m, pole in p.poles.items() if any(pole[2])}
    if poles:
        total = min(poles) + max(poles)
        for sign in (1, -1):
            if _mirrored(poles, p.dens, total, sign):
                return {"symmetric": True, "sign": sign}
    return {"symmetric": False, "sign": None}


def _mirrored(poles, dens, total: int, sign: int) -> bool:
    """Is every a_{j,T-m} = sign (-1)^j a_{j,m}, T = total?  Per pole pair,
    with scales u/v at m and u'/v' at T - m, a = scale num / dens[i] and
    a' = scale' num' / dens[i'] are compared as u' v num' dens[i] against
    u v' num dens[i'], integers; when the scales agree up to sign and the
    tops do (i = i'), as for Zudilin's forms, only the num are compared."""
    for m, (scale, top, numerators) in poles.items():
        if total - m not in poles:
            return False
        other, top2, numerators2 = poles[total - m]
        left, right = other.numerator * scale.denominator, scale.numerator * other.denominator
        left, right = (1, 1) if left == right else (-1, 1) if left == -right else (left, right)
        orders = {top - i: i for i, a in enumerate(numerators) if a}
        orders2 = {top2 - i: i for i, a in enumerate(numerators2) if a}
        if orders.keys() != orders2.keys():
            return False
        for j, i in orders.items():
            i2 = orders2[j]
            lhs, rhs = left * numerators2[i2], sign * (-1) ** j * right * numerators[i]
            if i != i2:
                lhs, rhs = lhs * dens[i], rhs * dens[i2]
            if lhs != rhs:
                return False
    return True
