"""High-precision Riemann zeta values at integer arguments, two ways.

Each route takes all the arguments of a table at once and returns
{s: FixedReal}; ZetaTable runs each route once and cross-checks every
entry.  The two routes share no computed value.

Primary route, zeta_lambert: Ramanujan's formula for zeta(2h+1) (Berndt,
"Ramanujan's Notebooks, Part II", ch. 14, Entry 21(i)) at alpha = beta = pi,
with q = e^(-2 pi) and sigma_(-s)(N) = sum_{d | N} d^(-s):

    s = 4m + 3:  zeta(s) = -4^h pi^s C - 2 sum_N sigma_(-s)(N) q^N,
    s = 4m + 1:  zeta(s) = (4^h / h) pi^s C' - 2 sum_N sigma_(-s)(N) q^N
                           - (4 pi / h) sum_N N sigma_(-s)(N) q^N,

where C = sum_j c_j, C' = sum_j (h + 1 - 2j) c_j and
c_j = (-1)^j B_2j B_(2h+2-2j) / ((2j)! (2h+2-2j)!), j = 0 .. h + 1.  The
second line is the derivative in alpha of the identity at alpha = beta,
which alone is only a relation among Bernoulli numbers when h is even.
Even s is Euler's closed form.  Everything runs in binary fixed point: pi
comes from pi_scaled, converted once; q from a private exp(-x); the powers
q^N once for every s; sigma_s(N) = N^s sigma_(-s)(N) from one divisor
sieve; B_0 .. B_(s+1) through bernoulli.  Each value carries an integer
error bound and is rounded once, accepted only when both ends of the bound
round alike (Ziv), so it is the correctly rounded zeta(s) * 10**digits.

Verification route, zeta_alternating: the alternating series
eta(s) = sum (-1)^(k-1) k^(-s) accelerated by Chebyshev-style weights (the
d_k = ((3+sqrt8)^n + (3-sqrt8)^n) / 2 scheme; Borwein, "An efficient
algorithm for the Riemann zeta function", 2000), which converges like
5.83^(-n).  The integer weights, and each weight times 2**bits, are formed
once per k for all s.  It reads neither pi nor a Bernoulli or tangent
number.

zeta_euler_maclaurin, a direct sum to one cutoff N = 4 * work plus the
Euler-Maclaurin tail power_tail_scaled, is kept as the tests' oracle of
the table's integers; nothing in the package calls it.  Its head runs k
once for all s: since floor(floor(a / b) / c) = floor(a / (b c)) for
positive integers, the 10**work scaled k^(-s) of the next s is the previous
quotient divided by k^(s' - s), the same integer a direct division gives.
The tail's correction term j is

    B_2j (s)_(2j-1) / ((2j)! N^(s+2j-1))
        = (-1)^(j-1) T_j C(s+2j-2, s-1) / (4^j (4^j - 1) N^(s+2j-1)),

with T_j the integer tangent numbers (tan x = sum T_j x^(2j-1) / (2j-1)!;
Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers", 2013).  So every term is an integer over an integer, rounded
once onto the 10**work grid, and the stop and BudgetError decisions are
exact integer comparisons.  Successive terms shrink by about
((s + 2j) / (2 pi N))^2; with N = 4 * work the tail reaches 10^(-work) at
tangent index j ~ 0.23 * work (154 at 657 digits), far below the
optimal-truncation point j ~ pi N where the terms start to grow again.
The tail asks for each tangent number as it goes, and the shared cache
grows by one index at a time (tangent_number), so a table at a higher
precision computes only the indices it has not seen.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BudgetError, DomainError, InternalCheckError
from .fixedpoint import GUARD_DIGITS, FixedReal, _div_nearest, pi_scaled

# the Lambert route's guard bits at its first try, and how many tries (each
# doubling the guard) it makes before giving up
LAMBERT_GUARD_BITS = 64
LAMBERT_TRIES = 8
# the cache: [0, T_1, ..., T_j] and the last column [t_1[j], ..., t_j[j]]
_TANGENT: tuple[list[int], list[int]] = ([0], [])


def tangent_number(k: int) -> int:
    """The tangent number T_k (k >= 1), tan x = sum_k T_k x^(2k-1) / (2k-1)!.

    The cache grows to index k by Brent & Harvey's (2013) TangentNumbers,
    run column by column: t_1[j] = (j-1) t_1[j-1] and
    t_i[j] = (j-i) t_i[j-1] + (j-i+2) t_{i-1}[j], with T_j = t_j[j].  With
    the last column kept, T_{j+1} costs j multiply-adds by integers below
    2j, and each index is computed once per process.
    """
    if k < 1:
        raise DomainError("tangent index must be >= 1")
    values, column = _TANGENT
    while len(values) <= k:
        j = len(values)
        entry = (j - 1) * column[0] if column else 1  # t_1[j]
        column.append(0)  # t_j[j-1], which the recurrence multiplies by 0
        column[0] = entry
        for i in range(1, j):  # column[i] holds t_{i+1}
            entry = column[i] = (j - i - 1) * column[i] + (j - i + 1) * entry
        values.append(entry)
    return values[k]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), exact.

    Even indices are a view of the tangent numbers,
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    k = n // 2
    if k == 0:
        return Fraction(1)
    sign = 1 if k % 2 else -1
    return Fraction(sign * 2 * k * tangent_number(k), 4**k * (4**k - 1))


def power_tail_scaled(start: int, s: int, work: int) -> int:
    """sum_{k >= start} k^(-s) as a 10**work scaled integer.

    Euler-Maclaurin with the correction depth chosen from the standard
    remainder bound (|remainder| <= |first omitted term|, doubled for
    safety).  Term j is the exact rational
    (-1)^(j-1) T_j C(s+2j-2, s-1) / (4^j (4^j - 1) start^(s+2j-1)), rounded
    once onto the grid; each is built once, first as the previous step's
    remainder bound, then added.  Raises BudgetError if no depth reaches
    10**(-work) before the asymptotic terms start growing (start too small
    for `work`); zeta_euler_maclaurin's start never is.
    """
    if start < 1 or s < 2:
        raise DomainError("power tail needs start >= 1 and s >= 2")
    scale = 10**work
    # integral + half-term
    total = _div_nearest(scale, (s - 1) * start ** (s - 1))
    total += _div_nearest(scale, 2 * start**s)
    # term j is sign * size / (quarter * power): size = T_j C(s+2j-2, s-1),
    # quarter = 4^j (4^j - 1), power = start^(s+2j-1)
    square = start * start
    j, sign, power = 1, 1, start ** (s + 1)
    size, quarter = tangent_number(1) * s, 12  # T_1 C(s, s-1), 4 (4 - 1)
    top, bottom = scale * size, quarter * power
    while True:
        total += _div_nearest(sign * top, bottom)
        j += 1
        following = tangent_number(j) * math.comb(s + 2 * j - 2, s - 1)
        following_quarter = 4**j * (4**j - 1)
        power *= square
        following_top, following_bottom = scale * following, following_quarter * power
        if 2 * following_top < following_bottom:
            return total
        # |following term| > |term|, the common factor start^(s+2j-3) dropped
        if j > 2 and following * quarter > size * following_quarter * square:
            raise BudgetError(
                f"Euler-Maclaurin tail for s={s} does not reach 10^-{work} "
                f"at cutoff {start}; increase the cutoff"
            )
        sign, size, quarter = -sign, following, following_quarter
        top, bottom = following_top, following_bottom


def _check_arguments(s_values, digits: int) -> list[int]:
    """The distinct arguments in ascending order, each >= 2."""
    s_values = sorted(set(s_values))
    if s_values and s_values[0] < 2:
        raise DomainError("zeta engine handles integer s >= 2 only")
    if digits < 10:
        raise DomainError("ask for at least 10 digits")
    return s_values


def zeta_euler_maclaurin(s_values, digits: int) -> dict[int, FixedReal]:
    """{s: zeta(s)} by one shared direct sum to the cutoff N = 4 * work plus
    an Euler-Maclaurin tail per s.

    The tail never raises BudgetError at this N, for any s >= 2.  Its term
    j has size t_j = |B_2j| (s)_(2j-1) / ((2j)! N^(s+2j-1)), and
    |B_2j| / (2j)! = 2 zeta(2j) / (2 pi)^(2j) with zeta(2j) falling in j,
    so t_(j+1) / t_j < ((s + 2j) / (2 pi N))^2.  The loop tests t_2 first,
    and t_1 = s / (12 N^(s+1)) < 1, as digits >= 10 makes work >= 28.
      - If s >= pi N / 2, then t_2 = s (s+1) (s+2) / (720 N^(s+3)) is below
        N^(-s/2) <= N^(-pi work), far below half a unit.
      - Otherwise the ratio is at most 1/4 for all j <= pi N / 4 = pi work,
        so a term falls below 4^(1 - pi work) < 10^(-work) / 2, and the tail
        stops, before any term can grow: the divergence test cannot fire.
    """
    s_values = _check_arguments(s_values, digits)
    if not s_values:
        return {}
    work = digits + GUARD_DIGITS + 8
    scale = 10**work
    cutoff = 4 * work
    totals = {s: power_tail_scaled(cutoff, s, work) for s in s_values}
    steps = [(s, s - previous) for previous, s in zip([0, *s_values], s_values)]
    for k in range(1, cutoff):
        quotient = scale
        for s, step in steps:
            quotient //= k**step  # = scale // k**s
            totals[s] += quotient
    return {
        s: FixedReal(_div_nearest(total, 10 ** (work - digits)), digits)
        for s, total in totals.items()
    }


def _exp_neg(x: int, bits: int) -> int:
    """exp(-x / 2**bits) * 2**bits for 0 <= x < 8 * 2**bits, floored; off by
    under 1.2 units plus exp(-x / 2**bits) times the error of x, for
    bits >= 30.

    Argument halving plus Taylor.  With r = isqrt(bits) // 2 + 4 halvings,
    y = x / 2^r <= 1/2 is exact on the grid of w = bits + extra bits,
    extra = r + bits.bit_length() + 6 (< bits).  The terms
    t_k = floor(floor(t_(k-1) y) / k) are each off by at most 2 units (by
    induction: 2 y / k + 1 / k + 1 <= 2) and at least halve, so the series
    stops at some t_K = 0 with K <= w + 1; the true term there is below 2
    and bounds the alternating remainder, so the sum is off by at most
    2K + 2.  Each of the r squarings a -> floor(a^2 / 2^w) maps an error e
    to at most 2e + 1 + e^2 / 2^w, so the last is below
    2^r (2K + 4) < 2^(extra - 3) units: an eighth of a unit after the shift
    back to `bits`, which floors once more.
    """
    halvings = math.isqrt(bits) // 2 + 4
    extra = halvings + bits.bit_length() + 6
    work = bits + extra
    one = 1 << work
    total, term, k = one, one, 0
    while term:
        k += 1
        term = (term * x >> (bits + halvings)) // k  # term * y / 2^w
        total += -term if k % 2 else term
    for _ in range(halvings):
        total = total * total >> work
    return total >> extra


def _lambert_scaled(s_values, work: int) -> tuple[dict[int, int], int]:
    """({s: zeta(s) * 2**work, floored terms}, M): the Lambert series summed
    to N = M = work // 9 + 1, each value within 2 s + 8 (M + 2)^2 units.

    Error, in units of 2^-work (q = e^(-2 pi) < 1/500):
      - pi_b = floor(pi_scaled(d) 2^work / 10^d) with 10^d >= 100 2^work is
        off by under 1.01; q_b = _exp_neg(2 pi_b) by under 1.2.
      - p_N = floor(p_(N-1) floor(q_b / 2^t) / 2^(work - t)), with
        t = max(9N - 12, 0): as p_(N-1) < 2^(work - 9.06 (N - 1)) + 2, the
        dropped bits of q_b cost under 2^-2.9 < 0.14, and an error e
        becomes at most q e + 1.2 q^(N-1) + e / 2^work + 1.14 < 2, so every
        p_N is within 2.
      - a term floor(sigma_s(N) p_N / N^s) is within
        2 sigma_(-s)(N) + 1 <= 2 zeta(3) + 1 < 4, and the sum over N <= M
        within 4M.  Past M, since 2 pi log2(e) > 9 makes q^(M+1) 2^work
        <= 1, the tail is below zeta(3) / (1 - q) < 1.22; with the weight N
        (s = 4m + 1, s >= 5) the terms are within 2.08 N + 1 and the tail
        below 1.05 (M + 1), so that sum is within 1.04 M^2 + 3.1 M + 1.05.
      - P_k = floor(P_(k-1) pi_b / 2^work) is within 3 k pi^(k-1) (by
        induction, as pi^(k-1) >= pi > 1 + the product of the errors), so
        floor(c P_s) for the rational c is within s |c pi^s| + 1; |c pi^s|
        is zeta(s) <= 1.65 for even s, and below 1.22 and 1.06 for the
        leading terms of the two odd lines.
      - (4 pi / h) times the weighted sum, as floor(floor(pi_b B / 2^work)
        4 / h), is within 2 pi (1.04 M^2 + 3.1 M + 1.05) + 3.1.
    So s = 4m + 3 is within 1.22 s + 8M + 4, s = 4m + 1 within
    1.06 s + 6.6 M^2 + 28 M + 14, even s within 1.65 s + 1: all within
    2 s + 8 (M + 2)^2.
    """
    one = 1 << work
    decimals = work * 30103 // 100000 + 3  # 10^decimals >= 100 * 2^work
    pi_b = (pi_scaled(decimals) << work) // 10**decimals
    q_b = _exp_neg(2 * pi_b, work)
    cutoff = work // 9 + 1
    odd = [s for s in s_values if s % 2]
    sigma = {s: [0] * (cutoff + 1) for s in odd}  # sigma_s(N), one sieve
    for d in range(1, cutoff + 1):
        for s in odd:
            row, d_power = sigma[s], d**s
            for multiple in range(d, cutoff + 1, d):
                row[multiple] += d_power
    plain, weighted = dict.fromkeys(odd, 0), dict.fromkeys(odd, 0)
    power = one
    for big_n in range(1, cutoff + 1):
        cut = max(9 * big_n - 12, 0)  # q_b's bits below p_(N-1)'s reach
        power = power * (q_b >> cut) >> (work - cut)  # q^N, for every s
        for s in odd:
            top = sigma[s][big_n] * power
            plain[s] += top // big_n**s
            if s % 4 == 1:
                weighted[s] += top // big_n ** (s - 1)
    pi_powers = [one, pi_b]
    while len(pi_powers) <= max(s_values):
        pi_powers.append(pi_powers[-1] * pi_b >> work)
    out = {}
    for s in s_values:
        h = s // 2
        if s % 2 == 0:
            coefficient = (-1) ** (h + 1) * bernoulli(s) * 4**h / (2 * math.factorial(s))
        else:
            c = [(-1) ** j * bernoulli(2 * j) * bernoulli(s + 1 - 2 * j)
                 / (math.factorial(2 * j) * math.factorial(s + 1 - 2 * j))
                 for j in range(h + 2)]
            if h % 2:
                coefficient = -(4**h) * sum(c)
            else:
                coefficient = Fraction(4**h, h) * sum((h + 1 - 2 * j) * cj
                                                      for j, cj in enumerate(c))
        value = coefficient.numerator * pi_powers[s] // coefficient.denominator
        if s % 2:
            value -= 2 * plain[s]
        if s % 4 == 1:
            value -= (pi_b * weighted[s] >> work) * 4 // h
        out[s] = value
    return out, cutoff


def zeta_lambert(s_values, digits: int) -> dict[int, FixedReal]:
    """{s: zeta(s)} from Ramanujan's Lambert series (primary route), each
    the correctly rounded zeta(s) * 10**digits.

    _lambert_scaled gives zeta(s) * 2**work within E = 2 s + 8 (M + 2)^2
    units, work = bits + guard with 2**bits > 10**digits.  A value A is
    accepted when A - E and A + E round to the same multiple of
    10**(-digits): the true value lies between them, and no half-unit does.
    The arguments left undecided are recomputed with the guard doubled,
    starting at LAMBERT_GUARD_BITS, and InternalCheckError ends the route
    after LAMBERT_TRIES tries.  The rounding spans 2 E 10**digits / 2**work
    < 2 E / 2**guard units, so with the first guard of 64 bits and E below
    2^28 (M < 2^12, about 11,000 digits) a value is left undecided with
    probability under 2^-35.
    """
    s_values = _check_arguments(s_values, digits)
    unit = 10**digits
    bits = unit.bit_length()
    out, guard = {}, LAMBERT_GUARD_BITS
    for _ in range(LAMBERT_TRIES):
        pending = [s for s in s_values if s not in out]
        if not pending:
            break
        work = bits + guard
        values, cutoff = _lambert_scaled(pending, work)
        half = 1 << (work - 1)
        for s, value in values.items():
            error = 2 * s + 8 * (cutoff + 2) ** 2
            low = ((value - error) * unit + half) >> work
            if low == ((value + error) * unit + half) >> work:
                out[s] = FixedReal(low, digits)
        guard *= 2
    if len(out) < len(s_values):
        raise InternalCheckError(
            f"zeta_lambert undecided after {LAMBERT_TRIES} tries at {digits} digits"
        )
    return {s: out[s] for s in s_values}


def zeta_alternating(s_values, digits: int) -> dict[int, FixedReal]:
    """{s: zeta(s)} from the accelerated alternating series (verification
    route).

    eta(s) is evaluated with the integer acceleration weights built from the
    recurrence d_k = 6 d_{k-1} - d_{k-2} (values of ((3+sqrt8)^n+(3-sqrt8)^n)/2),
    giving error ~ (3+sqrt8)^(-n); then zeta = eta / (1 - 2^(1-s)).  The
    weights b and c are integers, so each sum is kept as a 2**bits scaled
    integer, 2**bits > 10**(digits + GUARD_DIGITS + 5), and rounded once
    at the end.  Its terms are floored, by the identity
    floor(floor(a / b) / c) = floor(a / (b c)): one quotient
    (c << bits) // (k+1)^s per k, divided by (k+1)^(s' - s) for the next s'.
    Each floor is off by under one unit, so a sum by under n units, and by
    under n / d units of 2**(-bits) after the division by d.
    """
    s_values = _check_arguments(s_values, digits)
    unit = 10**digits
    bits = unit.bit_length() + 4 * (GUARD_DIGITS + 5)
    n = int(bits / math.log2(3 + math.sqrt(8))) + 6
    # d = ((3+sqrt8)^n + (3-sqrt8)^n) / 2 via the linear recurrence
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c = -1, -d
    acc = dict.fromkeys(s_values, 0)
    steps = [(s, s - previous) for previous, s in zip([0, *s_values], s_values)]
    for k in range(n):
        c = b - c
        quotient = c << bits
        for s, step in steps:
            quotient //= (k + 1) ** step  # = c * scale // (k + 1)**s
            acc[s] += quotient
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))  # exact
    # zeta = (acc / d) / (1 - 2^(1-s)), in units of 10**(-digits)
    out = {}
    for s in s_values:
        half = 2 ** (s - 1)
        out[s] = FixedReal(
            _div_nearest(acc[s] * half * unit, d * (half - 1) << bits), digits
        )
    return out


class ZetaTable:
    """Zeta values at one working precision, self-verified on construction.

    Every entry is computed by both routes, zeta_lambert's stored;
    construction fails with InternalCheckError unless they agree to
    10**(-digits+5).
    """

    VERIFY_MARGIN = 5

    def __init__(self, s_values, digits: int):
        self.digits = digits
        primary = zeta_lambert(s_values, digits)
        alt = zeta_alternating(primary, digits)  # primary's keys: the checked arguments
        allowed = 10**self.VERIFY_MARGIN  # in units of 10**(-digits)
        for s in primary:
            if abs(primary[s].scaled - alt[s].scaled) > allowed:
                raise InternalCheckError(
                    f"zeta({s}) methods disagree at {digits} digits"
                )
        self._values: dict[int, FixedReal] = primary

    def __getitem__(self, s: int) -> FixedReal:
        if s not in self._values:
            raise DomainError(f"zeta({s}) not in table")
        return self._values[s]

    def __contains__(self, s: int) -> bool:
        return s in self._values
