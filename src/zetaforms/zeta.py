"""High-precision Riemann zeta values at integer arguments, two ways.

Each route takes all the arguments of a table at once and returns
{s: FixedReal}; ZetaTable runs each route once and cross-checks every
entry.  The two routes share no computed value.

Primary route, zeta_euler_maclaurin: a direct sum to one cutoff for all s,
N = 4 * work (`work` the working digits, proved large enough there), plus
the Euler-Maclaurin tail power_tail_scaled.  The head runs k once for all
s: since floor(floor(a / b) / c) = floor(a / (b c)) for positive integers,
the 10**work scaled k^(-s) of the next s is the previous quotient divided
by k^(s' - s), the same integer a direct division gives.

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

Verification route, zeta_alternating: the alternating series
eta(s) = sum (-1)^(k-1) k^(-s) accelerated by Chebyshev-style weights (the
d_k = ((3+sqrt8)^n + (3-sqrt8)^n) / 2 scheme; Borwein, "An efficient
algorithm for the Riemann zeta function", 2000), which converges like
5.83^(-n).  The integer weights, and each weight times 10**work, are formed
once per k for all s.  It uses no Bernoulli or tangent number.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BudgetError, DomainError, InternalCheckError
from .fixedpoint import GUARD_DIGITS, FixedReal, _div_nearest

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


def zeta_alternating(s_values, digits: int) -> dict[int, FixedReal]:
    """{s: zeta(s)} from the accelerated alternating series (verification
    route).

    eta(s) is evaluated with the integer acceleration weights built from the
    recurrence d_k = 6 d_{k-1} - d_{k-2} (values of ((3+sqrt8)^n+(3-sqrt8)^n)/2),
    giving error ~ (3+sqrt8)^(-n); then zeta = eta / (1 - 2^(1-s)).  The
    weights b and c are integers, so each sum is kept as a 10**work scaled
    integer and rounded once at the end.  Its terms are floored, by the
    head's identity floor(floor(a / b) / c) = floor(a / (b c)): one quotient
    c 10**work // (k+1)^s per k, divided by (k+1)^(s' - s) for the next s'.
    Each floor is off by under one unit, so a sum by under n units, and by
    under n / d units of 10**(-work) after the division by d.
    """
    s_values = _check_arguments(s_values, digits)
    work = digits + GUARD_DIGITS + 5
    scale = 10**work
    n = int(work / math.log10(3 + math.sqrt(8))) + 6
    # d = ((3+sqrt8)^n + (3-sqrt8)^n) / 2 via the linear recurrence
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c = -1, -d
    acc = dict.fromkeys(s_values, 0)
    steps = [(s, s - previous) for previous, s in zip([0, *s_values], s_values)]
    for k in range(n):
        c = b - c
        quotient = c * scale
        for s, step in steps:
            quotient //= (k + 1) ** step  # = c * scale // (k + 1)**s
            acc[s] += quotient
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))  # exact
    # zeta = (acc / d) / (1 - 2^(1-s)), in units of 10**(-digits)
    out = {}
    for s in s_values:
        half = 2 ** (s - 1)
        out[s] = FixedReal(
            _div_nearest(acc[s] * half, d * (half - 1) * 10 ** (work - digits)),
            digits,
        )
    return out


class ZetaTable:
    """Zeta values at one working precision, self-verified on construction.

    Every entry is computed by both routes; construction fails with
    InternalCheckError unless they agree to 10**(-digits+5).
    """

    VERIFY_MARGIN = 5

    def __init__(self, s_values, digits: int):
        self.digits = digits
        em = zeta_euler_maclaurin(s_values, digits)
        alt = zeta_alternating(em, digits)  # em's keys: the checked arguments
        allowed = 10**self.VERIFY_MARGIN  # in units of 10**(-digits)
        for s in em:
            if abs(em[s].scaled - alt[s].scaled) > allowed:
                raise InternalCheckError(
                    f"zeta({s}) methods disagree at {digits} digits"
                )
        self._values: dict[int, FixedReal] = em

    def __getitem__(self, s: int) -> FixedReal:
        if s not in self._values:
            raise DomainError(f"zeta({s}) not in table")
        return self._values[s]

    def __contains__(self, s: int) -> bool:
        return s in self._values
