"""High-precision Riemann zeta values at integer arguments, two ways.

Primary method: Euler-Maclaurin with exact Bernoulli-number corrections.
For integer s every term is rational, so the only rounding happens when the
accumulated value is projected onto the fixed-point grid (one floor per
term, absorbed by guard digits).  The direct sum runs to the cutoff
N = max(16, 4 * work), proportional to the working digits `work`.  The j-th
correction term is about 2 (s)_(2j-1) / ((2 pi)^(2j) N^(s+2j-1)), so
successive terms shrink by about (j / (pi N))^2 and, with N = 4 * work, the
tail reaches 10^(-work) on the first try at Bernoulli index 2j ~ 0.46 * work
(150 at 314 digits, 308 at 657).  That is far below the optimal-truncation
point 2j ~ 2 pi N, where the terms start to grow again.

Bernoulli numbers come from the integer tangent numbers (Brent & Harvey,
"Fast computation of Bernoulli, Tangent and Secant numbers", 2013):
O(k^2) multiply-adds by small integers, and one exact division per B_2k.

Verification method: the alternating series eta(s) = sum (-1)^(k-1) k^(-s)
accelerated by Chebyshev-style weights (the d_k = coefficients derived from
(3+sqrt 8)^n scheme; Borwein, "An efficient algorithm for the Riemann zeta
function", 2000), which converges like 5.83^(-n).  It accumulates in scaled
integers and uses no Bernoulli numbers, so it shares nothing with the
Euler-Maclaurin route.

ZetaTable bundles values at one precision and refuses to exist unless the
two methods agree entry by entry.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BudgetError, DomainError, InternalCheckError
from .fixedpoint import GUARD_DIGITS, FixedReal, _div_nearest

_BERNOULLI_EVEN: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n] with tan x = sum_k T_k x^(2k-1) / (2k-1)!.

    Brent & Harvey (2013), algorithm TangentNumbers: about n^2 / 2
    multiply-adds by integers below 2n, and no division.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), exact.

    Even indices come from tangent numbers,
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  A refill of the cache at
    least doubles it, so a caller stepping up through the indices pays
    O(n^2) integer steps in all.
    """
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    k = n // 2
    cached = len(_BERNOULLI_EVEN) - 1
    if k > cached:
        top = max(k, 2 * cached)
        t = _tangent_numbers(top)
        for i in range(cached + 1, top + 1):
            sign = 1 if i % 2 else -1
            _BERNOULLI_EVEN.append(Fraction(sign * 2 * i * t[i], 4**i * (4**i - 1)))
    return _BERNOULLI_EVEN[k]


def power_tail_scaled(start: int, s: int, work: int) -> int:
    """sum_{k >= start} k^(-s) as a 10**work scaled integer.

    Euler-Maclaurin with the correction depth chosen from the standard
    remainder bound (|remainder| <= |first omitted term|, doubled for
    safety).  Successive terms shrink by about (j / (pi start))^2: from
    start = 4 * work (the cutoff of zeta_euler_maclaurin) the bound drops
    below 10**(-work) at Bernoulli index about 0.46 * work.  Raises
    BudgetError if no depth reaches 10**(-work) before the asymptotic terms
    start growing (start too small for `work`); callers retry with a larger
    `start`.
    """
    if start < 1 or s < 2:
        raise DomainError("power tail needs start >= 1 and s >= 2")
    scale = 10**work
    n = start
    # integral + half-term
    total = _div_nearest(scale, (s - 1) * n ** (s - 1))
    total += _div_nearest(scale, 2 * n**s)
    # term j is B_2j / (2j)! * (s)_{2j-1} / n^(s+2j-1); each is built once,
    # first as the previous step's remainder bound, then added
    poch = s  # (s)_{2j-1} built incrementally
    j = 1
    term = bernoulli(2) / 2 * poch / n ** (s + 1)
    while True:
        total += _div_nearest(scale * term.numerator, term.denominator)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        j += 1
        following = bernoulli(2 * j) / math.factorial(2 * j) * poch
        following /= n ** (s + 2 * j - 1)
        if 2 * abs(following) * scale < 1:
            return total
        if j > 2 and abs(following) > abs(term):
            raise BudgetError(
                f"Euler-Maclaurin tail for s={s} does not reach 10^-{work} "
                f"at cutoff {start}; increase the cutoff"
            )
        term = following


def zeta_euler_maclaurin(s: int, digits: int) -> FixedReal:
    """zeta(s) by direct summation to a cutoff plus Euler-Maclaurin tail."""
    if s < 2:
        raise DomainError("zeta engine handles integer s >= 2 only")
    if digits < 10:
        raise DomainError("ask for at least 10 digits")
    work = digits + GUARD_DIGITS + 8
    scale = 10**work
    cutoff = max(16, 4 * work)  # the tail converges on the first try
    while True:
        try:
            tail = power_tail_scaled(cutoff, s, work)
            break
        except BudgetError:
            cutoff *= 2
            if cutoff > 10**7:
                raise
    total = sum(scale // k**s for k in range(1, cutoff)) + tail
    return FixedReal(_div_nearest(total, 10 ** (work - digits)), digits)


def zeta_alternating(s: int, digits: int) -> FixedReal:
    """zeta(s) from the accelerated alternating series (verification route).

    eta(s) is evaluated with the integer acceleration weights built from the
    recurrence d_k = 6 d_{k-1} - d_{k-2} (values of ((3+sqrt8)^n+(3-sqrt8)^n)/2),
    giving error ~ (3+sqrt8)^(-n); then zeta = eta / (1 - 2^(1-s)).  The
    weights b and c are integers, so the sum is kept as a 10**work scaled
    integer (one rounding per term, below 10**(-work) after the division
    by d) and rounded once more at the end.
    """
    if s < 2:
        raise DomainError("zeta engine handles integer s >= 2 only")
    work = digits + GUARD_DIGITS + 5
    scale = 10**work
    n = int(work / math.log10(3 + math.sqrt(8))) + 6
    # d = ((3+sqrt8)^n + (3-sqrt8)^n) / 2 via the linear recurrence
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, acc = -1, -d, 0
    for k in range(n):
        c = b - c
        acc += _div_nearest(c * scale, (k + 1) ** s)
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))  # exact
    # zeta = (acc / d) / (1 - 2^(1-s)), in units of 10**(-digits)
    half = 2 ** (s - 1)
    return FixedReal(
        _div_nearest(acc * half, d * (half - 1) * 10 ** (work - digits)), digits
    )


class ZetaTable:
    """Zeta values at one working precision, self-verified on construction.

    Every entry is computed by both internal methods; construction fails
    with InternalCheckError unless they agree to 10**(-digits+5).
    """

    VERIFY_MARGIN = 5

    def __init__(self, s_values, digits: int):
        if digits < 10:
            raise DomainError("table precision must be >= 10 digits")
        self.digits = digits
        self._values: dict[int, FixedReal] = {}
        allowed = 10**self.VERIFY_MARGIN  # in units of 10**(-digits)
        for s in sorted(set(s_values)):
            em = zeta_euler_maclaurin(s, digits)
            alt = zeta_alternating(s, digits)
            if abs(em.scaled - alt.scaled) > allowed:
                raise InternalCheckError(
                    f"zeta({s}) methods disagree at {digits} digits"
                )
            self._values[s] = em

    def __getitem__(self, s: int) -> FixedReal:
        if s not in self._values:
            raise DomainError(f"zeta({s}) not in table")
        return self._values[s]

    def __contains__(self, s: int) -> bool:
        return s in self._values
