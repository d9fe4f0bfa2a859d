"""Fixed-point decimal reals on top of Python integers.

A FixedReal stores value = scaled / 10**digits.  Every public constructor
and function here works internally at digits + GUARD_DIGITS (or more) and
rounds once at the end, so results carry an absolute error below
2 * 10**(-digits).  That conservative "2 ulp" contract is what the rest of
the package relies on; callers that need headroom simply ask for more
digits.

Constants (pi, sqrt(2), e) are computed from scratch on integers:

  - pi via the Gauss-Legendre arithmetic-geometric mean,
  - e via sum 1/k!,
  - square roots via math.isqrt on the scaled radicand.

cos reduces the argument modulo pi with a working precision widened by
the size of the quotient, so large arguments (subsequence verification
feeds in k*omega with k up to ~10^6) lose no accuracy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BudgetError, DomainError

GUARD_DIGITS = 10
# cos_pi_argument needs pi at the full working precision: about 0.012 s the
# first time at 4000 digits (Python 3.11, 2 vCPUs), against 0.3 s at 20000;
# with pi cached a call at 4000 digits takes about 3 ms, since the Taylor
# series runs at digits + GUARD_DIGITS.  At 60 digits the cap admits
# |x| < ~10^3900.
MAX_COS_WORK_DIGITS = 4000
# Written digits plus |decimal exponent| of a literal (Fraction("1e-99999999")
# alone runs past 20 s); at the cap a `subseq` or `density` run takes about
# 0.15 s (2 vCPUs, Python 3.11).
MAX_LITERAL_DIGITS = 20_000


def _div_nearest(a: int, b: int) -> int:
    """Round a/b to the nearest integer, ties away from zero; b > 0."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


class SlottedValue:
    """Base of the value types that check their fields in __init__: each
    lists its fields in __slots__ and sets them once.  Instances are
    treated as immutable, and compare, hash and print by field values."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}{self._fields()!r}"


class FixedReal(SlottedValue):
    """Fixed-point decimal, treated as immutable: value = scaled / 10**digits."""

    __slots__ = ("scaled", "digits")

    def __init__(self, scaled: int, digits: int):
        if digits < 1:
            raise DomainError("FixedReal needs at least one digit")
        self.scaled, self.digits = scaled, digits

    # -- views ---------------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self.scaled, 10**self.digits)

    def to_decimal(self) -> str:
        """Canonical decimal string with exactly `digits` fractional digits."""
        sign = "-" if self.scaled < 0 else ""
        mag = abs(self.scaled)
        unit = 10**self.digits
        return f"{sign}{mag // unit}.{mag % unit:0{self.digits}d}"

    def rescale(self, digits: int) -> "FixedReal":
        if digits == self.digits:
            return self
        if digits > self.digits:
            return FixedReal(self.scaled * 10 ** (digits - self.digits), digits)
        return FixedReal(
            _div_nearest(self.scaled, 10 ** (self.digits - digits)), digits
        )

    def __abs__(self) -> "FixedReal":
        return FixedReal(abs(self.scaled), self.digits)


def decimal_to_fraction(text: str) -> Fraction:
    """Exact rational value of a decimal or p/q literal; DomainError for a
    malformed literal or a zero denominator, BudgetError (before any
    conversion) for one past MAX_LITERAL_DIGITS."""
    text = text.strip()
    head, _, power = text.lower().partition("e")
    # an exponent of six digits or more is past the cap whatever follows
    power = power.lstrip("+-").replace("_", "").lstrip("0")[:6]
    size = sum(c.isdigit() for c in head) + (int(power) if power.isdecimal() else 0)
    if size > MAX_LITERAL_DIGITS:
        raise BudgetError(f"numeric literal past {MAX_LITERAL_DIGITS} written "
                          "digits plus decimal exponent")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)  # Fraction parses decimal strings exactly
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"malformed rational literal {text!r}") from None


# -- pi ---------------------------------------------------------------

_PI_CACHE: dict = {"work": 0, "scaled": 0}  # pi * 10**work, unrounded


def pi_scaled(digits: int) -> int:
    """pi * 10**digits rounded to nearest (error < 1 ulp).

    Gauss-Legendre AGM (Salamin 1976; Brent 1976) on integers scaled by
    10**work, work = digits + GUARD_DIGITS + 5.  From a, b, t, p = 1,
    1/sqrt 2, 1/4, 1, each pass takes a' = (a + b)/2, b' = sqrt(ab),
    t -= p (a - a')^2 and p *= 2, until a = b; then pi = a^2/t.  The
    convergence is quadratic: k <= log2(work) + 3 passes.

    Error: each pass floors a, b and p (a - a')^2, one grid unit each.
    The errors of a and b stay near k + 1 units; they reach t through
    2 p (a - a') / 10**work, which shrinks every pass, and pi through
    2 pi / a < 8, while t's error reaches pi times pi / t < 14.  So the
    raw value is off by under 50 k units, below 10^3 for work <= 10^5
    (170 at most, measured to work 20,000): twelve digits inside the
    guard.  The cache holds the raw value at its work; every call
    rounds it once.
    """
    if _PI_CACHE["work"] < digits + GUARD_DIGITS + 5:
        work = digits + GUARD_DIGITS + 5
        scale = 10**work
        a, b, t, p = scale, math.isqrt(scale * scale // 2), scale // 4, 1
        while a != b:
            mean = (a + b) // 2
            t -= p * (a - mean) ** 2 // scale
            a, b, p = mean, math.isqrt(a * b), 2 * p
        _PI_CACHE["work"], _PI_CACHE["scaled"] = work, a * a // t
    return _div_nearest(_PI_CACHE["scaled"], 10 ** (_PI_CACHE["work"] - digits))


def pi_fixed(digits: int) -> FixedReal:
    return FixedReal(pi_scaled(digits), digits)


def inv_pi_fraction(digits: int) -> Fraction:
    """1/pi as an exact rational with error below 10**(-digits)."""
    work = digits + GUARD_DIGITS
    return Fraction(10**work * 10**work // pi_scaled(work), 10**work)


# -- other constants --------------------------------------------------

def sqrt_fixed(x: Fraction, digits: int) -> FixedReal:
    """Floor square root of a nonnegative rational at `digits` digits."""
    x = Fraction(x)
    if x < 0:
        raise DomainError("square root of a negative rational")
    scaled = math.isqrt(x.numerator * 10 ** (2 * digits) // x.denominator)
    return FixedReal(scaled, digits)


def e_fixed(digits: int) -> FixedReal:
    work = digits + GUARD_DIGITS
    scale = 10**work
    total = 0
    term = scale  # 1/0!
    k = 0
    while term:
        total += term
        k += 1
        term //= k
    return FixedReal(_div_nearest(total, 10**GUARD_DIGITS), digits)


# -- trigonometry ------------------------------------------------------

def _cos_core(u: int, work: int) -> int:
    """cos(u/10**work) * 10**work for 0 <= u <= ~pi/2, Taylor series."""
    scale = 10**work
    total = scale
    term = scale
    k = 0
    while term:
        k += 1
        term = term * u // scale
        term = term * u // (scale * (2 * k - 1) * (2 * k))
        total += term if k % 2 == 0 else -term
    return total


def cos_pi_argument(pi_part: Fraction, addend: Fraction, digits: int) -> FixedReal:
    """cos(pi_part * pi + addend) at `digits` digits.

    The pi multiple is reduced modulo 2 exactly in the rationals before any
    rounding, so huge pi_part values (k*omega for k ~ 10^6) cost nothing in
    accuracy.  The residual real argument is then reduced modulo pi at a
    working precision widened by the quotient size, and the Taylor series
    runs on the reduced argument at digits + GUARD_DIGITS.
    """
    pi_part = Fraction(pi_part) % 2  # cos is 2pi-periodic; exact reduction
    addend = Fraction(addend)

    # widen the working precision by the digits of the |x|/pi quotient
    whole = math.floor(abs(addend) + Fraction(16, 5) * pi_part + 1)
    work = digits + GUARD_DIGITS + math.ceil(whole.bit_length() * math.log10(2)) + 3
    if work > MAX_COS_WORK_DIGITS:
        raise BudgetError(
            f"cos argument needs {work} working digits, above the cap "
            f"{MAX_COS_WORK_DIGITS}"
        )

    pw = pi_scaled(work)
    scale = 10**work
    x = _div_nearest(pi_part.numerator * pw, pi_part.denominator)
    x += _div_nearest(addend.numerator * scale, addend.denominator)

    # reduce modulo pi: x = q*pi + r with 0 <= r < pi, cos flips sign per q
    q, r = divmod(x, pw)
    sign = -1 if q % 2 else 1
    half = pw // 2
    if r > half:
        r = pw - r
        sign = -sign
    # the reduced argument is below pi/2, so the series needs only guard digits
    core = digits + GUARD_DIGITS
    val = sign * _cos_core(_div_nearest(r, 10 ** (work - core)), core)
    return FixedReal(_div_nearest(val, 10**GUARD_DIGITS), digits)
