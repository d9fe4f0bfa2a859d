"""Exact rational building blocks: harmonic power sums, logarithms of huge
rationals and the p/q and decimal text of the JSON output (factorials and
least common multiples are `math.factorial` and `math.lcm`).

Rationals are `fractions.Fraction` throughout (always stored reduced, exact,
unbounded).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def harmonic_power_sum(m: int, s: int) -> Fraction:
    """Partial sum 1 + 1/2^s + ... + 1/m^s; zero for m = 0.

    This is the exact tail correction in sum_{k>=1} (k+m)^(-s)
    = zeta(s) - harmonic_power_sum(m, s).  `forms.sum_over_k` never forms
    it: it keeps its numerator over lcm(1..max m)^s as an integer in one
    walk up the poles; this one-term sum is its oracle.
    """
    if m < 0:
        raise DomainError(f"harmonic_power_sum needs m >= 0, got {m}")
    if s < 2:
        raise DomainError(f"harmonic_power_sum needs s >= 2, got {s}")
    return sum((Fraction(1, l**s) for l in range(1, m + 1)), Fraction(0))


def fraction_str(x: Fraction) -> str:
    """p/q, or p alone for an integer: the exact rational text of the JSON
    output."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction, places: int) -> str:
    """x with `places` decimals, as the JSON prints an inexact number: the
    text of float(x), and past the double range, where float() overflows,
    x itself rounded half to even at `places` decimals."""
    x = Fraction(x)
    try:
        return f"{float(x):.{places}f}"
    except OverflowError:
        scaled = round(x * 10**places)
        whole, part = divmod(abs(scaled), 10**places)
        return f"{'-' if scaled < 0 else ''}{whole}.{part:0{places}d}"


def log2_fraction(x: Fraction) -> float:
    """log2 |x| for a nonzero rational of arbitrary size."""
    if x == 0:
        raise DomainError("log2 of zero")
    num, den = abs(x.numerator), x.denominator
    # bit_length keeps this exact-ish for numbers far beyond float range
    nb, db = num.bit_length(), den.bit_length()
    shift_n = max(0, nb - 64)
    shift_d = max(0, db - 64)
    return (
        math.log2(num >> shift_n) + shift_n - math.log2(den >> shift_d) - shift_d
    )


def log10_fraction(x: Fraction) -> float:
    return log2_fraction(x) * math.log10(2.0)
