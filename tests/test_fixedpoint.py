"""Fixed-point engine checked against mpmath, and pi against Machin's
formula, as independent oracles."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from zetaforms import fixedpoint
from zetaforms.errors import BudgetError, DomainError
from zetaforms.exact import log10_fraction
from zetaforms.fixedpoint import (
    MAX_COS_WORK_DIGITS,
    FixedReal,
    cos_pi_argument,
    decimal_to_fraction,
    e_fixed,
    pi_fixed,
    pi_scaled,
    sqrt_fixed,
)


def mp_fraction(value, dps):
    with mp.workdps(dps):
        return Fraction(mp.nstr(value, dps, strip_zeros=False).replace("e", "E"))


def test_pi_against_mpmath():
    with mp.workdps(170):
        want = Fraction(mp.nstr(+mp.pi, 165, strip_zeros=False))
    assert abs(pi_fixed(150).to_fraction() - want) < Fraction(1, 10**148)


def atan_inv_scaled(x: int, work: int) -> int:
    """atan(1/x) * 10**work by its Taylor series, one floor per term."""
    scale = 10**work
    total, power, k, sign = 0, x, 0, 1
    while scale // power:
        total += sign * (scale // (power * (2 * k + 1)))
        power *= x * x
        k, sign = k + 1, -sign
    return total


def machin_pi_scaled(work: int) -> int:
    """pi * 10**work = 16 atan(1/5) - 4 atan(1/239), within a few units."""
    return 16 * atan_inv_scaled(5, work) - 4 * atan_inv_scaled(239, work)


def test_pi_scaled_against_machin(monkeypatch):
    # every d to 300, every 13th to 4,100, and 755-775 around the six 9s
    # at decimals 762-767.  Machin's pi at 4,140 digits is off by under
    # 10^5 units, so rounding it once to d is exact unless the 35 digits
    # past d sit at a half.
    ds = sorted({*range(1, 301), *range(1, 4101, 13), *range(755, 776), 4100})
    work = 4140
    raw = machin_pi_scaled(work)
    want = {d: fixedpoint._div_nearest(raw, 10 ** (work - d)) for d in ds}
    assert str(want[767]).endswith("5000000")  # the 9s carry into decimal 761
    # a cold cache, then ascending d: every call computes pi afresh
    monkeypatch.setattr(fixedpoint, "_PI_CACHE", dict.fromkeys(fixedpoint._PI_CACHE, 0))
    assert all(pi_scaled(d) == want[d] for d in ds)
    # the 4,100-digit cache now serves every d
    assert all(pi_scaled(d) == want[d] for d in ds)


def test_sqrt2_and_e_against_mpmath():
    with mp.workdps(130):
        s2 = Fraction(mp.nstr(mp.sqrt(2), 125, strip_zeros=False))
        ee = Fraction(mp.nstr(+mp.e, 125, strip_zeros=False))
    assert abs(sqrt_fixed(Fraction(2), 110).to_fraction() - s2) < Fraction(1, 10**108)
    assert abs(e_fixed(110).to_fraction() - ee) < Fraction(1, 10**108)


@pytest.mark.parametrize(
    "pi_part,addend",
    [
        (Fraction(0), Fraction(3)),
        (Fraction(1, 3), Fraction(0)),
        (Fraction(-7, 2), Fraction(1, 7)),
        (Fraction(0), Fraction(-123456789, 100)),
        (Fraction(987654321, 7), Fraction(12345, 13)),
    ],
)
def test_cos_against_mpmath(pi_part, addend):
    got = cos_pi_argument(pi_part, addend, 60)
    with mp.workdps(120):
        arg = mp.pi * pi_part.numerator / pi_part.denominator
        arg += mp.mpf(addend.numerator) / addend.denominator
        want = Fraction(mp.nstr(mp.cos(arg), 80, strip_zeros=False))
    assert abs(got.to_fraction() - want) < Fraction(1, 10**55)


@pytest.mark.parametrize("exponent", [300, 307, 308, 309, 320, 400, 1000])
def test_cos_beyond_float_range_against_mpmath(exponent):
    # the working digits come from the bit length of the integer part, on
    # both sides of where 10^e overflows a double
    got = cos_pi_argument(Fraction(0), Fraction(10**exponent), 30)
    with mp.workdps(exponent + 60):
        want = Fraction(mp.nstr(mp.cos(mp.mpf(10) ** exponent), 50, strip_zeros=False))
    assert abs(got.to_fraction() - want) < Fraction(2, 10**30)


def test_cos_working_digit_cap():
    with pytest.raises(BudgetError):
        cos_pi_argument(Fraction(0), Fraction(10**MAX_COS_WORK_DIGITS), 30)


def test_sin_pi_multiple():
    # sin(pi x) = cos(pi (x - 1/2)), as oscillation._arc_floor reads it
    def sin_pi(x):
        return cos_pi_argument(x - Fraction(1, 2), 0, 40).to_fraction()

    assert abs(sin_pi(Fraction(1, 2)) - 1) < Fraction(1, 10**38)
    assert abs(sin_pi(Fraction(1, 6)) - Fraction(1, 2)) < Fraction(1, 10**38)


def test_fixedreal_formatting_and_rescale():
    x = FixedReal(-314159292035398230088, 20)  # -355/113, rounded
    assert x.to_decimal() == "-3.14159292035398230088"
    up = x.rescale(25)
    assert up.to_fraction() == x.to_fraction()
    down = x.rescale(5)
    assert abs(down.to_fraction() - x.to_fraction()) <= Fraction(1, 2 * 10**5)
    assert FixedReal(70000, 4).to_decimal() == "7.0000"


def test_decimal_to_fraction():
    assert decimal_to_fraction("0.25") == Fraction(1, 4)
    assert decimal_to_fraction("-3/7") == Fraction(-3, 7)
    assert decimal_to_fraction(" 2 ") == 2
    for bad in ("1/0", "0/0", "abc", "1/x", "", "1.5/2"):
        with pytest.raises(DomainError):
            decimal_to_fraction(bad)


def test_log10_abs():
    # log10 |value| of a FixedReal is log10_fraction of its exact value
    x = FixedReal(10**10, 60)  # 10^-50
    assert abs(log10_fraction(x.to_fraction()) + 50) < 1e-9
    y = FixedReal(-(3 * 10**700), 1000)  # -3 * 10^-300
    assert abs(log10_fraction(y.to_fraction()) - (math.log10(3) - 300)) < 1e-9
