from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforms.exact import decimal_str, harmonic_power_sum, log2_fraction

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=50
)


def test_harmonic_trivia():
    assert harmonic_power_sum(0, 5) == 0
    assert harmonic_power_sum(3, 2) == Fraction(49, 36)


def test_harmonic_54_12_reverse_order_oracle():
    # independent oracle: summation in the opposite order
    expected = Fraction(0)
    for l in range(54, 0, -1):
        expected += Fraction(1, l**12)
    assert harmonic_power_sum(54, 12) == expected


@settings(max_examples=80, deadline=None)
@given(rationals, rationals)
def test_rational_add_mul_roundtrip(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


def test_log2_fraction_huge():
    x = Fraction(10**500, 3)
    assert abs(log2_fraction(x) - (500 * 3.321928094887362 - 1.584962500721156)) < 1e-6


def test_decimal_str_keeps_the_float_text_and_rounds_past_it():
    for x in (Fraction(1, 3), Fraction(-22, 7), Fraction(10**300, 7), Fraction(0)):
        assert decimal_str(x, 18) == f"{float(x):.18f}"
    big = Fraction(10**400)
    assert decimal_str(big + Fraction(1, 3), 2) == "1" + "0" * 400 + ".33"
    assert decimal_str(-big - Fraction(2, 3), 2) == "-1" + "0" * 400 + ".67"
    assert decimal_str(big + Fraction(5, 1000), 2) == "1" + "0" * 400 + ".00"  # half even
