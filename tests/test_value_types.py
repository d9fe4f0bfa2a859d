"""The value types: ten plain records are NamedTuples, and the four that
check their fields (RisingBlock, FixedReal, TorusBox, GrowthData) are
slotted classes that keep their error messages and compare by value."""

import re
from fractions import Fraction

import pytest

from zetaforms.criterion import GrowthData
from zetaforms.errors import DomainError
from zetaforms.fixedpoint import FixedReal
from zetaforms.forms import RisingBlock, build_zudilin
from zetaforms.oscillation import Angle, AnglePair, TorusBox, build_plan_general


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: RisingBlock(0, 2, 1.0),
         "rising blocks take integer parameters (integer poles only), got 1.0"),
        (lambda: RisingBlock(0, 0, 1), "rising block needs positive length and power"),
        (lambda: RisingBlock(0, 2, -1), "rising block needs positive length and power"),
        (lambda: FixedReal(7, 0), "FixedReal needs at least one digit"),
        (lambda: TorusBox((Fraction(0),), Fraction(1, 2)),
         "box half-width must lie in (0, 1/2)"),
        (lambda: TorusBox((Fraction(0),), Fraction(0)),
         "box half-width must lie in (0, 1/2)"),
        (lambda: GrowthData(0.5, 1.0),
         "need 0 < alpha < 1 < beta (log alpha = 0.5, log beta = 1.0)"),
        (lambda: GrowthData(-1.0, float("inf")),
         "need 0 < alpha < 1 < beta (log alpha = -1.0, log beta = inf)"),
    ],
)
def test_checked_types_reject_bad_input(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


def test_checked_types_compare_and_hash_by_value():
    assert RisingBlock(1, 2, 3) == RisingBlock(shift=1, length=2, power=3)
    assert RisingBlock(1, 2, 3) != RisingBlock(1, 2, 4)
    assert len({FixedReal(5, 1), FixedReal(5, 1), FixedReal(50, 2)}) == 2
    assert GrowthData(-1.0, 2.0) == GrowthData(-1.0, 2.0)
    assert repr(TorusBox((Fraction(0),), Fraction(1, 4))) == (
        "TorusBox((Fraction(0, 1),), Fraction(1, 4))"
    )
    # records that hold them compare by value too
    assert build_zudilin(2) == build_zudilin(2)
    assert hash(build_zudilin(1)) == hash(build_zudilin(1))
    pair = AnglePair(Angle(addend=Fraction(1)), Angle())
    assert build_plan_general([pair]) == build_plan_general([pair])


def test_records_are_tuples():
    angle = Angle(Fraction(1, 3), Fraction(2))
    assert tuple(angle) == (Fraction(1, 3), Fraction(2))
    assert angle + angle == Angle(Fraction(2, 3), Fraction(4))  # not concatenation
    with pytest.raises(AttributeError):
        angle.addend = Fraction(0)
