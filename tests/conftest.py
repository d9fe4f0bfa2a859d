import pytest

from zetaforms.forms import (
    build_zudilin,
    check_zudilin_vanishing,
    partial_fractions,
    second_derivative,
    sum_over_k,
)
from zetaforms.zeta import ZetaTable


class Pipeline:
    def __init__(self, n):
        self.n = n
        self.factored = build_zudilin(n)
        self.expansion = partial_fractions(self.factored)
        self.differentiated = second_derivative(self.expansion)
        self.form = sum_over_k(self.differentiated, n)
        check_zudilin_vanishing(self.form)


@pytest.fixture(scope="session")
def pipeline1():
    return Pipeline(1)


@pytest.fixture(scope="session")
def pipeline2():
    return Pipeline(2)


@pytest.fixture(scope="session")
def table400():
    return ZetaTable([5, 7, 9, 11], 400)


@pytest.fixture(scope="session")
def table200():
    return ZetaTable(range(2, 13), 200)
