import pytest

from zetaforms.forms import second_derivative, zudilin_pipeline
from zetaforms.zeta import ZetaTable


class Pipeline:
    def __init__(self, n):
        self.n = n
        self.factored, self.expansion, self.form = zudilin_pipeline(n)
        self.differentiated = second_derivative(self.expansion)


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
