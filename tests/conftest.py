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
def pipelines(pipeline1, pipeline2):
    """n -> the Pipeline of index n, each built once per session."""
    built = {1: pipeline1, 2: pipeline2}

    def pipeline(n):
        if n not in built:
            built[n] = Pipeline(n)
        return built[n]

    return pipeline


@pytest.fixture(scope="session")
def table400():
    return ZetaTable([5, 7, 9, 11], 400)


@pytest.fixture(scope="session")
def table200():
    return ZetaTable(range(2, 13), 200)
