import json
import math
import random

import pytest

from zetaforms import cli
from zetaforms.criterion import (
    GrowthData,
    dimension_bound,
    exponent_threshold,
    oscillating_report,
    zudilin_constants,
)
from zetaforms.errors import DomainError
from zetaforms.oscillation import AnglePair, parse_angle


def pair(omega, phi):
    return AnglePair(parse_angle(omega), parse_angle(phi))


def test_growth_data_validation():
    with pytest.raises(DomainError):
        GrowthData.from_alpha_beta(1.5, 2.0)
    with pytest.raises(DomainError):
        GrowthData.from_alpha_beta(0.5, 0.9)
    with pytest.raises(DomainError):
        GrowthData.from_constants(1.0, 2.0, 10)  # c0 must exceed c1


def test_dimension_bound_examples():
    g = GrowthData.from_alpha_beta(1 / math.e, math.e)
    assert dimension_bound(g) == pytest.approx(2.0, abs=1e-12)
    g = zudilin_constants()
    assert dimension_bound(g) == pytest.approx(1.002287, abs=2e-6)
    assert math.ceil(dimension_bound(g)) == 2


def test_dimension_bound_monotone_limits():
    beta = 3.0
    bounds = [
        dimension_bound(GrowthData.from_alpha_beta(a, beta))
        for a in (0.9999, 0.5, 1e-6)
    ]
    assert bounds[0] < bounds[1] < bounds[2]
    assert bounds[0] == pytest.approx(1.0, abs=1e-3)


def test_exponent_threshold_examples():
    g = zudilin_constants()
    assert exponent_threshold(g) == pytest.approx(438.22134, abs=1e-3)
    # published statement rounds the threshold up at two decimals
    assert math.ceil(exponent_threshold(g) * 100) / 100 == 438.23
    e_case = GrowthData.from_alpha_beta(math.exp(-1), math.e)
    assert exponent_threshold(e_case) == pytest.approx(2.0, abs=1e-12)


def test_exponent_threshold_monotone_in_alpha():
    beta = 2.0
    ts = [
        exponent_threshold(GrowthData.from_alpha_beta(a, beta)) for a in (0.2, 0.5, 0.9)
    ]
    assert ts[0] < ts[1] < ts[2]


def test_zudilin_constants_identity():
    g = zudilin_constants()
    assert 3 * (27 + 37 + 27) + sum(13 + 2 * j for j in range(1, 11)) == 513
    assert g.log_alpha == pytest.approx(226.24944266 - 227.58019641)
    assert g.log_beta == pytest.approx(226.24944266 + 513 * math.log(2))
    assert 0 < math.exp(g.log_alpha) < 1


def test_lambda_invariance():
    rng = random.Random(11)
    for _ in range(100):
        lam = rng.uniform(1, 10)
        alpha, beta = rng.uniform(0.01, 0.99), rng.uniform(1.01, 40)
        g1 = GrowthData.from_alpha_beta(alpha, beta)
        g2 = GrowthData.from_alpha_beta(alpha**lam, beta**lam)
        assert abs(dimension_bound(g1) - dimension_bound(g2)) <= 1e-12 * abs(
            dimension_bound(g1)
        )
        assert abs(exponent_threshold(g1) - exponent_threshold(g2)) <= 1e-12 * abs(
            exponent_threshold(g1)
        )


def test_bound_consistency_product():
    rng = random.Random(3)
    for _ in range(50):
        g = GrowthData.from_alpha_beta(rng.uniform(0.01, 0.99), rng.uniform(1.01, 40))
        product = (dimension_bound(g) - 1) * (exponent_threshold(g) - 1)
        assert product == pytest.approx(1.0, abs=1e-9)


def criterion_report(capsys, *argv):
    """The "report" object that `criterion ARGV` prints, exit 0."""
    assert cli.main(["criterion", *argv]) == 0
    return json.loads(capsys.readouterr().out)["report"]


def test_oscillating_report_composition(capsys):
    g = zudilin_constants()
    report = oscillating_report(g, [pair("1", "0")])
    assert report.hypothesis_ok
    assert report.kappa_threshold == pytest.approx(438.22134, abs=1e-3)
    assert criterion_report(capsys, "--zudilin", "--omega", "1", "--phi", "0")[
        "dim_lower_bound_ceiled"] == 2
    assert report.lambda_used == pytest.approx(2.0)


def test_oscillating_report_hypothesis_failure(capsys):
    g = zudilin_constants()
    report = oscillating_report(g, [pair("0", "1/2*pi")])
    assert not report.hypothesis_ok and report.lambda_used is None
    # the report keeps the bounds from (alpha, beta); the JSON masks them
    assert report.kappa_threshold == exponent_threshold(g)
    doc = criterion_report(capsys, "--zudilin", "--omega", "0", "--phi", "1/2*pi")
    for field in ("dim_lower_bound", "dim_lower_bound_ceiled", "kappa_threshold",
                  "kappa_published_rounding", "lambda_used"):
        assert doc[field] is None, field


def test_bounds_identical_across_plans():
    # plans with lambda 2 and lambda 3 on the same growth data give the
    # exact same bounds: the report computes them from (alpha, beta) alone
    g = zudilin_constants()
    r_lam2 = oscillating_report(g, [pair("1", "0")])  # irrational: lambda 2
    r_lam3 = oscillating_report(g, [pair("1/3*pi", "0")])  # rational: lambda 3
    assert r_lam2.lambda_used == pytest.approx(2.0)
    assert r_lam3.lambda_used == pytest.approx(3.0)
    assert r_lam2.kappa_threshold == r_lam3.kappa_threshold
    assert r_lam2.dim_lower_bound == r_lam3.dim_lower_bound
