"""Quantitative Diophantine conclusions from the growth data of a family
of small linear forms.

Inputs are the decay base alpha (forms shrink like alpha^n) and the
coefficient growth base beta (integer coefficients bounded by beta^n).
Outputs:

  - a lower bound 1 - log(alpha)/log(beta) on the dimension of the
    rational span of (1, xi_1, ..., xi_r), and
  - the simultaneous-approximation exponent threshold
    1 - log(beta)/log(alpha).

For the odd-zeta application the constants are pinned from the published
analysis: decay rate C0 = 227.58019641, denominator growth rate
C1 = 226.24944266, and coefficient size 2^(513 n), where
513 = 3(27+37+27) + sum_{j=1..10} (13+2j) is recomputed and asserted.

Both bounds depend only on log(alpha)/log(beta), so passing to a
subsequence psi(n) ~ lambda n (which raises alpha, beta to the power
lambda) leaves them unchanged -- that invariance is what makes the
oscillating construction conclusive, and oscillating_report documents it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, HypothesisViolation, UndecidableAtPrecision
from .fixedpoint import SlottedValue
from .oscillation import AnglePair, build_plan_general

ZUDILIN_C0 = 227.58019641
ZUDILIN_C1 = 226.24944266
ZUDILIN_COEFF_BITS = 513


class GrowthData(SlottedValue):
    """Decay base 0 < alpha < 1 and coefficient base beta > 1, held in log
    space: beta = e^C1 * 2^513 ~ 10^252 already flirts with the double
    range, and beta^lambda leaves it for modest lambda."""

    __slots__ = ("log_alpha", "log_beta")

    def __init__(self, log_alpha: float, log_beta: float):
        finite = math.isfinite(log_alpha) and math.isfinite(log_beta)
        if not (finite and log_alpha < 0 < log_beta):
            raise DomainError(
                "need 0 < alpha < 1 < beta "
                f"(log alpha = {log_alpha}, log beta = {log_beta})"
            )
        self.log_alpha, self.log_beta = log_alpha, log_beta

    @classmethod
    def from_alpha_beta(cls, alpha: float, beta: float) -> "GrowthData":
        if not (0 < alpha < 1):
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        if not (beta > 1):
            raise DomainError(f"beta must exceed 1, got {beta}")
        return cls(math.log(alpha), math.log(beta))

    @classmethod
    def from_constants(cls, c0: float, c1: float, bits: int) -> "GrowthData":
        """alpha = e^(c1 - c0), beta = e^c1 * 2^bits."""
        for name, value in (("c0", c0), ("c1", c1)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not c0 > c1:
            raise DomainError("decay rate must exceed denominator growth rate")
        try:
            log_beta = c1 + bits * math.log(2.0)
        except OverflowError:
            raise DomainError(
                f"log beta = c1 + bits log 2 is not finite: bits has "
                f"{bits.bit_length()} binary digits"
            ) from None
        return cls(c1 - c0, log_beta)


def dimension_bound(g: GrowthData) -> float:
    """Lower bound 1 - log(alpha)/log(beta) on dim span(1, xi_1..xi_r)."""
    return 1.0 - g.log_alpha / g.log_beta


def exponent_threshold(g: GrowthData) -> float:
    """Any kappa above 1 - log(beta)/log(alpha) is an admissible
    simultaneous-approximation exponent."""
    return 1.0 - g.log_beta / g.log_alpha


def zudilin_constants() -> GrowthData:
    """Growth data of the odd-zeta linear forms, from pinned constants.

    Recomputes and asserts the integer identity behind the 2^513 bound:
    three cubed blocks of total length 27+37+27 plus the denominator
    block lengths 13+2j."""
    identity = 3 * (27 + 37 + 27) + sum(13 + 2 * j for j in range(1, 11))
    if identity != ZUDILIN_COEFF_BITS:
        raise DomainError(f"coefficient-size identity broke: {identity}")
    return GrowthData.from_constants(ZUDILIN_C0, ZUDILIN_C1, ZUDILIN_COEFF_BITS)


class CriterionReport(NamedTuple):
    dim_lower_bound: float
    kappa_threshold: float
    hypothesis_ok: bool
    lambda_used: Optional[float]


def oscillating_report(
    g: GrowthData, pairs: Sequence[AnglePair]
) -> CriterionReport:
    """End-to-end report: check the oscillation hypothesis, build a
    subsequence plan (recording its lambda), and emit both bounds.  With
    no pairs there is nothing to check: no plan is built and lambda_used
    is None.  A failed hypothesis sets hypothesis_ok False and
    lambda_used None; the bounds stay, and the CLI masks them.

    The bounds are computed from (alpha, beta) directly: the subsequence
    rescales both to the lambda-th power and log-ratios cancel lambda, so
    any admissible plan yields the same conclusions.
    """
    lambda_used, hypothesis_ok = None, True
    if pairs:
        try:
            lambda_used = float(build_plan_general(pairs).lambda_predicted)
        except (HypothesisViolation, UndecidableAtPrecision):
            hypothesis_ok = False
    return CriterionReport(
        dim_lower_bound=dimension_bound(g),
        kappa_threshold=exponent_threshold(g),
        hypothesis_ok=hypothesis_ok,
        lambda_used=lambda_used,
    )
