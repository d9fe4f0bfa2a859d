"""zetaforms: exact linear forms in odd zeta values, oscillating
subsequences via torus equidistribution, and the Diophantine bounds they
imply."""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    DomainError,
    HypothesisViolation,
    InternalCheckError,
    UndecidableAtPrecision,
    ZetaformsError,
)
from .exact import harmonic_power_sum
from .fixedpoint import FixedReal, e_fixed, pi_fixed, sqrt_fixed
from .zeta import ZetaTable, bernoulli
from .forms import (
    FactoredRationalFunction,
    PartialFractionExpansion,
    RisingBlock,
    ZetaLinearForm,
    build_zudilin,
    common_denominator,
    direct_sum,
    evaluate_numeric,
    partial_fractions,
    second_derivative,
    sum_over_k,
    zudilin_linear_form,
)
from .oscillation import (
    Angle,
    AnglePair,
    DensityReport,
    RelationData,
    SubsequencePlan,
    TorusBox,
    build_plan_general,
    detect_pi_rational,
    enumerate_psi,
    hypothesis_multi,
    kw_density,
    parse_angle,
    verify_plan,
)
from .criterion import (
    CriterionReport,
    GrowthData,
    dimension_bound,
    exponent_threshold,
    oscillating_report,
    zudilin_constants,
)
