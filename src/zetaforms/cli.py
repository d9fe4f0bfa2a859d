"""Command-line front-end: reproducible experiments, machine-readable output.

Four subcommands:

  form       exact linear form in 1, zeta(5), zeta(7), zeta(9), zeta(11)
             for index n, plus the numeric oracle pair and denominator report
  subseq     hypothesis check, subsequence plan, first psi values, and the
             plan verification report for one or more angle pairs
  density    equidistribution counting of frac(n theta) in a torus box
  criterion  dimension bound and approximation-exponent threshold from
             growth data (--zudilin for the pinned odd-zeta constants)

Exit codes: 0 success, 2 usage, 3 domain/hypothesis, 4 budget, 5 internal
assertion.  All output is UTF-8, line-feed terminated; JSON field order is
fixed and every number that may exceed double precision is a decimal
string, so identical inputs produce byte-identical output.  The library's
records carry exact values only: each command builds its JSON view here,
and imports the layers it runs when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import (
    BudgetError,
    DomainError,
    InternalCheckError,
    ZetaformsError,
)
from .exact import decimal_str, fraction_str, log10_fraction
from .fixedpoint import decimal_to_fraction

if TYPE_CHECKING:
    from .oscillation import Angle, AnglePair, RelationData

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

# form's --digits cap and --max-n default: the zeta table costs about
# digits^2, and form --n 1 at the cap runs about 1.6 s in a fresh process
# on 2 vCPUs
MAX_FORM_DIGITS = 8000
DEFAULT_MAX_N = 2
# the precision of form's direct_sum oracle, whatever --digits is: every
# accepted --digits is at least required_digits(n) >= 314
DIRECT_SUM_DIGITS = 200


def _int_arg(text: str) -> int:
    """int(text), refused in argparse's own words for type=int: the name of
    the helper that calls it would otherwise stand in the message."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _digits_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 10:
        raise argparse.ArgumentTypeError(f"precision must be >= 10 digits, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaforms",
        description="exact odd-zeta linear forms, oscillating subsequences, "
        "and Diophantine bounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_form = sub.add_parser("form", help="compute the n-th linear form exactly")
    p_form.add_argument("--n", type=_positive_int, required=True)
    p_form.add_argument("--digits", type=_digits_arg, default=None,
                        help="zeta-table precision (default: the per-n budget rule)")
    p_form.add_argument("--max-n", type=_positive_int, default=DEFAULT_MAX_N)
    _common_output_flags(p_form)

    p_sub = sub.add_parser("subseq", help="build and verify a subsequence plan")
    p_sub.add_argument("--omega", action="append", required=True,
                       help="angle expression (repeatable; pairs with --phi); "
                       "write a leading minus as --omega=-1/4")
    p_sub.add_argument("--phi", action="append", required=True,
                       help="phase expression; write a leading minus as --phi=-1/4")
    p_sub.add_argument("--count", type=_positive_int, default=10,
                       help="number of psi values (COUNT <= 10^6)")
    p_sub.add_argument("--relations", default=None,
                       help="JSON file with rational dependencies among omega_i/pi")
    _common_output_flags(p_sub)

    p_den = sub.add_parser("density", help="count torus-box hits of n*theta mod 1")
    p_den.add_argument("--theta", required=True,
                       help="comma-separated angle expressions (values, not /pi); "
                       "write a leading minus as --theta=-1/4")
    p_den.add_argument("--box", required=True,
                       help="comma-separated per-axis intervals lo:hi; "
                       "write a leading minus as --box=-1:2,0:0.5")
    p_den.add_argument("--kmax", type=_positive_int, required=True,
                       help="count n = 1..KMAX; one box axis costs O(log KMAX) "
                       "steps, two or more jump from hit to hit of the narrowest "
                       "axis (KMAX <= 10^8)")
    _common_output_flags(p_den)

    p_cri = sub.add_parser("criterion", help="Diophantine bounds from growth data")
    p_cri.add_argument("--zudilin", action="store_true",
                       help="use the pinned odd-zeta constants")
    p_cri.add_argument("--alpha", type=float, default=None)
    p_cri.add_argument("--beta", type=float, default=None)
    p_cri.add_argument("--c0", type=float, default=None)
    p_cri.add_argument("--c1", type=float, default=None)
    p_cri.add_argument("--bits", type=int, default=None)
    p_cri.add_argument("--omega", action="append", default=None,
                       help="as for subseq; write a leading minus as --omega=-1/4")
    p_cri.add_argument("--phi", action="append", default=None,
                       help="as for subseq; write a leading minus as --phi=-1/4")
    _common_output_flags(p_cri)
    for command_parser in sub.choices.values():  # usage errors name their command
        command_parser.set_defaults(parser=command_parser)
    return parser


def _common_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def _parse_pairs(omegas, phis, parser_error) -> tuple[AnglePair, ...]:
    from .oscillation import AnglePair, parse_angle

    if omegas is None or phis is None or len(omegas) != len(phis):
        parser_error("each --omega needs a matching --phi")
    try:
        return tuple(
            AnglePair(parse_angle(o), parse_angle(p)) for o, p in zip(omegas, phis)
        )
    except DomainError as exc:  # unparseable angles are usage errors
        parser_error(str(exc))


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def _load_relations(path: Optional[str], parser_error) -> Optional[RelationData]:
    if path is None:
        return None
    from .oscillation import RelationData

    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        generator_texts, row_texts = doc["generators"], doc["rows"]
    except (OSError, ValueError) as exc:  # missing file, not UTF-8 JSON
        parser_error(f"cannot read --relations {path}: {exc}")
    except (KeyError, TypeError):
        parser_error(f'--relations {path} needs "generators" and "rows"')
    if not (
        _is_string_list(generator_texts)
        and isinstance(row_texts, list)
        and all(_is_string_list(row) for row in row_texts)
    ):
        parser_error(
            f'--relations {path}: "generators" must be a list of strings and '
            '"rows" a list of lists of strings'
        )
    generators = tuple(decimal_to_fraction(t) for t in generator_texts)
    rows = tuple(
        tuple(decimal_to_fraction(r) for r in row) for row in row_texts
    )
    return RelationData(generators, rows)


# -- commands -----------------------------------------------------------


def cmd_form(args, parser) -> dict:
    from .criterion import ZUDILIN_COEFF_BITS
    from .forms import (
        RECONSTRUCTION_POINTS,
        ZUDILIN_ZETA_ARGUMENTS,
        check_form_budget,
        common_denominator,
        direct_sum,
        evaluate_numeric,
        reconstruction_check,
        reflection_check,
        required_digits,
        zudilin_pipeline,
    )
    from .zeta import ZetaTable

    n = args.n
    check_form_budget(n, args.max_n)
    needed = required_digits(n)
    if args.digits is None and needed > MAX_FORM_DIGITS:
        raise BudgetError(f"n={n} needs {needed} digits, above the cap {MAX_FORM_DIGITS}")
    # the default keeps 90 digits of headroom where the cap leaves room for them
    digits = min(needed + 90, MAX_FORM_DIGITS) if args.digits is None else args.digits
    if digits > MAX_FORM_DIGITS:
        raise BudgetError(f"--digits {digits} exceeds the cap {MAX_FORM_DIGITS}")
    if digits < needed:
        raise BudgetError(
            f"--digits {digits} is below the required budget {needed} for n={n}"
        )
    factored, expansion, form = zudilin_pipeline(n)
    # the sign is -1 for every n: 37n + 2t changes sign under t -> -37n - t
    # and the block products do not.  The reconstruction is reported only, so
    # that a perturbed expansion still reaches the two numeric routes
    sign = reflection_check(expansion)
    if sign != -1:
        raise InternalCheckError(f"form n={n}: reflection sign {sign}, want -1")
    table = ZetaTable(form.nonzero_arguments(), digits)
    value = evaluate_numeric(form, table)
    direct = direct_sum(factored, DIRECT_SUM_DIGITS)
    delta = abs(value.to_fraction() - direct.to_fraction())
    height = form.log2_height()
    checks = {
        "vanishing_ok": True,  # zudilin_pipeline raised otherwise
        "zero_coefficients": [s for s in sorted(form.coefficients)
                              if s not in ZUDILIN_ZETA_ARGUMENTS],
        "reconstruction": {"ok": reconstruction_check(factored, expansion),
                           "points": [fraction_str(t) for t in RECONSTRUCTION_POINTS]},
        "reflection": {"symmetric": sign is not None, "sign": sign},
        "log2_height_over_n": round(height / n, 6),
        "coefficient_bits_reference": ZUDILIN_COEFF_BITS,
    }
    denominator, den_report = common_denominator(form)
    log10_abs = log10_fraction(value.to_fraction())
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "form",
        "n": n,
        "digits": digits,
        "form": {
            "n": n,
            "ell0": fraction_str(form.ell0),
            "coeffs": {
                str(s): fraction_str(form.coefficients[s])
                for s in sorted(form.coefficients)
            },
            "denominator": str(denominator),
            "log2_height": round(height, 6),
            "checks": checks,
        },
        "denominator_report": den_report,
        "numeric": {
            "value": value.to_decimal(),
            "value_digits": value.digits,
            "log10_abs": round(log10_abs, 6),
            "log10_abs_over_n": round(log10_abs / n, 6),
            "direct_sum": direct.to_decimal(),
            "direct_sum_digits": DIRECT_SUM_DIGITS,
            "agreement_delta_log10": None
            if delta == 0
            else round(log10_fraction(delta), 6),
        },
    }


def cmd_subseq(args, parser) -> dict:
    from .oscillation import build_plan_general, check_psi_count, enumerate_psi, verify_plan

    pairs = _parse_pairs(args.omega, args.phi, parser.error)
    relations = _load_relations(args.relations, parser.error)
    check_psi_count(args.count)
    plan = build_plan_general(pairs, relations=relations)
    psi = enumerate_psi(plan, args.count)
    verification = verify_plan(plan, pairs, args.count)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "subseq",
        "angles": [
            {"omega": _angle_text(p.omega), "phi": _angle_text(p.phi)} for p in pairs
        ],
        # build_plan_general's own residue search raises HypothesisViolation
        # (exit 3) when no class is left, so a plan in hand means the
        # hypothesis holds
        "hypothesis_ok": True,
        "plan": {
            "mode": plan.mode,
            "d": plan.d,
            "a": plan.a,
            "relation_denominator": plan.big_d,
            "box": None
            if plan.box is None
            else {
                "center": [fraction_str(c) for c in plan.box.center],
                "eta": fraction_str(plan.box.eta),
            },
            "theta": [decimal_str(t, 18) for t in plan.theta],
            "epsilon": f"{float(plan.epsilon):.15f}",
            "lambda_predicted": fraction_str(plan.lambda_predicted),
        },
        "psi": psi,
        "verification": {
            "count": verification.count,
            "min_abs_cos": f"{float(verification.min_abs_cos):.15f}",
            "epsilon": f"{float(verification.epsilon):.15f}",
            "ratio": decimal_str(verification.ratio, 6),
            "lambda_predicted": fraction_str(verification.lambda_predicted),
            "cosine_ok": verification.cosine_ok,
            "lambda_ok": verification.lambda_ok,
            "passed": verification.passed,
        },
    }


def _angle_text(angle: Angle) -> str:
    """pi_mult*pi + addend, either part dropped when it is 0 (the addend
    is kept when both are)."""
    parts = []
    if angle.pi_mult:
        parts.append(f"{angle.pi_mult}*pi")
    if angle.addend or not parts:
        parts.append(str(angle.addend))
    return " + ".join(parts)


def cmd_density(args, parser) -> dict:
    from .oscillation import kw_density, parse_angle

    try:
        theta = [parse_angle(t).value() for t in args.theta.split(",")]
        box = []
        for part in args.box.split(","):
            if ":" not in part:
                raise DomainError(f"box interval {part!r} must be lo:hi")
            lo, hi = part.split(":", 1)
            box.append((decimal_to_fraction(lo), decimal_to_fraction(hi)))
    except (DomainError, ValueError) as exc:
        parser.error(str(exc))
    if len(theta) != len(box):
        parser.error("need one box interval per theta component")
    report = kw_density(theta, box, args.kmax)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "density",
        "k_max": report.k_max,
        "hits": report.hits,
        "empirical": f"{report.empirical:.8f}",
        "predicted": f"{report.predicted:.8f}",
        "rational_theta": report.rational_theta,
    }


def cmd_criterion(args, parser) -> dict:
    from .criterion import GrowthData, oscillating_report, zudilin_constants

    if args.zudilin:
        growth, source = zudilin_constants(), "zudilin"
    elif args.alpha is not None and args.beta is not None:
        growth, source = GrowthData.from_alpha_beta(args.alpha, args.beta), "alpha_beta"
    elif args.c0 is not None and args.c1 is not None and args.bits is not None:
        growth, source = GrowthData.from_constants(args.c0, args.c1, args.bits), "constants"
    else:
        parser.error("need --zudilin, or --alpha/--beta, or --c0/--c1/--bits")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "criterion",
        "source": source,
        "log_alpha": f"{growth.log_alpha:.10f}",
        "log_beta": f"{growth.log_beta:.10f}",
    }
    pairs = (
        _parse_pairs(args.omega, args.phi, parser.error)
        if args.omega or args.phi
        else ()
    )
    report = oscillating_report(growth, pairs)
    bounds = (None,) * 4  # a failed hypothesis masks all four
    if report.hypothesis_ok:
        dim, kappa = report.dim_lower_bound, report.kappa_threshold
        if not (math.isfinite(dim) and math.isfinite(kappa * 100)):
            raise DomainError(
                f"a bound overflows a double: dimension bound {dim}, "
                f"kappa threshold {kappa}"
            )
        bounds = (f"{dim:.10f}", math.ceil(dim), f"{kappa:.10f}",
                  f"{math.ceil(kappa * 100) / 100:.2f}")
    names = ("dim_lower_bound", "dim_lower_bound_ceiled", "kappa_threshold",
             "kappa_published_rounding")
    doc["report"] = {
        "hypothesis_ok": report.hypothesis_ok,
        **dict(zip(names, bounds)),
        "lambda_used": None
        if report.lambda_used is None
        else f"{report.lambda_used:.6f}",
    }
    return doc


# -- output formatting ----------------------------------------------------


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        return _render_csv(doc)
    return _render_text(doc)


def _render_csv(doc: dict) -> str:
    lines = ["name,value"]
    if doc["command"] == "form":
        lines.append(f"ell0,{doc['form']['ell0']}")
        for s, coeff in doc["form"]["coeffs"].items():
            lines.append(f"ell{s},{coeff}")
    elif doc["command"] == "subseq":
        for i, k in enumerate(doc["psi"], start=1):
            lines.append(f"psi_{i},{k}")
    elif doc["command"] == "density":
        for key in ("k_max", "hits", "empirical", "predicted"):
            lines.append(f"{key},{doc[key]}")
    else:
        for key, value in doc["report"].items():
            lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _flatten(prefix: str, obj, out: list) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                _flatten(f"{prefix}{key}.", value, out)
            else:
                out.append(f"{prefix}{key} = {value}")
    elif isinstance(obj, list):
        out.append(f"{prefix.rstrip('.')} = {obj}")


def _render_text(doc: dict) -> str:
    out: list[str] = []
    _flatten("", doc, out)
    return "\n".join(out) + "\n"


# -- entry point -----------------------------------------------------------


_COMMANDS = {
    "form": cmd_form,
    "subseq": cmd_subseq,
    "density": cmd_density,
    "criterion": cmd_criterion,
}


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    # exact rationals are printed whole, past Python's 4300-digit str(int)
    # limit; interpreters without the setter have no limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _COMMANDS[args.command](args, args.parser)
    except InternalCheckError as exc:
        _emit(_error_doc("internal", exc, args), None)
        return EXIT_INTERNAL
    except BudgetError as exc:
        _emit(_error_doc("budget", exc, args), None)
        return EXIT_BUDGET
    except ZetaformsError as exc:
        _emit(_error_doc("domain", exc, args), None)
        return EXIT_DOMAIN
    text = render(doc, args.format)
    try:
        _emit(text, args.output)
    except OSError as exc:  # a missing directory, a directory, no permission
        if args.output is None:
            raise
        args.parser.error(f"cannot write --output {args.output}: {exc}")
    return EXIT_OK


def _error_doc(kind: str, exc: Exception, args) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": getattr(args, "command", None),
        "error": {"kind": kind, "message": str(exc)},
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


if __name__ == "__main__":
    sys.exit(main())
