"""CLI contract: determinism, exit codes, formats."""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetaforms.cli import (
    EXIT_BUDGET,
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_FORM_DIGITS,
    main,
)
from zetaforms.oscillation import KW_MAX_WALK

EXPECTED_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_zudilin_json(capsys):
    code, out = run(capsys, "criterion", "--zudilin")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    kappa = float(doc["report"]["kappa_threshold"])
    assert abs(kappa - 438.2213) < 0.001
    assert doc["report"]["kappa_published_rounding"] == "438.23"
    assert doc["report"]["dim_lower_bound_ceiled"] == 2


def test_byte_identical_reruns(capsys):
    _, first = run(capsys, "criterion", "--zudilin")
    _, second = run(capsys, "criterion", "--zudilin")
    assert first == second
    _, third = run(capsys, "subseq", "--omega", "1", "--phi", "0", "--count", "5")
    _, fourth = run(capsys, "subseq", "--omega", "1", "--phi", "0", "--count", "5")
    assert third == fourth
    assert first.endswith("\n")


def test_criterion_alpha_beta_and_domain_error(capsys):
    code, out = run(capsys, "criterion", "--alpha", "0.367879441", "--beta", "2.718281828")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(float(doc["report"]["kappa_threshold"]) - 2.0) < 1e-6
    code, out = run(capsys, "criterion", "--alpha", "1.5", "--beta", "2")
    assert code == EXIT_DOMAIN
    assert json.loads(out)["error"]["kind"] == "domain"


def test_criterion_with_pairs(capsys):
    code, out = run(capsys, "criterion", "--zudilin", "--omega", "1", "--phi", "0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["report"]["hypothesis_ok"] is True
    assert doc["report"]["lambda_used"] == "2.000000"


def test_subseq_examples(capsys):
    code, out = run(capsys, "subseq", "--omega", "1", "--phi", "0", "--count", "3")
    assert code == EXIT_OK
    assert json.loads(out)["psi"] == [3, 6, 7]
    code, out = run(capsys, "subseq", "--omega", "1/3*pi", "--phi", "0", "--count", "3")
    doc = json.loads(out)
    assert doc["psi"] == [6, 9, 12]
    assert doc["plan"]["epsilon"].startswith("1.0")


def test_subseq_huge_addend_is_irrational(capsys):
    # 10^300/pi keeps 33 fractional digits: 1/pi is read at 334 digits
    code, out = run(capsys, "subseq", "--omega", "1e300", "--phi", "0", "--count", "40")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["plan"]["mode"] == "irrational_single"
    assert doc["verification"]["passed"] is True


@pytest.fixture
def int_str_limit():
    """main lifts Python's int-to-str digit limit for its process; the
    test puts the interpreter's limit back."""
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "omega, phi, printed",
    [
        ("1", "1e-4400", {"omega": "1", "phi": "1/1" + "0" * 4400}),
        ("1e-4400*pi", "0", {"omega": "1/1" + "0" * 4400 + "*pi", "phi": "0"}),
    ],
)
def test_subseq_prints_angles_past_4300_digits(capsys, int_str_limit, omega, phi, printed):
    code, out = run(capsys, "subseq", "--omega", omega, "--phi", phi, "--count", "3")
    assert code == EXIT_OK
    assert json.loads(out)["angles"] == [printed]


def test_subseq_negative_phase_with_equals(capsys):
    # "--phi -1/4" would read as an option; the --phi=-1/4 form is the one
    code, out = run(capsys, "subseq", "--omega", "1", "--phi=-1/4", "--count", "3")
    assert code == EXIT_OK
    assert json.loads(out)["angles"][0]["phi"] == "-1/4"


def test_subseq_hypothesis_exit(capsys):
    code, out = run(capsys, "subseq", "--omega", "0", "--phi", "1/2*pi", "--count", "3")
    assert code == EXIT_DOMAIN
    assert json.loads(out)["error"]["kind"] == "domain"
    assert json.loads(out)["error"]["message"] == (
        "no residue class avoids all pi/2 congruences"
    )


def test_hypothesis_decided_by_one_route(capsys):
    # omega = 1 is pi-irrational, so the hypothesis holds whatever phi is,
    # also for a phase 10^-40 away from pi/2
    phase = "1/2*pi+1e-40"
    code, out = run(capsys, "subseq", "--omega", "1", "--phi", phase, "--count", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["hypothesis_ok"] is True
    assert doc["plan"]["mode"] == "irrational_single"
    code, out = run(capsys, "criterion", "--zudilin", "--omega", "1", "--phi", phase)
    assert code == EXIT_OK
    assert json.loads(out)["report"]["hypothesis_ok"] is True


def test_subseq_parse_error_distinct_from_hypothesis():
    # unparseable angles are usage errors (2), not hypothesis failures (3)
    with pytest.raises(SystemExit) as exc:
        main(["subseq", "--omega", "garbage", "--phi", "0"])
    assert exc.value.code == 2


def test_subseq_csv(capsys):
    code, out = run(
        capsys, "subseq", "--omega", "1/3*pi", "--phi", "0", "--count", "3",
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["name,value", "psi_1,6", "psi_2,9", "psi_3,12"]


def test_subseq_relations_file(capsys, tmp_path):
    from zetaforms.oscillation import parse_angle

    theta = parse_angle("1").over_pi()
    path = tmp_path / "relations.json"
    path.write_text(
        json.dumps(
            {
                "generators": [f"{theta.numerator}/{theta.denominator}"],
                "rows": [["0", "1"], ["1", "1"]],
            }
        )
    )
    code, out = run(
        capsys, "subseq", "--omega", "1", "--phi", "0",
        "--omega", "1*pi+1", "--phi", "0",
        "--count", "5", "--relations", str(path),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["plan"]["mode"] == "general"
    assert doc["verification"]["cosine_ok"] is True


def test_density_command(capsys):
    code, out = run(capsys, "density", "--theta", "sqrt2", "--box", "0.1:0.35",
                    "--kmax", "100000")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(float(doc["empirical"]) - 0.25) < 0.01
    code, out = run(capsys, "density", "--theta", "e", "--box", "0:1", "--kmax", "100")
    assert float(json.loads(out)["empirical"]) == 1.0


def test_density_help_names_the_hit_to_hit_walk(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "two or more jump from hit to hit of the narrowest axis (KMAX <= 10^8)" in text
    assert "walk every n" not in text
    assert "write a leading minus as --box=-1:2,0:0.5" in text


def test_density_one_axis_counts_past_any_walk(capsys):
    for k_max in (10**30, 10**30 + 1):
        code, out = run(capsys, "density", "--theta", "sqrt2", "--box", "0.1:0.35",
                        "--kmax", str(k_max))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["k_max"] == k_max
        assert abs(float(doc["empirical"]) - 0.25) < 1e-6
        assert abs(doc["hits"] / k_max - 0.25) < 1e-6


def test_density_counts_orbit_points_on_the_box_edge(capsys):
    # n = 1, 4, ..., 28 land on the edge 1/3 itself: the closed arc keeps them
    code, out = run(capsys, "density", "--theta", "1/3", "--box", "1/3:1/2", "--kmax", "30")
    assert code == EXIT_OK
    assert json.loads(out)["hits"] == 10


def test_density_two_axes_over_the_walk_cap_exit_4_unwalked(capsys, monkeypatch):
    from zetaforms import oscillation

    def no_walk(*args):
        raise AssertionError("walked past the budget")

    monkeypatch.setattr(oscillation, "_orbit_hits", no_walk)
    code, out = run(capsys, "density", "--theta", "sqrt2,e",
                    "--box", "0.1:0.35,0.2:0.7", "--kmax", str(oscillation.KW_MAX_WALK + 1))
    assert code == EXIT_BUDGET
    assert json.loads(out)["error"]["kind"] == "budget"


def test_subseq_count_over_the_cap_exit_4_before_the_plan(capsys, monkeypatch):
    from zetaforms import oscillation

    def no_plan(*args, **kwargs):
        raise AssertionError("built a plan past the count budget")

    monkeypatch.setattr(oscillation, "build_plan_general", no_plan)
    code, out = run(capsys, "subseq", "--omega", "sqrt2", "--phi", "0",
                    "--count", str(oscillation.MAX_PSI_COUNT + 1))
    assert code == EXIT_BUDGET
    assert json.loads(out)["error"] == {
        "kind": "budget",
        "message": "count 1000001 exceeds the cap of 1000000 psi values",
    }
    # the library's enumeration keeps the same cap
    monkeypatch.undo()
    plan = oscillation.build_plan_general([oscillation.AnglePair(
        oscillation.parse_angle("1"), oscillation.parse_angle("0"))])
    with pytest.raises(oscillation.BudgetError, match="exceeds the cap"):
        oscillation.enumerate_psi(plan, oscillation.MAX_PSI_COUNT + 1)
    with pytest.raises(oscillation.DomainError, match="count must be >= 1"):
        oscillation.enumerate_psi(plan, 0)


def test_density_malformed_box_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--theta", "sqrt2", "--box", "nonsense", "--kmax", "10"])
    assert exc.value.code == 2


RELATION_FILES = {
    "zero_denominator.json": '{"generators": ["1/0"], "rows": [["0", "1"]]}',
    "not_json.json": "generators: 1/2",
    "no_rows.json": '{"generators": ["1/2"]}',
    "number_generator.json": '{"generators": [0.5], "rows": [["0", "1"]]}',
    "number_row.json": '{"generators": ["0.5"], "rows": [5]}',
    "huge_residual.json": '{"generators": ["1e400"], "rows": [["0", "1"]]}',
    "long_generator.json": '{"generators": ["1e-99999999"], "rows": [["0", "1"]]}',
}


@pytest.mark.parametrize(
    "argv,code,kind",
    [
        (["density", "--theta", "sqrt2", "--box", "0:1/0", "--kmax", "10"],
         EXIT_USAGE, None),
        (["subseq", "--omega", "1", "--phi", "0", "--relations",
          "{tmp}/zero_denominator.json"], EXIT_DOMAIN, "domain"),
        (["subseq", "--omega", "1", "--phi", "0", "--relations",
          "{tmp}/missing.json"], EXIT_USAGE, None),
        (["subseq", "--omega", "1", "--phi", "0", "--relations",
          "{tmp}/not_json.json"], EXIT_USAGE, None),
        (["subseq", "--omega", "1", "--phi", "0", "--relations",
          "{tmp}/no_rows.json"], EXIT_USAGE, None),
        (["criterion", "--alpha", "0.5", "--beta", "inf"], EXIT_DOMAIN, "domain"),
        (["criterion", "--c0", "inf", "--c1", "1", "--bits", "513"],
         EXIT_DOMAIN, "domain"),
        (["subseq", "--omega", "1e999999", "--phi", "0", "--count", "3"],
         EXIT_BUDGET, "budget"),
        (["subseq", "--omega", "1e-50", "--phi", "0", "--count", "3"], EXIT_OK, None),
        (["subseq", "--omega", "1", "--phi", "0", "--relations",
          "{tmp}/number_generator.json"], EXIT_USAGE, None),
        (["subseq", "--omega", "1", "--phi", "0", "--relations",
          "{tmp}/number_row.json"], EXIT_USAGE, None),
        # residue search modulus lcm(1009, 1013) = 1022117 > 10^6
        (["subseq", "--omega", "1/1009*pi", "--phi", "0", "--omega",
          "1/1013*pi", "--phi", "0", "--count", "3"], EXIT_BUDGET, "budget"),
        # two box axes walk the orbit, capped at KW_MAX_WALK steps
        (["density", "--theta", "sqrt2,e", "--box", "0.1:0.35,0.2:0.7", "--kmax",
          str(KW_MAX_WALK + 1)], EXIT_BUDGET, "budget"),
        # a residual past the double range is still printed
        (["subseq", "--omega", "1", "--phi", "0", "--count", "3", "--relations",
          "{tmp}/huge_residual.json"], EXIT_DOMAIN, "domain"),
        # written digits plus decimal exponent are capped before Fraction
        # builds 10^|exponent|
        (["subseq", "--omega", "1e-999999", "--phi", "0", "--count", "3"],
         EXIT_BUDGET, "budget"),
        (["subseq", "--omega", "1", "--phi", "0", "--count", "3", "--relations",
          "{tmp}/long_generator.json"], EXIT_BUDGET, "budget"),
        (["density", "--theta", "1e99999999", "--box", "0:0.5", "--kmax", "5"],
         EXIT_BUDGET, "budget"),
        (["density", "--theta", "sqrt2", "--box", "0:0." + "5" * 20_000, "--kmax",
          "5"], EXIT_BUDGET, "budget"),
        # theta = omega/pi past the double range is printed, not a traceback
        (["subseq", "--omega", "1e310", "--phi", "0", "--count", "3"], EXIT_OK, None),
        (["subseq", "--omega", "1e400", "--phi", "0", "--count", "3"], EXIT_OK, None),
        (["subseq", "--omega", "1e3900", "--phi", "0", "--count", "3"], EXIT_OK, None),
    ],
)
def test_bad_inputs_end_in_documented_exit_codes(capsys, tmp_path, argv, code, kind):
    for name, text in RELATION_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if code == EXIT_USAGE:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        return
    got, out = run(capsys, *argv)
    assert got == code
    if kind is not None:
        assert json.loads(out)["error"]["kind"] == kind


def test_subseq_relations_need_a_generator(capsys, tmp_path):
    # r_0 alone matches omega/pi here, and the error names the relation
    # data, not the plan's missing box
    from zetaforms.oscillation import parse_angle

    theta = parse_angle("sqrt2").over_pi()
    path = tmp_path / "relations.json"
    path.write_text(json.dumps({"generators": [], "rows": [[f"{theta}"]]}))
    code, out = run(capsys, "subseq", "--omega", "sqrt2", "--phi", "0",
                    "--relations", str(path))
    assert code == EXIT_DOMAIN
    assert json.loads(out)["error"]["message"] == "relation data needs at least one generator"


def test_orbit_scan_budget_names_the_cause(capsys):
    # both omegas are sqrt2, so the orbit stays on a diagonal of the torus,
    # and a box chosen as if the omegas were independent misses it
    code, out = run(capsys, "subseq", "--omega", "sqrt2", "--phi", "25/23",
                    "--omega", "sqrt2", "--phi", "224/19", "--count", "1")
    assert code == EXIT_BUDGET
    message = json.loads(out)["error"]["message"]
    assert message.startswith("orbit scan exceeded ")
    assert " steps with 0 of 1 hits; the box can miss the orbit " in message
    assert message.endswith("relation generators are rationally dependent")


@pytest.mark.parametrize("second_phi", ["0", "1/2*pi"])
def test_subseq_relations_refuse_equal_generators(capsys, tmp_path, second_phi):
    # the sqrt2 generator twice: refused before the box search, where it
    # once gave a plan that failed its own check (phase 0: ratio 2.2
    # against lambda 4) or a box off the orbit's diagonal (exit 4)
    from zetaforms.oscillation import parse_angle

    theta = str(parse_angle("sqrt2").over_pi())
    path = tmp_path / "relations.json"
    path.write_text(json.dumps({"generators": [theta, theta],
                                "rows": [["0", "1", "0"], ["0", "0", "1"]]}))
    code, out = run(capsys, "subseq", "--omega", "sqrt2", "--phi", "0",
                    "--omega", "sqrt2", "--phi", second_phi, "--count", "5",
                    "--relations", str(path))
    assert code == EXIT_DOMAIN
    assert json.loads(out)["error"] == {
        "kind": "domain", "message": "relation generators 1 and 2 are equal"}


def test_orbit_scan_cap_counts_steps_per_box_measure(capsys):
    # d = 9973 and a box of measure (2 eta)^2 = 1/4 give lambda = 4 d, but
    # the orbit steps per hit are 4: the cap is 10 (4 + 1) 100 + 10^6 steps,
    # where reading it from lambda would walk 40,893,000 of them
    code, out = run(capsys, "subseq", "--omega", "5976/9973*pi", "--phi", "0",
                    "--omega", "sqrt2", "--phi", "292/37",
                    "--omega", "sqrt2", "--phi", "103/34", "--count", "100")
    assert code == EXIT_BUDGET
    message = json.loads(out)["error"]["message"]
    assert message.startswith("orbit scan exceeded 1005000 steps with 0 of 100 hits")


def test_box_search_budget_exit_4(capsys, monkeypatch, tmp_path):
    # omega/pi = theta_1 +- theta_2: both rows read both generators, so the
    # search walks the eta = 1/4 grid point by point until its budget ends
    from zetaforms import oscillation

    theta = [oscillation.parse_angle(name).over_pi() for name in ("sqrt2", "e")]
    path = tmp_path / "relations.json"
    path.write_text(json.dumps({
        "generators": [f"{t.numerator}/{t.denominator}" for t in theta],
        "rows": [["0", "1", "1"], ["0", "1", "-1"]],
    }))
    monkeypatch.setattr(oscillation, "BOX_MAX_CENTERS", 10)
    code, out = run(capsys, "subseq", "--omega", "sqrt2+e", "--phi", "1/3",
                    "--omega", "sqrt2-e", "--phi", "2/5", "--relations", str(path))
    assert code == EXIT_BUDGET
    assert json.loads(out)["error"] == {
        "kind": "budget",
        "message": "torus box search tried 10 centers without an admissible "
                   "one (2 generators, eta = 1/4)",
    }


INDEPENDENT = ["sqrt2", "e", "1", "3*sqrt2+1", "2*e", "5/4*sqrt2", "7/3*e", "2/3*sqrt2"]


@pytest.mark.parametrize("pairs, center", [
    ([(omega, "-3/8*pi") for omega in INDEPENDENT[:7]], ["3/8"] * 7),
    ([(omega, "-3/8*pi") for omega in INDEPENDENT], ["3/8"] * 8),
    (list(zip(["sqrt2", "e", "1", "1/2*sqrt2", "3", "2/3*e", "5/7"],
              ["1/3", "2/5", "1/7", "0", "3/7", "1/4*pi", "5/9"])),
     ["0", "3/4", "0", "0", "3/4", "3/4", "3/4"]),
], ids=["7_pairs", "8_pairs", "7_pairs_past_the_grid_budget"])
def test_independent_pairs_get_their_box(capsys, pairs, center):
    # every axis keeps its own admissible values, so the box is the first
    # product point; a walk of the whole grid reached the last case's box
    # at its 1,794,097th centre, past the 10^6-centre budget
    argv = ["subseq"]
    for omega, phi in pairs:
        argv += ["--omega", omega, f"--phi={phi}"]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    plan = json.loads(out)["plan"]
    assert plan["mode"] == "general"
    assert plan["box"] == {"center": center, "eta": "1/4"}


def test_subseq_prints_theta_past_the_double_range(capsys, int_str_limit):
    code, out = run(capsys, "subseq", "--omega", "1e310", "--phi", "0", "--count", "3")
    assert code == EXIT_OK
    (theta,) = json.loads(out)["plan"]["theta"]
    whole, _, places = theta.partition(".")
    # 10^310/pi = 3.18309886183790671537... 10^309, to 18 decimals
    assert whole.startswith("318309886183790671537") and len(whole) == 310
    assert len(places) == 18 and places.isdigit()


def test_subseq_prints_ratio_past_the_double_range(capsys, tmp_path):
    # the relation omega/pi = r0 over denominator 2^1400 makes psi(n), and
    # psi(count)/count, a multiple of 2^1400, about 10^421
    from zetaforms.oscillation import parse_angle

    r0 = 2 * round(parse_angle("1").over_pi() * 2**1399) + 1
    path = tmp_path / "relations.json"
    path.write_text(json.dumps(
        {"generators": ["1/3"], "rows": [[f"{r0}/{2**1400}", "0"]]}
    ))
    code, out = run(capsys, "subseq", "--omega", "1", "--phi", "0", "--count", "3",
                    "--relations", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["plan"]["relation_denominator"] == 2**1400
    whole, _, places = doc["verification"]["ratio"].partition(".")
    assert len(whole) > 400 and len(places) == 6
    shown = Fraction(int(whole + places), 10**6)
    assert abs(shown - Fraction(doc["psi"][-1], 3)) <= Fraction(1, 2 * 10**6)


@pytest.mark.parametrize("argv, message", [
    # the cosine at psi(1) = 1 needs pi at 4034 digits
    (["subseq", "--omega", "1e3960", "--phi", "0"],
     "cos argument needs 4034 working digits, above the cap 4000"),
    # the plan reads phi/pi before any cosine
    (["subseq", "--omega", "1", "--phi", "1e3990"],
     "angle addend of 3991 digits needs 1/pi at 4024 digits, above the cap 4000"),
])
def test_cosine_budget_errors_keep_their_documents(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == EXIT_BUDGET
    assert json.loads(out) == {
        "schema_version": 1,
        "command": "subseq",
        "error": {"kind": "budget", "message": message},
    }


@pytest.mark.parametrize("argv, code, kind, message", [
    (["--omega", "1/1009*pi", "--phi", "0", "--omega", "1/1013*pi", "--phi", "0"],
     EXIT_BUDGET, "budget", "residue search modulus 1022117 exceeds 1000000 (lcm of "
     "the pi-rational denominators)"),
    # the first pair excludes the even classes, the second the odd ones
    (["--omega", "1/2*pi", "--phi", "1/2*pi", "--omega", "1/2*pi", "--phi", "0"],
     EXIT_DOMAIN, "domain", "no residue class avoids all pi/2 congruences"),
    (["--omega", "1/3*pi", "--phi", "1/2*pi+1e-25"], EXIT_DOMAIN, "domain",
     "phase congruence: distance 9.549e-26 sits on the decision boundary "
     "(tolerance 1e-25)"),
    # the least free residue is confirmed before the float screen
    (["--omega", "1/3*pi", "--phi", "1e3960"], EXIT_BUDGET, "budget",
     "cos argument needs 4034 working digits, above the cap 4000"),
])
def test_residue_search_errors_keep_their_documents(capsys, argv, code, kind, message):
    got, out = run(capsys, "subseq", *argv)
    assert got == code
    assert json.loads(out)["error"] == {"kind": kind, "message": message}


def test_subseq_irrational_confirms_a_handful_of_cosines(capsys, monkeypatch):
    # verify_plan screens the 2000 psi in floats and evaluates only the
    # candidates for the least |cos| at COS_DIGITS
    from zetaforms import oscillation

    calls = []

    def counted(*args):
        calls.append(args)
        return exact_cos(*args)

    exact_cos = oscillation.cos_pi_argument
    monkeypatch.setattr(oscillation, "cos_pi_argument", counted)
    code, out = run(capsys, "subseq", "--omega", "sqrt2", "--phi", "0", "--count", "2000")
    assert code == EXIT_OK
    assert json.loads(out)["verification"]["passed"] is True
    assert 1 <= len(calls) <= 4


def test_usage_errors_exit_2():
    for argv in (
        ["form", "--n", "0"],
        ["form"],
        ["subseq", "--omega", "1", "--count", "3"],
        ["density", "--theta", "sqrt2", "--box", "0.1:0.2", "--kmax", "0"],
        ["criterion"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv,flag,text", [
    (["form", "--n", "x"], "--n", "x"),
    (["form", "--n", "1", "--max-n", "2.5"], "--max-n", "2.5"),
    (["form", "--n", "1", "--digits", "abc"], "--digits", "abc"),
    (["subseq", "--omega", "1", "--phi", "0", "--count", "ten"], "--count", "ten"),
    (["density", "--theta", "sqrt2", "--box", "0.1:0.2", "--kmax", "1e3"], "--kmax", "1e3"),
])
def test_non_integer_flags_use_argparse_int_wording(capsys, argv, flag, text):
    # the same words as argparse's own type=int (as for criterion --bits),
    # not the name of a private type function
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid int value: '{text}'" in err
    assert "_positive_int" not in err and "_digits_arg" not in err


def test_budget_exit(capsys):
    code, out = run(capsys, "form", "--n", "7")
    assert code == EXIT_BUDGET
    assert json.loads(out)["error"]["kind"] == "budget"


def test_form_digits_cap(capsys, monkeypatch):
    # checked before the pipeline runs: a digit count past the cap, or a
    # 400-digit one whose 10**work could never be built, exits 4 at once
    import zetaforms.forms as forms

    def unreachable(n):
        raise AssertionError("ran the pipeline past the digits cap")

    monkeypatch.setattr(forms, "zudilin_pipeline", unreachable)
    for digits in (str(MAX_FORM_DIGITS + 1), "9" * 400):
        code, out = run(capsys, "form", "--n", "1", "--digits", digits)
        assert code == EXIT_BUDGET
        assert json.loads(out)["error"] == {
            "kind": "budget",
            "message": f"--digits {digits} exceeds the cap {MAX_FORM_DIGITS}",
        }


@pytest.mark.parametrize("n, digits", [(1, 404), (30, 7755), (31, 8000)])
def test_form_default_digits_fit_under_the_cap(capsys, monkeypatch, pipeline1, n, digits):
    # required_digits(n) + 90, or the cap when only the headroom passes it:
    # n = 31 needs 7,919 digits and runs at 8,000.  The pipeline is stubbed
    # with n = 1's and the table build stops the run once the digits are chosen
    import zetaforms.forms as forms
    import zetaforms.zeta as zeta

    class Chosen(Exception):
        pass

    def table(arguments, chosen):
        raise Chosen(chosen)

    stub = (pipeline1.factored, pipeline1.expansion, pipeline1.form)
    monkeypatch.setattr(forms, "zudilin_pipeline", lambda _: stub)
    monkeypatch.setattr(zeta, "ZetaTable", table)
    with pytest.raises(Chosen) as chosen:
        run(capsys, "form", "--n", str(n), "--max-n", str(n))
    assert chosen.value.args == (digits,)


@pytest.mark.parametrize("n, needed", [(32, 8172), (40, 10200)])
def test_form_default_digits_past_the_cap_exit_4(capsys, monkeypatch, n, needed):
    # no --digits was given, so the message names the n and what it needs
    import zetaforms.forms as forms

    def unreachable(n):
        raise AssertionError("ran the pipeline past the digits cap")

    monkeypatch.setattr(forms, "zudilin_pipeline", unreachable)
    code, out = run(capsys, "form", "--n", str(n), "--max-n", "40")
    assert code == EXIT_BUDGET
    assert json.loads(out)["error"] == {
        "kind": "budget",
        "message": f"n={n} needs {needed} digits, above the cap {MAX_FORM_DIGITS}",
    }


def test_criterion_constants_name_the_non_finite_input(capsys):
    # a nan rate is named, not reported as a decay slower than the growth,
    # and a --bits past the double range is an error document, not an
    # OverflowError traceback
    for flags, message in (
        (["--c0", "nan", "--c1", "1", "--bits", "513"], "c0 must be finite, got nan"),
        (["--c0", "2", "--c1", "nan", "--bits", "513"], "c1 must be finite, got nan"),
        (["--c0", "2", "--c1", "1", "--bits", "1" + "0" * 399],
         "log beta = c1 + bits log 2 is not finite: bits has 1326 binary digits"),
    ):
        code, out = run(capsys, "criterion", *flags)
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == {"kind": "domain", "message": message}


MASKED = {"hypothesis_ok": False, "dim_lower_bound": None, "dim_lower_bound_ceiled": None,
          "kappa_threshold": None, "kappa_published_rounding": None, "lambda_used": None}


def test_criterion_bounds_past_the_double_range(capsys):
    # a bound about to be printed that is not finite is a domain error: kappa
    # (and so kappa * 100) is inf at --c0 1e-307, the dimension bound at
    # --c1 1e-320; a failed hypothesis masks them, and exits 0
    for flags, message in (
        (["--c0", "1e-307", "--c1", "0", "--bits", "513"],
         "a bound overflows a double: dimension bound 1.0, kappa threshold inf"),
        (["--c0", "2", "--c1", "1e-320", "--bits", "0"],
         "a bound overflows a double: dimension bound inf, kappa threshold 1.0"),
    ):
        code, out = run(capsys, "criterion", *flags)
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == {"kind": "domain", "message": message}
        code, out = run(capsys, "criterion", *flags, "--omega", "0", "--phi", "1/2*pi")
        assert code == EXIT_OK
        assert json.loads(out)["report"] == MASKED
    _, out = run(capsys, "criterion", "--c0", "5e-324", "--c1", "0", "--bits", "513",
                 "--omega", "0", "--phi", "1/2*pi")
    assert out == json.dumps({
        "schema_version": 1, "command": "criterion", "source": "constants",
        "log_alpha": "-0.0000000000", "log_beta": "355.5845036273", "report": MASKED,
    }, indent=2) + "\n"


def test_form_asserts_the_reflection_sign(capsys, monkeypatch):
    # form reports the reflection check, and a sign other than -1 is an
    # internal error
    import zetaforms.forms as forms

    for failing in ({"symmetric": True, "sign": 1}, {"symmetric": False, "sign": None}):
        monkeypatch.setattr(forms, "reflection_check", lambda p: failing)
        code, out = run(capsys, "form", "--n", "1")
        assert code == EXIT_INTERNAL
        assert json.loads(out)["error"] == {
            "kind": "internal",
            "message": f"form n=1: reflection sign {failing['sign']}, want -1",
        }


def test_usage_errors_come_from_the_command_parser(capsys):
    # criterion with no complete source exits 2 with criterion's own usage,
    # not the top-level list of commands; subseq's usage errors name
    # subseq the same way
    for argv in (["criterion", "--c0", "1", "--c1", "1"],
                 ["subseq", "--omega", "1", "--phi", "zz"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: zetaforms {argv[0]} ")
        assert f"\nzetaforms {argv[0]}: error: " in captured.err


def test_form_command_full(capsys):
    code, out = run(capsys, "form", "--n", "1", "--digits", "320")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["form"]["coeffs"]["3"] == "0"
    assert doc["form"]["coeffs"]["5"] != "0"
    assert doc["form"]["checks"]["vanishing_ok"] is True
    assert doc["form"]["checks"]["reflection"]["sign"] == -1
    assert float(doc["numeric"]["agreement_delta_log10"]) < -50
    assert doc["numeric"]["log10_abs"] < -30


def test_direct_sum_sees_partial_fractions(capsys, monkeypatch):
    # scale every partial-fraction coefficient by 1 + 10^-10: the form and
    # its value move by 10^-10 relative, the direct sum of the factored
    # function does not, and the two routes part
    import zetaforms.forms as forms

    code, out = run(capsys, "form", "--n", "1")
    assert code == EXIT_OK
    clean = json.loads(out)["numeric"]
    exact = forms.partial_fractions

    def scaled(f):
        p = exact(f)
        factor = 1 + Fraction(1, 10**10)
        return p._replace(poles={m: (scale * factor, top, numerators)
                                 for m, (scale, top, numerators) in p.poles.items()})

    monkeypatch.setattr(forms, "partial_fractions", scaled)
    code, out = run(capsys, "form", "--n", "1")
    assert code == EXIT_OK
    mutated = json.loads(out)["numeric"]
    assert mutated["direct_sum"] == clean["direct_sum"]
    assert clean["agreement_delta_log10"] < -200
    assert mutated["agreement_delta_log10"] > -150


def test_form_default_digits_byte_identical(capsys):
    # every form_cli op of the benchmark
    digests = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))["digests"]
    for key in (
        "cli form --n 1",
        "cli form --n 1 --format csv",
        "cli form --n 1 --format text",
        "cli form --n 2",
    ):
        code, out = run(capsys, *key.split()[1:])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digests[key], key


def test_form_at_4000_digits_byte_identical(capsys):
    # the zeta table's integers at a precision far past the benchmark's,
    # pinned from the Euler-Maclaurin table that preceded the Lambert route
    code, out = run(capsys, "form", "--n", "1", "--digits", "4000")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ef7b9b3d55846c68ddf0bd4fea80cc7b313e2bc13e58903c9acb3b143d01a6ea"
    )


@pytest.mark.parametrize("key", [
    "cli subseq --omega 1/2*e --phi 1/3 --count 2000",
    "cli subseq --omega 4/5*pi --phi 2/5 --omega 2/3*e --phi 3/7 --count 2000",
    "cli density --theta 0.7*sqrt2 --box 0.02:0.41 --kmax 1000000",
    "cli density --theta 1/2*sqrt2,e --box 0.33:0.52,0.09:0.47 --kmax 400000",
])
def test_orbit_ops_byte_identical(capsys, key):
    digests = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))["digests"]
    code, out = run(capsys, *key.split()[1:])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digests[key]


def test_form_csv_one_row_per_coefficient(capsys):
    code, out = run(capsys, "form", "--n", "1", "--digits", "320", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "name,value"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["ell0"] + [f"ell{s}" for s in range(3, 13)]


def test_output_file_and_text_format(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, _ = run(capsys, "criterion", "--zudilin", "--output", str(target))
    assert code == EXIT_OK
    assert json.loads(target.read_text())["command"] == "criterion"
    code, out = run(capsys, "criterion", "--zudilin", "--format", "text")
    assert code == EXIT_OK
    assert "kappa_threshold = 438.2213463890" in out


@pytest.mark.parametrize("where", ["missing/out.json", "."])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, where):
    # a missing directory, or a directory itself: exit 2 naming the path,
    # nothing on stdout and no file made
    target = tmp_path / where
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--zudilin", "--output", str(target)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write --output {target}: " in captured.err
    assert list(tmp_path.iterdir()) == []


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
