"""Self-tests of the benchmark (not of zetaforms).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib

import pytest

import run
import tracer
from workloads import Op, cycle, full_pool


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(v) for v in range(1, 101)]) == (90, 90.0, 100)
    assert run.tail_percentile([float(v) for v in range(1000, 0, -1)]) == (99, 990.0, 1000)
    # 25 samples: p60 leaves 10 above rank 15; p61 would leave 9
    assert run.tail_percentile([float(v) for v in range(1, 26)]) == (60, 15.0, 25)


def test_tail_percentile_omitted_for_too_few_samples():
    assert run.tail_percentile([float(v) for v in range(20)]) is None
    assert run.tail_percentile([]) is None


def _span(name, parent, start, end):
    return [name, parent, start, end]


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a.inner", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 6.0),
    ]
    assert tracer.self_time(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", -1, 0.0, 10.0), _span("a", 0, 1.0, 4.0), _span("b", 0, 3.0, 5.0)]
    assert tracer.self_time(spans)[0] == pytest.approx(6.0)


def test_layer_totals_do_not_count_a_nested_span_of_the_same_name_twice():
    spans = [_span("x", -1, 0.0, 10.0), _span("y", 0, 1.0, 3.0), _span("x", 1, 1.5, 2.5)]
    totals = tracer.layer_totals(spans)
    assert totals["x"] == {"calls": 2, "total_s": pytest.approx(10.0), "self_s": pytest.approx(9.0)}
    assert totals["y"]["self_s"] == pytest.approx(1.0)


def test_cycles_are_seeded_and_drawn_from_the_recorded_pool():
    expected = run.load_expected()
    for workload in ("form_cli", "exact_ladder", "orbit_cli"):
        assert cycle(workload, 7, 30) == cycle(workload, 7, 30)
        assert all(op.key in expected for op in cycle(workload, 7, 30))
    assert cycle("orbit_cli", 1, 30) != cycle("orbit_cli", 2, 30)
    assert {op.key for ops in full_pool().values() for op in ops} == set(expected)


CRITERION = Op("criterion_zudilin", "cli", ("criterion", "--zudilin", "--format", "json"))


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return run.child_env(tmp_path_factory.mktemp("pycache"))


def test_recorded_output_passes(env):
    phase = run.run_phase([CRITERION], env, run.load_expected(), 0, float("inf"))
    assert [r.failure for r in phase.results] == [None]


def test_corrupted_expected_output_counts_as_failure(env):
    expected = dict(run.load_expected())
    expected[CRITERION.key] = hashlib.sha256(b"not the output").hexdigest()
    phase = run.run_phase([CRITERION], env, expected, 0, float("inf"))
    assert len(phase.results) == 1
    assert phase.results[0].failure == "stdout differs from the recorded output"
    assert phase.ok == []


def test_self_checks_catch_a_broken_document():
    op = Op("subseq_rational", "cli", ("subseq", "--omega", "1/3*pi", "--phi", "0",
                                       "--count", "3"))
    good = {"command": "subseq", "psi": [4, 7, 10], "verification": {"passed": True}}
    assert run.self_check(op, good) is None
    assert run.self_check(op, {**good, "psi": [4, 10, 7]}) is not None
    assert run.self_check(op, {**good, "verification": {"passed": False}}) is not None
    assert run.check_output(op, 3, b"", {op.key: ""}) == "exit code 3"


def test_traced_subseq_counts_two_enumerations(env):
    op = next(o for o in full_pool()["subseq_irrational"])
    phase = run.run_phase([op], env, run.load_expected(), 0, float("inf"), traced=True)
    result = phase.results[0]
    assert result.failure is None  # tracing leaves stdout byte-identical
    totals = tracer.layer_totals(result.trace["trace"]["spans"])
    assert totals["oscillation.enumerate_psi"]["calls"] == 2
    assert result.trace["trace"]["counters"]["oscillation.box_hits"] == 2 * 2000


def test_timeout_counts_as_failure(env):
    op = full_pool()["form_n2"][0]
    result = run.run_op(op, env, run.load_expected(), timeout=0.3)
    assert result.failure == "timed out after 0.3 s"
    assert result.latency_s < 5
