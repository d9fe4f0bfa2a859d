"""The zetaforms benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {form_cli,exact_ladder,orbit_cli}
                         --seed N --seconds S --trace {0,1}

Load shape: one closed-loop client.  It starts one child process per op
(bench/child.py) and starts the next op only after the previous one has
exited, so at most one op runs at a time.  An op is timed from spawn to
exit, and times are reported scaled to a reference machine speed (see
"machine speed" below).  The workload's seeded cycle of ops (workloads.py)
is run whole, and again while another cycle is predicted to fit in S
seconds; at least once.

Every op is checked: exit code 0, stdout byte-identical to the digest
recorded in expected.json, and the self-checks the JSON output carries.
A failed check, a non-zero exit or a timeout counts as a failed op; it
does not stop the run.

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json.  With --trace 1 the run spends half of S untraced and half
traced (each at least one cycle) and the last line holds the per-layer
metrics, including the tracing overhead between the two halves.  The lines
above it are a readable report, with the workload-specific metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer
from child import PEAK_RSS_TAG
from workloads import WORKLOADS, Op, cycle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build" / "zetaforms-bench"
EXPECTED = BENCH_DIR / "expected.json"
CHILD = BENCH_DIR / "child.py"

# Set-ups timed before and after the timed phase, so that one slow stretch
# of the machine (see "machine speed") does not decide setup_s.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # stop starting ops past this, to exit within 180 s
CALIBRATION_NOMINAL_S = 0.020  # one calibration sample at the reference speed
CALIBRATION_SHARE = 0.05  # of each op's latency, spent calibrating after it
KAPPA = "438.2213463890"
ZUDILIN_ZERO_ARGUMENTS = ("3", "4", "6", "8", "10", "12")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, broken import)."""


@dataclass
class OpResult:
    op: Op
    latency_s: float
    max_rss_kb: int
    failure: str | None  # None when every check passed
    trace: dict | None = None


@dataclass
class Phase:
    """The ops of whole cycles run back to back."""

    results: list[OpResult] = field(default_factory=list)
    cycles: int = 0
    seconds: float = 0.0
    aborted: bool = False
    calibration: list[float] = field(default_factory=list)

    @property
    def ok(self) -> list[OpResult]:
        return [r for r in self.results if r.failure is None]

    @property
    def speed(self) -> float:
        return speed_factor(self.calibration)


# -- machine speed ------------------------------------------------------------------
#
# The machine this benchmark was written on shares its cores with other
# tenants, and each vCPU has slow and fast stretches that last from tens of
# seconds to minutes (see README.md).  So the run keeps itself and its
# children on one CPU, times a fixed calibration kernel on that CPU after
# every op, and reports times scaled to the reference speed:
# raw * CALIBRATION_NOMINAL_S / median sample.  The kernel does the kinds of
# work zetaforms does (exact rationals, big-integer products, an integer
# orbit loop) and calls no zetaforms code, so a change to the program
# cannot move it.  The report prints the raw wall times next to the scaled
# ones.

def _kernel() -> int:
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(1, k**5)
    x, modulus = 3**3000, 10**2000 + 7
    for _ in range(20):
        x = x * x % modulus
    pos = hits = 0
    for _ in range(6000):
        pos = (pos + 14142135623730950488016887) % 10**26
        hits += pos < 3 * 10**25
    return acc.denominator % 7 + x % 7 + hits


def calibrate(samples: list[float], budget_s: float) -> None:
    """Append timings of 5 kernel calls until `budget_s` is spent (at least one)."""
    spent = 0.0
    while spent < budget_s or not spent:
        start = time.perf_counter()
        for _ in range(5):
            _kernel()
        samples.append(time.perf_counter() - start)
        spent += samples[-1]


def speed_factor(samples: list[float]) -> float:
    """Multiply a raw time by this to get it at the reference speed."""
    return CALIBRATION_NOMINAL_S / statistics.median(samples) if samples else 1.0


# -- statistics -----------------------------------------------------------------

def tail_percentile(samples: list[float], beyond: int = 10):
    """Highest integer percentile p > 50 with at least `beyond` samples above
    its nearest-rank value: (p, value, n), or None if there are too few."""
    n = len(samples)
    ordered = sorted(samples)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1], n
    return None


# -- the child process ----------------------------------------------------------

def child_env(pycache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def spawn(cmd: list[str], env: dict[str, str], timeout: float):
    """Run cmd with stdout to a file: (stdout bytes, exit code, latency,
    peak RSS in KiB, timed out)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    out_path, err_path = BUILD / "stdout", BUILD / "stderr"
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)

        def expire():
            # os.kill, not proc.kill: Popen would reap the child first, and
            # an unreaped child's pid cannot be reused
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            latency = time.perf_counter() - start
            with lock:
                state["exited"] = True
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    err_lines = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    if proc.returncode != 0:
        print(f"bench: {' '.join(cmd[1:])}: exit {proc.returncode}: "
              f"{err_lines[-1] if err_lines else 'no stderr'}", file=sys.stderr)
    # the child reports its own peak: the parent's ru_maxrss for a child
    # started by vfork also counts the parent's pages
    peak = [int(line.split()[1]) for line in err_lines if line.startswith(PEAK_RSS_TAG)]
    return out_path.read_bytes(), proc.returncode, latency, max(peak, default=0), state["killed"]


def child_cmd(op: Op, trace_args: list[str] = ()) -> list[str]:
    return [sys.executable, str(CHILD), *trace_args, op.kind, *op.argv]


def run_op(op: Op, env, expected: dict[str, str], timeout: float,
           trace_id: str | None = None) -> OpResult:
    trace_path = BUILD / "trace.json"
    trace_args = []
    if trace_id is not None:
        trace_path.unlink(missing_ok=True)
        trace_args = ["--trace", str(trace_path), trace_id]
    stdout, code, latency, rss, killed = spawn(child_cmd(op, trace_args), env, timeout)
    if killed:
        failure = f"timed out after {timeout:g} s"
    else:
        failure = check_output(op, code, stdout, expected)
    trace = None
    if trace_id is not None and failure is None:
        try:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failure = f"trace file unreadable: {exc}"
    return OpResult(op, latency, rss, failure, trace)


# -- output checks ----------------------------------------------------------------

def check_output(op: Op, code: int, stdout: bytes, expected: dict[str, str]) -> str | None:
    """None if the op's output is right, else the first reason it is not."""
    if code != 0:
        return f"exit code {code}"
    want = expected.get(op.key)
    if want is None:
        return "no expected output recorded for this op"
    if hashlib.sha256(stdout).hexdigest() != want:
        return "stdout differs from the recorded output"
    return output_self_check(op, stdout)


def output_self_check(op: Op, stdout: bytes) -> str | None:
    if "--format" in op.argv and op.argv[op.argv.index("--format") + 1] != "json":
        return None  # csv and text carry no self-checks
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return self_check(op, doc)


def self_check(op: Op, doc: dict) -> str | None:
    """The invariants the output documents carry themselves."""
    if op.kind == "exact":
        zeros = [s for s in ZUDILIN_ZERO_ARGUMENTS if doc["coeffs"].get(s) != "0"]
        return f"zeta({zeros[0]}) coefficient is not 0" if zeros else None
    command = doc.get("command")
    if command == "form":
        checks = doc["form"]["checks"]
        if checks["vanishing_ok"] is not True:
            return "vanishing_ok is not true"
        if checks["reconstruction"]["ok"] is not True:
            return "reconstruction.ok is not true"
        if checks["reflection"]["sign"] != -1:
            return "reflection sign is not -1"
    elif command == "subseq":
        psi = doc["psi"]
        count = int(op.argv[op.argv.index("--count") + 1])
        if doc["verification"]["passed"] is not True:
            return "verification.passed is not true"
        if len(psi) != count or any(b <= a for a, b in zip(psi, psi[1:])):
            return "psi is not strictly increasing with length count"
    elif command == "density":
        k_max = int(op.argv[op.argv.index("--kmax") + 1])
        if doc["k_max"] != k_max or not 0 <= doc["hits"] <= k_max:
            return "hit count out of range"
        if abs(float(doc["empirical"]) - float(doc["predicted"])) > 0.01:
            return "empirical density is not within 0.01 of the box volume"
    elif command == "criterion":
        report = doc["report"]
        if report["hypothesis_ok"] is not True or report["kappa_threshold"] != KAPPA:
            return "criterion report differs from kappa = 438.2213"
    else:
        return f"unexpected command {command!r} in the output"
    return None


# -- set-up and the closed loop --------------------------------------------------

def load_expected() -> dict[str, str]:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def setup(workload: str, seed: int, seconds: float, index: int):
    """Inputs, expected outputs and a bytecode-compiling import probe, timed."""
    pycache = BUILD / f"pycache-{index}"
    shutil.rmtree(pycache, ignore_errors=True)
    if not (ROOT / "src" / "zetaforms" / "cli.py").is_file():
        raise SetupError(f"no zetaforms sources under {ROOT / 'src'}")
    start = time.perf_counter()
    ops = cycle(workload, seed, seconds)
    expected = load_expected()
    env = child_env(pycache)
    probe = subprocess.run(
        [sys.executable, "-c", "import zetaforms.cli; print(zetaforms.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if probe.returncode != 0:
        raise SetupError(f"import probe failed: {probe.stderr.strip()[-500:]}")
    where = Path(probe.stdout.strip()).resolve()
    if ROOT / "src" not in where.parents:
        raise SetupError(f"zetaforms imported from {where}, not from this checkout")
    samples: list[float] = []
    calibrate(samples, 0.1)
    return elapsed, samples, ops, expected, env


def run_phase(ops: list[Op], env, expected, seconds: float, deadline: float,
              traced: bool = False) -> Phase:
    """Whole cycles, back to back, while the next is predicted to fit."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in ops:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                phase.aborted = True
                break
            trace_id = f"{phase.cycles}/{len(phase.results)}" if traced else None
            result = run_op(op, env, expected, min(OP_TIMEOUT_S, remaining), trace_id)
            phase.results.append(result)
            calibrate(phase.calibration, CALIBRATION_SHARE * result.latency_s)
        if phase.aborted:
            break
        phase.cycles += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
    phase.seconds = time.perf_counter() - start
    return phase


# -- metrics ------------------------------------------------------------------------

def latencies_by_shape(phase: Phase) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in phase.ok:
        out.setdefault(r.op.shape, []).append(r.latency_s)
    return out


def end_to_end(phase: Phase, setups: list[float], setup_speed: float) -> dict[str, dict]:
    """name -> {value, raw, unit, n, note}: times at the reference speed and
    as measured; keys absent where there is no sample.  The timed phase is
    the summed op latency, without the client's own work between ops."""
    ok = phase.ok
    latencies = [r.latency_s for r in ok]
    busy = sum(r.latency_s for r in phase.results) or math.inf
    out = {
        "ops_per_s": {"value": len(ok) / busy, "unit": "1/s", "n": len(ok)},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
        "peak_rss_mb": {"value": max((r.max_rss_kb for r in phase.results), default=0) / 1024,
                        "unit": "MB", "n": len(phase.results)},
        "fail_ratio": {"value": (len(phase.results) - len(ok)) / max(1, len(phase.results)),
                       "unit": "ratio", "n": len(phase.results)},
    }
    if latencies:
        out["op_p50_s"] = {"value": statistics.median(latencies), "unit": "s",
                           "n": len(latencies)}
    tail = tail_percentile(latencies)
    if tail is not None:
        p, value, n = tail
        out["op_tail_s"] = {"value": value, "unit": "s", "n": n, "note": f"p{p}"}
    by_shape = latencies_by_shape(phase)
    for name, shapes in (("form_n1_s", ("form_n1", "form_n1_fmt")),
                         ("form_n2_s", ("form_n2",))):
        values = [v for s in shapes for v in by_shape.get(s, [])]
        if values:
            out[name] = {"value": statistics.median(values), "unit": "s", "n": len(values)}
    exact = [s for s in by_shape if s.startswith("exact_n")]
    if exact:
        top = max(exact, key=lambda s: int(s[len("exact_n"):]))
        out["exact_top_s"] = {"value": statistics.median(by_shape[top]), "unit": "s",
                              "n": len(by_shape[top]), "note": top}
    for name, m in out.items():
        factor = setup_speed if name == "setup_s" else phase.speed
        if m["unit"] in ("s", "1/s"):
            m["raw"] = m["value"]
            m["value"] = m["value"] * factor if m["unit"] == "s" else m["value"] / factor
    return out


PER_LAYER_SPANS = {
    "zeta.table_s": "zeta.table",
    "zeta.em_s": "zeta.em",
    "zeta.alt_s": "zeta.alt",
    "forms.build_s": "forms.build",
    "forms.partial_fractions_s": "forms.partial_fractions",
    "forms.second_derivative_s": "forms.second_derivative",
    "forms.sum_over_k_s": "forms.sum_over_k",
    "forms.evaluate_numeric_s": "forms.evaluate_numeric",
    "forms.direct_sum_s": "forms.direct_sum",
    "forms.checks_s": "forms.checks",
    "exact.harmonic_power_sum_s": "exact.harmonic_power_sum",
    "oscillation.parse_angle_s": "oscillation.parse_angle",
    "oscillation.hypothesis_s": "oscillation.hypothesis",
    "oscillation.plan_s": "oscillation.plan",
    "oscillation.enumerate_psi_s": "oscillation.enumerate_psi",
    "oscillation.kw_density_s": "oscillation.kw_density",
    "fixedpoint.cos_s": "fixedpoint.cos",
    "criterion.report_s": "criterion.report",
    "cli.render_s": "cli.render",
}


def per_layer(traced: Phase, untraced: Phase) -> tuple[dict[str, float], dict]:
    """Per-layer metrics per cycle of the traced phase, and a readable
    breakdown (self time per layer, counts per op shape)."""
    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    values: dict[str, list[float]] = {}
    startup = 0.0
    cos_in_abs_cos = 0
    shapes: dict[str, dict[str, float]] = {}
    for r in traced.ok:
        trace = r.trace["trace"]
        spans = trace["spans"]
        op_totals = tracer.layer_totals(spans)
        for name, entry in op_totals.items():
            into = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        shape = shapes.setdefault(r.op.shape, {"ops": 0})
        shape["ops"] += 1
        for name, amount in trace["counters"].items():
            for into in (counters, shape):
                into[name] = (max if name.endswith("_max_index") else sum)(
                    (into.get(name, 0), amount))
        for name, got in trace["values"].items():
            values.setdefault(name, []).extend(got)
        op_span = op_totals["child.op"]["total_s"]
        startup += r.latency_s - op_span - r.trace["dump_s"]
        cos_in_abs_cos += tracer.child_calls(spans, "oscillation.abs_cos", "fixedpoint.cos")
        for name in ("forms.partial_fractions", "oscillation.enumerate_psi",
                     "fixedpoint.cos", "oscillation.abs_cos", "exact.harmonic_power_sum"):
            if name in op_totals:
                shape[f"{name}_calls"] = shape.get(f"{name}_calls", 0) + op_totals[name]["calls"]

    cycles = max(1, traced.cycles)
    per_cycle_s = traced.speed / cycles  # raw seconds -> reference seconds per cycle

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0) * per_cycle_s

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / cycles

    def count(name: str) -> float:
        return counters.get(name, 0) / cycles

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {name: total(span) for name, span in PER_LAYER_SPANS.items()}
    verify = totals.get("oscillation.verify_plan", {})
    abs_cos_calls = totals.get("oscillation.abs_cos", {}).get("calls", 0)
    metrics.update({
        "zeta.bernoulli_max_index": counters.get("zeta.bernoulli_max_index", 0),
        "zeta.bernoulli_calls": count("zeta.bernoulli_calls"),
        "zeta.power_tail_calls": count("zeta.power_tail_calls"),
        "zeta.power_tail_retry_ratio": ratio(counters.get("zeta.power_tail_retries", 0),
                                             counters.get("zeta.power_tail_calls", 0)),
        "forms.pf_terms": count("forms.pf_terms"),
        "forms.poles": count("forms.poles"),
        "forms.digits_lost": statistics.mean(values.get("forms.digits_lost", [0])),
        "exact.harmonic_power_sum_calls": calls("exact.harmonic_power_sum"),
        "oscillation.enumerate_psi_calls": calls("oscillation.enumerate_psi"),
        "oscillation.orbit_steps": count("oscillation.orbit_steps"),
        "oscillation.box_hit_ratio": ratio(counters.get("oscillation.box_hits", 0),
                                           counters.get("oscillation.orbit_steps", 0)),
        "oscillation.verify_plan_self_s": verify.get("self_s", 0.0) * per_cycle_s,
        "oscillation.box_eta": statistics.mean(values.get("oscillation.box_eta", [0])),
        "oscillation.kw_density_steps": count("oscillation.kw_density_steps"),
        "fixedpoint.cos_calls": calls("fixedpoint.cos"),
        "oscillation.cos_cache_hit_ratio": ratio(abs_cos_calls - cos_in_abs_cos, abs_cos_calls),
        "cli.startup_s": startup * per_cycle_s,
        "trace.overhead_ratio": ratio(cycle_s(traced), cycle_s(untraced)) - 1,
    })
    self_by_layer: dict[str, float] = {}
    for name, entry in totals.items():
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + entry["self_s"] * per_cycle_s
    self_by_layer["startup"] = startup * per_cycle_s
    return metrics, {"self_s_by_layer": self_by_layer, "per_shape": shapes}


def cycle_s(phase: Phase) -> float:
    """Summed op latency per cycle, at the reference speed."""
    return sum(r.latency_s for r in phase.results) * phase.speed / max(1, phase.cycles)


# -- report ----------------------------------------------------------------------------

def describe(name: str, m: dict) -> str:
    note = f", {m['note']}" if "note" in m else ""
    raw = f", raw {m['raw']:.6g}" if "raw" in m else ""
    return f"  {name:<16} {m['value']:>12.6g} {m['unit']:<6} (n={m['n']}{note}{raw})"


def report_phase(title: str, phase: Phase, metrics: dict[str, dict]) -> list[str]:
    lines = [f"{title}: {phase.cycles} cycle(s), {len(phase.results)} ops in "
             f"{phase.seconds:.2f} s; 1 closed-loop client, one child at a time",
             f"  times at the reference speed = raw * {phase.speed:.4f} "
             f"({len(phase.calibration)} calibration samples)"]
    lines += [describe(name, m) for name, m in metrics.items()]
    lines.append("  median latency by op shape: " + ", ".join(
        f"{shape} {statistics.median(v):.3f} s (n={len(v)})"
        for shape, v in sorted(latencies_by_shape(phase).items())))
    if "op_tail_s" not in metrics:
        lines.append(f"  {'op_tail_s':<16} omitted: {len(phase.ok)} ops, "
                     "fewer than 10 beyond any percentile above p50")
    for r in phase.results:
        if r.failure is not None:
            lines.append(f"  FAILED {r.op.key}: {r.failure}")
    if phase.aborted:
        lines.append(f"  run stopped at the {RUN_LIMIT_S:.0f} s limit")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def set_up(index: int):
        return setup(args.workload, args.seed, args.seconds, index)

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
    run_start = time.perf_counter()
    try:
        setups = [set_up(i) for i in range(SETUPS_BEFORE)]
    except (SetupError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    _, _, ops, expected, env = setups[-1]
    deadline = run_start + RUN_LIMIT_S
    if args.trace:
        untraced = run_phase(ops, env, expected, args.seconds / 2, deadline)
        traced = run_phase(ops, env, expected, args.seconds / 2, deadline, traced=True)
        phases = [untraced, traced]
    else:
        phases = [run_phase(ops, env, expected, args.seconds, deadline)]
    setups += [set_up(SETUPS_BEFORE + i) for i in range(SETUPS_AFTER)]
    setup_times = [s[0] for s in setups]
    setup_speed = speed_factor([sample for s in setups for sample in s[1]])

    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
             f"{len(ops)} ops per cycle"]
    e2e = end_to_end(phases[0], setup_times, setup_speed)
    lines += report_phase("untraced", phases[0], e2e)
    if args.trace:
        lines += report_phase("traced", traced, end_to_end(traced, setup_times, setup_speed))
        layer, breakdown = per_layer(traced, untraced)
        lines.append("per-layer metrics, per cycle of the traced phase:")
        lines += [f"  {name:<34} {value:.6g}" for name, value in layer.items()]
        lines.append("self time per layer, s per cycle: " + ", ".join(
            f"{k} {v:.4g}" for k, v in sorted(breakdown["self_s_by_layer"].items())))
        for shape, entry in sorted(breakdown["per_shape"].items()):
            lines.append(f"  {shape}: " + ", ".join(
                f"{k} {v:g}" for k, v in sorted(entry.items())))
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layer.items()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
                   for name in E2E_NAMES if name in e2e}

    attempted = sum(len(p.results) for p in phases)
    failed = sum(len(p.results) - len(p.ok) for p in phases)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and not any(p.aborted for p in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# The end-to-end metrics every workload reports (BENCHMARK.json end_to_end).
E2E_NAMES = ("ops_per_s", "op_p50_s", "setup_s", "peak_rss_mb")

LAYER_UNITS = {name: "s" for name in PER_LAYER_SPANS}
LAYER_UNITS.update({
    "zeta.bernoulli_max_index": "count",
    "zeta.bernoulli_calls": "count",
    "zeta.power_tail_calls": "count",
    "zeta.power_tail_retry_ratio": "ratio",
    "forms.pf_terms": "count",
    "forms.poles": "count",
    "forms.digits_lost": "digits",
    "exact.harmonic_power_sum_calls": "count",
    "oscillation.enumerate_psi_calls": "count",
    "oscillation.orbit_steps": "count",
    "oscillation.box_hit_ratio": "ratio",
    "oscillation.verify_plan_self_s": "s",
    "oscillation.box_eta": "ratio",
    "oscillation.kw_density_steps": "count",
    "fixedpoint.cos_calls": "count",
    "oscillation.cos_cache_hit_ratio": "ratio",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
})


if __name__ == "__main__":
    sys.exit(main())
