"""Spans and counters recorded around calls into zetaforms, from outside.

Child side: `install(recorder)` replaces public functions of the package
modules, as they are looked up at call time, with wrappers that record a
span (name, parent, start, end) or bump a counter.  A function imported
into several modules (`forms.partial_fractions` is also
`cli.partial_fractions`) gets one wrapper, set in every module that holds
it, so a call is recorded once whichever module it goes through.  Spans
stay in memory and are written once, when the op ends.

Parent side: `self_time` and `layer_totals` turn one op's spans into
per-name durations.  A span's self time is its duration minus the part of
it that its child spans cover.

Nothing here reads private module state: the decision counts come from
wrapper arguments and return values.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute, span name).  Several attributes may share a span name;
# a span nested in another of the same name is not counted twice.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "render", "cli.render"),
    ("forms", "build_zudilin", "forms.build"),
    ("forms", "partial_fractions", "forms.partial_fractions"),
    ("forms", "second_derivative", "forms.second_derivative"),
    ("forms", "sum_over_k", "forms.sum_over_k"),
    ("forms", "evaluate_numeric", "forms.evaluate_numeric"),
    ("forms", "direct_sum", "forms.direct_sum"),
    ("forms", "check_zudilin_vanishing", "forms.checks"),
    ("forms", "reconstruction_check", "forms.checks"),
    ("forms", "reflection_check", "forms.checks"),
    ("forms", "common_denominator", "forms.checks"),
    ("exact", "harmonic_power_sum", "exact.harmonic_power_sum"),
    ("zeta", "ZetaTable.__init__", "zeta.table"),
    ("zeta", "zeta_euler_maclaurin", "zeta.em"),
    ("zeta", "zeta_alternating", "zeta.alt"),
    ("oscillation", "parse_angle", "oscillation.parse_angle"),
    ("oscillation", "hypothesis_multi", "oscillation.hypothesis"),
    ("oscillation", "build_plan_general", "oscillation.plan"),
    ("oscillation", "enumerate_psi", "oscillation.enumerate_psi"),
    ("oscillation", "verify_plan", "oscillation.verify_plan"),
    ("oscillation", "kw_density", "oscillation.kw_density"),
    ("oscillation", "CosEvaluator.abs_cos", "oscillation.abs_cos"),
    ("fixedpoint", "cos_pi_argument", "fixedpoint.cos"),
    ("criterion", "zudilin_constants", "criterion.report"),
    ("criterion", "dimension_bound", "criterion.report"),
    ("criterion", "exponent_threshold", "criterion.report"),
    ("criterion", "oscillating_report", "criterion.report"),
)

MODULES = ("cli", "criterion", "exact", "fixedpoint", "forms", "oscillation", "zeta")


class Recorder:
    """In-memory spans and counters of one op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.values: dict[str, list[float]] = {}  # decisions, averaged later

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str, op_id: str) -> None:
        t0 = time.perf_counter()
        payload = json.dumps(
            {"op": op_id, "spans": self.spans, "counters": self.counters,
             "values": self.values}
        )
        dump_s = time.perf_counter() - t0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f'{{"dump_s": {dump_s!r}, "trace": {payload}}}')


# -- hooks: decision counts from arguments and results -----------------------

def _after_partial_fractions(rec, args, result):
    rec.add("forms.pf_terms", len(result.terms))
    rec.add("forms.poles", len({m for m, _ in result.terms}))


def _after_evaluate_numeric(rec, args, result):
    table = args[1]
    rec.values.setdefault("forms.digits_lost", []).append(table.digits - result.digits)


def _after_plan(rec, args, result):
    if result.box is not None:
        rec.values.setdefault("oscillation.box_eta", []).append(float(result.box.eta))


def _after_enumerate_psi(rec, args, result):
    plan = args[0]
    if plan.mode != "rational":  # psi = big_d * n * d + a for the n that hit
        rec.add("oscillation.orbit_steps", (result[-1] - plan.a) // (plan.big_d * plan.d))
        rec.add("oscillation.box_hits", len(result))


def _after_kw_density(rec, args, result):
    rec.add("oscillation.kw_density_steps", args[2])


HOOKS = {
    "forms.partial_fractions": _after_partial_fractions,
    "forms.evaluate_numeric": _after_evaluate_numeric,
    "oscillation.plan": _after_plan,
    "oscillation.enumerate_psi": _after_enumerate_psi,
    "oscillation.kw_density": _after_kw_density,
}


def _span_wrapper(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


def _bernoulli_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(n):
        rec.add("zeta.bernoulli_calls")
        rec.maximum("zeta.bernoulli_max_index", n)
        return fn(n)

    return wrapper


def _power_tail_wrapper(rec: Recorder, fn, budget_error):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add("zeta.power_tail_calls")
        try:
            return fn(*args, **kwargs)
        except budget_error:
            rec.add("zeta.power_tail_retries")
            raise

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the traced functions of the imported zetaforms package."""
    import importlib

    modules = {name: importlib.import_module(f"zetaforms.{name}") for name in MODULES}
    namespaces = [importlib.import_module("zetaforms"), *modules.values()]

    def replace(original, wrapper):
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)

    for module, attr, span_name in SPANS:
        owner = modules[module]
        if "." in attr:  # a method: patch the class attribute
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, _span_wrapper(rec, span_name, getattr(cls, method)))
        else:
            original = getattr(owner, attr)
            replace(original, _span_wrapper(rec, span_name, original))

    zeta = modules["zeta"]
    replace(zeta.bernoulli, _bernoulli_wrapper(rec, zeta.bernoulli))
    replace(zeta.power_tail_scaled,
            _power_tail_wrapper(rec, zeta.power_tail_scaled, zeta.BudgetError))


# -- parent side ---------------------------------------------------------------

def self_time(spans: list) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, parent, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (a span inside another of
    the same name is not added again) and self seconds."""
    selfs = self_time(spans)
    out: dict[str, dict[str, float]] = {}
    for index, (name, parent, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["total_s"] += end - start
    return out


def child_calls(spans: list, parent_name: str, child_name: str) -> int:
    """Spans named child_name whose direct parent is named parent_name."""
    return sum(
        1 for name, parent, _, _ in spans
        if name == child_name and parent >= 0 and spans[parent][0] == parent_name
    )
