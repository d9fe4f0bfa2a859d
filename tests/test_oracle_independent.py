"""The direct_sum oracle shares no code or tables with the partial-fraction
route it checks: nothing that `forms.direct_sum` reaches by name, following
the module-level functions and classes of forms.py (a class with all its
methods), names `partial_fractions`, `PartialFractionExpansion`,
`sum_over_k`, `ZetaTable` or `evaluate`.  `evaluate` is on the list because
`reconstruction_check` trusts `FactoredRationalFunction.evaluate` to check
the expansion: an oracle that read R(k) through it would share that
evaluator with the side it checks, so the walk reads the factor list.

Likewise in zeta.py, ZetaTable's two routes: nothing `zeta_alternating`
reaches names `pi_scaled`, `bernoulli`, `tangent_number` or `zeta_lambert`,
and nothing `zeta_lambert` reaches names `zeta_alternating`."""

import ast
from pathlib import Path

import zetaforms

FORMS = Path(zetaforms.__file__).parent / "forms.py"
EXACT_ROUTE = {"partial_fractions", "PartialFractionExpansion", "sum_over_k", "ZetaTable",
               "evaluate"}
ZETA = Path(zetaforms.__file__).parent / "zeta.py"
LAMBERT_ROUTE = {"pi_scaled", "bernoulli", "tangent_number", "zeta_lambert"}


def _names(node: ast.AST) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def _route(tree: ast.Module, start: str) -> dict[str, set[str]]:
    """Each module-level definition reached from `start` -> the names it reads."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    route, todo = {}, [start]
    while todo:
        name = todo.pop()
        if name not in route:
            route[name] = _names(defs[name])
            todo += sorted(route[name] & defs.keys())
    return route


def test_direct_sum_route_shares_nothing_with_partial_fractions():
    route = _route(ast.parse(FORMS.read_text(encoding="utf-8")), "direct_sum")
    assert {"_second_derivative_terms", "_exact_term", "FactoredRationalFunction"} <= route.keys()
    shared = {name: sorted(names & EXACT_ROUTE) for name, names in route.items()
              if names & EXACT_ROUTE}
    assert shared == {}, "direct_sum's route reads the exact route: " + repr(shared)


def test_route_sees_a_shared_name():
    # the walk follows calls: a helper two calls away that names
    # partial_fractions is found
    tree = ast.parse(
        "def direct_sum(f):\n    return _walk(f)\n"
        "def _walk(f):\n    return _seed(f)\n"
        "def _seed(f):\n    return partial_fractions(f)\n"
    )
    assert _route(tree, "direct_sum")["_seed"] & EXACT_ROUTE == {"partial_fractions"}


def _shared(route: dict[str, set[str]], banned: set[str]) -> dict[str, list[str]]:
    return {name: sorted(names & banned) for name, names in route.items() if names & banned}


def test_zeta_routes_share_nothing():
    tree = ast.parse(ZETA.read_text(encoding="utf-8"))
    alternating = _route(tree, "zeta_alternating")
    assert _shared(alternating, LAMBERT_ROUTE) == {}, (
        "zeta_alternating's route reads the Lambert route: "
        + repr(_shared(alternating, LAMBERT_ROUTE)))
    lambert = _route(tree, "zeta_lambert")
    assert {"_lambert_scaled", "_exp_neg", "bernoulli", "tangent_number"} <= lambert.keys()
    assert _shared(lambert, {"zeta_alternating"}) == {}


def test_zeta_route_sees_a_shared_name():
    tree = ast.parse(
        "def zeta_alternating(s, d):\n    return _weights(s, d)\n"
        "def _weights(s, d):\n    return pi_scaled(d)\n"
    )
    assert _shared(_route(tree, "zeta_alternating"), LAMBERT_ROUTE) == {
        "_weights": ["pi_scaled"]}
