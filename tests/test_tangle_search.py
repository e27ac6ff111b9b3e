"""Tangle search: the fast path against the brute-force oracles, search
depth and budget on large domains, and module reloads."""

import gc
import importlib
import sys
import time
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree.cli import main
from tangletree.errors import BudgetExceededError
from tangletree.graph import Graph
from tangletree.separations import enumerate_separations, leq
from tangletree.tangles import PreTangle, check_tangle, enumerate_tangles
from tangletree.tree_of_tangles import build_tree_of_tangles
from .conftest import clique_chain_graph, grid_graph
from .oracles import _consistent_brute, _covers_brute, all_tangles_brute

# The oracles re-scan every triple at every search node, so their time grows
# with the cube of the domain; this caps the separations one example gives them.
ORACLE_SEPARATIONS = 60


@st.composite
def connected_graphs(draw, max_vertices: int = 7) -> Graph:
    n = draw(st.integers(1, max_vertices))
    verts = [f"v{i}" for i in range(n)]
    edges = {(verts[draw(st.integers(0, i - 1))], verts[i]) for i in range(1, n)}
    pairs = list(combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {e for e, kept in zip(pairs, keep) if kept}
    return Graph.from_data(verts, edges)


def _order_and_domain(g: Graph, k: int):
    """The largest order <= k whose domain fits the oracle cap."""
    k = min(k, len(g.vertices) + 1)
    while True:
        seps = enumerate_separations(g, k - 1)
        if k == 1 or len(seps) <= ORACLE_SEPARATIONS:
            return k, seps
        k -= 1


@settings(max_examples=40)
@given(g=connected_graphs(), k=st.integers(1, 4))
def test_enumerate_tangles_matches_brute_force(g, k):
    k, seps = _order_and_domain(g, k)
    fast = [t._key for t in enumerate_tangles(g, k)]
    brute = [t._key for t in all_tangles_brute(g, k, seps)]
    assert fast == brute


def _assert_check_matches_brute(g: Graph, p: PreTangle) -> None:
    members = p.oriented_members()
    report = check_tangle(g, p)
    assert report.pretangle.complete
    assert report.pretangle.consistent == _consistent_brute(members)
    if report.pretangle.witness_pair is not None:
        x, y = report.pretangle.witness_pair
        assert x in members and y in members and leq(x.reverse(), y)
    covered = any(
        _covers_brute(g, triple)
        for triple in combinations_with_replacement(members, 3)
    )
    assert report.axiom_ok == (not covered)
    if report.witness_triple is not None:
        assert all(o in members for o in report.witness_triple)
        assert _covers_brute(g, report.witness_triple)


@settings(max_examples=60)
@given(g=connected_graphs(), k=st.integers(1, 4), data=st.data())
def test_check_tangle_on_flipped_member_matches_brute_force(g, k, data):
    k, _ = _order_and_domain(g, k)
    tangles = enumerate_tangles(g, k)
    while not tangles:  # every connected graph has exactly one order-1 tangle
        k -= 1
        tangles = enumerate_tangles(g, k)
    t = data.draw(st.sampled_from(tangles))
    assert check_tangle(g, t).ok
    flip = data.draw(st.sampled_from(sorted(t.choices, key=lambda s: s.sort_key)))
    choices = dict(t.choices)
    choices[flip] = "a" if choices[flip] == "b" else "b"
    _assert_check_matches_brute(g, PreTangle(g, k, choices))


@settings(max_examples=60)
@given(g=connected_graphs(), k=st.integers(2, 4), data=st.data())
def test_check_tangle_toward_a_vertex_matches_brute_force(g, k, data):
    """Orient each separation toward the side whose strict part holds v;
    where v lies in the separator, toward V for an improper separation and
    by a drawn choice otherwise. Such orientations are often consistent yet
    covered only by distinct members, which a flipped tangle rarely is."""
    k, seps = _order_and_domain(g, k)
    v = data.draw(st.sampled_from(sorted(g.vertices)))
    choices = {}
    for sep in seps:
        if v in sep.side_b - sep.side_a:
            choices[sep] = "b"
        elif v in sep.side_a - sep.side_b or sep.side_a == g.vertices:
            choices[sep] = "a"
        elif sep.side_b == g.vertices:
            choices[sep] = "b"
        else:
            choices[sep] = data.draw(st.sampled_from("ab"))
    _assert_check_matches_brute(g, PreTangle(g, k, choices))


def test_grid_order_four_finishes_without_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert enumerate_tangles(grid_graph(3, 6), 4) == []
    finally:
        sys.setrecursionlimit(limit)


def test_grid_order_four_budget_is_a_budget_error():
    with pytest.raises(BudgetExceededError):
        enumerate_tangles(grid_graph(3, 6), 4, budget=100)


def test_cli_tangles_grid_order_four(tmp_path):
    src = tmp_path / "grid.json"
    src.write_text(grid_graph(3, 6).dumps())
    assert main(["tangles", "--input", str(src), "--order", "4"]) == 0


def test_five_k6_chain_order_three():
    started = time.monotonic()
    g = clique_chain_graph(5, 6)
    tangles = enumerate_tangles(g, 3)
    nested = build_tree_of_tangles(g, list(tangles))
    assert len(tangles) == 5
    assert len(nested) == 4
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"five-K6 chain exceeded 10s ({elapsed:.1f}s)"
    print(f"[PASS] five-K6 chain ({elapsed:6.2f}s): 5 tangles of order 3, 4 members")


def test_reimport_releases_previous_module_classes():
    def package_modules():
        return {
            name: mod
            for name, mod in sys.modules.items()
            if name == "tangletree" or name.startswith("tangletree.")
        }

    saved = package_modules()
    try:
        for _ in range(5):
            for name in package_modules():
                del sys.modules[name]
            importlib.import_module("tangletree")
        gc.collect()
        alive = [
            o
            for o in gc.get_objects()
            if isinstance(o, type)
            and o.__module__ == "tangletree.tangles"
            and o.__qualname__ == "PreTangle"
        ]
        # the class the test modules imported, and the last fresh one
        assert len(alive) <= 2
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
