"""Tangle search: the fast path against the brute-force oracles, search
depth and budget on large domains, and module reloads."""

import gc
import importlib
import sys
import time
from itertools import combinations, combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree.cli import main
from tangletree.errors import BudgetExceededError
from tangletree.graph import Graph
from tangletree.separations import Separation, enumerate_separations, leq
from tangletree import tangles
from tangletree.tangles import (
    PreTangle,
    _Antichains,
    _consistency_witness,
    _mask_encoder,
    _maximal,
    check_pretangle,
    check_tangle,
    enumerate_tangles,
)
from tangletree.tree_of_tangles import build_tree_of_tangles
from .conftest import clique_chain_graph, grid_graph, path_graph
from .oracles import (
    _consistent_brute,
    _covers_brute,
    all_tangles_brute,
    consistency_witness_reference,
    maximal_sides_reference,
    tangle_search_reference,
    witness_triple_reference,
)

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


def _assert_search_visits(g: Graph, k: int, nodes: int) -> list:
    """The search's tangles, with its node count pinned by the budget: one
    node short of it is a budget error, and with it the search completes."""
    with pytest.raises(BudgetExceededError):
        enumerate_tangles(g, k, budget=nodes - 1)
    return enumerate_tangles(g, k, budget=nodes)


@settings(max_examples=80)
@given(g=connected_graphs(max_vertices=8), k=st.integers(1, 4))
def test_search_matches_list_scan_search(g, k):
    """Without a consistency test, with the size cutoff of the covering scan
    and with the pool kept by `_Antichains`, the search must decide as the
    list-scan search does at every node: the same tangles in the same
    order, in the same node count."""
    k = min(k, len(g.vertices) + 1)
    reference, nodes = tangle_search_reference(g, k)
    found = _assert_search_visits(g, k, nodes)
    assert [t._key for t in found] == [t._key for t in reference]


@settings(max_examples=80)
@given(g=connected_graphs(max_vertices=8), k=st.integers(1, 4), wide=st.sampled_from((0, 1)))
def test_search_on_the_index_from_the_first_node_matches_list_scan_search(g, k, wide):
    """With the width rule at 0, every antichain of the search is wide from
    the first insert on, so each domination and covering test reads the
    column index; at 1, lists of |V| members turn into the index part way
    down. The search must still decide as the list-scan search does at
    every node."""
    k = min(k, len(g.vertices) + 1)
    reference, nodes = tangle_search_reference(g, k)
    with mock.patch.object(tangles, "_WIDE", wide):
        found = _assert_search_visits(g, k, nodes)
    assert [t._key for t in found] == [t._key for t in reference]


def test_grid_search_switches_to_the_index_and_back(monkeypatch):
    """At the default rule the 3x6 grid search at order 4 turns its
    antichain into the index part way down, and backtracks above that depth
    to the list again, more than once; it still takes exactly 2,486 nodes
    and finds no tangle."""
    kinds = []
    insert = _Antichains.insert

    def recording(self, chain, x):
        kinds.append(type(chain))
        return insert(self, chain, x)

    monkeypatch.setattr(_Antichains, "insert", recording)
    assert _assert_search_visits(grid_graph(3, 6), 4, 2486) == []
    switches = [i for i in range(1, len(kinds)) if kinds[i - 1] is list and kinds[i] is tuple]
    returns = [i for i in range(1, len(kinds)) if kinds[i - 1] is tuple and kinds[i] is list]
    assert kinds[0] is list and len(switches) > 1 and len(returns) > 1


@settings(max_examples=150)
@given(g=connected_graphs(max_vertices=8), data=st.data())
def test_antichain_forms_agree(g, data):
    """Inserting one sequence of orientations, each of its own separation,
    into a list that never widens and into one that widens at once, at
    |V| / 4 members or at |V|: after each insert both report the same
    domination, and both say alike whether the new member and two others
    cover G. Small sides A are drawn more often, so that lists grow wide."""
    seps = enumerate_separations(g, min(2, len(g.vertices)))
    encode = _mask_encoder(g)
    family = []
    for i, (a, b) in enumerate(s.orient("b").masks for s in seps):
        family += (encode(a, b, 2 * i), encode(b, a, 2 * i + 1))
    small = [x if family[x][3] <= family[x ^ 1][3] else x ^ 1 for x in range(len(family))]
    draws = st.tuples(st.sampled_from(range(len(family))), st.integers(0, 5))
    picks = [small[x] ^ (r == 0) for x, r in data.draw(st.lists(draws, unique_by=lambda d: d[0] // 2))]
    wide = data.draw(st.sampled_from((0, 0.25, 1)))
    with mock.patch.object(tangles, "_WIDE", len(family) + 1):
        narrow = _Antichains(g, family)
    with mock.patch.object(tangles, "_WIDE", wide):
        indexed = _Antichains(g, family)
    chains = [[], []]
    for x in picks:
        grown = [narrow.insert(chains[0], x), indexed.insert(chains[1], x)]
        assert (grown[0] is chains[0]) == (grown[1] is chains[1])
        if grown[0] is not chains[0]:
            assert narrow.closes(grown[0], x) == indexed.closes(grown[1], x)
        chains = grown
    assert type(chains[0]) is list


def test_widened_antichain_keeps_its_largest_side():
    """On the path p00-...-p06, the list [({p00..p05}, {p05, p06}),
    ({p05, p06}, V)] turns into the index at 2 members. Their sides A cover
    G, so the second member closes a covering triple with the first taken
    twice; the size cutoff must read the largest |A| of the list, 6, not
    its last, 2."""
    g = path_graph(7)
    big = Separation.from_json(g, {"a": [f"p0{i}" for i in range(6)], "b": ["p05", "p06"]})
    small = Separation.from_json(g, {"a": ["p05", "p06"], "b": sorted(g.vertices)})
    encode = _mask_encoder(g)
    with mock.patch.object(tangles, "_WIDE", 2 / 7):
        antichains = _Antichains(g, [encode(*big.masks, 0), encode(*small.masks, 1)])
    chain = antichains.insert(antichains.insert([], 0), 1)
    assert type(chain) is tuple
    assert antichains.closes(chain, 1)


def _orientation_sets(g: Graph, k: int, kind: str, draw) -> dict:
    """Choices for every separation of order < k: a tangle, a tangle with one
    member flipped, or toward a vertex (see `_toward_vertex`)."""
    if kind == "toward a vertex":
        v = draw(st.sampled_from(sorted(g.vertices)))
        return _toward_vertex(g, enumerate_separations(g, k - 1), v, draw)
    found = enumerate_tangles(g, k)
    while not found:  # every connected graph has exactly one order-1 tangle
        k -= 1
        found = enumerate_tangles(g, k)
    choices = dict(draw(st.sampled_from(found)).choices)
    if kind == "flipped tangle":
        flip = draw(st.sampled_from(sorted(choices, key=lambda s: s.sort_key)))
        choices[flip] = "a" if choices[flip] == "b" else "b"
    return choices


@settings(max_examples=80)
@given(
    g=connected_graphs(max_vertices=8),
    k=st.integers(1, 4),
    kind=st.sampled_from(("tangle", "flipped tangle", "toward a vertex")),
    wide=st.sampled_from((0, 4)),
    data=st.data(),
)
def test_maximal_on_the_index_matches_linear_scan(g, k, kind, wide, data):
    """`_maximal` keeps the same members in the same order as the linear
    scan of its kept list, at width rule 0 (the index from the first
    member) and 4, and `cover` names the first member, in that order, that
    covers what each pair leaves out."""
    k = min(k, len(g.vertices) + 1)
    choices = _orientation_sets(g, k, kind, data.draw)
    ordered = sorted((s.orient(t) for s, t in choices.items()), key=lambda o: -len(o.side_a))
    encode = _mask_encoder(g)
    family = [encode(*o.masks, x) for x, o in enumerate(ordered)]
    with mock.patch.object(tangles, "_WIDE", wide):
        antichains, chain = _maximal(g, family)
    kept = antichains.members(chain)
    assert kept == maximal_sides_reference(family)
    for x, y in combinations_with_replacement(kept, 2):
        first = next((z for z in kept if _covers_brute(g, (ordered[x[4]], ordered[y[4]], ordered[z[4]]))), None)
        assert antichains.cover(chain, x, y) == first


@settings(max_examples=80)
@given(
    g=connected_graphs(),
    k=st.integers(1, 4),
    kind=st.sampled_from(("flipped tangle", "toward a vertex")),
    wide=st.sampled_from((0, 4)),
    data=st.data(),
)
def test_witnesses_match_list_scans(g, k, kind, wide, data):
    """The witness triple and pair of `check_tangle`, and the pair of
    `check_pretangle`, are those of the list scans, with the index from
    the first member or at the default width."""
    k, _ = _order_and_domain(g, k)
    p = PreTangle(g, k, _orientation_sets(g, k, kind, data.draw))
    with mock.patch.object(tangles, "_WIDE", wide):
        report = check_tangle(g, p)
    assert report.witness_triple == witness_triple_reference(g, p)
    pair = consistency_witness_reference(p.oriented_members())
    assert report.pretangle.witness_pair == pair
    assert check_pretangle(g, p).witness_pair == pair


def test_flipped_clique_chain_tangle_witnesses():
    """The order-3 tangle of the eight-K6 chain around its first clique
    (1,926 members) with its middle member, in sort order, flipped: that
    member becomes the co-small (V, {c2_3, c7_4}). It covers G three times
    over, and with the member that points at the last clique from V minus
    its inner vertices, it is the first inconsistent pair. Both witnesses
    are those of the list scans."""
    g = clique_chain_graph(8, 6)
    choices = dict(enumerate_tangles(g, 3)[0].choices)
    flip = sorted(choices, key=lambda s: s.sort_key)[len(choices) // 2]
    choices[flip] = "a" if choices[flip] == "b" else "b"
    p = PreTangle(g, 3, choices)
    report = check_tangle(g, p)
    flipped = flip.orient(choices[flip])
    assert (flipped.side_a, flipped.side_b) == (g.vertices, frozenset({"c2_3", "c7_4"}))
    assert report.witness_triple == (flipped, flipped, flipped)
    x, y = report.pretangle.witness_pair
    last = frozenset(f"c7_{i}" for i in range(1, 7))
    assert x is flipped
    assert (y.side_a, y.side_b) == (g.vertices - {"c7_2", "c7_3", "c7_5", "c7_6"}, last)
    assert report.pretangle.witness_pair == consistency_witness_reference(p.oriented_members())


def test_maximal_pair_check_reads_both_sides():
    """On the star with centre v0 and leaves v1, v2, v3, the members
    ({v0,v2,v3}, {v0,v1}) and ({v0,v1,v2}, {v0,v3}) are inconsistent and
    both <=-maximal, though (V, {v1,v3}) holds both sides A. A domination
    test on sides A alone would hide the pair behind that member."""
    g = Graph.from_data(["v0", "v1", "v2", "v3"], [("v0", "v1"), ("v0", "v2"), ("v0", "v3")])
    x = Separation(g, frozenset({"v0", "v2", "v3"}), frozenset({"v0", "v1"}))
    y = Separation(g, frozenset({"v0", "v1", "v2"}), frozenset({"v0", "v3"}))
    top = Separation(g, g.vertices, frozenset({"v1", "v3"}))
    p = PreTangle(g, 3, {s.canonical(): "b" if s.canonical() is s else "a" for s in (x, y, top)})
    report = check_pretangle(g, p)
    assert not report.consistent
    assert report.witness_pair == (x, y) == consistency_witness_reference(p.oriented_members())


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_data(["x"], []),
        Graph.from_data(["x", "y"], [("x", "y")]),
        path_graph(3),
    ],
    ids=["single vertex", "K2", "path of 3"],
)
def test_order_one_tangle_is_the_empty_small_side(g):
    """Every search starts at the order-0 separation {∅, V}, with nothing
    chosen. The covering test rejects (V, ∅), as V alone covers G, so the
    one order-1 tangle orients {∅, V} as (∅, V)."""
    (t,) = enumerate_tangles(g, 1)
    (member,) = t.oriented_members()
    assert (member.side_a, member.side_b) == (frozenset(), g.vertices)
    assert check_tangle(g, t).ok


@pytest.mark.parametrize(
    "g, k", [(grid_graph(4, 4), 3), (clique_chain_graph(3, 5), 3)], ids=["4x4 grid", "three-K5 chain"]
)
def test_passing_check_tangle_orients_no_member(g, k):
    """`check_tangle` reads each member's sides as masks off its choice, so a
    passing check on a fresh tangle builds no reverse `Separation`, although
    members point toward side a."""
    tangle = enumerate_tangles(g, k)[0]
    assert "a" in tangle.choices.values()
    with mock.patch.object(Separation, "reverse", autospec=True, side_effect=Separation.reverse) as reverse:
        assert check_tangle(g, tangle).ok
    assert reverse.call_count == 0


def test_check_pretangle_on_flipped_co_small_member():
    """K2's order-2 tangle with {∅, V} flipped to the co-small (V, ∅). A
    co-small member is inconsistent with itself, which the <=-maximal filter
    flags; consistency asks about distinct separations, so the verdict and
    witness come from the full scan. Alone, at order 1, it is consistent and
    only the covering axiom fails. The choices go in backwards: the members,
    and so the witness, follow canonical order, not insertion order."""
    g = Graph.from_data(["x", "y"], [("x", "y")])
    empty = Separation.from_json(g, {"a": [], "b": ["x", "y"]})
    (edge,) = enumerate_tangles(g, 2)
    choices = {**edge.choices, empty: "a"}
    ordered = sorted(choices, key=lambda s: s.sort_key)
    p = PreTangle(g, 2, {s: choices[s] for s in reversed(ordered)})
    assert [o.canonical() for o in p.oriented_members()] == ordered
    report = check_pretangle(g, p)
    assert report.complete and not report.consistent
    x, y = report.witness_pair
    assert (x.side_a, x.side_b) == (g.vertices, frozenset())
    assert (y.side_a, y.side_b) == (frozenset("x"), g.vertices)
    alone = check_tangle(g, PreTangle(g, 1, {empty: "a"}))
    assert alone.pretangle.ok and alone.pretangle.witness_pair is None
    assert not alone.axiom_ok


@settings(max_examples=60)
@given(g=connected_graphs(), data=st.data())
def test_inconsistent_pair_is_a_covering_triple(g, data):
    """Why the search needs no consistency test: if reverse(x) <= y for
    orientations x, y of distinct separations, then x, y, y cover G."""
    seps = enumerate_separations(g, min(2, len(g.vertices)))
    x = data.draw(st.sampled_from(seps)).orient(data.draw(st.sampled_from("ab")))
    for y in (o for s in seps for o in s.orientations()):
        if y.canonical() != x.canonical() and leq(x.reverse(), y):
            assert _covers_brute(g, (x, y, y))


def test_clique_chain_order_three_search_visits_33448_nodes():
    tangles = _assert_search_visits(clique_chain_graph(8, 6), 3, 33448)
    assert len(tangles) == 8


def test_grid_four_by_six_order_four_search_visits_5458_nodes():
    tangles = _assert_search_visits(grid_graph(4, 6), 4, 5458)
    assert len(tangles) == 1


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


def _toward_vertex(g: Graph, seps, v: str, draw) -> dict:
    """Each separation toward the side whose strict part holds v; where v
    lies in the separator, toward V for an improper separation and by a
    drawn choice otherwise."""
    choices = {}
    for sep in seps:
        if v in sep.side_b - sep.side_a:
            choices[sep] = "b"
        elif v in sep.side_a - sep.side_b or sep.side_a == g.vertices:
            choices[sep] = "a"
        elif sep.side_b == g.vertices:
            choices[sep] = "b"
        else:
            choices[sep] = draw(st.sampled_from("ab"))
    return choices


@settings(max_examples=60)
@given(g=connected_graphs(), k=st.integers(2, 4), data=st.data())
def test_check_tangle_toward_a_vertex_matches_brute_force(g, k, data):
    """Orientations toward a vertex (see `_toward_vertex`) are often
    consistent yet covered only by distinct members, which a flipped tangle
    rarely is."""
    k, seps = _order_and_domain(g, k)
    v = data.draw(st.sampled_from(sorted(g.vertices)))
    _assert_check_matches_brute(g, PreTangle(g, k, _toward_vertex(g, seps, v, data.draw)))


@settings(max_examples=100)
@given(
    g=connected_graphs(),
    k=st.integers(1, 4),
    kind=st.sampled_from(("flipped tangle", "tangle flipped to co-small", "toward a vertex", "co-small member")),
    data=st.data(),
)
def test_fast_consistency_check_matches_full_scan(g, k, kind, data):
    """`check_pretangle` runs the first-pair scan only when the <=-maximal
    members flag a pair, and `check_tangle` runs that check only when the
    covering axiom fails; each verdict and witness must be the full scan's.
    The co-small variants turn one improper separation toward (V, S), in a
    tangle or toward a vertex; such a member is maximal, and only a distinct
    member z with reverse(z) <= (V, S) makes the set inconsistent."""
    k, seps = _order_and_domain(g, k)
    if kind == "toward a vertex" or kind == "co-small member":
        v = data.draw(st.sampled_from(sorted(g.vertices)))
        choices = _toward_vertex(g, seps, v, data.draw)
    else:
        tangles = enumerate_tangles(g, k)
        while not tangles:  # every connected graph has exactly one order-1 tangle
            k -= 1
            tangles = enumerate_tangles(g, k)
        choices = dict(data.draw(st.sampled_from(tangles)).choices)
    if kind == "flipped tangle":
        flip = data.draw(st.sampled_from(sorted(choices, key=lambda s: s.sort_key)))
        choices[flip] = "a" if choices[flip] == "b" else "b"
    elif kind != "toward a vertex":
        improper = [s for s in sorted(choices, key=lambda s: s.sort_key) if not s.is_proper()]
        sep = data.draw(st.sampled_from(improper))
        choices[sep] = "b" if sep.side_a == g.vertices else "a"
        assert sep.orient(choices[sep]).side_a == g.vertices
    p = PreTangle(g, k, choices)
    members = p.oriented_members()
    report = check_pretangle(g, p)
    assert report.witness_pair == _consistency_witness(members)
    assert report.consistent == (report.witness_pair is None) == _consistent_brute(members)
    assert check_tangle(g, p).pretangle == report


def test_co_small_maximal_member_alone_runs_no_scan():
    """The order-4 tangle of the 4x6 grid with its middle member, in sort
    order, flipped: that member becomes the co-small (V, S) with
    S = {g05, g11, g25}, which no other member's reverse lies below. The
    set stays consistent."""
    g = grid_graph(4, 6)
    (tangle,) = enumerate_tangles(g, 4)
    choices = dict(tangle.choices)
    flip = sorted(choices, key=lambda s: s.sort_key)[len(choices) // 2]
    choices[flip] = "a" if choices[flip] == "b" else "b"
    assert flip.orient(choices[flip]).side_a == g.vertices
    p = PreTangle(g, 4, choices)
    report = check_tangle(g, p)
    assert report.pretangle == check_pretangle(g, p)
    assert report.pretangle.ok and report.pretangle.witness_pair is None
    assert not report.axiom_ok


def test_co_small_maximal_member_with_a_partner_is_inconsistent():
    """On the path p00-p01-p02 at order 2, (V, {}) is maximal and co-small,
    and ({p00}, V) is a distinct member whose reverse lies below it."""
    g = path_graph(3)
    (tangle, _) = enumerate_tangles(g, 2)
    choices = dict(tangle.choices)
    empty = next(s for s in choices if not s.separator)
    choices[empty] = "b" if empty.side_a == g.vertices else "a"
    report = check_pretangle(g, PreTangle(g, 2, choices))
    assert not report.consistent
    x, y = report.witness_pair
    assert (x.side_a, x.side_b) == (g.vertices, frozenset())
    assert (y.side_a, y.side_b) == (frozenset({"p00"}), g.vertices)


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


def test_grid_order_four_search_visits_2486_nodes():
    """The search's node count, pinned: one node short of it is a budget
    error, and with it the search completes and finds no tangle."""
    g = grid_graph(3, 6)
    with pytest.raises(BudgetExceededError):
        enumerate_tangles(g, 4, budget=2485)
    assert enumerate_tangles(g, 4, budget=2486) == []


def test_edge_decides_covering_triple():
    """A pendant edge c-p on two triangles c,x,y and x,y,z. Its order-2
    tangle at the bridge holds (∅ | V), ({p} | V) and ({c, x, y, z} | {c, p}).
    Their sides A cover every vertex but miss the edge c-p, so they are no
    covering triple, and only the edge masks tell the search and
    `check_tangle` so."""
    g = Graph.from_data("cpxyz", [("c", "p"), ("c", "x"), ("c", "y"), ("x", "y"), ("x", "z"), ("y", "z")])
    tangles = enumerate_tangles(g, 2)
    assert len(tangles) == 2  # one per block with an edge: the bridge and the rest
    split = Separation.from_json(g, {"a": ["c", "p"], "b": ["c", "x", "y", "z"]})
    bridge = next(t for t in tangles if t.choices[split] == "a")  # B = {c, p}
    sides = [frozenset("cxyz"), frozenset("p"), frozenset()]
    members = {o.side_a: o for o in bridge.oriented_members()}
    triple = [members[a] for a in sides]
    assert frozenset().union(*sides) == g.vertices
    assert g.edges - frozenset().union(*(g.edges_within(o.side_a) for o in triple)) == {("c", "p")}
    assert check_tangle(g, bridge).ok


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
