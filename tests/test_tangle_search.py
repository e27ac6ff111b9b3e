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
from tangletree.graph import Graph, _blocks, _select
from tangletree.separations import DEFAULT_ENUMERATION_BUDGET, Separation, _enumeration, enumerate_separations, leq
from tangletree import graph, separations, tangles
from tangletree.tangles import (
    DEFAULT_TANGLE_BUDGET,
    PreTangle,
    _Antichains,
    _consistency_witness,
    _cover,
    _mask_encoder,
    _search_tangles,
    _tables,
    _tangles_of,
    check_pretangle,
    check_tangle,
    enumerate_tangles,
)
from tangletree.tree_of_tangles import build_tree_of_tangles
from .conftest import clique_chain_graph, grid_graph, path_graph, two_k5_shared_vertex
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
    fast = [t.sort_key for t in enumerate_tangles(g, k)]
    brute = [t.sort_key for t in all_tangles_brute(g, k, seps)]
    assert fast == brute


def _assert_search_visits(g: Graph, k: int, nodes: int, split: bool = False) -> list:
    """The search's tangles, with its node count pinned by the budget: one
    node short of a count above 0 is a budget error, and with it the search
    completes. The search is one on the whole graph, or with split, that of
    `enumerate_tangles`, which searches each block of a graph with a cut
    vertex on its own."""
    if nodes:
        with pytest.raises(BudgetExceededError):
            _search_tangles(g, k, nodes - 1, split)
    return _search_tangles(g, k, nodes, split)


@settings(max_examples=80)
@given(g=connected_graphs(max_vertices=8), k=st.integers(1, 4))
def test_search_matches_the_orientation_search_and_brute_force(g, k):
    """The haven search finds the tangles of the search over orientations,
    in the same order, within that search's node count; and at the largest
    order whose domain fits the brute-force oracle, the oracle's tangles."""
    k = min(k, len(g.vertices) + 1)
    reference, nodes = tangle_search_reference(g, k)
    found = enumerate_tangles(g, k, budget=nodes)
    assert [t.sort_key for t in found] == [t.sort_key for t in reference]
    k, seps = _order_and_domain(g, k)
    assert [t.sort_key for t in enumerate_tangles(g, k)] == [t.sort_key for t in all_tangles_brute(g, k, seps)]


@settings(max_examples=80)
@given(g=connected_graphs(max_vertices=8), k=st.integers(1, 4), wide=st.sampled_from((0, 1)))
def test_search_on_the_index_from_the_first_node_matches_the_orientation_search(g, k, wide):
    """With the width rule at 0, every antichain of the search is wide from
    the first insert on, so each domination and covering test reads the
    column index; at 1, lists of |V| members turn into the index part way
    through the forced sides. The search must still find the tangles of the
    search over orientations, in the same order, within its node count."""
    k = min(k, len(g.vertices) + 1)
    reference, nodes = tangle_search_reference(g, k)
    with mock.patch.object(tangles, "_WIDE", wide):
        found = enumerate_tangles(g, k, budget=nodes)
    assert [t.sort_key for t in found] == [t.sort_key for t in reference]


def _insert_kinds(monkeypatch) -> list:
    """The form of the antichain before each insert, recorded from now on."""
    kinds = []
    insert = _Antichains.insert

    def recording(self, chain, x):
        kinds.append(type(chain))
        return insert(self, chain, x)

    monkeypatch.setattr(_Antichains, "insert", recording)
    return kinds


def _switches(kinds: list, old: type, new: type) -> list:
    return [i for i in range(1, len(kinds)) if kinds[i - 1] is old and kinds[i] is new]


def test_grid_search_switches_to_the_index_and_back(monkeypatch):
    """At the default rule the search over orientations on the 3x6 grid at
    order 4 turns its antichain into the index part way down, and
    backtracks above that depth to the list again, in exactly 2,486 nodes.
    The haven search's antichain is widest at the root, where the 710
    maximal forced sides go in: it turns into the index among them, once,
    and its branching sides never take it back. With the rule at 40 (720
    members) it stays a list. Both forms find no tangle in 123 nodes."""
    g = grid_graph(3, 6)
    kinds = _insert_kinds(monkeypatch)
    found, nodes = tangle_search_reference(g, 4)
    assert (found, nodes) == ([], 2486)
    (switch,), (back,) = _switches(kinds, list, tuple), _switches(kinds, tuple, list)
    assert kinds[0] is list and switch < back
    assert _assert_search_visits(g, 4, 123) == []
    kinds.clear()
    assert enumerate_tangles(g, 4) == []
    forced = 878  # the inserts at the root
    (switch,) = _switches(kinds, list, tuple)
    assert switch < forced and not _switches(kinds, tuple, list)
    kinds.clear()
    with mock.patch.object(tangles, "_WIDE", 40):
        assert _assert_search_visits(g, 4, 123) == []
    assert set(kinds) == {list}


@settings(max_examples=150)
@given(g=connected_graphs(max_vertices=8), data=st.data())
def test_antichain_forms_agree(g, data):
    """Inserting one sequence of orientations, each of its own separation,
    into a list that never widens and into one that widens at once, at
    |V| / 4 members or at |V|: after each insert both report the same
    domination, and both say alike whether the new member and two others
    cover G. Small sides A are drawn more often, so that lists grow wide."""
    seps = enumerate_separations(g, min(2, len(g.vertices)))
    closed = _tables(g._vertex_index[2])
    encode = _mask_encoder(g.mask(g.vertices), closed)
    family = []
    for i, (a, b) in enumerate(s.orient("b").masks for s in seps):
        family += (encode(a, b, 2 * i), encode(b, a, 2 * i + 1))
    small = [x if family[x][3] <= family[x ^ 1][3] else x ^ 1 for x in range(len(family))]
    draws = st.tuples(st.sampled_from(range(len(family))), st.integers(0, 5))
    picks = [small[x] ^ (r == 0) for x, r in data.draw(st.lists(draws, unique_by=lambda d: d[0] // 2))]
    wide = data.draw(st.sampled_from((0, 0.25, 1)))
    with mock.patch.object(tangles, "_WIDE", len(family) + 1):
        narrow = _Antichains(g.mask(g.vertices), family, closed)
    with mock.patch.object(tangles, "_WIDE", wide):
        indexed = _Antichains(g.mask(g.vertices), family, closed)
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
    closed = _tables(g._vertex_index[2])
    encode = _mask_encoder(g.mask(g.vertices), closed)
    with mock.patch.object(tangles, "_WIDE", 2 / 7):
        antichains = _Antichains(g.mask(g.vertices), [encode(*big.masks, 0), encode(*small.masks, 1)], closed)
    chain = antichains.insert(antichains.insert([], 0), 1)
    assert type(chain) is tuple
    assert antichains.closes(chain, 1)


def _covers_as_subgraphs(g: Graph, sides) -> bool:
    """G[X] | G[Y] | G[Z] = G for the vertex sets in sides, on frozensets."""
    edges = frozenset().union(*(g.edges_within(s) for s in sides))
    return frozenset().union(*sides) == g.vertices and edges == g.edges


@settings(max_examples=200)
@given(
    g=connected_graphs(max_vertices=8),
    case=st.sampled_from(("any", "no vertex left out", "a shared vertex next to one left out")),
    data=st.data(),
)
def test_covering_test_matches_brute_force(g, case, data):
    """`_cover`, and `closes` on a list and on the index from the first
    member (`_WIDE` at 0), against G[X] | G[Y] | G[Z] = G on frozensets,
    for arbitrary vertex sets X, Y and a pool of sets Z, not only sides of
    separations. In part of the examples X | Y = V, so that R is ∂X - Y
    and ∂Y - X alone, or X & Y holds an end of an edge whose other end
    lies outside X | Y."""
    names = sorted(g.vertices)
    full = (1 << len(names)) - 1
    sets = st.integers(0, full)
    x, y = data.draw(sets), data.draw(sets)
    if case == "no vertex left out":
        y |= full & ~x
    elif case == "a shared vertex next to one left out" and g.edges:
        u, v = (g.mask([w]) for w in data.draw(st.sampled_from(sorted(g.edges))))
        x, y = (x | u) & ~v, (y | u) & ~v
    pool = sorted(data.draw(st.lists(sets, max_size=6)), key=int.bit_count, reverse=True)
    closed = _tables(g._vertex_index[2])
    encode = _mask_encoder(full, closed)
    family = [encode(m, full, i) for i, m in enumerate([x, y, *pool])]
    as_set = [frozenset(names[i] for i in range(len(names)) if m[0] >> i & 1) for m in family]
    expected = next((z for z in family[2:] if _covers_as_subgraphs(g, (as_set[0], as_set[1], as_set[z[4]]))), None)
    assert _cover(family[2:], full, closed, family[0], family[1]) == expected
    for wide in (0, len(family) + 1):
        with mock.patch.object(tangles, "_WIDE", wide):
            antichains = _Antichains(full, family, closed)
        chain = []
        for i in range(len(family)):
            grown = antichains.insert(chain, i)
            if grown is not chain:
                pairs = combinations_with_replacement(as_set[: i + 1], 2)
                assert antichains.closes(grown, i) == any(_covers_as_subgraphs(g, (as_set[i], *p)) for p in pairs)
                chain = grown


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
    """Inserting a family sorted by decreasing |A| keeps the same members
    in the same order as the linear scan of its kept list, at width rule 0
    (the index from the first member) and 4."""
    k = min(k, len(g.vertices) + 1)
    choices = _orientation_sets(g, k, kind, data.draw)
    ordered = sorted((s.orient(t) for s, t in choices.items()), key=lambda o: -len(o.side_a))
    closed = _tables(g._vertex_index[2])
    encode = _mask_encoder(g.mask(g.vertices), closed)
    family = [encode(*o.masks, x) for x, o in enumerate(ordered)]
    with mock.patch.object(tangles, "_WIDE", wide):
        antichains, chain = _Antichains(g.mask(g.vertices), family, closed), []
        for x in range(len(family)):
            chain = antichains.insert(chain, x)
    assert antichains.members(chain) == maximal_sides_reference(family)


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
    the first member or at the default width: y and z are the first pair
    among the members kept so far that covers G with x."""
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


def _assert_pinned(g: Graph, k: int, reference_nodes: int, nodes: int) -> list:
    """The haven search's tangles, which must be those of the search over
    orientations; both searches' node counts are pinned."""
    reference, visited = tangle_search_reference(g, k)
    assert visited == reference_nodes
    found = _assert_search_visits(g, k, nodes)
    assert [t.sort_key for t in found] == [t.sort_key for t in reference]
    return found


def test_clique_chain_order_three_search_visits_33448_nodes():
    """The search over orientations takes 33,448 nodes; the haven search
    branches only at the 581 separators with two or more components."""
    tangles = _assert_pinned(clique_chain_graph(8, 6), 3, 33448, 15414)
    assert len(tangles) == 8


def test_grid_four_by_six_order_four_search_visits_5458_nodes():
    tangles = _assert_pinned(grid_graph(4, 6), 4, 5458, 226)
    assert len(tangles) == 1


def _glued(first: Graph, second: Graph, joint: tuple[str, str], bridge: bool) -> Graph:
    """first and second, their vertices prefixed x and y, with joint's first
    vertex of first and second vertex of second joined by an edge, or made
    one vertex, which keeps first's name."""
    u, v = "x" + joint[0], "y" + joint[1]
    rename = {v: u} if not bridge else {}
    named = [{w: rename.get(p + w, p + w) for w in part.vertices} for p, part in (("x", first), ("y", second))]
    vertices = [*named[0].values(), *named[1].values()]
    edges = [(names[a], names[b]) for names, part in zip(named, (first, second)) for a, b in part.edges]
    return Graph.from_data(vertices, edges + ([(u, v)] if bridge else []))


@st.composite
def graphs_with_a_cut_vertex(draw) -> Graph:
    """Two connected graphs of 2 to 5 vertices, glued at a vertex or joined
    by an edge, with at most 9 vertices in all: each joint is a cut vertex."""
    bridge = draw(st.booleans())
    first = draw(connected_graphs(max_vertices=5).filter(lambda g: len(g.vertices) > 1))
    room = 9 - len(first.vertices) + (not bridge)
    second = draw(connected_graphs(max_vertices=min(5, room)).filter(lambda g: len(g.vertices) > 1))
    joint = (draw(st.sampled_from(sorted(first.vertices))), draw(st.sampled_from(sorted(second.vertices))))
    return _glued(first, second, joint, bridge)


@settings(max_examples=100, deadline=None)
@given(g=graphs_with_a_cut_vertex(), k=st.integers(2, 4))
def test_split_search_matches_the_whole_graph_search_and_brute_force(g, k):
    """On graphs with a cut vertex, `enumerate_tangles` searches each block
    and lifts its havens. Its list, in order, is that of the search on the
    whole graph and of the search over orientations, within the latter's
    node count; and at the largest order whose domain fits the brute-force
    oracle, the oracle's."""
    assert len(g.vertices) <= 9 and len(_blocks(g)) > 1
    k = min(k, len(g.vertices) + 1)
    reference, nodes = tangle_search_reference(g, k)
    found = [t.sort_key for t in enumerate_tangles(g, k, budget=nodes)]
    assert found == [t.sort_key for t in _search_tangles(g, k, nodes, split=False)]
    assert found == [t.sort_key for t in reference]
    k, seps = _order_and_domain(g, k)
    if k >= 2:
        assert [t.sort_key for t in enumerate_tangles(g, k)] == [t.sort_key for t in all_tangles_brute(g, k, seps)]


@pytest.mark.parametrize(
    "g, k, nodes, whole_nodes, count",
    [
        (clique_chain_graph(8, 6), 3, 0, 15414, 8),
        (two_k5_shared_vertex(), 4, 0, 146, 2),
        (_glued(grid_graph(3, 3), grid_graph(3, 3), ("g11", "g00"), bridge=True), 3, 16, 202, 2),
    ],
    ids=["eight-K6 chain", "two K5 sharing a vertex", "two 3x3 grids and a bridge"],
)
def test_split_search_visits_pinned_nodes(g, k, nodes, whole_nodes, count):
    """The node counts of the split search, summed over the blocks, pinned
    beside the whole-graph search's. No separator of order < 3 splits a K6,
    nor one of order < 4 a K5, so those blocks need no branching and their
    searches take no node; the bridges have fewer than k vertices and drop
    out. Each 3x3 grid takes 8 nodes, so a budget of 15 fails although
    either block fits it alone."""
    found = _assert_search_visits(g, k, nodes, split=True)
    assert len(found) == count
    assert [t.sort_key for t in found] == [t.sort_key for t in _assert_search_visits(g, k, whole_nodes)]


_GRID = grid_graph(3, 3)
_TWO_K5_AND_PENDANTS = Graph.from_data(
    [f"{c}{i}" for c in "xy" for i in range(5)] + ["a", "z"],
    [(f"{c}{i}", f"{c}{j}") for c in "xy" for i, j in combinations(range(5), 2)]
    + [("x0", "y0"), ("x1", "y1"), ("a", "y2"), ("x2", "z")],
)


def _assert_block_searches_are_their_graphs_searches(g: Graph, k: int) -> None:
    """`_search_tangles` on g searches each block B of g with at least k
    vertices, recorded at its `_havens` call, inside the vertex space B. Each
    finds the havens of the whole-graph search of g.induced(B), in the same
    order with each mask mapped by vertex name, and takes its node count:
    that count pins `_search_tangles(g.induced(B), k, nodes, split=False)`,
    whose tangles are those of the block's havens."""
    names, havens, searches = g._vertex_index[0], tangles._havens, []

    def recording(closed, within, order, floods, budget, nodes=0):
        found, total = havens(closed, within, order, floods, budget, nodes)
        searches.append((within, found, total - nodes))
        return found, total

    with mock.patch.object(tangles, "_havens", recording):
        _search_tangles(g, k, DEFAULT_TANGLE_BUDGET)
    assert [block for block, _, _ in searches] == [block for block in _blocks(g) if block.bit_count() >= k]
    for block, found, nodes in searches:
        h = g.induced(_select(names, block))
        seps, floods = _enumeration(h, k - 1, DEFAULT_ENUMERATION_BUDGET)
        expected = havens(_tables(h._vertex_index[2]), h.mask(h.vertices), k, floods, DEFAULT_TANGLE_BUDGET)
        named = [{h.mask(_select(names, s)): h.mask(_select(names, c)) for s, c in beta.items()} for beta in found]
        assert (named, nodes) == expected
        assert [t.sort_key for t in _assert_search_visits(h, k, nodes)] == [t.sort_key for t in _tangles_of(h, k, seps, [(h.mask(h.vertices), beta) for beta in named])]


@settings(max_examples=60, deadline=None)
@given(g=graphs_with_a_cut_vertex(), k=st.integers(2, 4))
def test_each_block_search_is_the_whole_graph_search_of_its_block(g, k):
    _assert_block_searches_are_their_graphs_searches(g, k)


@pytest.mark.parametrize(
    "g, k",
    [
        (clique_chain_graph(8, 6), 3),
        (two_k5_shared_vertex(), 4),
        (_glued(grid_graph(3, 3), grid_graph(3, 3), ("g11", "g00"), bridge=True), 3),
        (Graph.from_data([*_GRID.vertices, "a", "z"], [*_GRID.edges, ("a", "g22"), ("g00", "z")]), 4),
        (_TWO_K5_AND_PENDANTS, 3),
    ],
    ids=[
        "eight-K6 chain",
        "two K5 sharing a vertex",
        "two 3x3 grids and a bridge",
        "a 3x3 grid and two pendant edges",
        "two K5 and two pendant edges",
    ],
)
def test_each_block_search_of_the_pinned_graphs_is_the_whole_graph_search_of_its_block(g, k):
    """The pinned graphs of the split search, and two graphs whose block
    has two cut vertices, so its neighbourhoods in G leave it at both.
    On the 3x3 grid with pendant edges at two corners, at order 4, the
    antichains turn wide, and `_rest` must cut R back to the block before
    the column index reads it. Two K5 joined by the edges x0-y0 and x1-y1
    make one block with two tangles of order 3; the pendant vertex a, at
    y2, sorts first, so the component of G - {x0, x1} holding it comes
    before the other one while its trace on the block comes after: the
    traces are sorted again, or the block's two havens come out in the
    other order."""
    _assert_block_searches_are_their_graphs_searches(g, k)


def test_split_search_leaves_the_enumeration_slot_alone():
    """The split search builds each block's floods from the slot's, and
    enumerates no block: after `enumerate_separations(g, k - 1)` the slot
    is the same object after the search as before it."""
    g = clique_chain_graph(3, 5)
    enumerate_separations(g, 2)
    before = separations._last_enumeration
    assert len(enumerate_tangles(g, 3)) == 3
    assert separations._last_enumeration is before


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


def test_flipped_grid_member_is_co_small_consistent_and_fails_the_axiom():
    """The order-4 tangle of the 4x6 grid with its middle member, in sort
    order, flipped: that member becomes the co-small (V, S) with
    S = {g05, g11, g25}, which no other member's reverse lies below. The
    set stays consistent, and V alone covers G."""
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


def _count_floods(monkeypatch) -> list:
    """The removed masks of every flood from now on, through any module."""
    floods = []
    real = graph._flood

    def counting(g, removed):
        floods.append(removed)
        return real(g, removed)

    for module in (graph, separations, tangles):
        monkeypatch.setattr(module, "_flood", counting)
    return floods


@pytest.mark.parametrize(
    "g, k, count",
    [(grid_graph(3, 6), 3, 1), (clique_chain_graph(3, 5), 3, 3), (path_graph(4), 5, 0)],
    ids=["3x6 grid", "three-K5 chain", "path of 4 at |V| + 1"],
)
def test_search_reads_the_enumeration_floods(monkeypatch, g, k, count):
    """On a cold slot the search floods each candidate separator exactly
    once, and G once more for its connectivity; after
    `enumerate_separations(g, k - 1)` on the same graph object it floods
    nothing. At k > |V| the separator V leaves no component, so there is
    no tangle."""
    floods = _count_floods(monkeypatch)
    cold = Graph(g.vertices, g.edges)  # a graph object that no slot holds
    found = enumerate_tangles(cold, k)
    assert len(found) == count
    separators = [sum(c) for size in range(k) for c in combinations([1 << i for i in range(len(g.vertices))], size)]
    assert sorted(floods) == sorted([0, *separators])
    hot = Graph(g.vertices, g.edges)
    enumerate_separations(hot, k - 1)
    floods.clear()
    assert [t.sort_key for t in enumerate_tangles(hot, k)] == [t.sort_key for t in found]
    assert floods == []


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
    """The node counts, pinned: 2,486 for the search over orientations and
    123 for the haven search. One node short of 123 is a budget error, and
    with 123 the search completes and finds no tangle."""
    assert _assert_pinned(grid_graph(3, 6), 4, 2486, 123) == []


def test_edge_decides_covering_triple():
    """A pendant edge c-p on two triangles c,x,y and x,y,z. Its order-2
    tangle at the bridge holds (∅ | V), ({p} | V) and ({c, x, y, z} | {c, p}).
    Their sides A cover every vertex but miss the edge c-p, so they are no
    covering triple. The vertex test passes, and only R = {c, p}, the
    vertices c of ∂{c, x, y, z} - {p} and p of ∂{p} - {c, x, y, z}, tells
    the search and `check_tangle` so."""
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
