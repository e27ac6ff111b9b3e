"""The max-flow solver behind disjoint_paths and minimum_separator, pinned
against the tuple-keyed reference network in the oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree.errors import UnknownVertexError
from tangletree.families import generate_family
from tangletree.graph import Graph, disjoint_paths, minimum_separator
from .conftest import path_graph, random_connected_graph
from .oracles import flow_reference


def _solved(g, s, t):
    return disjoint_paths(g, s, t), minimum_separator(g, s, t)


@settings(max_examples=200)
@given(data=st.data())
def test_solver_matches_reference_network(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_connected_graph(rng, data.draw(st.integers(1, 12)))
    if data.draw(st.booleans()):  # sparser graphs give longer, rerouted paths
        kept = [e for e in sorted(g.edges) if rng.random() < 0.5]
        g = Graph.from_data(g.vertices, kept)
    verts = sorted(g.vertices)
    s = frozenset(data.draw(st.sets(st.sampled_from(verts), min_size=1, max_size=5)))
    t = data.draw(
        st.just(s) | st.sets(st.sampled_from(verts), min_size=1, max_size=5).map(frozenset)
    )
    assert _solved(g, s, t) == flow_reference(g, s, t)
    # the memoized repeat gives the same answer
    assert _solved(g, s, t) == flow_reference(g, s, t)


def test_solver_matches_reference_on_clique_chain():
    p = generate_family("clique_chain", {"horizon": 3, "sizes": [8, 12, 20, 36]})
    g = p.graph_at(3)
    terminals = [p.clique(n) for n in range(len(p.cliques))] + [p.boundary(3)]
    for s, t in combinations(terminals, 2):
        for a, b in ((s, t), (t, s)):
            paths, cut = flow_reference(g, a, b)
            assert _solved(g, a, b) == (paths, cut)
            assert len(paths) == len(cut) > 0


def test_returned_paths_do_not_alias_the_memo():
    g = path_graph(4)
    s, t = {"p00", "p01"}, {"p03"}
    paths = disjoint_paths(g, s, t)
    expected = [list(path) for path in paths]
    paths[0].append("p99")
    paths.append(["p02"])
    assert disjoint_paths(g, s, t) == expected


def test_reversed_terminals_are_solved_on_their_own():
    g = path_graph(3)
    assert minimum_separator(g, {"p00"}, {"p02"}) == {"p00"}
    assert minimum_separator(g, {"p02"}, {"p00"}) == {"p02"}
    assert disjoint_paths(g, {"p00"}, {"p02"}) == [["p00", "p01", "p02"]]
    assert disjoint_paths(g, {"p02"}, {"p00"}) == [["p02", "p01", "p00"]]


@pytest.mark.parametrize("query", [disjoint_paths, minimum_separator])
def test_unknown_vertices_and_empty_sides(query):
    g = path_graph(3)
    empty = [] if query is disjoint_paths else frozenset()
    assert query(g, [], {"p00"}) == empty
    assert query(g, {"p00"}, []) == empty
    # terminals are checked before an empty side returns, s before t
    with pytest.raises(UnknownVertexError, match="^zz$"):
        query(g, [], {"zz"})
    with pytest.raises(UnknownVertexError, match="^a$"):
        query(g, {"a", "p00"}, {"b"})
