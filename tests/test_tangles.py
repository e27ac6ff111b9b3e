"""Pre-tangles, tangles, witnesses, enumeration, and distinguishers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree.errors import (
    FamilyParameterError,
    OrientationUndecidableError,
)
from tangletree.graph import Graph
from tangletree.separations import enumerate_separations, make_separation
from tangletree.tangles import (
    PreTangle,
    Tangle,
    check_pretangle,
    check_tangle,
    clique_witness,
    distinguishable_pairs,
    distinguishes,
    efficient_distinguisher,
    end_region_witness,
    enumerate_tangles,
    materialize,
    min_distinguishing_order,
)
from .conftest import (
    clique_graph,
    path_graph,
    random_connected_graph,
    two_k4_bridge,
)
from .oracles import all_tangles_brute, min_distinguishing_order_brute


def k4() -> Graph:
    return Graph.from_data(*clique_graph("k", 4))


def trivial_pretangle(g: Graph, toward_big: bool = True) -> PreTangle:
    sep = make_separation(g, set(), g.vertices).canonical()
    return PreTangle(g, 1, {sep: "b" if toward_big else "a"})


def test_check_pretangle_trivial_orientation():
    g = path_graph(3)
    report = check_pretangle(g, trivial_pretangle(g))
    assert report.ok


def test_check_pretangle_consistency_failure():
    # orienting toward the empty side makes the reverse lie below everything
    g = path_graph(3)
    empty_v = make_separation(g, g.vertices, set()).canonical()
    mid = make_separation(g, {"p00", "p01"}, {"p01", "p02"}).canonical()
    p = PreTangle(g, 2, {empty_v: "a", mid: "b", **_rest_of_domain(g, 2, {empty_v, mid})})
    report = check_pretangle(g, p)
    assert not report.consistent
    assert report.witness_pair is not None


def _rest_of_domain(g, k, already):
    rest = {}
    for sep in enumerate_separations(g, k - 1):
        if sep not in already:
            rest[sep] = "b"
    return rest


def test_check_pretangle_incomplete():
    g = path_graph(3)
    report = check_pretangle(g, PreTangle(g, 2, {}))
    assert not report.complete
    assert report.missing


def test_check_tangle_trivial():
    g = path_graph(3)
    assert check_tangle(g, trivial_pretangle(g)).ok
    bad = trivial_pretangle(g, toward_big=False)
    report = check_tangle(g, bad)
    assert not report.axiom_ok
    assert report.witness_triple is not None


def test_k4_clique_orientation_is_a_tangle():
    g = k4()
    w = clique_witness(g, g.vertices, 3)
    p = materialize(w)
    assert check_tangle(g, p).ok


def test_p3_order_two_tangles_are_the_edge_orientations():
    # both complete consistent orientations around an edge avoid covering
    # triples: no oriented small side ever contains the opposite edge
    g = path_graph(3)
    tangles = enumerate_tangles(g, 2)
    assert len(tangles) == 2
    seps = enumerate_separations(g, 1)
    assert len(all_tangles_brute(g, 2, seps)) == 2


def test_every_connected_graph_has_unique_order_one_tangle(corpus_small):
    for g in corpus_small:
        assert len(enumerate_tangles(g, 1)) == 1


def test_two_k4_has_exactly_two_order_three_tangles():
    g = two_k4_bridge()
    tangles = enumerate_tangles(g, 3)
    assert len(tangles) == 2
    seps = enumerate_separations(g, 2)
    brute = all_tangles_brute(g, 3, seps)
    assert {t._key for t in tangles} == {t._key for t in brute}


def test_enumerate_tangles_matches_brute_force(corpus_small):
    for g in corpus_small[:12]:
        k = min(3, len(g.vertices))
        seps = enumerate_separations(g, k - 1)
        fast = enumerate_tangles(g, k)
        brute = all_tangles_brute(g, k, seps)
        assert {t._key for t in fast} == {t._key for t in brute}


def test_tangle_domain_is_downward_closed(corpus_small):
    for g in corpus_small[:10]:
        for t in enumerate_tangles(g, min(3, len(g.vertices))):
            orders = {s.order for s in t.choices}
            if orders:
                for o in range(max(orders) + 1):
                    domain_at_o = [s for s in t.choices if s.order == o]
                    expected = [
                        s for s in enumerate_separations(g, t.order_bound - 1) if s.order == o
                    ]
                    assert len(domain_at_o) == len(expected)


def test_distinguishes_and_domain_errors():
    g = two_k4_bridge()
    p, q = enumerate_tangles(g, 3)
    bridge = make_separation(
        g, {"a1", "a2", "a3", "a4"}, {"a1", "b1", "b2", "b3", "b4"}
    ).canonical()
    assert distinguishes(bridge, p, q)
    trivial = make_separation(g, set(), g.vertices).canonical()
    assert not distinguishes(trivial, p, q)
    too_big = make_separation(
        g, {"a1", "a2", "a3", "a4", "b1"}, {"a1", "a2", "a3", "b1", "b2", "b3", "b4"}
    ).canonical()
    assert too_big.order == 4
    with pytest.raises(OrientationUndecidableError):
        distinguishes(too_big, p, q)


def test_efficient_distinguisher_two_k4():
    g = two_k4_bridge()
    p, q = enumerate_tangles(g, 3)
    assert efficient_distinguisher(g, p, p) is None
    sep = efficient_distinguisher(g, p, q)
    assert sep.order == 1
    assert min_distinguishing_order_brute(g, p, q) == 1
    # deterministic lexicographic tie-break between the two order-1 options
    assert sep == efficient_distinguisher(g, p, q)
    assert sorted(sep.separator) == ["a1"]


def test_efficient_distinguisher_matches_brute_on_corpus(corpus_small):
    for g in corpus_small[:10]:
        k = min(3, len(g.vertices))
        tangles = enumerate_tangles(g, k)
        for i in range(len(tangles)):
            for j in range(i + 1, len(tangles)):
                fast = min_distinguishing_order(g, tangles[i], tangles[j])
                brute = min_distinguishing_order_brute(g, tangles[i], tangles[j])
                assert fast == brute


def test_clique_witness_requires_bound_within_clique():
    g = k4()
    with pytest.raises(FamilyParameterError):
        clique_witness(g, g.vertices, 5)


def test_clique_witness_soundness_exhaustive():
    # materializing a clique witness passes the full tangle check whenever
    # the clique size is at least 3k - 2, for cliques up to 10 and k up to 4
    for c in range(4, 11):
        g = Graph.from_data(*clique_graph("x", c))
        for k in range(1, 5):
            if c < 3 * k - 2:
                continue
            w = clique_witness(g, g.vertices, k)
            assert w.tangle_guaranteed
            assert check_tangle(g, materialize(w)).ok


def test_orient_by_witness_examples(scaled_chain):
    g = scaled_chain.graph_at(2)
    w = clique_witness(g, scaled_chain.clique(0), 3)
    trivial = make_separation(g, set(), g.vertices).canonical()
    assert w.orient(trivial) == trivial.orient("b") or w.orient(trivial).side_b == g.vertices
    s0 = scaled_chain.chain_item(0, 2).canonical()
    oriented = w.orient(s0)
    assert scaled_chain.clique(0) <= oriented.side_b
    with pytest.raises(OrientationUndecidableError):
        big = scaled_chain.chain_item(1, 2).canonical()
        w.orient(big)  # order 5 exceeds the bound 3


def test_orient_by_witness_bridge_separation():
    g = two_k4_bridge()
    w = clique_witness(g, {"a1", "a2", "a3", "a4"}, 2)
    bridge = make_separation(
        g, {"b1", "b2", "b3", "b4"}, {"b1", "a1", "a2", "a3", "a4"}
    ).canonical()
    oriented = w.orient(bridge)
    assert {"a1", "a2", "a3", "a4"} <= oriented.side_b


def test_end_region_witness_orients_toward_rays(scaled_chain):
    w = end_region_witness(scaled_chain, "R0", 3, 8)
    s1 = scaled_chain.chain_item(1, 3).canonical()
    oriented = w.orient(s1)
    assert "r:0:3" in oriented.side_b - oriented.side_a
    # a separation whose separator swallows the tail is undecidable
    g = scaled_chain.graph_at(3)
    tail_cut = make_separation(
        g, g.vertices - {"r:0:3"}, {"r:0:2", "v:3:1", "r:0:3"}
    ).canonical()
    assert tail_cut.order == 2
    blocked = end_region_witness(scaled_chain, "R0", 3, 3)
    probe = make_separation(
        g, g.vertices, {"r:0:3", "r:0:2", "v:3:1"}
    )
    with pytest.raises(OrientationUndecidableError):
        blocked.orient(probe.canonical())


def test_witness_and_tangle_json(scaled_chain):
    g = scaled_chain.graph_at(2)
    w = clique_witness(g, scaled_chain.clique(0), 3)
    doc = w.to_json()
    assert doc["kind"] == "clique" and doc["order_bound"] == 3
    t = enumerate_tangles(path_graph(3), 2)[0]
    back = PreTangle.from_json(path_graph(3), t.to_json())
    assert back == t


def test_distinguishable_pairs_ordering():
    g = two_k4_bridge()
    tangles = enumerate_tangles(g, 3)
    pairs = distinguishable_pairs(g, list(tangles))
    assert pairs == [((0, 1), 1)]
    assert distinguishable_pairs(g, [tangles[0]]) == []


def test_distinguishable_pairs_clique_chain(scaled_chain):
    g = scaled_chain.graph_at(2)
    pool = [clique_witness(g, scaled_chain.clique(i), len(scaled_chain.clique(i))) for i in range(3)]
    pairs = distinguishable_pairs(g, pool)
    assert pairs == [((0, 1), 2), ((0, 2), 2), ((1, 2), 5)]


def test_efficient_distinguishers_are_tight(corpus_small):
    from tangletree.separations import is_tight

    for g in corpus_small[:15]:
        k = min(3, len(g.vertices))
        tangles = enumerate_tangles(g, k)
        for i in range(len(tangles)):
            for j in range(i + 1, len(tangles)):
                sep = efficient_distinguisher(g, tangles[i], tangles[j])
                if sep is not None:
                    assert is_tight(g, sep)


def test_vertex_only_diagnostic_is_weaker():
    g = path_graph(3)
    t = enumerate_tangles(g, 2)[0]
    # a triple of small sides can cover all vertices without the edges
    assert check_tangle(g, t).ok
    sides = [o.side_a for o in t.oriented_members()]
    assert any(x | y | z == g.vertices for x in sides for y in sides for z in sides)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_enumerate_tangles_brute_agreement_random(data):
    seed = data.draw(st.integers(0, 10**6))
    n = data.draw(st.integers(2, 7))
    g = random_connected_graph(random.Random(seed), n)
    k = data.draw(st.integers(1, min(3, n)))
    seps = enumerate_separations(g, k - 1)
    assert {t._key for t in enumerate_tangles(g, k)} == {
        t._key for t in all_tangles_brute(g, k, seps)
    }


def test_chain_property_of_nested_distinguishers():
    # members of a nested set oriented into P and reversely into Q are
    # totally ordered
    from tangletree.separations import NestedSet, leq

    g = two_k4_bridge()
    tangles = list(enumerate_tangles(g, 3))
    proper = [s for s in enumerate_separations(g, 2) if s.is_proper()]
    members = []
    for sep in proper:
        from tangletree.separations import relation

        if all(relation(sep, m).nested for m in members):
            members.append(sep)
    nested = NestedSet.of(g, members)
    p, q = tangles
    into_p = [
        p.orient(m)
        for m in nested
        if m.order < 3 and p.orient(m) != q.orient(m)
    ]
    for a in into_p:
        for b in into_p:
            assert leq(a.reverse(), b.reverse()) or leq(b.reverse(), a.reverse())
