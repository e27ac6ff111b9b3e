"""Pre-tangles, tangles, witnesses, enumeration, and distinguishers."""

import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree.errors import (
    AmbientMismatchError,
    FamilyParameterError,
    GraphFormatError,
    OrientationUndecidableError,
    PreconditionError,
    TangletreeError,
    UnknownVertexError,
)
from tangletree.families import generate_family
from tangletree.graph import Graph
from tangletree.separations import Separation, enumerate_separations, make_separation
from tangletree.tangles import (
    PreTangle,
    _splits,
    Tangle,
    TangleWitness,
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
from .oracles import (
    all_tangles_brute,
    distinguishes_reference,
    leftmost_cut_distinguisher_reference,
    min_distinguishing_order_brute,
    orient_reference,
    orients_reference,
    splits_reference,
)


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
    assert {t.sort_key for t in tangles} == {t.sort_key for t in brute}


def test_enumerate_tangles_matches_brute_force(corpus_small):
    for g in corpus_small[:12]:
        k = min(3, len(g.vertices))
        seps = enumerate_separations(g, k - 1)
        fast = enumerate_tangles(g, k)
        brute = all_tangles_brute(g, k, seps)
        assert {t.sort_key for t in fast} == {t.sort_key for t in brute}


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


def test_clique_witness_rejects_non_cliques():
    """A witness clique must be a clique of the graph: on the path a-b-c-d,
    {a, d} is not one, and zz is no vertex."""
    g = Graph.from_data(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    with pytest.raises(FamilyParameterError):
        clique_witness(g, ["a", "d"], 2)
    with pytest.raises(UnknownVertexError):
        clique_witness(g, ["a", "zz"], 1)
    bridge = make_separation(g, {"a", "b"}, {"b", "c", "d"})
    assert clique_witness(g, ["b", "c"], 2).orient(bridge).side_b == {"b", "c", "d"}


@pytest.mark.parametrize("bound", [0, -1, True, 2.0, "2", None])
def test_witness_order_bound_is_an_integer_of_at_least_one(bound, scaled_chain):
    """A witness order bound is an int (not a bool) of at least 1, as a
    tangle document's is, for clique and end-region witnesses and for a
    pre-tangle alike."""
    g = Graph.from_data(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(FamilyParameterError, match="order_bound"):
        clique_witness(g, ["a", "b", "c"], bound)
    with pytest.raises(FamilyParameterError, match="order_bound"):
        end_region_witness(scaled_chain, "R0", 2, bound)
    with pytest.raises(FamilyParameterError, match="order_bound"):
        PreTangle(g, bound, {})
    assert clique_witness(g, ["a", "b", "c"], 1).order_bound == 1


@pytest.mark.parametrize("kind", [PreTangle, Tangle])
def test_a_choice_that_is_no_oriented_separation_raises_a_precondition_error(kind):
    """Every key of a pre-tangle's choices is a separation and every value
    "a" or "b": a "c" in place of an "a" would read as "a" in
    `check_tangle`, and a name for a key would crash the constructor's sort.
    The constructor names the entry, so `check_tangle`, `check_pretangle`
    and `build_tree_of_tangles` never see such a choice."""
    g = k4()
    choices = enumerate_tangles(g, 2)[0].choices
    sep = next(s for s, t in choices.items() if t == "a")
    w = clique_witness(g, ["k1", "k2"], 1)  # an orienter, which has a sort key
    for bad, entry in [
        ({**choices, sep: "c"}, f"{re.escape(repr(sep))}: 'c'"),
        ({"x": "a"}, "'x': 'a'"),
        ({sep: None}, f"{re.escape(repr(sep))}: None"),
        ({**choices, 3: "b"}, "3: 'b'"),
        ({w: "a"}, f"{re.escape(repr(w))}: 'a'"),
        ({**choices, w: "b"}, f"{re.escape(repr(w))}: 'b'"),
    ]:
        with pytest.raises(PreconditionError, match=f"^choice {entry} is not a separation oriented toward 'a' or 'b'$"):
            kind(g, 2, bad)
    assert check_tangle(g, kind(g, 2, choices)).ok


@pytest.mark.parametrize("kind", [list, set, iter], ids=["list", "set", "iterator"])
def test_a_witness_clique_is_read_as_a_frozenset(kind):
    """The constructor reads its clique as `clique_witness` does, so a list
    or a set of names gives the witness that function builds."""
    g = Graph.from_data(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    w = TangleWitness("clique", g, 2, clique=kind(["a", "b", "c"]))
    assert w.clique == frozenset(["a", "b", "c"]) and w == clique_witness(g, ["c", "b", "a"], 2)


def test_witness_rejects_a_separation_of_another_graph(scaled_chain):
    """A witness reads a separation's sides as masks over its own graph's
    vertices, so a separation of another window is refused, not misread."""
    small, big = scaled_chain.graph_at(1), scaled_chain.graph_at(2)
    sep = scaled_chain.chain_item(0, 1).canonical()
    for w in (clique_witness(big, scaled_chain.clique(1), 3), end_region_witness(scaled_chain, "R0", 2, 3)):
        with pytest.raises(AmbientMismatchError):
            w.toward(sep)
        with pytest.raises(AmbientMismatchError):
            w.orient(sep)
    assert sep.graph is small


@pytest.mark.parametrize(
    "call",
    [
        lambda h, ts, ws: check_tangle(h, ts[0]),
        lambda h, ts, ws: check_pretangle(h, ts[0]),
        lambda h, ts, ws: distinguishable_pairs(h, ts),
        lambda h, ts, ws: efficient_distinguisher(h, ts[0], ts[-1]),
        lambda h, ts, ws: min_distinguishing_order(h, *ws),
        lambda h, ts, ws: distinguishes(None, ts[0], ts[-1]),
        lambda h, ts, ws: distinguishes(enumerate_separations(h, 1)[3], *ws),
        lambda h, ts, ws: check_tangle(h, ws[0]),
    ],
    ids=[
        "check_tangle",
        "check_pretangle",
        "distinguishable_pairs",
        "efficient_distinguisher",
        "min_distinguishing_order",
        "distinguishes-no-separation",
        "distinguishes-witnesses",
        "check_tangle-witness",
    ],
)
def test_orienters_of_another_graph_are_refused(call):
    """The checks and distinguisher queries read an orienter's separations
    as masks over the graph they are given. Handed tangles or clique
    witnesses of the path on 4 vertices with the path on 6, or something
    that is no separation or no pre-tangle, they raise rather than report
    the tangles incomplete, indistinguishable or cut by a flow on h."""
    g, h = path_graph(4), path_graph(6)
    ts = enumerate_tangles(g, 2)
    ws = (clique_witness(g, ["p00", "p01"], 2), clique_witness(g, ["p02", "p03"], 2))
    assert distinguishable_pairs(g, ts) == [((0, 1), 1), ((0, 2), 1), ((1, 2), 1)]
    with pytest.raises(AmbientMismatchError):
        call(h, ts, ws)


def _outcome(f, *args):
    """f(*args), or the type and message of the TangletreeError it raised."""
    try:
        return f(*args)
    except TangletreeError as exc:
        return (type(exc), str(exc))


def _assert_queries_agree(g: Graph, orienters: list, max_order: int) -> None:
    """toward, orient, holds, _splits and distinguishes against the name-lookup
    references, on both orientations of every separation of order <= each
    orienter's bound, and for every pair below both bounds."""
    seps = [x for sep in enumerate_separations(g, max_order) for x in sep.orientations()]
    for t in orienters:
        for sep in seps:
            if sep.order > t.order_bound:
                continue
            toward = t.toward(sep)
            if orients_reference(t, sep):
                assert sep.orient(toward) == orient_reference(t, sep)
            else:
                assert toward is None
            assert _outcome(t.orient, sep) == _outcome(orient_reference, t, sep)
            canonical = sep.canonical()
            held = sep.order < t.order_bound and orients_reference(t, canonical)
            assert t.holds(sep) == (held and orient_reference(t, canonical) == sep)
    for i, p in enumerate(orienters):
        for q in orienters[i + 1 :]:
            for sep in seps:
                if sep.order <= min(p.order_bound, q.order_bound):
                    assert _splits(sep, p, q) == splits_reference(sep, p, q)
                    assert _outcome(distinguishes, sep, p, q) == _outcome(distinguishes_reference, sep, p, q)


def _random_clique(g: Graph, rng: random.Random) -> list[str]:
    """A clique grown from a random vertex by random common neighbours."""
    clique = [rng.choice(sorted(g.vertices))]
    for v in rng.sample(sorted(g.vertices), len(g.vertices)):
        if all(v in g.adjacency[u] for u in clique):
            clique.append(v)
    return clique


def _random_pretangle(g: Graph, k: int, rng: random.Random) -> PreTangle:
    """Random choices for the separations of order < k, a few left out."""
    seps = enumerate_separations(g, k - 1)
    return PreTangle(g, k, {sep: rng.choice("ab") for sep in seps if rng.random() > 0.05})


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_orientation_queries_match_the_reference_on_random_graphs(data):
    """Tangles, random pre-tangles and clique witnesses. One pre-tangle has
    order |V| + 1 and a copy that differs from it only on (V, V), whose two
    orientations are one separation: that pair splits nothing."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 8))
    g = random_connected_graph(rng, n)
    orienters = list(enumerate_tangles(g, data.draw(st.integers(1, min(3, n)))))
    top = _random_pretangle(g, n + 1, rng)
    whole = make_separation(g, g.vertices, g.vertices)
    flipped = {**top.choices, whole: "a" if top.choices.get(whole) == "b" else "b"}
    orienters += [top, PreTangle(g, n + 1, flipped), _random_pretangle(g, data.draw(st.integers(1, n + 1)), rng)]
    for _ in range(2):
        clique = _random_clique(g, rng)
        orienters.append(clique_witness(g, clique, rng.randint(1, len(clique))))
    _assert_queries_agree(g, orienters, n)


_WINDOWS = [
    ("clique_chain", {"sizes": [3, 6], "horizon": 1}),
    ("ray", {"horizon": 4}),
    ("double_ray", {"horizon": 3}),
    ("grid", {"horizon": 2, "width": 2}),
    ("binary_tree", {"horizon": 2}),
]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_orientation_queries_match_the_reference_on_family_windows(data):
    """End-region witnesses on every ray of a family window, with a clique
    witness of the window beside them."""
    family, params = data.draw(st.sampled_from(_WINDOWS))
    p = generate_family(family, params)
    m = data.draw(st.integers(0, p.horizon))
    g = p.graph_at(m)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    max_order = min(3, len(g.vertices))
    orienters = [end_region_witness(p, ray, m, rng.randint(1, max_order)) for ray in p.rays_in_layer(m)]
    clique = _random_clique(g, rng)
    orienters.append(clique_witness(g, clique, rng.randint(1, min(len(clique), max_order))))
    _assert_queries_agree(g, orienters, max_order)


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
    path = path_graph(3)
    tangles = enumerate_tangles(path, 2)
    t = tangles[0]
    back = PreTangle.from_json(path, t.to_json())
    assert back == t and hash(back) == hash(t) and type(back) is not type(t)
    # a pre-tangle never equals a witness, even one orienting as it does
    edge = clique_witness(path, ["p00", "p01"], 2)
    assert materialize(edge) in tangles and edge not in tangles
    assert sorted([edge, *tangles], key=lambda x: x.sort_key)[-1] is edge


@pytest.mark.parametrize("toward", ["a", "b"])
def test_tangle_document_orienting_a_separation_twice_is_rejected(toward):
    """On the path p00-p01-p02, the order-2 tangle's document with one entry
    repeated, toward either side, orients that separation twice: a
    GraphFormatError naming it, not the last entry's choice."""
    g = path_graph(3)
    doc = enumerate_tangles(g, 2)[0].to_json()
    entry = doc["orientation"][1]
    doc["orientation"].append({"sep": entry["sep"], "toward": toward})
    repeated = Separation.from_json(g, entry["sep"]).canonical()
    with pytest.raises(GraphFormatError, match=re.escape(repr(repeated))):
        PreTangle.from_json(g, doc)


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
    assert {t.sort_key for t in enumerate_tangles(g, k)} == {
        t.sort_key for t in all_tangles_brute(g, k, seps)
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


@pytest.mark.parametrize(
    "horizon, sizes",
    [(5, [8, 12, 20, 36]), (3, [6, 12, 24]), (3, None), (5, None)],
    ids=["h5 scaled", "h3 scaled", "h3 default", "h5 default"],
)
def test_clique_distinguisher_matches_the_leftmost_cut_reference(horizon, sizes):
    """Every ordered pair of clique witnesses of a clique chain, with order
    bounds 2, 3 and the clique's size."""
    params = {"horizon": horizon} if sizes is None else {"horizon": horizon, "sizes": sizes}
    p = generate_family("clique_chain", params)
    g = p.graph_at(horizon)
    cliques = [p.clique(i) for i in range(len(p.cliques))]
    found = []
    for bound in (2, 3, None):
        pool = [clique_witness(g, c, bound or len(c)) for c in cliques]
        for x, y in permutations(pool, 2):
            sep = efficient_distinguisher(g, x, y)
            assert sep == leftmost_cut_distinguisher_reference(g, x, y)
            found.append(sep)
    assert None in found and any(found)
