"""Tree-of-tangles building, induced decompositions, exhaustiveness verdicts."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tangletree import separations, tree_of_tangles
from tangletree.errors import GraphFormatError, IncoherentChainError, PreconditionError
from tangletree.graph import Graph, disjoint_paths
from tangletree.separations import (
    NestedSet,
    SeparationSequence,
    enumerate_separations,
    make_separation,
    relation,
)
from tangletree.families import generate_family
from tangletree.limits import check_chain_coherence, exhaustiveness_evidence
from tangletree.tangles import PreTangle, check_pretangle, check_tangle, clique_witness, enumerate_tangles, min_distinguishing_order
from tangletree.tree_of_tangles import (
    TreeDecomposition,
    _min_order_distinguishers,
    build_tree_of_tangles,
    induce_tree_decomposition,
    verify_tree_decomposition,
    verify_tree_of_tangles,
)
from .conftest import clique_chain_graph, path_graph, two_k4_bridge
from .oracles import (
    all_separations_brute,
    clique_pair_distinguishers_reference,
    consistent_orientations_brute,
    min_order_distinguishers_brute,
    nested_efficient_subsets_exist,
)


def test_single_tangle_gives_empty_nested_set():
    g = path_graph(4)
    tangles = enumerate_tangles(g, 1)
    nested = build_tree_of_tangles(g, list(tangles))
    assert len(nested) == 0


def test_two_k4_tree_of_tangles_is_the_bridge():
    g = two_k4_bridge()
    tangles = list(enumerate_tangles(g, 3))
    nested = build_tree_of_tangles(g, tangles)
    assert len(nested) == 1
    member = next(iter(nested))
    assert member.order == 1
    report = verify_tree_of_tangles(g, nested, tangles)
    assert report.ok and report.nested_ok


def test_clique_chain_witness_tree_of_tangles(scaled_chain):
    g = scaled_chain.graph_at(2)
    pool = [
        clique_witness(g, scaled_chain.clique(i), len(scaled_chain.clique(i)))
        for i in range(3)
    ]
    nested = build_tree_of_tangles(g, pool)
    assert sorted(m.order for m in nested) == [2, 5]
    report = verify_tree_of_tangles(g, nested, pool)
    assert report.ok
    # the admitted members carry the canonical separator sizes of the chain
    seps = sorted(nested, key=lambda s: s.order)
    assert seps[0].separator == scaled_chain.chain_separator(0)


@st.composite
def clique_pairs(draw):
    """A connected graph on at most 8 vertices, with a clique planted among
    its first half and one among its second (the two may share the middle
    vertices), and their clique witnesses at order bounds above the number
    of disjoint paths between the cliques, so that they are distinguishable.
    Each vertex joins one of its three predecessors, which leaves room for
    small cuts; at most two more edges are drawn anywhere."""
    n = draw(st.integers(4, 8))
    verts = [f"v{i}" for i in range(n)]
    half = n // 2
    cliques = [
        draw(st.sets(st.sampled_from(verts[: half + 1]), min_size=2)),
        draw(st.sets(st.sampled_from(verts[half - 1 :]), min_size=2)),
    ]
    edges = {(verts[draw(st.integers(max(0, i - 3), i - 1))], verts[i]) for i in range(1, n)}
    edges |= {pair for c in cliques for pair in combinations(sorted(c), 2)}
    edges |= set(draw(st.lists(st.sampled_from(list(combinations(verts, 2))), max_size=2)))
    g = Graph.from_data(verts, {(min(a, b), max(a, b)) for a, b in edges})
    paths = len(disjoint_paths(g, *cliques))
    assume(paths < min(map(len, cliques)))
    p, q = (clique_witness(g, c, draw(st.integers(paths + 1, len(c)))) for c in cliques)
    return g, p, q, paths


@settings(max_examples=150, deadline=None)
@given(case=clique_pairs())
def test_clique_pair_distinguishers_match_the_superset_scan_and_brute_force(case):
    """One vertex per disjoint path finds exactly the minimum-order
    distinguishers that the scan of every superset of the common vertices
    and the 3^|V| side assignments find, in the same order."""
    g, p, q, order = case
    assert min_distinguishing_order(g, p, q) == order
    found = _min_order_distinguishers(g, p, q, order, budget=10**6)
    assert found == clique_pair_distinguishers_reference(g, p, q, order, budget=10**6)
    assert found == min_order_distinguishers_brute(g, p, q, all_separations_brute(g, order))
    assert found and all(sep.order == order for sep in found)


def _scaled_pool(h: int):
    p = generate_family("clique_chain", {"horizon": h, "sizes": [8, 12, 20, 36]})
    g = p.graph_at(h)
    return g, [clique_witness(g, p.clique(i), len(p.clique(i))) for i in range(h + 1)]


def test_clique_pool_build_tries_one_vertex_per_path(monkeypatch):
    """At horizon 5 (194 vertices) one vertex per path makes 105 candidate
    separators; every superset of the cliques' common vertices would make
    33,311."""
    g, pool = _scaled_pool(5)
    floods = []
    real = tree_of_tangles._flood
    monkeypatch.setattr(tree_of_tangles, "_flood", lambda *a: floods.append(1) or real(*a))
    nested = build_tree_of_tangles(g, pool)
    assert len(floods) <= 200
    assert sorted((m.order for m in nested), reverse=True) == [33, 18, 10, 5, 2]


def test_clique_pool_builds_at_horizon_six():
    """335 vertices: one vertex per path makes 834 candidates, while the
    supersets of the common vertices would exceed a 20,000-candidate
    budget."""
    g, pool = _scaled_pool(6)
    nested = build_tree_of_tangles(g, pool, budget=20_000)
    assert sorted((m.order for m in nested), reverse=True) == [65, 34, 19, 10, 5, 2]
    assert verify_tree_of_tangles(g, nested, pool).ok


@pytest.mark.parametrize("count, size", [(4, 4), (5, 6)])
def test_enumeration_slot_serves_every_distinguisher_call(count, size):
    """After the search, the build and both verifiers start no enumeration
    search: each of their `enumerate_separations` calls is a slot hit, so
    the slot is never rebound."""
    g = clique_chain_graph(count, size)
    tangles = enumerate_tangles(g, 3)
    assert len(tangles) == count
    before = separations._last_enumeration
    nested = build_tree_of_tangles(g, tangles)
    assert len(nested) == count - 1
    assert verify_tree_of_tangles(g, nested, tangles).ok
    assert verify_tree_decomposition(g, induce_tree_decomposition(g, nested), nested, tangles).ok
    assert separations._last_enumeration is before


def test_build_output_verified_against_exhaustive_subsets(corpus_small):
    from .oracles import all_separations_brute, min_order_distinguishers_brute

    def k4_pair_shared():
        vs, es = [], []
        for prefix in ("a", "b"):
            cs, ces = __import__("tests.conftest", fromlist=["clique_graph"]).clique_graph(prefix, 4)
            vs += cs
            es += ces
        es.append(("a4", "b4"))
        return Graph.from_data(vs, es)

    cases = [(two_k4_bridge(), 3), (k4_pair_shared(), 3)]
    for g in corpus_small:
        if len(g.vertices) <= 10 and len(g.edges) == len(g.vertices) - 1:
            cases.append((g, 2))  # trees carry several order-2 tangles
        if len(cases) >= 8:
            break
    checked = 0
    for g, k in cases:
        tangles = list(enumerate_tangles(g, k))
        if not 2 <= len(tangles) <= 3:
            continue
        nested = build_tree_of_tangles(g, tangles)
        report = verify_tree_of_tangles(g, nested, tangles)
        assert report.ok
        seps = all_separations_brute(g, k - 1)
        pair_candidates = {}
        for i in range(len(tangles)):
            for j in range(i + 1, len(tangles)):
                opts = min_order_distinguishers_brute(g, tangles[i], tangles[j], seps)
                if opts:
                    pair_candidates[(i, j)] = opts
                    # the builder's member for this pair attains the minimum
                    assert any(
                        m.order == opts[0].order for m in nested.members
                    )
        assert nested_efficient_subsets_exist(g, tangles, pair_candidates)
        checked += 1
    assert checked >= 3


def test_verify_reports_crossing_member():
    from .conftest import cycle_graph

    g = cycle_graph(4)
    s = make_separation(g, {"c00", "c01", "c02"}, {"c02", "c03", "c00"}).canonical()
    t = make_separation(g, {"c01", "c02", "c03"}, {"c03", "c00", "c01"}).canonical()

    class RawSet(NestedSet):
        def __post_init__(self):  # bypass validation to exercise the verifier
            pass

    raw = RawSet(g, frozenset({s, t}))
    report = verify_tree_of_tangles(g, raw, [])
    assert not report.nested_ok
    assert report.crossing_witness is not None


def test_induce_empty_nested_set_single_bag():
    g = path_graph(4)
    td = induce_tree_decomposition(g, NestedSet.of(g, []))
    assert td.nodes == ("n",) or len(td.nodes) == 1
    assert td.bags[td.nodes[0]] == g.vertices
    report = verify_tree_decomposition(g, td, NestedSet.of(g, []), [])
    assert report.t1_cover and report.t2_edges and report.t3_connected


def test_induce_single_separation_two_bags():
    g = path_graph(3)
    s = make_separation(g, {"p00", "p01"}, {"p01", "p02"}).canonical()
    nested = NestedSet.of(g, [s])
    td = induce_tree_decomposition(g, nested)
    assert len(td.nodes) == 2 and len(td.edges) == 1
    assert sorted(map(sorted, td.bags.values())) == [
        ["p00", "p01"],
        ["p01", "p02"],
    ]
    assert verify_tree_decomposition(g, td, nested, []).ok


def test_induce_chain_of_two_gives_path_of_three(scaled_chain):
    g = scaled_chain.graph_at(2)
    chain = scaled_chain.canonical_chain(2)
    nested = NestedSet.of(g, [it.canonical() for it in chain])
    td = induce_tree_decomposition(g, nested)
    assert len(td.nodes) == 3 and len(td.edges) == 2
    degrees = {}
    for u, v in td.edges:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    assert sorted(degrees.values()) == [1, 1, 2]
    middle = [n for n, d in degrees.items() if d == 2][0]
    s0, s1 = chain[0], chain[1]
    assert td.bags[middle] == s0.side_b & s1.side_a
    report = verify_tree_decomposition(g, td, nested, [])
    assert report.ok and report.induced_equal


def test_verify_tree_decomposition_lets_a_bug_propagate(monkeypatch):
    """Only a bad tree edge, whose bags across it are no separation, is a
    computed failure; any other error in reading an edge propagates."""
    g = path_graph(3)
    nested = NestedSet.of(g, [make_separation(g, {"p00", "p01"}, {"p01", "p02"}).canonical()])
    td = induce_tree_decomposition(g, nested)

    def broken(*args):
        raise KeyError("bug")

    monkeypatch.setattr("tangletree.tree_of_tangles._edge_induced_separation", broken)
    with pytest.raises(KeyError):
        verify_tree_decomposition(g, td, nested, [])


def test_induce_rejects_improper_member():
    g = path_graph(3)
    improper = make_separation(g, set(), g.vertices).canonical()
    with pytest.raises(PreconditionError):
        induce_tree_decomposition(g, NestedSet.of(g, [improper]))


def test_round_trip_on_corpus(corpus_small):
    # the separations induced by the tree edges recover the nested set
    for g in corpus_small[:20]:
        proper = [s for s in enumerate_separations(g, 2) if s.is_proper()]
        members = []
        for sep in proper:
            if all(
                __import__("tangletree.separations", fromlist=["relation"]).relation(sep, m).nested
                for m in members
            ):
                members.append(sep)
            if len(members) == 4:
                break
        nested = NestedSet.of(g, members)
        td = induce_tree_decomposition(g, nested)
        report = verify_tree_decomposition(g, td, nested, [])
        assert report.ok, (g, report)


def test_corrupted_bag_fails_t3():
    g = path_graph(4)
    s = make_separation(g, {"p00", "p01"}, {"p01", "p02", "p03"}).canonical()
    t = make_separation(g, {"p00", "p01", "p02"}, {"p02", "p03"}).canonical()
    nested = NestedSet.of(g, [s, t])
    td = induce_tree_decomposition(g, nested)
    bags = dict(td.bags)
    ends = [n for n in td.nodes if len(td.neighbors(n)) == 1]
    bags[ends[0]] = bags[ends[0]] | {"p03"}  # p03 now appears in two parts
    broken = TreeDecomposition(td.nodes, td.edges, bags)
    report = verify_tree_decomposition(g, broken, nested, [])
    assert not report.ok
    assert not report.t3_connected or not report.induced_equal


def test_tree_of_tangles_pipeline_small_graphs(corpus_small):
    for g in corpus_small[:15]:
        k = min(3, len(g.vertices))
        tangles = list(enumerate_tangles(g, k))
        nested = build_tree_of_tangles(g, tangles)
        assert verify_tree_of_tangles(g, nested, tangles).ok
        if all(m.is_proper() for m in nested):
            td = induce_tree_decomposition(g, nested)
            report = verify_tree_decomposition(g, td, nested, tangles)
            assert report.ok


def test_exhaustiveness_ray_is_exhaustive(ray_presentation):
    chains = ray_presentation.canonical_layer_chains()
    verdict = exhaustiveness_evidence(ray_presentation, chains)
    assert verdict.verdict == "exhaustive-evidence"
    assert verdict.max_order == 1


def test_exhaustiveness_grid_is_exhaustive(grid_presentation):
    chains = grid_presentation.canonical_layer_chains()
    verdict = exhaustiveness_evidence(grid_presentation, chains)
    assert verdict.verdict == "exhaustive-evidence"
    assert verdict.max_order == 3


def test_exhaustiveness_clique_chain_witness(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    verdict = exhaustiveness_evidence(scaled_chain, chains)
    assert verdict.verdict == "non-exhaustive-witness"
    assert verdict.stable_b_prefix
    assert all(v.startswith("r:") for v in verdict.stable_b_prefix)


def test_exhaustiveness_verdict_at_horizon_four():
    from tangletree.families import generate_family

    p = generate_family("clique_chain", {"horizon": 4, "sizes": [8, 12, 20, 36]})
    verdict = exhaustiveness_evidence(p, p.canonical_layer_chains())
    assert verdict.verdict == "non-exhaustive-witness"


def test_incoherent_chain_rejected(ray_presentation):
    chains = dict(ray_presentation.canonical_layer_chains())
    g3 = ray_presentation.graph_at(3)
    # swap layer 3's first item for a different cut: separators disagree
    rogue = make_separation(
        g3, {"r:0:0", "r:0:1", "r:0:2"}, {"r:0:2", "r:0:3"}
    )
    chains[3] = SeparationSequence.strictly_increasing([rogue])
    with pytest.raises(IncoherentChainError):
        check_chain_coherence(ray_presentation, chains)


def test_dot_export_mentions_bags():
    g = path_graph(3)
    s = make_separation(g, {"p00", "p01"}, {"p01", "p02"}).canonical()
    td = induce_tree_decomposition(g, NestedSet.of(g, [s]))
    dot = td.to_dot()
    assert dot.startswith("graph")
    assert "p00,p01" in dot and "p01,p02" in dot
    assert TreeDecomposition.from_json(td.to_json()).bags == td.bags


@pytest.mark.parametrize(
    "field, value",
    [("nodes", "xy"), ("edges", "xy"), ("edges", ["xy"]), ("bags", {"x": "ab", "y": ["b", "c", "d"]})],
)
def test_tree_decomposition_lists_must_be_lists(field, value):
    """A string where a list belongs is a GraphFormatError, not its characters."""
    doc = {"nodes": ["x", "y"], "edges": [["x", "y"]], "bags": {"x": ["a", "b"], "y": ["b", "c", "d"]}}
    with pytest.raises(GraphFormatError, match="must be a list"):
        TreeDecomposition.from_json({**doc, field: value})


@st.composite
def nested_sets(draw, max_members: int = 12):
    """A sparse connected graph on at most 12 vertices and a nested set of
    its proper separations of order <= 2, grown in a drawn order."""
    size = draw(st.integers(0, max_members))
    n = draw(st.integers(2, 12))
    verts = [f"v{i:02d}" for i in range(n)]
    edges = {(verts[draw(st.integers(max(0, i - 3), i - 1))], verts[i]) for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)), max_size=2)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    g = Graph.from_data(verts, edges)
    seps = [s for s in enumerate_separations(g, 2) if s.is_proper()]
    members = []
    for s in draw(st.permutations(seps)):
        if len(members) == size:
            break
        if all(relation(s, t).nested for t in members):
            members.append(s)
    return g, members


@settings(max_examples=100)
@given(case=nested_sets())
def test_induce_matches_orientation_sweep(case):
    g, members = case
    td = induce_tree_decomposition(g, NestedSet.of(g, members))
    assert (td.nodes, td.edges, td.bags) == consistent_orientations_brute(g, members)


def test_induce_long_chain_on_a_path():
    g = path_graph(30)
    vs = sorted(g.vertices)
    chain = [make_separation(g, vs[: i + 1], vs[i:]).canonical() for i in range(1, 28)]
    nested = NestedSet.of(g, chain)
    td = induce_tree_decomposition(g, nested)
    assert len(td.bags) == 28 and len(td.edges) == 27
    expected = [vs[i : i + 2] for i in range(27)] + [vs[27:]]
    assert sorted(sorted(bag) for bag in td.bags.values()) == expected
    assert verify_tree_decomposition(g, td, nested, []).ok


def test_build_rejects_a_complete_pretangle_that_fails_the_axiom():
    """On the path p00-p01-p02, orienting every separation of order <= 1
    toward "a", but (∅, V) toward "b", is consistent and complete, and
    three of its small sides cover the path."""
    g = path_graph(3)
    p = PreTangle(g, 2, {sep: "a" if sep.side_a else "b" for sep in enumerate_separations(g, 1)})
    assert check_pretangle(g, p).ok and not check_tangle(g, p).ok
    with pytest.raises(PreconditionError, match="^input is not a tangle"):
        build_tree_of_tangles(g, [p])


def test_an_empty_tree_decomposition_misses_the_pair_of_two_k4():
    """The two K4 of two_k4_bridge give two tangles of order 3, which the
    bridge distinguishes at order 1; a one-bag decomposition distinguishes
    nothing, so the pair is its inefficient-pairs witness."""
    g = two_k4_bridge()
    nested = NestedSet.of(g, [])
    report = verify_tree_decomposition(g, induce_tree_decomposition(g, nested), nested, enumerate_tangles(g, 3))
    assert report.tree_ok and report.induced_equal and not report.efficiency_ok and not report.ok
    assert report.witnesses == {"inefficient_pairs": [(0, 1, 1)]}
