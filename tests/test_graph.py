"""Graph primitives: documents, components, tightness, disjoint paths."""

import json
import random
import re
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree.ends import Direction, directions_in_closure, find_comb, ray_packing, thick_end_pipeline, thin_end_bound
from tangletree.errors import (
    AmbientMismatchError,
    FamilyParameterError,
    GraphFormatError,
    PreconditionError,
    UnknownVertexError,
)
from tangletree.families import LayeredPresentation, generate_family, load_presentation_spec, truncate
from tangletree.graph import (
    Graph,
    components,
    disjoint_paths,
    load_graph,
    minimum_separator,
    tight_components,
)
from tangletree.limits import (
    InterlacedPair,
    check_interlaced_pair,
    check_strongly_relevant,
    construct_interlaced,
    exhaustiveness_evidence,
    limit_separator_growth,
    limit_separator_prefix,
    pseudo_tight_check,
    thin_out,
)
from tangletree.separations import (
    DEFAULT_ENUMERATION_BUDGET,
    NestedSet,
    Separation,
    SeparationSequence,
    _enumeration,
    enumerate_separations,
    make_separation,
)
from tangletree.tangles import (
    PreTangle,
    TangleWitness,
    _blocks,
    clique_witness,
    distinguishable_pairs,
    end_region_witness,
    enumerate_tangles,
    materialize,
)
from tangletree.tree_of_tangles import (
    TreeDecomposition,
    build_tree_of_tangles,
    classify_pairs,
    induce_tree_decomposition,
    verify_tree_decomposition,
    verify_tree_of_tangles,
)
from .conftest import (
    clique_chain_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    two_k5_shared_vertex,
)
from .oracles import blocks_reference, components_reference, min_cut_brute, tight_components_reference


@pytest.mark.parametrize(
    "call",
    [
        lambda g: components(g, None),
        lambda g: components(g, [["p00"]]),
        lambda g: components(g, ["zz", ["p00"]]),
        lambda g: tight_components(g, 3),
        lambda g: g.neighbourhood(None),
        lambda g: g.mask([{"p00"}]),
        lambda g: Separation(g, None, frozenset()),
        lambda g: Separation(g, g.vertices, None),
    ],
    ids=["None", "unhashable", "unknown then unhashable", "int", "neighbourhood of None",
         "mask of a set", "side a None", "side b None"],
)
def test_malformed_vertex_sets_raise_precondition_errors(call):
    with pytest.raises(PreconditionError, match="^a vertex set must be an iterable of vertex names"):
        call(path_graph(3))


def test_unknown_vertex_names_still_raise_unknown_vertex_errors():
    g = path_graph(3)
    with pytest.raises(UnknownVertexError, match="^yy$"):
        components(g, ["zz", "p00", "yy"])
    with pytest.raises(UnknownVertexError, match="^zz$"):
        g.mask(iter(["p00", "zz", "p01"]))


_PATH3 = path_graph(3)
_CALLS_ON_A_GRAPH = {
    "Separation": lambda g: Separation(g, {"p00"}, _PATH3.vertices),
    "make_separation": lambda g: make_separation(g, {"p00"}, _PATH3.vertices),
    "NestedSet.of": lambda g: NestedSet.of(g, []),
    "enumerate_separations": lambda g: enumerate_separations(g, 1),
    "enumerate_tangles": lambda g: enumerate_tangles(g, 2),
    "disjoint_paths": lambda g: disjoint_paths(g, {"p00"}, {"p02"}),
    "minimum_separator": lambda g: minimum_separator(g, {"p00"}, {"p02"}),
    "components": lambda g: components(g),
    "tight_components": lambda g: tight_components(g, {"p01"}),
    "clique_witness": lambda g: clique_witness(g, {"p00", "p01"}, 1),
    "distinguishable_pairs": lambda g: distinguishable_pairs(g, []),
    "build_tree_of_tangles": lambda g: build_tree_of_tangles(g, []),
    "verify_tree_of_tangles": lambda g: verify_tree_of_tangles(g, NestedSet.of(_PATH3, []), []),
    "induce_tree_decomposition": lambda g: induce_tree_decomposition(g, None),
    "verify_tree_decomposition": lambda g: verify_tree_decomposition(
        g, induce_tree_decomposition(_PATH3, NestedSet.of(_PATH3, [])), NestedSet.of(_PATH3, []), []
    ),
    "pseudo_tight_check": lambda g: pseudo_tight_check(
        g, SeparationSequence.strictly_increasing([Separation(_PATH3, {"p00"}, _PATH3.vertices)])
    ),
}


@pytest.mark.parametrize("bad", [None, "x", _PATH3.edges], ids=["None", "str", "edge set"])
@pytest.mark.parametrize("call", _CALLS_ON_A_GRAPH.values(), ids=_CALLS_ON_A_GRAPH)
def test_an_argument_that_is_no_graph_raises_a_precondition_error(call, bad):
    with pytest.raises(PreconditionError, match=f"^expected a Graph, got {type(bad).__name__}$"):
        call(bad)


_ITEM = Separation(_PATH3, {"p00", "p01"}, {"p01", "p02"})
_SEQ = SeparationSequence.strictly_increasing([_ITEM])
_NESTED = NestedSet.of(_PATH3, [_ITEM.canonical()])
_DECOMPOSITION = induce_tree_decomposition(_PATH3, _NESTED)
_CALLS_ON_NONE = {
    "ray_packing": lambda: ray_packing(None, 1, Direction(("R0",)), set()),
    "thin_end_bound": lambda: thin_end_bound(None, Direction(("R0",)), 1),
    "directions_in_closure": lambda: directions_in_closure(None, 1, set()),
    "end_region_witness": lambda: end_region_witness(None, "R0", 1, 2),
    "truncate": lambda: truncate(None, 1),
    "thick_end_pipeline": lambda: thick_end_pipeline(None, NestedSet.of(_PATH3, []), {1: []}, []),
    "find_comb": lambda: find_comb(None, 1, set(), 1),
    "thin_out": lambda: thin_out(None),
    "check_interlaced_pair": lambda: check_interlaced_pair(_PATH3, None),
    "materialize": lambda: materialize(None),
    "clique_witness": lambda: clique_witness(_PATH3, None, 1),
    "load_graph": lambda: load_graph(None),
    "load_presentation_spec": lambda: load_presentation_spec(None),
    "build_tree_of_tangles": lambda: build_tree_of_tangles(_PATH3, None),
    "distinguishable_pairs": lambda: distinguishable_pairs(_PATH3, None),
    "verify_tree_of_tangles nested set": lambda: verify_tree_of_tangles(_PATH3, None, []),
    "verify_tree_of_tangles tangles": lambda: verify_tree_of_tangles(_PATH3, _NESTED, None),
    "induce_tree_decomposition": lambda: induce_tree_decomposition(_PATH3, None),
    "verify_tree_decomposition decomposition": lambda: verify_tree_decomposition(_PATH3, None, _NESTED, []),
    "verify_tree_decomposition nested set": lambda: verify_tree_decomposition(_PATH3, _DECOMPOSITION, None, []),
    "verify_tree_decomposition tangles": lambda: verify_tree_decomposition(_PATH3, _DECOMPOSITION, _NESTED, None),
    "exhaustiveness_evidence": lambda: exhaustiveness_evidence(None, {1: _SEQ}),
    "limit_separator_growth": lambda: limit_separator_growth(None, {1: _SEQ}),
    "construct_interlaced nested set": lambda: construct_interlaced(_PATH3, None, _SEQ, []),
    "construct_interlaced pool": lambda: construct_interlaced(_PATH3, _NESTED, _SEQ, None),
    "check_strongly_relevant": lambda: check_strongly_relevant(
        _PATH3, Separation(_PATH3, {"p00"}, _PATH3.vertices), _ITEM, None
    ),
    "pseudo_tight_check": lambda: pseudo_tight_check(_PATH3, None),
    "PreTangle graph": lambda: PreTangle(None, 2, {}),
    "PreTangle choices": lambda: PreTangle(_PATH3, 2, None),
    "TangleWitness graph": lambda: TangleWitness("clique", None, 1, clique={"p00"}),
    "TangleWitness clique": lambda: TangleWitness("clique", _PATH3, 1, clique=None),
    "classify_pairs members": lambda: classify_pairs(_PATH3, None, []),
    "classify_pairs tangles": lambda: classify_pairs(_PATH3, [], None),
    "Graph": lambda: Graph(None, None),
    "Graph.from_data vertices": lambda: Graph.from_data(None, []),
    "Graph.from_data edges": lambda: Graph.from_data("ab", 3),
    "SeparationSequence None": lambda: SeparationSequence(None),
    "SeparationSequence int": lambda: SeparationSequence(3),
    "InterlacedPair sequence": lambda: InterlacedPair(None, ()),
    "InterlacedPair tangles": lambda: InterlacedPair(_SEQ, None),
}


@pytest.mark.parametrize("call", _CALLS_ON_NONE.values(), ids=_CALLS_ON_NONE)
def test_none_for_a_presentation_pair_witness_clique_or_text_raises_a_library_error(call):
    """Each public call checks its arguments on entry, so None for a
    presentation, an interlaced pair, a witness, a clique, a document text,
    a nested set, a tree-decomposition, a sequence, a list of members, of
    tangles or pool of orienters, an orienter's graph or choices, a graph's
    vertices or edges, or an interlaced pair's sequence or tangles raises a
    PreconditionError, not a raw AttributeError or TypeError; so do an int
    for the items of a sequence and for the edges of `Graph.from_data`."""
    with pytest.raises(PreconditionError, match="^(expected a [A-Za-z]+, got NoneType|[a-z ]+ must be an iterable)"):
        call()


def test_a_tangle_list_holding_none_raises_an_ambient_mismatch():
    """A list of tangles is checked member by member on entry: None in it is
    no orienter, where the builder used to return an empty nested set."""
    with pytest.raises(AmbientMismatchError, match="^expected an orienter, got NoneType$"):
        build_tree_of_tangles(_PATH3, [None])


@pytest.mark.parametrize("edge", [("a",), 1, ("a", "b", "c")], ids=["one name", "int", "three names"])
def test_a_raw_graph_edge_that_is_no_pair_raises_a_graph_format_error(edge):
    with pytest.raises(GraphFormatError, match=f"^edge {re.escape(repr(edge))} is not a pair of vertices") as err:
        Graph(frozenset({"a", "b", "c"}), frozenset({edge}))
    assert err.value.context == "edges"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_data([3, "a"], []),
        lambda: Graph(frozenset({3, "a"}), frozenset()),
        lambda: Graph.from_data([3], []),
        lambda: Graph.from_data(["", "a"], []),
        lambda: Graph(frozenset({"a", 3}), frozenset({("a", 3)})),
    ],
    ids=["from_data", "raw", "int names only", "empty name", "raw int endpoint"],
)
def test_a_vertex_that_is_no_non_empty_string_raises_a_graph_format_error(build):
    """A graph document takes vertex names as non-empty strings, and so does
    every `Graph`: one with an int name used to build, and then each call
    that sorts its names raised TypeError, and its `dumps` wrote a
    document `load_graph` rejects."""
    with pytest.raises(GraphFormatError, match="^vertex must be a non-empty string, got (3|'')") as err:
        build()
    assert err.value.context == "vertices"


@pytest.mark.parametrize("members", [None, 3], ids=["None", "int"])
def test_nested_set_members_that_are_not_iterable_raise_a_precondition_error(members):
    with pytest.raises(PreconditionError, match="^members must be an iterable of separations"):
        NestedSet(_PATH3, members)


def test_nested_set_members_are_read_into_a_frozenset():
    assert NestedSet(_PATH3, [_ITEM.canonical()] * 2).members == frozenset({_ITEM.canonical()})


@pytest.mark.parametrize("tangle", [None, 3], ids=["None", "int"])
def test_an_interlaced_pair_holding_no_orienter_raises_an_ambient_mismatch(tangle):
    with pytest.raises(AmbientMismatchError, match=f"^expected an orienter, got {type(tangle).__name__}$"):
        InterlacedPair(SeparationSequence(()), (tangle,))


def test_a_negative_order_or_no_chain_layer_raises_a_precondition_error():
    """Two inputs that passed the entry checks and crashed inside: a
    negative max_order read an empty list, and the pipeline took the
    largest layer of an empty dict."""
    with pytest.raises(PreconditionError, match="^max_order must be an integer >= 0, got -1$"):
        enumerate_separations(_PATH3, -1)
    p = generate_family("ray", {"horizon": 2})
    with pytest.raises(PreconditionError, match="^no chain layers supplied$"):
        thick_end_pipeline(p, NestedSet.of(p.graph_at(2), []), {}, [])


@pytest.mark.parametrize("bad", [None, "x", []], ids=["None", "str", "list"])
def test_a_limit_prefix_of_no_sequence_raises_a_precondition_error(bad):
    message = f"^expected a SeparationSequence, got {type(bad).__name__}$"
    with pytest.raises(PreconditionError, match=message):
        limit_separator_prefix(bad)


def test_load_smallest_nonempty():
    g = load_graph('{"vertices":["a","b"],"edges":[["a","b"]]}')
    assert g.vertices == {"a", "b"}
    assert g.edges == {("a", "b")}


def test_load_loop_edge_rejected():
    with pytest.raises(GraphFormatError) as err:
        load_graph('{"vertices":["a"],"edges":[["a","a"]]}')
    assert "loop" in str(err.value)
    assert "edges[0]" in str(err.value)


def test_load_unknown_endpoint_rejected():
    with pytest.raises(GraphFormatError) as err:
        load_graph('{"vertices":["a"],"edges":[["a","b"]]}')
    assert "unknown endpoint" in str(err.value)


def test_load_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError):
        load_graph('{"vertices":["a","b"],"edges":[["a","b"],["b","a"]]}')


def test_load_malformed_json_reports_position():
    with pytest.raises(GraphFormatError) as err:
        load_graph('{"vertices": [')
    assert "line 1" in str(err.value)


def test_empty_graph_is_legal_document():
    g = load_graph('{"vertices":[],"edges":[]}')
    assert not g.vertices
    assert not g.is_connected()


_P3 = Graph.from_data(["a", "b", "c"], [("a", "b"), ("b", "c")])
_RAY = generate_family("ray", {"horizon": 2}).to_json()
_TD = {"nodes": ["x"], "edges": [], "bags": {"x": ["a", "b", "c"]}}


@pytest.mark.parametrize(
    "parse",
    [
        lambda: LayeredPresentation.from_json({**_RAY, "rays": []}),
        lambda: LayeredPresentation.from_json({**_RAY, "layers": [*_RAY["layers"][:2], "ab"]}),
        lambda: LayeredPresentation.from_json({**_RAY, "params": [1]}),
        lambda: LayeredPresentation.from_json([]),
        lambda: TreeDecomposition.from_json({**_TD, "bags": []}),
        lambda: TreeDecomposition.from_json("ab"),
        lambda: TreeDecomposition.from_json({**_TD, "nodes": ["x", "y"], "edges": [["x", "x", "y"]]}),
        lambda: TreeDecomposition.from_json({**_TD, "edges": [[[], []]]}),
        lambda: Separation.from_json(_P3, []),
        lambda: SeparationSequence.from_json(_P3, {"items": "ab"}),
        lambda: SeparationSequence.from_json(_P3, []),
        lambda: NestedSet.from_json(_P3, {"members": "ab"}),
        lambda: PreTangle.from_json(_P3, {"order_bound": 1, "orientation": "ab"}),
        lambda: PreTangle.from_json(_P3, {"order_bound": 1, "orientation": [[1]]}),
        lambda: PreTangle.from_json(_P3, [1]),
        lambda: load_presentation_spec('{"family": "ray", "params": [1]}'),
        lambda: load_presentation_spec('{"family": "ray", "params": "ab"}'),
    ],
    ids=[
        "presentation-rays",
        "presentation-layer",
        "presentation-params",
        "presentation",
        "decomposition-bags",
        "decomposition",
        "decomposition-edge-triple",
        "decomposition-edge-lists",
        "separation",
        "sequence-items",
        "sequence",
        "nested-members",
        "tangle-orientation",
        "tangle-entry",
        "tangle",
        "spec-params-list",
        "spec-params-string",
    ],
)
def test_documents_of_the_wrong_shape_are_format_errors(parse):
    """A list where an object belongs, a string where a list belongs, or an
    edge that is no pair of names is a GraphFormatError from every library
    parser, not a raw Python error."""
    with pytest.raises(GraphFormatError, match="must be"):
        parse()


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


_EMPTY_SIDE = {"a": [], "b": ["a", "b", "c"]}


@pytest.mark.parametrize(
    "parse, field",
    [
        (lambda: Separation.from_json(_P3, {}), "a"),
        (lambda: Separation.from_json(_P3, {"a": []}), "b"),
        (lambda: SeparationSequence.from_json(_P3, {}), "items"),
        (lambda: NestedSet.from_json(_P3, {}), "members"),
        (lambda: PreTangle.from_json(_P3, {}), "order_bound"),
        (lambda: PreTangle.from_json(_P3, {"order_bound": 1}), "orientation"),
        (lambda: PreTangle.from_json(_P3, {"order_bound": 1, "orientation": [{"toward": "b"}]}), "sep"),
        (lambda: PreTangle.from_json(_P3, {"order_bound": 1, "orientation": [{"sep": _EMPTY_SIDE}]}), "toward"),
        (lambda: TreeDecomposition.from_json({}), "nodes"),
        (lambda: TreeDecomposition.from_json({"nodes": []}), "edges"),
        (lambda: TreeDecomposition.from_json(_without(_TD, "bags")), "bags"),
        *[(lambda key=key: LayeredPresentation.from_json(_without(_RAY, key)), key)
          for key in ("horizon", "layers", "rays", "family", "params")],
        *[(lambda key=key: LayeredPresentation.from_json({**_RAY, "layers": [_without(_RAY["layers"][0], key), *_RAY["layers"][1:]]}), key)
          for key in ("vertices", "edges", "boundary")],
    ],
    ids=[
        "separation-a",
        "separation-b",
        "sequence",
        "nested",
        "tangle-order-bound",
        "tangle-orientation",
        "tangle-entry-sep",
        "tangle-entry-toward",
        "decomposition-nodes",
        "decomposition-edges",
        "decomposition-bags",
        *(f"presentation-{key}" for key in ("horizon", "layers", "rays", "family", "params")),
        *(f"presentation-layer-{key}" for key in ("vertices", "edges", "boundary")),
    ],
)
def test_documents_that_lack_a_field_are_format_errors(parse, field):
    """Every library parser names a missing field in a GraphFormatError,
    as `load_graph` does, rather than raising a raw KeyError."""
    with pytest.raises(GraphFormatError, match=f"missing '{field}' field"):
        parse()


def test_a_family_name_that_is_no_string_is_unknown():
    with pytest.raises(FamilyParameterError, match="unknown family"):
        load_presentation_spec('{"family": [1]}')


def test_dump_load_round_trip_is_identity():
    g = grid_graph(3, 3)
    assert load_graph(g.dumps()) == g
    assert load_graph(g.dumps()).dumps() == g.dumps()


def test_components_path_removed_middle():
    g = path_graph(3)
    assert components(g, {"p01"}) == [frozenset({"p00"}), frozenset({"p02"})]


def test_components_nothing_removed_connected():
    g = cycle_graph(5)
    assert components(g) == [frozenset(g.vertices)]


def test_components_grid_middle_column():
    g = grid_graph(3, 3)
    middle = {"g01", "g11", "g21"}
    comps = components(g, middle)
    assert len(comps) == 2
    assert all(len(c) == 3 for c in comps)


def test_components_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        components(path_graph(3), {"zz"})


def test_mask_unknown_vertex():
    g = Graph.from_data(["a", "b"], [("a", "b")])
    assert g.mask(["b", "a"]) == 0b11
    with pytest.raises(UnknownVertexError, match="^zz$"):
        g.mask(["zz"])
    with pytest.raises(UnknownVertexError, match="^y$"):  # the least unknown vertex
        g.mask(["a", "zz", "y"])


def _random_graph(rng: random.Random, n: int) -> Graph:
    """Random graph on n vertices, connected or not."""
    vs = [f"v{i}" for i in range(n)]
    density = rng.random()
    return Graph.from_data(vs, [e for e in combinations(vs, 2) if rng.random() < density])


def _check_components(g: Graph, removed) -> None:
    assert components(g, removed) == components_reference(g, removed)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_components_match_the_set_search(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = _random_graph(rng, data.draw(st.integers(0, 9)))
    verts = sorted(g.vertices)
    for removed in ((), rng.sample(verts, rng.randrange(len(verts) + 1)), verts):
        _check_components(g, frozenset(removed))
    assert components(g, verts) == []
    assert g.is_connected() == (len(components_reference(g)) == 1)
    with pytest.raises(UnknownVertexError):
        components(g, [*verts[:1], "zz"])


def _blocks_of(g: Graph) -> list[int]:
    """`_blocks` of connected g, read off the floods of its order-1 enumeration."""
    return _blocks((1 << len(g.vertices)) - 1, _enumeration(g, 1, DEFAULT_ENUMERATION_BUDGET)[1])


def _block_names(g: Graph) -> list[frozenset[str]]:
    names = g._vertex_index[0]
    return sorted((frozenset(names[i] for i in range(len(names)) if b >> i & 1) for b in _blocks_of(g)), key=sorted)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blocks_match_their_definition(data):
    """`_blocks` against the maximal vertex sets that induce a connected
    subgraph with no cut vertex, on connected graphs of 1 to 7 vertices, a
    third of them with a pendant path of 1 to 3 vertices hung on."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_connected_graph(rng, data.draw(st.integers(1, 7)))
    if rng.random() < 1 / 3:
        tail = [rng.choice(sorted(g.vertices))] + [f"t{i}" for i in range(rng.randint(1, 3))]
        g = Graph.from_data([*g.vertices, *tail[1:]], [*g.edges, *zip(tail, tail[1:])])
    assert _block_names(g) == blocks_reference(g)


def test_blocks_of_small_shapes_and_a_long_path():
    """A cycle is one block and a single vertex is one; two K5 sharing a
    vertex are two; the three-K4 chain has its three cliques and the two
    bridges between them. On the path of 1,200 vertices each edge is a
    block, found without recursion."""
    assert _block_names(cycle_graph(5)) == [cycle_graph(5).vertices]
    assert _blocks_of(Graph.from_data(["x"], [])) == [1]
    assert len(_blocks_of(two_k5_shared_vertex())) == 2
    assert len(_blocks_of(clique_chain_graph(3, 4))) == 5
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        blocks = _blocks_of(path_graph(1200))
    finally:
        sys.setrecursionlimit(limit)
    assert len(blocks) == 1199 and all(b.bit_count() == 2 for b in blocks)


def test_components_match_the_set_search_on_the_chain_window(scaled_chain):
    g = scaled_chain.graph_at(5)
    assert len(g.vertices) == 194 and g.is_connected()
    rng = random.Random(5)
    verts = sorted(g.vertices)
    for size in range(25):
        _check_components(g, frozenset(rng.sample(verts, 2 * size)))
    for kind in "prv":  # keeping one kind of vertex leaves up to six components
        _check_components(g, frozenset(v for v in verts if not v.startswith(kind)))
    assert components(g, verts) == []


def test_tight_components_path():
    g = path_graph(3)
    assert tight_components(g, {"p01"}) == [frozenset({"p00"}), frozenset({"p02"})]


def test_tight_components_star_leaf():
    # the remaining star is one component whose entire outside neighbourhood
    # is exactly the removed leaf, so it is tight by definition
    g = star_graph(3)
    assert tight_components(g, {"l1"}) == [frozenset({"c", "l2", "l3"})]


def test_tight_components_star_centre():
    g = star_graph(3)
    assert tight_components(g, {"c"}) == [
        frozenset({"l1"}),
        frozenset({"l2"}),
        frozenset({"l3"}),
    ]


def test_tight_components_c4_opposite():
    g = cycle_graph(4)
    assert tight_components(g, {"c00", "c02"}) == [
        frozenset({"c01"}),
        frozenset({"c03"}),
    ]


def test_tight_components_are_components_with_exact_neighbourhood(corpus_small):
    for g in corpus_small[:20]:
        for v in sorted(g.vertices)[:3]:
            x = frozenset({v})
            tight = tight_components(g, x)
            comps = components(g, x)
            for k in tight:
                assert k in comps
                assert g.neighbourhood(k) == x


def test_neighbourhood_on_masks_matches_the_adjacency_sets(corpus_small):
    rng = random.Random(5)
    for g in corpus_small:
        verts = sorted(g.vertices)
        for vs in ((), verts, *(rng.sample(verts, rng.randrange(len(verts) + 1)) for _ in range(4))):
            vs = frozenset(vs)
            assert g.neighbourhood(vs) == frozenset().union(*(g.adjacency[v] for v in vs)) - vs
        with pytest.raises(UnknownVertexError, match="^zy$"):
            g.neighbourhood([verts[0], "zz", "zy"])


def _check_tight(g: Graph, x) -> None:
    assert tight_components(g, x) == tight_components_reference(g, x)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tight_components_match_the_set_loop(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = _random_graph(rng, data.draw(st.integers(0, 9)))
    verts = sorted(g.vertices)
    for removed in ((), rng.sample(verts, rng.randrange(len(verts) + 1)), verts):
        _check_tight(g, frozenset(removed))
    for v in verts:
        _check_tight(g, g.neighbourhood({v}))
    for tight in (tight_components, tight_components_reference):
        with pytest.raises(UnknownVertexError, match="^zy$"):
            tight(g, [*verts[:1], "zz", "zy"])


def test_tight_components_match_the_set_loop_on_the_chain_window(scaled_chain):
    g = scaled_chain.graph_at(5)
    rng = random.Random(7)
    verts = sorted(g.vertices)
    for size in range(12):
        _check_tight(g, frozenset(rng.sample(verts, 3 * size)))
    for item in scaled_chain.canonical_chain(5):
        _check_tight(g, item.separator)
        assert tight_components(g, item.separator)  # every chain item is tight
    _check_tight(g, scaled_chain.boundary(5))
    for tight in (tight_components, tight_components_reference):
        with pytest.raises(UnknownVertexError, match="^zz$"):
            tight(g, ["r:0:0", "zz"])


def test_disjoint_paths_path_graph():
    g = path_graph(3)
    assert disjoint_paths(g, {"p00"}, {"p02"}) == [["p00", "p01", "p02"]]


def test_disjoint_paths_c4_opposite_pairs():
    # paths are fully vertex-disjoint, so singleton terminals cap the count
    # at one (the terminal itself is a cut); opposite pairs give two
    g = cycle_graph(4)
    assert len(disjoint_paths(g, {"c00"}, {"c02"})) == 1
    assert minimum_separator(g, {"c00"}, {"c02"}) == frozenset({"c00"})
    paths = disjoint_paths(g, {"c00", "c01"}, {"c02", "c03"})
    assert len(paths) == 2


def test_disjoint_paths_grid_columns():
    g = grid_graph(4, 4)
    left = {f"g{r}0" for r in range(4)}
    right = {f"g{r}3" for r in range(4)}
    assert len(disjoint_paths(g, left, right)) == 4


def test_disjoint_paths_shared_vertex_counts_as_trivial_path():
    g = path_graph(3)
    paths = disjoint_paths(g, {"p00", "p01"}, {"p01", "p02"})
    assert ["p01"] in paths


def test_disjoint_paths_are_vertex_disjoint_and_deterministic(corpus_small):
    for g in corpus_small[:25]:
        verts = sorted(g.vertices)
        s = frozenset(verts[: max(1, len(verts) // 3)])
        t = frozenset(verts[-max(1, len(verts) // 3):])
        first = disjoint_paths(g, s, t)
        again = disjoint_paths(g, s, t)
        assert first == again
        used = set()
        for path in first:
            assert path[0] in s and path[-1] in t
            assert not (set(path) & used)
            used |= set(path)
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a, b)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_menger_duality_against_brute_force(data):
    import random

    seed = data.draw(st.integers(0, 10**6))
    n = data.draw(st.integers(2, 9))
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    verts = sorted(g.vertices)
    s = frozenset(data.draw(st.sets(st.sampled_from(verts), min_size=1, max_size=3)))
    t = frozenset(data.draw(st.sets(st.sampled_from(verts), min_size=1, max_size=3)))
    paths = disjoint_paths(g, s, t)
    cut = minimum_separator(g, s, t)
    assert len(paths) == len(cut) == min_cut_brute(g, s, t)


def test_minimum_separator_cuts(corpus_small):
    for g in corpus_small[:15]:
        verts = sorted(g.vertices)
        if len(verts) < 3:
            continue
        s, t = frozenset({verts[0]}), frozenset({verts[-1]})
        cut = minimum_separator(g, s, t)
        remaining = components(g, cut)
        for comp in remaining:
            assert not (comp & s and comp & t)
