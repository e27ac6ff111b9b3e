"""Generator families: structure, monotone towers, boundaries, round trips."""

import json
from unittest import mock

import pytest

from tangletree.errors import FamilyParameterError, GraphFormatError
from tangletree.families import (
    LayeredPresentation,
    generate_family,
    load_presentation_spec,
    truncate,
)
from tangletree.graph import Graph, load_graph
from tangletree.limits import check_chain_coherence
from tangletree.separations import is_tight
from .oracles import family_reference

_FAMILY_CASES = {  # by test id: the family and its parameters but the horizon
    "clique_chain-default": ("clique_chain", {}),
    "clique_chain-scaled": ("clique_chain", {"sizes": [8, 12, 20, 36]}),
    "ray": ("ray", {}),
    "double_ray": ("double_ray", {}),
    "grid-width1": ("grid", {"width": 1}),
    "grid-default-width3": ("grid", {}),
    "grid-width5": ("grid", {"width": 5}),
    "binary_tree": ("binary_tree", {}),
}


def test_unknown_family_rejected():
    with pytest.raises(FamilyParameterError):
        generate_family("moebius", {"horizon": 2})


@pytest.mark.parametrize("horizon", [-1, True, 2.0, None])
def test_horizon_must_be_a_non_negative_integer(horizon):
    """A bool horizon would be written as `true`, which `from_json` rejects."""
    with pytest.raises(FamilyParameterError):
        generate_family("ray", {"horizon": horizon})


@pytest.mark.parametrize("width", [0, True, 2.0, "3"])
def test_grid_width_must_be_a_positive_integer(width):
    """A bool width would build a width-1 grid and be written as `true`."""
    with pytest.raises(FamilyParameterError):
        generate_family("grid", {"horizon": 3, "width": width})


def test_clique_chain_default_level_zero_size_is_sixteen():
    p = generate_family("clique_chain", {"horizon": 1})
    assert len(p.clique(0)) == 16
    assert len(p.clique(1)) == 32


def test_clique_chain_default_truncation_one_vertex_count():
    # levels 16 and 32 share two identified vertices; two rays contribute
    # two vertices each
    p = generate_family("clique_chain", {"horizon": 1})
    g, _ = truncate(p, 1)
    assert len(g.vertices) == 16 + 32 - 2 + 4


def test_clique_chain_scaled_sizes_accepted():
    p = generate_family("clique_chain", {"horizon": 3, "sizes": [8, 12, 20, 36]})
    assert [len(p.clique(n)) for n in range(4)] == [8, 12, 20, 36]


def test_clique_chain_sizes_too_small_rejected():
    with pytest.raises(FamilyParameterError) as err:
        generate_family("clique_chain", {"horizon": 2, "sizes": [8, 5, 20]})
    assert "designated" in str(err.value)


def test_clique_chain_short_sizes_extend_at_minimum_scale():
    p = generate_family("clique_chain", {"horizon": 5, "sizes": [8, 12, 20, 36]})
    assert len(p.clique(4)) == 3 * 2**4
    assert len(p.clique(5)) == 3 * 2**5


def test_clique_chain_designated_vertices_exist(scaled_chain):
    g = scaled_chain.graph_at(3)
    assert "u:0:1" in g.vertices
    assert {"v:0:1", "v:0:2"} <= g.vertices
    assert {f"v:3:{i}" for i in range(1, 17)} <= g.vertices
    assert "r:3:0" in g.vertices


def test_clique_chain_attachment_edges(scaled_chain):
    g = scaled_chain.graph_at(3)
    # ray n touches w^m exactly for n <= m
    assert g.has_edge("r:0:0", "v:0:1")
    assert g.has_edge("r:0:2", "v:2:1")
    assert g.has_edge("r:2:2", "v:2:1")
    assert not g.has_edge("r:2:0", "v:0:1")
    assert not g.has_edge("r:2:1", "v:1:1")


def test_ray_truncations():
    p = generate_family("ray", {"horizon": 3})
    g0, b0 = truncate(p, 0)
    assert len(g0.vertices) == 1 and b0 == g0.vertices
    g3, b3 = truncate(p, 3)
    assert len(g3.vertices) == 4 and len(g3.edges) == 3
    assert b3 == {"r:0:3"}


def test_truncate_beyond_horizon_rejected():
    p = generate_family("ray", {"horizon": 2})
    with pytest.raises(FamilyParameterError):
        truncate(p, 3)


def test_grid_strip_shape():
    p = generate_family("grid", {"horizon": 4})
    g2, b2 = truncate(p, 2)
    assert len(g2.vertices) == 9  # 3 columns x default width 3
    assert b2 == {"g:2:0", "g:2:1", "g:2:2"}


def test_double_ray_boundary():
    p = generate_family("double_ray", {"horizon": 3})
    _, b = truncate(p, 2)
    assert b == {"l:0:2", "r:0:2"}


def test_binary_tree_boundary_is_deepest_level():
    p = generate_family("binary_tree", {"horizon": 3})
    g, b = truncate(p, 2)
    assert b == {v for v in g.vertices if len(v) == 5}  # "b:r" plus two bits


def test_towers_are_monotone_induced_subgraphs():
    for name, params in (
        ("clique_chain", {"horizon": 3, "sizes": [8, 12, 20, 36]}),
        ("ray", {"horizon": 4}),
        ("double_ray", {"horizon": 3}),
        ("grid", {"horizon": 3}),
        ("binary_tree", {"horizon": 3}),
    ):
        p = generate_family(name, params)
        for m in range(p.horizon):
            small, big = p.graph_at(m), p.graph_at(m + 1)
            assert small.vertices <= big.vertices
            assert big.induced(small.vertices) == small


def test_boundary_is_exactly_vertices_gaining_neighbours(scaled_chain):
    for m in range(scaled_chain.horizon):
        g, nxt = scaled_chain.graph_at(m), scaled_chain.graph_at(m + 1)
        new = nxt.vertices - g.vertices
        expected = {v for v in g.vertices if nxt.adjacency[v] & new}
        assert scaled_chain.boundary(m) == expected


@pytest.mark.parametrize("name", ["ray", "double_ray", "grid", "binary_tree"])
def test_boundary_is_exactly_vertices_gaining_neighbours_in_every_family(name):
    p = generate_family(name, {"horizon": 4})
    for m in range(p.horizon):
        g, nxt = p.graph_at(m), p.graph_at(m + 1)
        new = nxt.vertices - g.vertices
        assert p.boundary(m) == {v for v in g.vertices if nxt.adjacency[v] & new}


def test_degrees_stabilize_one_layer_after_entry():
    for name, params in (
        ("clique_chain", {"horizon": 4, "sizes": [8, 12, 20, 36]}),
        ("grid", {"horizon": 4}),
        ("binary_tree", {"horizon": 4}),
    ):
        p = generate_family(name, params)
        entry = {}
        for m in range(p.horizon + 1):
            for v in p.graph_at(m).vertices:
                entry.setdefault(v, m)
        for v, first in entry.items():
            degrees = {
                len(p.graph_at(m).adjacency[v])
                for m in range(min(first + 1, p.horizon), p.horizon + 1)
            }
            assert len(degrees) == 1, (v, degrees)


def test_presentation_round_trip(scaled_chain):
    doc = scaled_chain.to_json()
    back = LayeredPresentation.from_json(json.loads(json.dumps(doc)))
    assert back.horizon == scaled_chain.horizon
    for m in range(back.horizon + 1):
        assert back.graph_at(m) == scaled_chain.graph_at(m)
        assert back.boundary(m) == scaled_chain.boundary(m)
    assert back.rays == scaled_chain.rays
    assert back.cliques == scaled_chain.cliques


@pytest.mark.parametrize(
    "path",
    [
        ("layers",),
        ("layers", 0, "vertices"),
        ("layers", 1, "edges"),
        ("layers", 1, "edges", 0),
        ("layers", 0, "boundary"),
        ("rays", "R0"),
        ("cliques",),
        ("cliques", 0),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
def test_presentation_lists_must_be_lists(path):
    """A string where a list belongs is a GraphFormatError: read as a list,
    it would stand for its characters."""
    doc = generate_family("clique_chain", {"horizon": 2, "sizes": [3, 6, 12]}).to_json()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    parent[path[-1]] = "".join(value) if all(isinstance(x, str) for x in value) else "ab"
    with pytest.raises(GraphFormatError, match="must be a list"):
        LayeredPresentation.from_json(doc)


def test_generator_graph_document_round_trip(scaled_chain):
    g = scaled_chain.graph_at(2)
    assert load_graph(g.dumps()) == g


def test_presentation_spec_loader():
    p = load_presentation_spec(
        '{"family":"clique_chain","params":{"horizon":3,"sizes":[8,12,20,36]}}'
    )
    assert p.horizon == 3
    assert len(p.clique(0)) == 8
    defaults = load_presentation_spec('{"family":"ray","params":{"horizon":2}}')
    assert defaults.family == "ray"


def test_clique_never_split_strictly_by_enumerated_separations(scaled_chain):
    from tangletree.separations import enumerate_separations

    g = scaled_chain.graph_at(1)
    for sep in enumerate_separations(g, 2):
        for n in range(2):
            clique = scaled_chain.clique(n)
            strict_a = clique & (sep.side_a - sep.side_b)
            strict_b = clique & (sep.side_b - sep.side_a)
            assert not (strict_a and strict_b)


def test_canonical_chains_are_tight_and_coherent(scaled_chain, ray_presentation, grid_presentation):
    for p in (scaled_chain, ray_presentation, grid_presentation):
        chains = p.canonical_layer_chains()
        check_chain_coherence(p, chains)
        for m, seq in chains.items():
            g = p.graph_at(m)
            for item in seq:
                assert is_tight(g, item)


def test_ray_prefixes(scaled_chain):
    assert scaled_chain.ray_prefix("R2", 1) == ()
    assert scaled_chain.ray_prefix("R2", 3) == ("r:2:0", "r:2:1", "r:2:2", "r:2:3")
    assert scaled_chain.ray_tail_vertex("R0", 2) == "r:0:2"


@pytest.mark.parametrize("horizon", range(6))
@pytest.mark.parametrize("name, params", list(_FAMILY_CASES.values()), ids=list(_FAMILY_CASES))
def test_generated_presentation_matches_per_layer_reference(name, params, horizon):
    """The tower, grown level by level, is byte for byte the presentation
    built layer by layer from scratch with a shadow layer h + 1."""
    params = {**params, "horizon": horizon}
    doc = json.dumps(generate_family(name, params).to_json(), sort_keys=True)
    assert doc == json.dumps(family_reference(name, params).to_json(), sort_keys=True)


@pytest.mark.parametrize("name, params", list(_FAMILY_CASES.values()), ids=list(_FAMILY_CASES))
def test_generation_builds_one_graph_per_layer(name, params):
    """No graph is built for level h + 1: boundary(h) comes from its edges."""
    post_init = Graph.__post_init__
    with mock.patch.object(Graph, "__post_init__", autospec=True, side_effect=post_init) as built:
        generate_family(name, {**params, "horizon": 3})
    assert built.call_count == 4
