"""The max-flow solver behind disjoint_paths, minimum_separator and the
comb and packing flows of `ends`, pinned against the tuple-keyed reference
network in the oracles, on whole graphs and under a vertex mask. `_solve`
takes and returns vertex masks; the reference works on names, so the
checks mask the terminals and name the cut."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree import ends
from tangletree.errors import PreconditionError, UnknownVertexError
from tangletree.families import generate_family
from tangletree.graph import Graph, _select, _solve, disjoint_paths, minimum_separator
from .conftest import cycle_graph, grid_graph, path_graph, random_connected_graph
from .oracles import flow_reference, paths_from_base_reference, teeth_paths_reference

PINNED_SOLVE_DIGEST = "efc5403244eab88e305db2209f4fbc0017abd7ff2d93f7217d0fa54602b50b49"


def _solved(g, s, t):
    return disjoint_paths(g, s, t), minimum_separator(g, s, t)


def _names(g, mask):
    """The vertex names of a mask of g."""
    return frozenset(_select(g._vertex_index[0], mask))


def _check_capped(g, s, t, within, cap, reference):
    """A solve capped at `cap` inside the vertex set `within`: the
    reference's (paths, cut) when the cap exceeds the max flow; its paths
    and no cut when the cap equals it, since the solve stops at its cap
    before a last search could prove the flow maximum; and otherwise
    exactly `cap` vertex-disjoint s-t paths inside `within`, with no cut."""
    paths, cut = _solve(g, g.mask(s), g.mask(t), g.mask(within), cap)
    flow = len(reference[0])
    if cap >= flow:
        assert [list(path) for path in paths] == reference[0]
        assert cut == (g.mask(reference[1]) if cap > flow else None)
        return
    assert len(paths) == cap and cut is None
    used = [v for path in paths for v in path]
    assert len(used) == len(set(used)) and set(used) <= within
    for path in paths:
        assert path[0] in s and path[-1] in t
        assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


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
    reference = flow_reference(g, s, t)
    assert _solved(g, s, t) == reference
    # the memoized repeat gives the same answer
    assert _solved(g, s, t) == reference
    _check_capped(g, s, t, g.vertices, data.draw(st.integers(0, 6)), reference)


def test_solver_matches_reference_on_clique_chain():
    p = generate_family("clique_chain", {"horizon": 3, "sizes": [8, 12, 20, 36]})
    g = p.graph_at(3)
    terminals = [p.clique(n) for n in range(len(p.cliques))] + [p.boundary(3)]
    for s, t in combinations(terminals, 2):
        for a, b in ((s, t), (t, s)):
            paths, cut = flow_reference(g, a, b)
            assert _solved(g, a, b) == (paths, cut)
            assert len(paths) == len(cut) > 0


def test_a_capped_solve_is_memoized_apart():
    """Four disjoint paths join the first and last columns of the 4x4 grid.
    A solve capped at two stops after two augmenting paths and reports no
    cut; the memo keeps it apart from the full solve."""
    g = grid_graph(4, 4)
    left, right = frozenset(f"g{r}0" for r in range(4)), frozenset(f"g{r}3" for r in range(4))
    s, t = g.mask(left), g.mask(right)
    capped = _solve(g, s, t, cap=2)
    assert len(capped[0]) == 2 and capped[1] is None
    assert _solved(g, left, right) == flow_reference(g, left, right)
    assert len(disjoint_paths(g, left, right)) == 4
    assert _solve(g, s, t, cap=2) is capped
    paths, cut = _solve(g, s, t, cap=5)  # a cap above the flow changes nothing
    assert ([list(p) for p in paths], _names(g, cut)) == _solved(g, left, right)


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


@pytest.mark.parametrize("query", [disjoint_paths, minimum_separator])
@pytest.mark.parametrize(
    "s, t, error, message",
    [
        (None, {"p00"}, PreconditionError, "s must be an iterable of vertex names"),
        (3, {"p00"}, PreconditionError, "s must be an iterable of vertex names"),
        ([["p00"]], {"p02"}, PreconditionError, "s must be an iterable of vertex names"),
        ({"p00"}, None, PreconditionError, "t must be an iterable of vertex names"),
        ({"p00"}, [{"p02"}], PreconditionError, "t must be an iterable of vertex names"),
        # unknown names of mixed types cannot be compared; the least by repr is named
        ({"zz", 3}, {"p00"}, UnknownVertexError, "zz"),
        ({"p00"}, ["p02", 7, ("p01",)], UnknownVertexError, r"\('p01',\)"),
    ],
)
def test_malformed_terminals_raise_library_errors(query, s, t, error, message):
    with pytest.raises(error, match=f"^{message}"):
        query(path_graph(3), s, t)


def _masked(g, s, t, within):
    paths, cut = _solve(g, g.mask(s), g.mask(t), g.mask(within))
    return [list(path) for path in paths], _names(g, cut)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_masked_solver_and_ends_flows_match_their_references(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_connected_graph(rng, data.draw(st.integers(1, 12)))
    if data.draw(st.booleans()):
        g = Graph.from_data(g.vertices, [e for e in sorted(g.edges) if rng.random() < 0.5])
    verts = sorted(g.vertices)
    within = frozenset(rng.sample(verts, rng.randint(1, len(verts))))
    inside = sorted(within)
    s = frozenset(rng.sample(inside, rng.randint(1, min(4, len(inside)))))
    t = frozenset(rng.sample(inside, rng.randint(1, min(4, len(inside)))))
    # the unrestricted solve first: a memo keyed without the mask would
    # hand its answer to the restricted one
    assert _masked(g, s, t, verts) == flow_reference(g, s, t)
    reference = flow_reference(g.induced(within), s, t)
    assert _masked(g, s, t, within) == reference
    _check_capped(g, s, t, within, data.draw(st.integers(0, 5)), reference)
    spine = tuple(rng.sample(verts, rng.randint(0, min(4, len(verts)))))
    targets = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
    assert ends._teeth_paths(g, spine, targets) == teeth_paths_reference(g, spine, targets)
    base = frozenset(rng.sample(verts, rng.randint(0, min(4, len(verts)))))
    region = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
    masks = g.mask(base), g.mask(region), g.mask(targets)
    assert ends._paths_from_base(g, *masks) == paths_from_base_reference(g, base, region, targets)


def test_restriction_is_part_of_the_memo_key():
    g = cycle_graph(4)
    s, t = g.mask({"c00"}), g.mask({"c02"})
    assert _solve(g, s, t) == ((("c00", "c01", "c02"),), g.mask({"c00"}))
    assert _solve(g, s, t, g.mask(g.vertices - {"c01"})) == (
        (("c00", "c03", "c02"),),
        g.mask({"c00"}),
    )
    assert _solve(g, s, t, s | t) == ((), 0)
    # the full mask is the unrestricted call's key
    assert _solve(g, s, t, g.mask(g.vertices)) is _solve(g, s, t)


def test_ends_flows_match_their_references_on_the_chain_window(scaled_chain):
    g = scaled_chain.graph_at(5)
    boundary = scaled_chain.boundary(5)
    targets = frozenset(scaled_chain.attachment_vertex(i) for i in range(5))
    for label in ("R0", "R4"):
        spine = scaled_chain.ray_prefix(label, 5)
        assert ends._teeth_paths(g, spine, targets) == teeth_paths_reference(g, spine, targets)
    for item in scaled_chain.canonical_chain(5):
        base, strict_b = item.separator, item.side_b - item.side_a
        masks = g.mask(base), g.mask(strict_b), g.mask(boundary)
        assert ends._paths_from_base(g, *masks) == paths_from_base_reference(g, base, strict_b, boundary)


def test_solver_matches_reference_on_the_horizon_five_window(scaled_chain):
    """The 194-vertex window, where a search meets t after a few layers of a
    long queue: 30 pairs of 5-vertex terminal sets drawn as the benchmark
    draws its flow queries (one vertex from each tenth of the sorted names,
    the even tenths giving s and the odd ones t), each also capped, and
    every pair of ray prefixes at the cap the ray classes use."""
    g = scaled_chain.graph_at(5)
    assert len(g.vertices) == 194
    vertices = sorted(g.vertices)
    strata = [vertices[i * 194 // 10 : (i + 1) * 194 // 10] for i in range(10)]
    rng = random.Random(2505)
    for _ in range(30):
        picked = [rng.choice(stratum) for stratum in strata]
        s, t = frozenset(picked[0::2]), frozenset(picked[1::2])
        reference = flow_reference(g, s, t)
        assert _solved(g, s, t) == reference
        _check_capped(g, s, t, g.vertices, rng.randint(0, 6), reference)
    labels = sorted(scaled_chain.rays_in_layer(5))
    assert len(labels) == 6
    for a, b in combinations(labels, 2):
        s, t = frozenset(scaled_chain.ray_prefix(a, 5)), frozenset(scaled_chain.ray_prefix(b, 5))
        _check_capped(g, s, t, g.vertices, ends._JOINING_PATHS, flow_reference(g, s, t))


def _solve_digest() -> str:
    """SHA-256 of `_solve`'s (paths, cut) over a fixed seeded corpus: 3,000
    random graphs of 1-16 vertices, half of them thinned and half solved
    inside a random vertex mask, each at caps None, 0, 1, 2, 3 and 5; then
    300 queries on the horizon-5 clique-chain window, a third of them
    masked, each at one of those caps."""
    digest = hashlib.sha256()

    def record(g, s, t, within, cap):
        paths, cut = _solve(g, g.mask(s), g.mask(t), None if within is None else g.mask(within), cap)
        digest.update(repr((paths, None if cut is None else sorted(_names(g, cut)))).encode())

    caps = (None, 0, 1, 2, 3, 5)
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(1, 16)
        g = random_connected_graph(rng, n)
        if rng.random() < 0.5:
            g = Graph.from_data(g.vertices, [e for e in sorted(g.edges) if rng.random() < 0.5])
        verts = sorted(g.vertices)
        within = frozenset(rng.sample(verts, rng.randint(1, n))) if rng.random() < 0.5 else None
        inside = sorted(within) if within else verts
        s = frozenset(rng.sample(inside, rng.randint(1, min(5, len(inside)))))
        t = frozenset(rng.sample(inside, rng.randint(1, min(5, len(inside)))))
        for cap in caps:
            record(g, s, t, within, cap)
    p = generate_family("clique_chain", {"horizon": 5, "sizes": [8, 12, 20, 36]})
    g = p.graph_at(5)
    verts = sorted(g.vertices)
    rng = random.Random(300)
    for i in range(300):
        s = frozenset(rng.sample(verts, rng.randint(1, 8)))
        t = frozenset(rng.sample(verts, rng.randint(1, 8)))
        within = None
        if i % 3 == 1:
            within = s | t | frozenset(rng.sample(verts, rng.randrange(len(verts))))
        record(g, s, t, within, rng.choice(caps))
    return digest.hexdigest()


def test_solver_outputs_keep_their_pinned_digest():
    """Byte identity of every path and cut over the corpus of `_solve_digest`.
    The digest was computed at commit 381b67c, before the search stopped at
    the first free vertex of t it discovers; a kernel change that moves a
    single path or cut changes it."""
    assert _solve_digest() == PINNED_SOLVE_DIGEST
