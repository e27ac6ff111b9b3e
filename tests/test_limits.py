"""Window-limit classification, interlacing machinery, growth tables."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree.errors import PreconditionError, SequenceOrderError, UnknownVertexError
from tangletree.families import FAMILIES, generate_family
from tangletree.graph import Graph, load_graph
from tangletree.limits import (
    InterlacedPair,
    _last_minima,
    check_interlaced_pair,
    check_strongly_relevant,
    classify_vs_limit,
    construct_interlaced,
    exhaustiveness_evidence,
    limit_separator_growth,
    limit_separator_prefix,
    pseudo_tight_check,
    thin_out,
)
from tangletree.separations import (
    NestedSet,
    SeparationSequence,
    make_separation,
    relation,
    supremum,
)
from tangletree.tangles import PreTangle, clique_witness, enumerate_tangles
from .conftest import clique_chain_graph
from .oracles import pseudo_tight_reference, thin_out_reference


@pytest.fixture(scope="module")
def chain_setup(scaled_chain):
    g = scaled_chain.graph_at(4)
    chain = scaled_chain.canonical_chain(4)
    nested = NestedSet.of(g, [it.canonical() for it in chain])
    pool = [
        clique_witness(g, scaled_chain.clique(i), len(scaled_chain.clique(i)))
        for i in range(5)
    ]
    return g, chain, nested, pool


@pytest.fixture(scope="module")
def insertion_setup():
    """Clique path whose middle link is cheaper than both neighbours, so
    consecutive induced tangles are not efficiently distinguished and the
    recursion must insert the middle separation."""

    def clique(prefix, n):
        return [f"{prefix}{i}" for i in range(1, n + 1)]

    groups = {p: clique(p, n) for p, n in (("a", 5), ("m", 4), ("b", 6), ("c", 7))}
    vs = sorted(v for grp in groups.values() for v in grp)
    es = []
    for grp in groups.values():
        es += list(itertools.combinations(grp, 2))
    es += [("a1", "m1"), ("a2", "m2"), ("m3", "b1"), ("b2", "c1"), ("b3", "c2"), ("b4", "c3")]
    g = Graph.from_data(vs, es)
    all_v = set(vs)
    s0 = make_separation(g, set(groups["a"]), all_v - set(groups["a"]) | {"a1", "a2"})
    q = make_separation(
        g, set(groups["a"]) | set(groups["m"]),
        all_v - set(groups["a"]) - set(groups["m"]) | {"m3"},
    )
    s1 = make_separation(
        g, all_v - set(groups["c"]), set(groups["c"]) | {"b2", "b3", "b4"}
    )
    nested = NestedSet.of(g, [s0.canonical(), q.canonical(), s1.canonical()])
    pool = [clique_witness(g, set(groups[p]), 4) for p in ("a", "m", "b", "c")]
    return g, (s0, q, s1), nested, pool


def test_classify_supremum_against_itself(chain_setup):
    g, chain, _, _ = chain_setup
    sup = supremum(chain)
    report = classify_vs_limit(chain, sup)
    assert report.holds["below"] and report.holds["above"]
    assert report.below == 0 or report.above == 0


def test_classify_first_item_below_tail(chain_setup):
    g, chain, _, _ = chain_setup
    tail = SeparationSequence.strictly_increasing(chain.items[1:])
    report = classify_vs_limit(tail, chain[0])
    assert report.holds["below"] and report.below == 0
    assert not report.holds["cross"]


def test_classify_grid_column_crosses_row_chain(grid_presentation):
    g = grid_presentation.graph_at(4)
    chain = grid_presentation.canonical_chain(4)
    # a horizontal cut crosses every vertical column cut
    top = {v for v in g.vertices if int(v.split(":")[2]) >= 1}
    bottom = {v for v in g.vertices if int(v.split(":")[2]) <= 1}
    cd = make_separation(g, bottom, top)
    report = classify_vs_limit(chain, cd)
    assert report.holds["cross"]
    assert report.cross == 0
    for i in range(report.cross, len(chain)):
        assert relation(cd.canonical(), chain[i].canonical()).cross


def test_classify_reported_indices_are_stable(chain_setup):
    from tangletree.separations import leq

    g, chain, _, _ = chain_setup
    cd = chain[0]
    tail = SeparationSequence.strictly_increasing(chain.items[1:])
    report = classify_vs_limit(tail, cd)
    for kind, oriented in (
        ("below", cd),
        ("reverse_below", cd.reverse()),
    ):
        idx = report.stable_index(kind)
        if idx is not None:
            for i in range(idx, len(tail)):
                assert leq(oriented, tail[i])


def test_interlaced_pair_requires_matching_lengths(chain_setup):
    g, chain, _, pool = chain_setup
    with pytest.raises(PreconditionError):
        InterlacedPair(SeparationSequence.strictly_increasing(chain.items[:2]), (pool[0],))


def test_empty_window_passes():
    g = load_graph('{"vertices":["a","b"],"edges":[["a","b"]]}')
    w = clique_witness(g, g.vertices, 2)
    pair = InterlacedPair(SeparationSequence.strictly_increasing([]), (w,))
    assert check_interlaced_pair(g, pair).ok


def test_construct_interlaced_without_insertion(chain_setup):
    g, chain, nested, pool = chain_setup
    seq = SeparationSequence.strictly_increasing(chain.items[:3])
    pair = construct_interlaced(g, nested, seq, pool)
    assert [it.order for it in pair.sequence] == [2, 5, 10]
    assert check_interlaced_pair(g, pair).ok


def test_construct_interlaced_swapped_tangles_fail_im1(chain_setup):
    g, chain, nested, pool = chain_setup
    seq = SeparationSequence.strictly_increasing(chain.items[:3])
    pair = construct_interlaced(g, nested, seq, pool)
    tangles = list(pair.tangles)
    tangles[1], tangles[2] = tangles[2], tangles[1]
    broken = InterlacedPair(pair.sequence, tuple(tangles))
    report = check_interlaced_pair(g, broken)
    assert not report.im1_ok
    assert report.im1_witness[0] == 1


def test_construct_interlaced_rejects_flat_orders(chain_setup):
    g, chain, nested, pool = chain_setup
    flat = SeparationSequence.strictly_increasing([chain.items[0]])
    doubled = SeparationSequence.weakly_increasing(
        [chain.items[0], chain.items[0]]
    )
    with pytest.raises(PreconditionError):
        construct_interlaced(g, nested, doubled, pool)
    assert check_interlaced_pair(
        g, construct_interlaced(g, nested, flat, pool)
    ).ok


def test_construct_interlaced_rejects_items_outside_nested_set(chain_setup):
    g, chain, nested, pool = chain_setup
    rogue = make_separation(g, set(), g.vertices)
    seq = SeparationSequence.strictly_increasing([rogue, chain.items[1]])
    with pytest.raises(PreconditionError):
        construct_interlaced(g, nested, seq, pool)


def test_construct_interlaced_insertion(insertion_setup):
    g, (s0, q, s1), nested, pool = insertion_setup
    seq = SeparationSequence.strictly_increasing([s0, s1])
    pair = construct_interlaced(g, nested, seq, pool)
    assert [it.order for it in pair.sequence] == [2, 1, 3]
    assert pair.sequence[1].canonical() == q.canonical()
    report = check_interlaced_pair(g, pair)
    assert report.ok
    # the output is interlaced with its input
    from tangletree.separations import interlaced

    assert interlaced(pair.sequence, seq)


def test_strong_relevance_witnessed(chain_setup):
    g, chain, _, pool = chain_setup
    report = check_strongly_relevant(g, chain.items[0], chain.items[1], pool)
    assert report.witnessed
    o, p, q = report.witness
    assert o.clique != p.clique != q.clique


def test_strong_relevance_without_middle_tangle(chain_setup):
    g, chain, _, pool = chain_setup
    report = check_strongly_relevant(
        g, chain.items[0], chain.items[1], [pool[0], pool[3]]
    )
    assert not report.witnessed


def test_a_pool_mixing_search_tangles_and_a_witness_of_their_order_sorts():
    """Three K4 joined by bridges: the search's tangles of order 2 and a
    clique witness of order 2 on the last K4 make one pool. Their sort keys
    compare, pre-tangles first, so the strong-relevance witness and the
    interlaced pair are those of the search's tangles alone."""
    g = clique_chain_graph(3, 4)
    k4 = [{v for v in g.vertices if v.startswith(f"c{i}_")} for i in range(3)]
    tangles = enumerate_tangles(g, 2)
    pool = [*tangles, clique_witness(g, k4[2], 2)]
    s = make_separation(g, k4[0], k4[1] | k4[2] | {"c0_4"})
    t = make_separation(g, k4[0] | k4[1], k4[2] | {"c1_4"})
    report = check_strongly_relevant(g, s, t, pool)
    assert report.witnessed and report == check_strongly_relevant(g, s, t, tangles)
    nested = NestedSet.of(g, [s.canonical(), t.canonical()])
    for item in (s, t):
        seq = SeparationSequence.strictly_increasing([item])
        mixed, alone = (construct_interlaced(g, nested, seq, x) for x in (pool, tangles))
        assert mixed.sequence.items == alone.sequence.items and mixed.tangles == alone.tangles


def test_pool_members_orienting_nothing_are_skipped(chain_setup):
    """A pre-tangle with no choices sorts first in the pool and orients no
    item; the witnesses are those of the pool without it."""
    g, chain, nested, pool = chain_setup
    blank = PreTangle(g, 6, {})
    assert sorted([*pool, blank], key=lambda x: x.sort_key)[0] is blank
    with_blank = check_strongly_relevant(g, chain[0], chain[1], [blank, *pool])
    alone = check_strongly_relevant(g, chain[0], chain[1], pool)
    assert alone.witnessed
    assert with_blank.witnessed and all(a is b for a, b in zip(with_blank.witness, alone.witness))
    seq = SeparationSequence.strictly_increasing(chain.items[:3])
    pair = construct_interlaced(g, nested, seq, [blank, *pool])
    assert pair.to_json() == construct_interlaced(g, nested, seq, pool).to_json()


def test_strong_relevance_requires_strict_order():
    g = load_graph('{"vertices":["a","b"],"edges":[["a","b"]]}')
    s = make_separation(g, set(), g.vertices)
    with pytest.raises(PreconditionError):
        check_strongly_relevant(g, s, s, [])


def test_im2_prime_implies_full_im2(insertion_setup):
    # hand-build a pair satisfying IM1 plus consecutive-pair efficiency only;
    # the checker's full IM2 must come out true as well
    from tangletree.limits import _efficiently_distinguishes

    g, (s0, q, s1), nested, pool = insertion_setup
    by_prefix = {min(w.clique)[0]: w for w in pool}
    p_a, p_m, p_b, p_c = (by_prefix[x] for x in "ambc")
    seq = SeparationSequence.strictly_increasing([s0, q, s1])
    pair = InterlacedPair(seq, (p_a, p_m, p_b, p_c))
    for item, left, right in ((s0, p_a, p_m), (q, p_m, p_b), (s1, p_b, p_c)):
        assert _efficiently_distinguishes(g, item.canonical(), left, right, budget=10**6)
    report = check_interlaced_pair(g, pair)
    assert report.im1_ok and report.im2_ok


def test_thin_out_identity_on_increasing(chain_setup):
    g, chain, nested, pool = chain_setup
    seq = SeparationSequence.strictly_increasing(chain.items[:3])
    pair = construct_interlaced(g, nested, seq, pool)
    report = thin_out(pair)
    assert report.selected == (0, 1, 2)
    assert report.pair.sequence.items == pair.sequence.items


def test_thin_out_selection_rule():
    # orders (2,2,5,5,9) select the last attainment of each minimum
    orders = [2, 2, 5, 5, 9]
    selected = []
    pos = -1
    while True:
        rem = [i for i in range(len(orders)) if i > pos]
        if not rem:
            break
        k = min(orders[i] for i in rem)
        j = max(i for i in range(len(orders)) if orders[i] == k)
        selected.append(j)
        pos = j
    assert selected == [1, 3, 4]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=9))
def test_thin_out_scan_matches_the_rescanning_loop(orders):
    assert _last_minima(orders) == thin_out_reference(orders)


def test_thin_out_after_insertion(insertion_setup):
    g, (s0, q, s1), nested, pool = insertion_setup
    seq = SeparationSequence.strictly_increasing([s0, s1])
    pair = construct_interlaced(g, nested, seq, pool)
    report = thin_out(pair)
    assert report.selected == (1, 2)
    orders = [it.order for it in report.pair.sequence]
    assert orders == sorted(orders) and len(set(orders)) == len(orders)
    assert check_interlaced_pair(g, report.pair).ok


def test_pseudo_tight_ray(ray_presentation):
    g = ray_presentation.graph_at(5)
    chain = ray_presentation.canonical_chain(5)
    report = pseudo_tight_check(g, chain, boundary=ray_presentation.boundary(5))
    assert report.ok
    sup = supremum(chain)
    assert len(sup.separator) == 1


def test_pseudo_tight_clique_chain(scaled_chain):
    m = 4
    g = scaled_chain.graph_at(m)
    chain = scaled_chain.canonical_chain(m)
    report = pseudo_tight_check(g, chain, boundary=scaled_chain.boundary(m))
    assert report.ok
    for n in range(m - 1):
        w = scaled_chain.attachment_vertex(n)
        assert w in report.witnesses
        neighbour, count = report.witnesses[w]
        assert neighbour.startswith("r:")
        assert count >= report.threshold


def test_pseudo_tight_rejects_non_tight_items(scaled_chain):
    g = scaled_chain.graph_at(3)
    improper = make_separation(g, g.vertices, g.vertices - {"r:0:3"} | {"r:0:2", "v:3:1"})
    seq = SeparationSequence.weakly_increasing([improper])
    with pytest.raises(PreconditionError):
        pseudo_tight_check(g, seq)


@pytest.mark.parametrize("name", FAMILIES)
def test_pseudo_tight_check_matches_the_frozenset_scan(name):
    """Equal reports (witnesses with their tie-break, interference, failures
    and threshold) on the canonical chain of every window, with and without
    the window's boundary."""
    params = {"horizon": 5}
    if name == "clique_chain":
        params["sizes"] = [8, 12, 20, 36]
    p = generate_family(name, params)
    for m, chain in p.canonical_layer_chains().items():
        g = p.graph_at(m)
        for boundary in (frozenset(), p.boundary(m)):
            report = pseudo_tight_check(g, chain, boundary=boundary)
            assert report == pseudo_tight_reference(g, chain, boundary=boundary)


def _failing_pseudo_tight_chain():
    """Three tight separations of an 8-vertex graph: no neighbour of the
    supremum's separator {v0, v3} lies in a tight B-side component of two
    of the three items, the threshold."""
    g = Graph.from_data(
        [f"v{i}" for i in range(8)],
        [("v0", "v1"), ("v0", "v4"), ("v0", "v5"), ("v0", "v6"), ("v0", "v7"), ("v1", "v2"), ("v1", "v3"),
         ("v1", "v4"), ("v2", "v3"), ("v2", "v5"), ("v3", "v4"), ("v3", "v6"), ("v3", "v7"), ("v5", "v7")],
    )
    sides = [("v0 v1 v2 v3 v4", "v0 v2 v3 v5 v6 v7"), ("v0 v1 v2 v3 v4 v5", "v0 v3 v5 v6 v7"),
             ("v0 v1 v2 v3 v4 v5 v7", "v0 v3 v6")]
    items = [make_separation(g, a.split(), b.split()) for a, b in sides]
    return g, SeparationSequence.strictly_increasing(items)


def test_pseudo_tight_failures_and_interference_match_the_frozenset_scan():
    g, seq = _failing_pseudo_tight_chain()
    for boundary, interference, failures in (
        (frozenset(), (), ("v0", "v3")),
        (frozenset({"v6"}), ("v0", "v3"), ()),  # next to the boundary
        (frozenset({"v3"}), ("v3",), ("v0",)),  # in it
    ):
        report = pseudo_tight_check(g, seq, boundary=boundary)
        assert (report.boundary_interference, report.failures) == (interference, failures)
        assert report.threshold == 2 and not report.witnesses
        assert report == pseudo_tight_reference(g, seq, boundary=boundary)


def test_pseudo_tight_boundary_takes_any_iterable_of_names():
    g, seq = _failing_pseudo_tight_chain()
    expected = pseudo_tight_check(g, seq, boundary=frozenset({"v6"}))
    for boundary in (["v6"], ("v6", "v6"), {"v6"}, iter(["v6"]), {"v6": 1}):
        assert pseudo_tight_check(g, seq, boundary=boundary) == expected
    with pytest.raises(UnknownVertexError, match="^zz$"):
        pseudo_tight_check(g, seq, boundary=["v6", "zz"])
    for bad in (None, 3, [["v6"]]):
        with pytest.raises(PreconditionError, match="^boundary must be an iterable of vertex names"):
            pseudo_tight_check(g, seq, boundary=bad)


def test_growth_table_clique_chain(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    table = limit_separator_growth(scaled_chain, chains)
    assert table.rows == ((2, 1), (3, 2), (4, 3), (5, 4))
    assert table.monotone and table.unbounded_evidence
    assert table.prefixes[5] == {f"v:{i}:1" for i in range(4)}
    assert table.to_csv().splitlines()[0] == "horizon,separator_size"


def test_growth_rejects_exhaustive_chain(ray_presentation):
    with pytest.raises(PreconditionError):
        limit_separator_growth(
            ray_presentation, ray_presentation.canonical_layer_chains()
        )


def test_growth_rejects_constant_chain(scaled_chain):
    item = scaled_chain.chain_item(0, 3)
    with pytest.raises(SequenceOrderError):
        SeparationSequence.strictly_increasing([item, item])


def test_limit_separator_prefix_matches_attachments(scaled_chain):
    chain = scaled_chain.canonical_chain(5)
    prefix = limit_separator_prefix(chain)
    assert prefix == {scaled_chain.attachment_vertex(i) for i in range(4)}


_EMPTY = SeparationSequence.strictly_increasing([])


@pytest.mark.parametrize(
    "call",
    [
        lambda p, setup: construct_interlaced(setup[0], setup[2], _EMPTY, setup[3]),
        lambda p, setup: limit_separator_prefix(_EMPTY),
        lambda p, setup: exhaustiveness_evidence(p, {4: _EMPTY}),
        lambda p, setup: exhaustiveness_evidence(p, {**p.canonical_layer_chains(), 5: _EMPTY}),
    ],
    ids=["construct_interlaced", "limit_separator_prefix", "exhaustiveness_evidence", "a later empty layer"],
)
def test_empty_sequences_are_precondition_errors(scaled_chain, chain_setup, call):
    with pytest.raises(PreconditionError, match="empty"):
        call(scaled_chain, chain_setup)
