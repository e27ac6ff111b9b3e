"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single [PASS] line with its runtime; the stated wall-time
limits are asserted. Brute-force oracles stay independent of the code paths
they check.
"""

import random
import time
from itertools import combinations

from tangletree.graph import components
from tangletree.limits import (
    check_interlaced_pair,
    classify_vs_limit,
    construct_interlaced,
    exhaustiveness_evidence,
    limit_separator_growth,
    pseudo_tight_check,
    thin_out,
)
from tangletree.separations import (
    NestedSet,
    Separation,
    SeparationSequence,
    enumerate_separations,
    is_tight,
    leq,
    relation,
)
from tangletree.tangles import (
    clique_witness,
    distinguishes,
    efficient_distinguisher,
    enumerate_tangles,
)
from tangletree.tree_of_tangles import (
    build_tree_of_tangles,
    induce_tree_decomposition,
    verify_tree_decomposition,
    verify_tree_of_tangles,
)
from tangletree.ends import (
    Direction,
    ray_packing,
    thick_end_pipeline,
    thin_end_bound,
)
from .conftest import two_k4_bridge
from .oracles import all_separations_brute, all_tangles_brute, min_distinguishing_order_brute


def _report(number: int, started: float, limit: float, text: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"[PASS] criterion {number:2d} ({elapsed:6.2f}s): {text}")


def test_criterion_01_corner_test_equivalence(corpus_small):
    started = time.monotonic()
    pairs = 0
    for g in corpus_small:
        seps = [s for s in enumerate_separations(g, min(3, len(g.vertices)))]
        for i, s in enumerate(seps):
            for t in seps[i:]:
                definitional = any(
                    leq(a, b) or leq(b, a)
                    for a in s.orientations()
                    for b in t.orientations()
                )
                shared = s.separator & t.separator
                corners = (
                    (s.side_a & t.side_a) - shared,
                    (s.side_a & t.side_b) - shared,
                    (s.side_b & t.side_a) - shared,
                    (s.side_b & t.side_b) - shared,
                )
                corner_cross = all(corners)
                assert definitional == (not corner_cross), (s, t)
                rel = relation(s, t)  # raises on any internal disagreement
                assert rel.nested == definitional
                pairs += 1
    _report(1, started, 60.0, f"corner test agrees on {pairs} separation pairs")


def test_criterion_02_order_one_tangle_unique(corpus_small, corpus_structured):
    started = time.monotonic()
    graphs = corpus_small + corpus_structured
    for g in graphs:
        assert len(enumerate_tangles(g, 1)) == 1
    _report(2, started, 10.0, f"unique order-1 tangle on {len(graphs)} graphs")


def test_criterion_03_enumeration_oracles(corpus_small):
    started = time.monotonic()
    graphs = [g for g in corpus_small if len(g.vertices) <= 8] + [two_k4_bridge()]
    checked_seps = checked_tangles = 0
    for g in graphs:
        max_order = min(3, len(g.vertices))
        assert set(enumerate_separations(g, max_order)) == all_separations_brute(
            g, max_order
        )
        checked_seps += 1
    for g in graphs:
        k = min(3, len(g.vertices))
        seps = enumerate_separations(g, k - 1)
        fast = {t.sort_key for t in enumerate_tangles(g, k)}
        brute = {t.sort_key for t in all_tangles_brute(g, k, seps)}
        assert fast == brute
        checked_tangles += 1
    _report(
        3,
        started,
        300.0,
        f"separation ({checked_seps}) and tangle ({checked_tangles}) enumerations match brute force",
    )


def test_criterion_04_tree_of_tangles_pipeline(corpus_small, corpus_structured):
    started = time.monotonic()
    graphs = [g for g in corpus_small + corpus_structured if len(g.vertices) <= 12]
    runs = 0
    for g in graphs:
        k = min(4, len(g.vertices))
        tangles = list(enumerate_tangles(g, k))
        nested = build_tree_of_tangles(g, tangles)
        tot_report = verify_tree_of_tangles(g, nested, tangles)
        assert tot_report.ok, (g, tot_report)
        td = induce_tree_decomposition(g, nested)
        td_report = verify_tree_decomposition(g, td, nested, tangles)
        assert td_report.tree_ok and td_report.t1_cover and td_report.t2_edges
        assert td_report.t3_connected
        assert td_report.induced_equal
        assert td_report.efficiency_ok
        runs += 1
    _report(4, started, 300.0, f"tree-of-tangles pipeline on {runs} graphs, zero failures")


def test_criterion_05_two_k4_exact_values():
    started = time.monotonic()
    g = two_k4_bridge()
    tangles = enumerate_tangles(g, 3)
    assert len(tangles) == 2
    brute = all_tangles_brute(g, 3, enumerate_separations(g, 2))
    assert {t.sort_key for t in tangles} == {t.sort_key for t in brute}
    sep = efficient_distinguisher(g, tangles[0], tangles[1])
    assert sep.order == 1
    assert min_distinguishing_order_brute(g, tangles[0], tangles[1]) == 1
    _report(5, started, 30.0, "two-K4 graph: 2 tangles of order 3, distinguisher order 1")


def _clique_pair_separable(g, k_core, l_core, upto):
    """Brute-force: least |S| <= upto with no component joining the cliques."""
    verts = sorted(g.vertices)
    for size in range(upto + 1):
        for cand in combinations(verts, size):
            cut = frozenset(cand)
            s_rest = k_core - cut
            t_rest = l_core - cut
            if s_rest & t_rest:
                continue
            seen = set(s_rest)
            queue = list(s_rest)
            hit = False
            while queue and not hit:
                v = queue.pop()
                for w in g.adjacency[v]:
                    if w in cut or w in seen:
                        continue
                    if w in t_rest:
                        hit = True
                        break
                    seen.add(w)
                    queue.append(w)
            if not hit:
                return size
    return None


def test_criterion_06_example_clique_chain(scaled_chain):
    started = time.monotonic()
    # (a) strictly increasing, pairwise nested, tight, orders n + 2^(n+1)
    m = 4
    g4 = scaled_chain.graph_at(m)
    chain = scaled_chain.canonical_chain(m)
    assert [item.order for item in chain] == [2, 5, 10, 19]
    assert [item.order for item in chain] == [n + 2 ** (n + 1) for n in range(4)]
    for a, b in zip(chain, chain.items[1:]):
        assert leq(a, b) and a != b
    for i, a in enumerate(chain):
        assert is_tight(g4, a)
        for b in chain.items[i + 1 :]:
            assert relation(a.canonical(), b.canonical()).nested
    # (b) s_n efficiently distinguishes P_n, P_{n+1}; brute force for n <= 1
    g2 = scaled_chain.graph_at(2)
    witnesses = [
        clique_witness(g2, scaled_chain.clique(i), len(scaled_chain.clique(i)))
        for i in range(3)
    ]
    for n in range(2):
        item = scaled_chain.chain_item(n, 2).canonical()
        assert distinguishes(item, witnesses[n], witnesses[n + 1])
        below = _clique_pair_separable(
            g2, scaled_chain.clique(n), scaled_chain.clique(n + 1), item.order - 1
        )
        assert below is None, f"smaller distinguisher of size {below} exists"
    # (c) exhaustiveness evidence
    chains = scaled_chain.canonical_layer_chains()
    verdict = exhaustiveness_evidence(scaled_chain, chains)
    assert verdict.verdict == "non-exhaustive-witness"
    # (d) limit-separator prefix strictly increases across horizons 2..5
    table = limit_separator_growth(scaled_chain, chains)
    assert table.rows == ((2, 1), (3, 2), (4, 3), (5, 4))
    sizes = [s for _, s in table.rows]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    _report(6, started, 300.0, "scaled clique chain: orders, nesting, tightness, growth")


def test_criterion_07_interlacing(scaled_chain):
    started = time.monotonic()
    # flow-backed checks at a wide window
    g4 = scaled_chain.graph_at(4)
    chain4 = scaled_chain.canonical_chain(4)
    nested4 = NestedSet.of(g4, [it.canonical() for it in chain4])
    pool4 = [
        clique_witness(g4, scaled_chain.clique(i), len(scaled_chain.clique(i)))
        for i in range(5)
    ]
    for prefix in ([0, 1], [0, 2], [0, 1, 2]):
        seq = SeparationSequence.strictly_increasing([chain4.items[i] for i in prefix])
        pair = construct_interlaced(g4, nested4, seq, pool4)
        report = check_interlaced_pair(g4, pair)
        assert report.im1_ok and report.im2_ok, (prefix, report)
        thinned = thin_out(pair)
        orders = [it.order for it in thinned.pair.sequence]
        assert orders == sorted(set(orders))
        thin_report = check_interlaced_pair(g4, thinned.pair)
        assert thin_report.im1_ok and thin_report.im2_ok
    # brute-forced moreover property at the small window: s'_i efficiently
    # distinguishes P_i from every later P_j
    g2 = scaled_chain.graph_at(2)
    chain2 = scaled_chain.canonical_chain(2)
    nested2 = NestedSet.of(g2, [it.canonical() for it in chain2])
    pool2 = [
        clique_witness(g2, scaled_chain.clique(i), len(scaled_chain.clique(i)))
        for i in range(3)
    ]
    seq2 = SeparationSequence.strictly_increasing(chain2.items)
    pair2 = thin_out(construct_interlaced(g2, nested2, seq2, pool2)).pair
    tangles = pair2.tangles
    for i, item in enumerate(pair2.sequence):
        for j in range(i + 1, len(tangles)):
            sep = item.canonical()
            assert distinguishes(sep, tangles[i], tangles[j])
            below = _clique_pair_separable(
                g2, tangles[i].clique, tangles[j].clique, sep.order - 1
            )
            assert below is None
    _report(7, started, 300.0, "interlaced pairs pass IM1/IM2; moreover property brute-forced")


def test_criterion_08_limit_relation_stability(scaled_chain, grid_presentation):
    started = time.monotonic()
    rng = random.Random(96321)
    cases = ((scaled_chain, 4), (grid_presentation, 5))
    checked = 0
    for presentation, m in cases:
        g = presentation.graph_at(m)
        chain = presentation.canonical_chain(m)
        verts = sorted(g.vertices)
        produced = 0
        while produced < 20:
            separator = frozenset(rng.sample(verts, rng.randrange(0, 4)))
            comps = components(g, separator)
            if not comps:
                continue
            left = set(separator)
            right = set(separator)
            for comp in comps:
                (left if rng.random() < 0.5 else right).update(comp)
            cd = Separation(g, frozenset(left), frozenset(right))
            report = classify_vs_limit(chain, cd)
            rev = cd.reverse()
            for kind, predicate in (
                ("below", lambda it: leq(cd, it)),
                ("reverse_below", lambda it: leq(rev, it)),
                ("above", lambda it: leq(it, cd)),
                ("cross", lambda it: relation(cd.canonical(), it.canonical()).cross),
            ):
                idx = report.stable_index(kind)
                if report.holds[kind]:
                    if idx is not None:
                        for i in range(idx, len(chain)):
                            assert predicate(chain[i]), (kind, idx, i)
            produced += 1
            checked += 1
    _report(8, started, 120.0, f"stable relations re-verified for {checked} separations")


def test_criterion_09_thick_end_pipeline(scaled_chain, ray_presentation, grid_presentation):
    started = time.monotonic()
    chains = scaled_chain.canonical_layer_chains()
    g = scaled_chain.graph_at(5)
    nested = NestedSet.of(g, [it.canonical() for it in chains[5]])
    pool = [
        clique_witness(g, scaled_chain.clique(i), len(scaled_chain.clique(i)))
        for i in range(6)
    ]
    report = thick_end_pipeline(scaled_chain, nested, chains, pool)
    assert report.ok, report.to_json()
    direction = report.stage("direction")
    assert len(direction.details["classes"]) == 1
    beyond = report.stage("beyond_limit")
    from tangletree.separations import supremum

    sup = supremum(chains[5])
    strict_b = sup.side_b - sup.side_a
    assert beyond.details["achieved"] == beyond.details["target_size"]
    for path in beyond.details["paths"]:
        assert path[0] in sup.separator
        assert set(path[1:]) <= strict_b
    # ray family: unit packing at every horizon and thin-end bound 1
    ray_dir = Direction(("R0",))
    for m in range(2, ray_presentation.horizon + 1):
        assert ray_packing(ray_presentation, m, ray_dir, {"r:0:0"}).size == 1
    bound, _ = thin_end_bound(ray_presentation, ray_dir, ray_presentation.horizon)
    assert bound == 1
    # grid with bounded-order column cuts: rejected as exhaustive
    grid_chains = grid_presentation.canonical_layer_chains()
    grid_g = grid_presentation.graph_at(5)
    grid_nested = NestedSet.of(grid_g, [it.canonical() for it in grid_chains[5]])
    grid_report = thick_end_pipeline(grid_presentation, grid_nested, grid_chains, [])
    assert grid_report.rejected
    assert "exhaustive-evidence" in grid_report.stages[0].details["reason"]
    _report(9, started, 300.0, "pipeline passes on clique chain, ray thin, grid rejected")


def test_criterion_10_pseudo_tight_and_tight_distinguishers(
    scaled_chain, corpus_small, corpus_structured
):
    started = time.monotonic()
    for m in (3, 4, 5):
        g = scaled_chain.graph_at(m)
        chain = scaled_chain.canonical_chain(m)
        report = pseudo_tight_check(g, chain, boundary=scaled_chain.boundary(m))
        assert report.ok, (m, report)
    checked = 0
    for g in corpus_small + corpus_structured:
        for k in {2, min(3, len(g.vertices))}:
            tangles = enumerate_tangles(g, k)
            for i in range(len(tangles)):
                for j in range(i + 1, len(tangles)):
                    sep = efficient_distinguisher(g, tangles[i], tangles[j])
                    if sep is not None:
                        assert is_tight(g, sep), (g, sep)
                        checked += 1
    assert checked > 0
    _report(10, started, 120.0, f"pseudo-tight windows; {checked} efficient distinguishers tight")
