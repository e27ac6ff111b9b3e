"""Combs, directions, ray packings, pipelines, thin-end bounds."""

import pytest

from tangletree import cli, ends, limits
from tangletree.errors import PreconditionError
from tangletree.families import LayeredPresentation, generate_family
from tangletree.ends import (
    _JOINING_PATHS,
    CombWitness,
    Direction,
    RayPacking,
    directions_in_closure,
    find_comb,
    ray_equivalence_classes,
    ray_packing,
    thick_end_pipeline,
    thin_end_bound,
)
from tangletree.graph import Graph, _solve
from tangletree.limits import limit_separator_prefix
from tangletree.separations import NestedSet, supremum
from tangletree.tangles import clique_witness


def _attachments(p, upto):
    return {p.attachment_vertex(i) for i in range(upto)}


def _one_ray_presentation(g, ray):
    """The least presentation `find_comb` needs: one window, one ray."""
    return LayeredPresentation("ray", {}, 0, (g,), (frozenset(),), (("R0", ray),))


def test_find_comb_ports_do_not_collide_with_vertices():
    # a vertex named like the spine vertex's port, "@" + "x", is the target
    g = Graph.from_data(["x", "@x", "y"], [("x", "y"), ("@x", "y")])
    comb = find_comb(_one_ray_presentation(g, ("x",)), 0, {"@x"}, 1)
    assert comb == CombWitness(spine=("x",), teeth_paths=(("x", "y", "@x"),))
    comb.validate(g, frozenset({"@x"}))


def test_find_comb_ray_all_vertices(ray_presentation):
    g = ray_presentation.graph_at(4)
    comb = find_comb(ray_presentation, 4, g.vertices, 3)
    assert comb is not None
    assert comb.spine == tuple(f"r:0:{j}" for j in range(5))
    assert len(comb.teeth) >= 3
    comb.validate(g, frozenset(g.vertices))


def test_find_comb_clique_chain_attachments(scaled_chain):
    u = _attachments(scaled_chain, 4)
    comb = find_comb(scaled_chain, 5, u, 3)
    assert comb is not None
    assert comb.spine[0] == "r:0:0"
    assert set(comb.teeth) <= u
    comb.validate(scaled_chain.graph_at(5), frozenset(u))


def test_find_comb_grid_row(grid_presentation):
    g = grid_presentation.graph_at(5)
    row0 = {v for v in g.vertices if v.endswith(":0")}
    comb = find_comb(grid_presentation, 5, row0, 4)
    assert comb is not None and len(comb.teeth) >= 4
    comb.validate(g, frozenset(row0))


def test_find_comb_requires_declared_rays(scaled_chain):
    with pytest.raises(PreconditionError):
        find_comb(scaled_chain, 3, set(), 0)


def test_double_ray_two_directions(double_ray_presentation):
    g = double_ray_presentation.graph_at(4)
    report = directions_in_closure(double_ray_presentation, 4, g.vertices, min_teeth=2)
    assert len(report.classes) == 2
    assert not report.unique


@pytest.mark.parametrize("min_teeth", [0, -2])
def test_directions_need_at_least_one_tooth(scaled_chain, min_teeth):
    with pytest.raises(PreconditionError, match="tooth"):
        directions_in_closure(scaled_chain, 5, {"r:0:0"}, min_teeth=min_teeth)


def test_ray_single_direction(ray_presentation):
    g = ray_presentation.graph_at(5)
    report = directions_in_closure(ray_presentation, 5, g.vertices, min_teeth=3)
    assert report.unique


def test_clique_chain_unique_direction_each_horizon(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    u_top = limit_separator_prefix(chains[scaled_chain.horizon])
    for m in range(2, scaled_chain.horizon + 1):
        report = directions_in_closure(scaled_chain, m, u_top)
        assert report.unique, m
        assert report.classes[0].rays[0] == "R0"


def test_clique_chain_equivalence_classes_at_top(scaled_chain):
    classes = ray_equivalence_classes(scaled_chain, 5)
    assert [c.rays for c in classes] == [("R0", "R1", "R2", "R3"), ("R4",), ("R5",)]


def test_equivalence_classes_run_no_flow_for_joined_pairs(scaled_chain, monkeypatch):
    """Of the 15 pairs of six rays, (R1, R2), (R1, R3) and (R2, R3) are
    already joined through R0 when they come up, so 12 flows run. Each
    stops at `_JOINING_PATHS` paths: uncapped, the first two find 5 and 4,
    and every flow finds what the full one finds up to the cap. The ray
    prefixes reach the solver as vertex masks."""
    flows = []

    def capped(g, s, t, *args, **kwargs):
        assert type(s) is int and type(t) is int
        found = _solve(g, s, t, *args, **kwargs)[0]
        flows.append((len(found), len(_solve(g, s, t)[0]), kwargs))
        return found, None

    monkeypatch.setattr(ends, "_solve", capped)
    classes = ray_equivalence_classes(scaled_chain, 5)
    assert [c.rays for c in classes] == [("R0", "R1", "R2", "R3"), ("R4",), ("R5",)]
    assert [full for _, full, _ in flows] == [5, 4, 3, 2, 1, 2, 1, 2, 1, 2, 1, 1]
    assert [found for found, _, _ in flows] == [3, 3, 3, 2, 1, 2, 1, 2, 1, 2, 1, 1]
    assert all(kwargs == {"cap": _JOINING_PATHS} for _, _, kwargs in flows)


def test_ray_packing_ray_family(ray_presentation):
    direction = Direction(("R0",))
    for m in range(2, 7):
        packing = ray_packing(ray_presentation, m, direction, {"r:0:0"})
        assert packing.size == 1
        packing.validate(ray_presentation.graph_at(m), ray_presentation.boundary(m))


def test_ray_packing_grid_block_grows(grid_presentation):
    direction = Direction(("row0", "row1", "row2"))
    base = {"g:0:0", "g:0:1", "g:1:0", "g:1:1"}
    sizes = [
        ray_packing(grid_presentation, m, direction, base).size for m in (2, 3, 4, 5)
    ]
    assert sizes == sorted(sizes)
    assert sizes[-1] >= 3


def test_ray_packing_clique_chain_reaches_every_ray(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    direction = directions_in_closure(
        scaled_chain, 5, limit_separator_prefix(chains[5])
    ).classes[0]
    for m in (3, 4, 5):
        base = limit_separator_prefix(chains[m])
        packing = ray_packing(scaled_chain, m, direction, base)
        assert packing.size == len(base)
        packing.validate(scaled_chain.graph_at(m), scaled_chain.boundary(m))


def test_ray_packing_monotone_in_horizon(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    direction = directions_in_closure(
        scaled_chain, 5, limit_separator_prefix(chains[5])
    ).classes[0]
    sizes = []
    for m in (3, 4, 5):
        base = limit_separator_prefix(chains[m])
        sizes.append(ray_packing(scaled_chain, m, direction, base).size)
    assert sizes == sorted(sizes)


def test_ray_packing_empty_territory_rejected(ray_presentation):
    direction = Direction(("R0",))
    g = ray_presentation.graph_at(2)
    with pytest.raises(PreconditionError):
        ray_packing(ray_presentation, 2, direction, g.vertices)


def test_pipeline_clique_chain_all_stages(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    g = scaled_chain.graph_at(5)
    nested = NestedSet.of(g, [it.canonical() for it in chains[5]])
    pool = [
        clique_witness(g, scaled_chain.clique(i), len(scaled_chain.clique(i)))
        for i in range(6)
    ]
    report = thick_end_pipeline(scaled_chain, nested, chains, pool)
    assert report.ok
    assert [s.status for s in report.stages] == ["pass"] * 5
    assert report.stage("direction").details["classes"] == [["R0", "R1", "R2", "R3"]]
    beyond = report.stage("beyond_limit")
    assert beyond.details["achieved"] == beyond.details["target_size"] == 4
    # every reported ray lies beyond the window supremum except its start
    sup = supremum(chains[5])
    strict_b = sup.side_b - sup.side_a
    for path in beyond.details["paths"]:
        assert path[0] in sup.separator
        assert set(path[1:]) <= strict_b


def test_one_exhaustiveness_run_per_pipeline_and_limits_command(scaled_chain, monkeypatch, capsys):
    """The pipeline and the `limits` command hold the verdict before they
    build the growth table, so neither asks for it a second time."""
    calls = []
    real = limits.exhaustiveness_evidence
    for module in (cli, ends, limits):
        monkeypatch.setattr(module, "exhaustiveness_evidence", lambda *a: calls.append(1) or real(*a))
    chains = scaled_chain.canonical_layer_chains()
    g = scaled_chain.graph_at(5)
    nested = NestedSet.of(g, [it.canonical() for it in chains[5]])
    pool = [clique_witness(g, scaled_chain.clique(i), len(scaled_chain.clique(i))) for i in range(6)]
    assert thick_end_pipeline(scaled_chain, nested, chains, pool).ok
    assert len(calls) == 1
    for fmt in ("json", "csv"):
        calls.clear()
        assert cli.main(["limits", "--family", "clique_chain", "--horizon", "5", "--format", fmt]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def test_pipeline_builds_no_graph_after_set_up(monkeypatch):
    # a fresh window, so no flow or index is cached from another test
    p = generate_family("clique_chain", {"horizon": 5, "sizes": [8, 12, 20, 36]})
    chains = p.canonical_layer_chains()
    g = p.graph_at(5)
    nested = NestedSet.of(g, [it.canonical() for it in chains[5]])
    pool = [clique_witness(g, p.clique(i), len(p.clique(i))) for i in range(6)]
    built = []
    check = Graph.__post_init__

    def counted(graph):
        built.append(graph)
        check(graph)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    assert thick_end_pipeline(p, nested, chains, pool).ok
    assert built == []


def test_pipeline_ray_rejected_as_exhaustive(ray_presentation):
    chains = ray_presentation.canonical_layer_chains()
    g = ray_presentation.graph_at(ray_presentation.horizon)
    nested = NestedSet.of(g, [it.canonical() for it in chains[ray_presentation.horizon]])
    report = thick_end_pipeline(ray_presentation, nested, chains, [])
    assert report.rejected
    assert "exhaustive" in report.stages[0].details["reason"]


def test_pipeline_grid_rejected_at_exhaustiveness(grid_presentation):
    chains = grid_presentation.canonical_layer_chains()
    g = grid_presentation.graph_at(5)
    nested = NestedSet.of(g, [it.canonical() for it in chains[5]])
    report = thick_end_pipeline(grid_presentation, nested, chains, [])
    assert report.rejected
    assert report.stages[0].details["reason"].endswith("exhaustive-evidence")


def test_pipeline_window_limited_pairs_are_flagged(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    g = scaled_chain.graph_at(5)
    nested = NestedSet.of(g, [it.canonical() for it in chains[5]])
    pool = [
        clique_witness(g, scaled_chain.clique(i), len(scaled_chain.clique(i)))
        for i in range(6)
    ]
    report = thick_end_pipeline(scaled_chain, nested, chains, pool)
    details = report.stage("preconditions").details
    assert not details["failed"]
    limited_pairs = {(i, j) for i, j, *_ in details["window_limited"]}
    assert limited_pairs == {(3, 4), (3, 5), (4, 5)}
    verified_pairs = {(i, j) for i, j, _ in details["verified"]}
    assert ((2, 3)) in verified_pairs


def test_thin_end_bound_ray(ray_presentation):
    direction = Direction(("R0",))
    bound, chain = thin_end_bound(ray_presentation, direction, 6)
    assert bound == 1
    assert all(item.order == 1 for item in chain)
    assert chain[-1].side_b <= ray_presentation.boundary(6) | ray_presentation.graph_at(
        6
    ).neighbourhood(ray_presentation.boundary(6))


def test_thin_end_bound_double_ray(double_ray_presentation):
    for label in ("L0", "R0"):
        bound, _ = thin_end_bound(double_ray_presentation, Direction((label,)), 5)
        assert bound == 1


def test_thin_end_bound_absent_for_clique_chain(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    top_u = limit_separator_prefix(chains[5])
    for m in (3, 4):
        direction = directions_in_closure(scaled_chain, m, top_u).classes[0]
        assert thin_end_bound(scaled_chain, direction, m, max_bound=2) is None


def test_pipeline_rejects_a_chain_item_outside_the_nested_set(scaled_chain):
    chains = scaled_chain.canonical_layer_chains()
    g = scaled_chain.graph_at(5)
    nested = NestedSet.of(g, [it.canonical() for it in chains[5][:-1]])
    report = thick_end_pipeline(scaled_chain, nested, chains, [])
    assert report.rejected
    assert report.stages[0].details == {"reason": "chain item outside the nested set"}
    assert [s.status for s in report.stages[1:]] == ["skipped"] * 4


def test_comb_and_packing_documents():
    comb = CombWitness(spine=("a", "b"), teeth_paths=(("a",), ("b", "c")))
    assert comb.to_json() == {"kind": "comb", "spine": ["a", "b"], "teeth_paths": [["a"], ["b", "c"]]}
    packing = RayPacking(base=frozenset({"b", "a"}), paths=(("a", "x"), ("b", "y")))
    assert packing.to_json() == {"kind": "ray_packing", "base": ["a", "b"], "paths": [["a", "x"], ["b", "y"]]}
