"""The three perfbench workloads.

Each workload builds its inputs in `setup` and returns its jobs. A job takes
one input through the calls a `tangletree` user or CLI command makes and
checks every output it gets. Every call into the program goes through
`Pass.call`, so the runner can count, trace and fail it.

Why these workloads (see NOTES.md for the numbers behind them):

- tangle_tot: combinatorial search. Nearly all time is in the tangle DFS,
  the covering-triple scan and the tree-of-tangles build; almost no flow.
- end_evidence: max-flow work on the 194-vertex clique-chain window; no
  tangle enumeration at all.
- corpus_sweep: many tiny graphs through library calls and the CLI, so
  per-call overhead (canonical forms, re-validation, JSON, argparse, file
  I/O) dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations

from harness import JobEnded, Pass


@dataclass
class Job:
    name: str
    run: object  # callable taking a Pass
    seeded: bool = False  # inputs depend on the seed, not only job order
    pinned: bool = True  # outputs are the same at every correct commit


def _graph(p: Pass, tt, vertices, edges):
    return p.call("graph.Graph.from_data", tt.Graph.from_data, vertices, edges)


def _clique(prefix: str, n: int):
    vs = [f"{prefix}{i}" for i in range(1, n + 1)]
    return vs, list(combinations(vs, 2))


# -- tangle_tot ---------------------------------------------------------------

TANGLE_BUDGET_GRID4 = 2500


def _k4_chain(p, tt, count=4):
    vs, es = [], []
    for c in range(count):
        cv, ce = _clique(f"k{c}_", 4)
        vs += cv
        es += ce
        if c:
            es.append((f"k{c - 1}_4", f"k{c}_1"))
    return _graph(p, tt, vs, es)


def _two_k5_shared_vertex(p, tt):
    a_vs, a_es = _clique("a", 5)
    b_vs, b_es = _clique("b", 4)
    return _graph(p, tt, a_vs + b_vs, a_es + b_es + [("a5", b) for b in b_vs])


def _two_k4_bridge(p, tt):
    a_vs, a_es = _clique("a", 4)
    b_vs, b_es = _clique("b", 4)
    return _graph(p, tt, a_vs + b_vs, a_es + b_es + [("a1", "b1")])


def _grid(p, tt, rows, cols):
    vs = [f"g{r}{c}" for r in range(rows) for c in range(cols)]
    es = [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(rows - 1) for c in range(cols)]
    es += [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(rows) for c in range(cols - 1)]
    return _graph(p, tt, vs, es)


def _tot_job(inp, g, order, expected, budget=None):
    """tot -> decompose -> verify in library calls; expected = (tangles, members)."""
    tt, errors = inp.tt, inp.errors

    def run(p: Pass):
        seps = p.call("separations.enumerate_separations", tt.enumerate_separations, g, order - 1)
        p.counts["separations.enumerated"] += len(seps)
        search = {}
        if budget is not None:
            # The search may stop at its node budget; today's recursive DFS
            # dies with RecursionError before reaching it (a known defect).
            search = dict(budget=budget, expect=(errors.BudgetExceededError,), known=(RecursionError,))
        found = p.call("tangles.enumerate_tangles", tt.enumerate_tangles, g, order, **search)
        p.counts["tangles.found"] += len(found)
        p.artifact("tangles.enumerate_tangles", "tangles", [t.to_json() for t in found])
        if expected is not None:
            p.require(len(found) == expected[0], "tangles.enumerate_tangles", "tangle count")
        for t in found:
            report = p.call("tangles.check_tangle", tt.check_tangle, g, t)
            p.require(report.ok, "tangles.check_tangle", "check_tangle ok")
        nested = p.call("tree_of_tangles.build_tree_of_tangles", tt.build_tree_of_tangles, g, found)
        p.counts["tree_of_tangles.members"] += len(nested)
        p.artifact("tree_of_tangles.build_tree_of_tangles", "nested", nested.to_json())
        if expected is not None:
            p.require(len(nested) == expected[1], "tree_of_tangles.build_tree_of_tangles", "member count")
        report = p.call("tree_of_tangles.verify_tree_of_tangles", tt.verify_tree_of_tangles, g, nested, found)
        p.require(report.ok, "tree_of_tangles.verify_tree_of_tangles", "tree of tangles ok")
        td = p.call("tree_of_tangles.induce_tree_decomposition", tt.induce_tree_decomposition, g, nested)
        p.counts["tree_of_tangles.td_nodes"] += len(td.nodes)
        p.artifact("tree_of_tangles.induce_tree_decomposition", "td", td.to_json())
        report = p.call(
            "tree_of_tangles.verify_tree_decomposition", tt.verify_tree_decomposition, g, td, nested, found
        )
        p.require(report.ok, "tree_of_tangles.verify_tree_decomposition", "tree decomposition ok")

    return run


def setup_tangle_tot(p: Pass, inp, seed: int, workdir: str) -> list[Job]:
    tt = inp.tt
    grid = _grid(p, tt, 3, 6)
    jobs = [
        Job("k4_chain_o3", _tot_job(inp, _k4_chain(p, tt), 3, (4, 3))),
        Job("two_k5_shared_vertex_o4", _tot_job(inp, _two_k5_shared_vertex(p, tt), 4, (2, 1))),
        Job("grid3x6_o3", _tot_job(inp, grid, 3, (1, 0))),
        Job("two_k4_bridge_o3", _tot_job(inp, _two_k4_bridge(p, tt), 3, (2, 1))),
        # Finishing, stopping at the budget and the known RecursionError all
        # end this job at about the same cost; its outputs are not pinned.
        Job("grid3x6_o4_budget", _tot_job(inp, grid, 4, None, TANGLE_BUDGET_GRID4), pinned=False),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


# -- end_evidence -------------------------------------------------------------

CHAIN_PARAMS = {"horizon": 5, "sizes": [8, 12, 20, 36]}
THIN_FAMILIES = (
    ("ray", {"horizon": 6}),
    ("double_ray", {"horizon": 5}),
    ("grid", {"horizon": 5}),
    ("binary_tree", {"horizon": 4}),
)
FLOW_QUERIES = 20


def _bundle(p: Pass, tt, pres, chains):
    """Top window, its canonical nested set and the clique-witness pool."""
    top = max(chains)
    g = pres.graph_at(top)
    nested = p.call(
        "separations.NestedSet.of", tt.NestedSet.of, g, [item.canonical() for item in chains[top]]
    )
    pool = [
        p.call("tangles.clique_witness", tt.clique_witness, g, pres.clique(i), len(pres.clique(i)))
        for i in range(len(pres.cliques))
    ]
    return g, nested, pool


def _adjacency(g) -> dict:
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def menger_ok(adj: dict, s, t, paths, cut) -> bool:
    """Paths are disjoint s-t paths of the graph and `cut`, of the same size,
    meets every s-t path; together they certify both are optimal."""
    s, t, cut = set(s), set(t), set(cut)
    used: set = set()
    for path in paths:
        if not path or path[0] not in s or path[-1] not in t:
            return False
        if any(b not in adj[a] for a, b in zip(path, path[1:])):
            return False
        if len(set(path)) != len(path) or used & set(path):
            return False
        used |= set(path)
    if len(cut) != len(paths):
        return False
    frontier = [v for v in s if v not in cut]
    reached = set(frontier)
    while frontier:
        v = frontier.pop()
        if v in t:
            return False
        for w in adj[v]:
            if w not in cut and w not in reached:
                reached.add(w)
                frontier.append(w)
    return True


def setup_end_evidence(p: Pass, inp, seed: int, workdir: str) -> list[Job]:
    tt = inp.tt
    pres = p.call("families.generate_family", tt.generate_family, "clique_chain", dict(CHAIN_PARAMS))
    chains = p.call("families.canonical_layer_chains", pres.canonical_layer_chains)
    g, nested, pool = _bundle(p, tt, pres, chains)
    thin = {
        name: p.call("families.generate_family", tt.generate_family, name, dict(params))
        for name, params in THIN_FAMILIES
    }
    adj = _adjacency(g)
    # Each terminal comes from its own tenth of the sorted vertex names, so
    # every query spans the window the same way and its cost depends little
    # on the seed: with unstratified draws the 20 queries cost 2.05 s to
    # 2.42 s depending on the seed.
    rng = random.Random(seed)
    vertices = sorted(g.vertices)
    strata = [vertices[i * len(vertices) // 10 : (i + 1) * len(vertices) // 10] for i in range(10)]
    queries = []
    for _ in range(FLOW_QUERIES):
        picked = [rng.choice(stratum) for stratum in strata]
        queries.append((picked[0::2], picked[1::2]))

    def limits_job(p: Pass):
        again = p.call("families.canonical_layer_chains", pres.canonical_layer_chains)
        p.require(
            {m: c.to_json() for m, c in again.items()} == {m: c.to_json() for m, c in chains.items()},
            "families.canonical_layer_chains",
            "chains repeat",
        )
        verdict = p.call("tree_of_tangles.exhaustiveness_evidence", tt.exhaustiveness_evidence, pres, again)
        p.require(verdict.verdict == "non-exhaustive-witness", "tree_of_tangles.exhaustiveness_evidence", "verdict")
        p.artifact("tree_of_tangles.exhaustiveness_evidence", "verdict", verdict.to_json())
        table = p.call("limits.limit_separator_growth", tt.limit_separator_growth, pres, again)
        p.require(table.rows == ((2, 1), (3, 2), (4, 3), (5, 4)), "limits.limit_separator_growth", "growth rows")
        p.artifact("limits.limit_separator_growth", "growth", table.to_json())

    def interlace_job(p: Pass):
        top = max(chains)
        seq = tt.SeparationSequence.strictly_increasing(chains[top].items[: max(2, top - 3)])
        pair = p.call("limits.construct_interlaced", tt.construct_interlaced, g, nested, seq, pool)
        p.artifact("limits.construct_interlaced", "pair", pair.to_json())
        report = p.call("limits.check_interlaced_pair", tt.check_interlaced_pair, g, pair)
        p.require(report.ok, "limits.check_interlaced_pair", "IM1 and IM2")
        thinned = p.call("limits.thin_out", tt.thin_out, pair)
        p.artifact("limits.thin_out", "thinned", thinned.pair.to_json())
        report = p.call("limits.check_interlaced_pair", tt.check_interlaced_pair, g, thinned.pair)
        p.require(report.ok, "limits.check_interlaced_pair", "IM1 and IM2 after thin-out")

    def thick_end_job(p: Pass):
        report = p.call("ends.thick_end_pipeline", tt.thick_end_pipeline, pres, nested, chains, pool)
        p.artifact("ends.thick_end_pipeline", "report", report.to_json())
        p.require(report.ok, "ends.thick_end_pipeline", "pipeline ok")
        if report.ok:
            beyond = report.stage("beyond_limit").details
            p.counts["graph.paths_found"] += len(beyond["paths"])
            p.require(beyond["achieved"] == beyond["target_size"], "ends.thick_end_pipeline", "full packing")
            classes = report.stage("direction").details["classes"]
            p.require(len(classes) == 1, "ends.thick_end_pipeline", "one direction class")

    def pseudo_tight_job(m):
        def run(p: Pass):
            report = p.call(
                "limits.pseudo_tight_check",
                tt.pseudo_tight_check,
                pres.graph_at(m),
                pres.canonical_chain(m),
                boundary=pres.boundary(m),
            )
            p.require(report.ok, "limits.pseudo_tight_check", f"pseudo-tight at m={m}")

        return run

    def pool_pairs_job(p: Pass):
        pairs = p.call("tangles.distinguishable_pairs", tt.distinguishable_pairs, g, pool)
        p.require(len(pairs) == len(pool) * (len(pool) - 1) // 2, "tangles.distinguishable_pairs", "all pairs")
        p.artifact("tangles.distinguishable_pairs", "pairs", pairs)

    def flow_job(s, t):
        def run(p: Pass):
            paths = p.call("graph.disjoint_paths", tt.disjoint_paths, g, s, t)
            cut = p.call("graph.minimum_separator", tt.minimum_separator, g, s, t)
            p.counts["graph.paths_found"] += len(paths)
            p.require(menger_ok(adj, s, t, paths, cut), "graph.minimum_separator", "Menger certificate")
            p.artifact("graph.disjoint_paths", "flow", {"paths": paths, "cut": sorted(cut)})

        return run

    def thin_job(name):
        fam = thin[name]

        def run(p: Pass):
            fchains = p.call("families.canonical_layer_chains", fam.canonical_layer_chains)
            verdict = p.call("tree_of_tangles.exhaustiveness_evidence", tt.exhaustiveness_evidence, fam, fchains)
            p.require(verdict.verdict == "exhaustive-evidence", "tree_of_tangles.exhaustiveness_evidence", "verdict")
            _, fnested, _ = _bundle(p, tt, fam, fchains)
            report = p.call("ends.thick_end_pipeline", tt.thick_end_pipeline, fam, fnested, fchains, [])
            p.require(report.rejected and not report.ok, "ends.thick_end_pipeline", "thin family rejected")
            p.artifact("ends.thick_end_pipeline", "report", report.to_json())
            if name == "ray":
                direction = tt.Direction(("R0",))
                for m in range(2, fam.horizon + 1):
                    packing = p.call("ends.ray_packing", tt.ray_packing, fam, m, direction, {"r:0:0"})
                    p.counts["graph.paths_found"] += packing.size
                    p.require(packing.size == 1, "ends.ray_packing", "one ray")

        return run

    def thin_cli_job(name, params):
        def run(p: Pass):
            out = os.path.join(p.outdir, f"ends_{name}.json")
            argv = ["--family", name, "--horizon", str(params["horizon"])]
            run_cli(p, inp, "ends", argv, output=out, expected_code=2)

        return run

    jobs = [
        Job("limits_chain", limits_job),
        Job("interlace", interlace_job),
        Job("thick_end", thick_end_job),
        *(Job(f"pseudo_tight_m{m}", pseudo_tight_job(m)) for m in (3, 4, 5)),
        Job("pool_pairs", pool_pairs_job),
        *(Job(f"flow_{i:02d}", flow_job(s, t), seeded=True) for i, (s, t) in enumerate(queries)),
        *(Job(f"thin_{name}", thin_job(name)) for name, _ in THIN_FAMILIES),
        *(Job(f"cli_ends_{name}", thin_cli_job(name, params)) for name, params in THIN_FAMILIES[::2]),
    ]
    return jobs


# -- corpus_sweep -------------------------------------------------------------

CORPUS_GRAPHS = 80
# Extra-edge shares cycled over the corpus. Drawing the number of extra edges
# uniformly, as the test corpus does, made one pass cost 6.5 s to 16.9 s
# depending on the seed, because sparse 8-vertex graphs have hundreds of
# separations and the pair scan is quadratic in them. Fixing the share per
# slot keeps the work per pass nearly constant across seeds.
EDGE_SHARES = (0.35, 0.5, 0.65, 0.8)
FAMILY_ARGS = ["--family", "clique_chain", "--sizes", "8,12,20,36", "--horizon", "4"]


def corpus_graph(p: Pass, tt, rng: random.Random, slot: int):
    """Random spanning tree plus a fixed share of the absent edges, on 2 to 8
    vertices; built like the test corpus's random_connected_graph."""
    n = 2 + slot % 7
    share = EDGE_SHARES[(slot // 7) % len(EDGE_SHARES)]
    verts = [f"v{i}" for i in range(n)]
    edges = {(verts[rng.randrange(i)], verts[i]) for i in range(1, n)}
    possible = [e for e in combinations(verts, 2) if e not in edges]
    edges.update(rng.sample(possible, round(share * len(possible))))
    return _graph(p, tt, verts, sorted(edges))


def run_cli(p: Pass, inp, command: str, argv, *, inputs=(), output=None, expected_code=0):
    """One in-process CLI command; returns the parsed output document."""
    args = [command]
    for path in inputs:
        args += ["--input", path]
    args += list(argv)
    if output is not None:
        args += ["--output", output]
    read = sum(os.path.getsize(path) for path in inputs)
    with contextlib.redirect_stdout(io.StringIO()):
        code = p.call("cli." + command, inp.cli.main, args)
    p.counts["cli.bytes_read"] += read
    if code != 0:
        p.counts["cli.exit_nonzero"] += 1
    p.require(code == expected_code, "cli." + command, f"exit code {code}, expected {expected_code}")
    if code != expected_code:
        raise JobEnded("failed", RuntimeError(f"{command} exit {code}"))
    if output is None:
        return None
    with open(output) as fh:
        text = fh.read()
    p.counts["cli.bytes_written"] += len(text.encode())
    doc = json.loads(text)
    p.artifact("cli." + command, command, doc)
    return doc


# The pair scan covers each graph's first SCANNED separations in canonical
# order. Over all of them, the pairs scanned per pass varied by 7% between
# seeds (a few sparse 8-vertex graphs have 150 or more); with this cap, by
# under 4%, and most 7- and 8-vertex graphs scan the same 3,160 pairs.
SCANNED = 80


def _scan_relations(relation, seps) -> int:
    """The all-pairs nestedness scan `verify` runs, without its early exit."""
    crossing = 0
    for i, a in enumerate(seps):
        for b in seps[i + 1 :]:
            if relation(a, b).cross:
                crossing += 1
    return crossing


def setup_corpus_sweep(p: Pass, inp, seed: int, workdir: str) -> list[Job]:
    tt = inp.tt
    rng = random.Random(seed)
    graphs = []
    for slot in range(CORPUS_GRAPHS):
        g = corpus_graph(p, tt, rng, slot)
        path = os.path.join(workdir, f"g{slot:02d}.json")
        text = p.call("graph.Graph.dumps", g.dumps)
        with open(path, "w") as fh:
            fh.write(text)
        graphs.append((g, path))

    def graph_job(g, path):
        order = min(3, len(g.vertices))

        def run(p: Pass):
            seps = p.call("separations.enumerate_separations", tt.enumerate_separations, g, order)
            p.counts["separations.enumerated"] += len(seps)
            scanned = seps[:SCANNED]
            pairs = len(scanned) * (len(scanned) - 1) // 2
            p.counts["separations.relation.calls"] += pairs
            crossing = p.call("separations.relation", _scan_relations, tt.relation, scanned, batch=pairs)
            p.artifact("separations.relation", "scan", {"separations": [s.to_json() for s in seps], "crossing": crossing})
            stem = os.path.join(p.outdir, os.path.basename(path)[: -len(".json")])
            o = ["--order", str(order)]
            tl = run_cli(p, inp, "tangles", o, inputs=[path], output=stem + ".tangles.json")
            ns = run_cli(p, inp, "tot", o, inputs=[path], output=stem + ".nested.json")
            td = run_cli(p, inp, "decompose", [], inputs=[path, stem + ".nested.json"], output=stem + ".td.json")
            p.counts["tangles.found"] += len(tl["tangles"])
            p.counts["tree_of_tangles.members"] += len(ns["members"])
            p.counts["tree_of_tangles.td_nodes"] += len(td["nodes"])
            inputs = [path, stem + ".tangles.json", stem + ".nested.json", stem + ".td.json"]
            report = run_cli(p, inp, "verify", [], inputs=inputs, output=stem + ".verify.json")
            p.require(report["ok"] and len(report["checks"]) == 3, "cli.verify", "verify passes")

        return run

    def generate_job(p: Pass):
        run_cli(p, inp, "generate", FAMILY_ARGS, output=os.path.join(p.outdir, "pres.json"))

    def limits_job(p: Pass):
        pres, out = os.path.join(p.outdir, "pres.json"), os.path.join(p.outdir, "limits.json")
        doc = run_cli(p, inp, "limits", [], inputs=[pres], output=out)
        p.require(doc["verdict"] == "non-exhaustive-witness", "cli.limits", "verdict")

    def ends_job(p: Pass):
        pres, out = os.path.join(p.outdir, "pres.json"), os.path.join(p.outdir, "ends.json")
        doc = run_cli(p, inp, "ends", [], inputs=[pres], output=out)
        p.require(doc["ok"], "cli.ends", "pipeline ok")

    def interlace_job(p: Pass):
        doc = run_cli(p, inp, "interlace", FAMILY_ARGS, output=os.path.join(p.outdir, "interlace.json"))
        report = doc["im_report"]
        p.require(report["im1_ok"] and report["im2_ok"], "cli.interlace", "IM1 and IM2")

    jobs = [Job(f"graph_{i:02d}", graph_job(g, path), seeded=True) for i, (g, path) in enumerate(graphs)]
    # generate writes the presentation that limits and ends read back
    jobs += [
        Job("cli_generate", generate_job),
        Job("cli_limits", limits_job),
        Job("cli_ends", ends_job),
        Job("cli_interlace", interlace_job),
    ]
    return jobs


WORKLOADS = {
    "tangle_tot": setup_tangle_tot,
    "end_evidence": setup_end_evidence,
    "corpus_sweep": setup_corpus_sweep,
}
