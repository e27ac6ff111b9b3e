"""Trees of tangles, induced tree-decompositions, and exhaustiveness verdicts.

A tree of tangles for a tangle list is a nested set N of separations such
that every member efficiently distinguishes some pair (relevance) and every
distinguishable pair is efficiently distinguished by some member. The
builder is greedy and deterministic: pairs are processed in ascending
efficient order, and for a pair not yet covered, the minimum-order
distinguishers are scanned in canonical order and the first one nested with
all current members is admitted. It makes no canonicity claim.

A nested set of proper separations of a finite connected graph induces a
tree-decomposition whose nodes are the consistent orientations of the set,
with bag(O) the intersection of the chosen right-hand sides and edges
between orientations differing in exactly one member. The edge across a
reversed member induces that member back, which is the round-trip invariant
the verifier checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    EmptyGraphError,
    IncoherentChainError,
    InternalCheckError,
    PreconditionError,
)
from .graph import Graph, components
from .separations import (
    DEFAULT_ENUMERATION_BUDGET,
    NestedSet,
    OrientedSeparation,
    Separation,
    enumerate_separations,
    is_tight,
    relation,
    supremum,
)
from .tangles import (
    Orienter,
    PreTangle,
    TangleWitness,
    _consistency_witness,
    check_tangle,
    distinguishable_pairs,
    distinguishes,
    min_distinguishing_order,
)


def _min_order_distinguishers(
    g: Graph,
    p: Orienter,
    q: Orienter,
    target_order: int,
    *,
    candidates: list[Separation] | None,
    budget: int,
) -> list[Separation]:
    """All distinguishers of exactly the minimum order, canonically sorted.

    Clique-witness pairs constrain the search: any separator splitting the
    cliques contains their intersection, so only its supersets of the target
    size are enumerated.
    """
    found: list[Separation] = []
    if (
        isinstance(p, TangleWitness)
        and isinstance(q, TangleWitness)
        and p.kind == "clique"
        and q.kind == "clique"
    ):
        core = p.clique & q.clique
        free = sorted(g.vertices - core)
        extra = target_order - len(core)
        if extra < 0:
            return []
        examined = 0
        for extra_sep in combinations(free, extra):
            examined += 1
            if examined > budget:
                raise BudgetExceededError("clique-pair separator candidates", budget)
            separator = core | frozenset(extra_sep)
            comps = components(g, separator)
            p_comps = [c for c in comps if c & p.clique]
            q_comps = [c for c in comps if c & q.clique]
            if any(c & q.clique for c in p_comps):
                continue
            neutral = [c for c in comps if not (c & p.clique) and not (c & q.clique)]
            if len(neutral) > 12:
                raise BudgetExceededError("neutral component assignments", 2**12)
            for mask in range(1 << len(neutral)):
                a_side = set(separator)
                b_side = set(separator)
                for c in p_comps:
                    a_side |= c
                for c in q_comps:
                    b_side |= c
                for i, c in enumerate(neutral):
                    (a_side if mask >> i & 1 else b_side).update(c)
                sep = OrientedSeparation(
                    g, frozenset(a_side), frozenset(b_side)
                ).canonical()
                if distinguishes(sep, p, q):
                    found.append(sep)
    else:
        if candidates is None:
            candidates = enumerate_separations(g, target_order, budget=budget)
        for sep in candidates:
            if sep.order != target_order:
                continue
            if not (p.orients(sep) and q.orients(sep)):
                continue
            if p.orient(sep) != q.orient(sep):
                found.append(sep)
    found = sorted(set(found), key=lambda s: s.sort_key)
    return found


def build_tree_of_tangles(
    g: Graph,
    tangles: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    validate: bool = True,
) -> NestedSet:
    """Greedy nested set efficiently distinguishing the given tangles."""
    if not g.is_connected():
        raise DisconnectedGraphError("build_tree_of_tangles requires a connected graph")
    if validate:
        for t in tangles:
            if isinstance(t, PreTangle):
                report = check_tangle(g, t, budget=budget)
                if not report.ok:
                    raise PreconditionError(f"input is not a tangle: {report}")
    pairs = distinguishable_pairs(g, tangles, budget=budget)
    members: list[Separation] = []
    shared_candidates: list[Separation] | None = None
    need_enum = any(
        not (isinstance(p, TangleWitness) and p.kind == "clique")
        for p in tangles
    )
    if need_enum and pairs:
        top = max(order for _, order in pairs)
        shared_candidates = enumerate_separations(g, top, budget=budget)
    for (i, j), target_order in pairs:
        p, q = tangles[i], tangles[j]
        if any(
            m.order == target_order and distinguishes(m, p, q) for m in members
        ):
            continue
        options = _min_order_distinguishers(
            g, p, q, target_order, candidates=shared_candidates, budget=budget
        )
        admitted = None
        for sep in options:
            if all(relation(sep, m).nested for m in members):
                admitted = sep
                break
        if admitted is None:
            raise InternalCheckError(
                f"no nested minimum-order distinguisher for pair {(i, j)}; "
                "this contradicts the theory for tangles and signals a bug"
            )
        members.append(admitted)
    return NestedSet.of(g, members)


@dataclass(frozen=True)
class TreeOfTanglesReport:
    nested_ok: bool
    relevance: dict
    efficiency: dict
    crossing_witness: tuple | None

    @property
    def window_limited(self) -> list:
        out = [m for m, status in self.relevance.items() if status == "window_limited"]
        out += [p for p, status in self.efficiency.items() if status == "window_limited"]
        return out

    @property
    def ok(self) -> bool:
        return (
            self.nested_ok
            and all(s in ("relevant", "window_limited") for s in self.relevance.values())
            and all(s in ("efficient", "window_limited") for s in self.efficiency.values())
        )


def _window_limited(g: Graph, p: Orienter, q: Orienter, boundary: frozenset[str]) -> bool:
    """True when the sub-minimum cut between clique cores leans on the
    window boundary, so the deficit is an artifact of truncation."""
    if not boundary:
        return False
    if not (
        isinstance(p, TangleWitness)
        and isinstance(q, TangleWitness)
        and p.kind == "clique"
        and q.kind == "clique"
    ):
        return False
    from .graph import minimum_separator

    cut = minimum_separator(g, p.clique, q.clique)
    closed = boundary | g.neighbourhood(boundary)
    return bool(cut & closed)


def verify_tree_of_tangles(
    g: Graph,
    n: NestedSet,
    tangles: list[Orienter],
    *,
    boundary: frozenset[str] = frozenset(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> TreeOfTanglesReport:
    """Nestedness, relevance of every member, efficiency for every pair.

    With a non-empty `boundary`, clique-witness deficits attributable to the
    window edge are reported as "window_limited" instead of failing; the
    infinite-object claim they stand in for is not finitely checkable.
    """
    crossing = None
    ms = list(n)
    for a, b in combinations(ms, 2):
        if relation(a, b).cross:
            crossing = (a, b)
            break
    pair_orders: dict[tuple[int, int], int | None] = {}
    for i in range(len(tangles)):
        for j in range(i + 1, len(tangles)):
            pair_orders[(i, j)] = min_distinguishing_order(
                g, tangles[i], tangles[j], budget=budget
            )
    relevance: dict = {}
    for m in ms:
        status = "irrelevant"
        for (i, j), t_star in pair_orders.items():
            if t_star is None or m.order < t_star:
                continue
            if m.order >= min(tangles[i].order_bound, tangles[j].order_bound):
                continue
            if not distinguishes(m, tangles[i], tangles[j]):
                continue
            if m.order == t_star:
                status = "relevant"
                break
            if _window_limited(g, tangles[i], tangles[j], boundary):
                status = "window_limited"
        relevance[m] = status
    efficiency: dict = {}
    for (i, j), t_star in pair_orders.items():
        if t_star is None:
            continue
        hits = [
            m
            for m in ms
            if m.order < min(tangles[i].order_bound, tangles[j].order_bound)
            and distinguishes(m, tangles[i], tangles[j])
        ]
        if any(m.order == t_star for m in hits):
            efficiency[(i, j)] = "efficient"
        elif hits and _window_limited(g, tangles[i], tangles[j], boundary):
            efficiency[(i, j)] = "window_limited"
        else:
            efficiency[(i, j)] = "missed"
    return TreeOfTanglesReport(
        nested_ok=crossing is None,
        relevance=relevance,
        efficiency=efficiency,
        crossing_witness=crossing,
    )


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """Decomposition tree with one bag of vertices per node."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    bags: dict

    def bag(self, node: str) -> frozenset[str]:
        return self.bags[node]

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def neighbors(self, node: str) -> list[str]:
        out = []
        for u, v in self.edges:
            if u == node:
                out.append(v)
            elif v == node:
                out.append(u)
        return sorted(out)

    def to_json(self) -> dict:
        return {
            "kind": "tree_decomposition",
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "bags": {node: sorted(bag) for node, bag in self.bags.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TreeDecomposition":
        return cls(
            nodes=tuple(doc["nodes"]),
            edges=tuple(tuple(e) for e in doc["edges"]),
            bags={node: frozenset(bag) for node, bag in doc["bags"].items()},
        )

    def to_dot(self) -> str:
        lines = ["graph tree_decomposition {", "\tnode [shape=box];"]
        for node in self.nodes:
            label = ",".join(sorted(self.bags[node]))
            lines.append(f'\t"{node}" [label="{label}"];')
        for u, v in self.edges:
            lines.append(f'\t"{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def induce_tree_decomposition(g: Graph, n: NestedSet) -> TreeDecomposition:
    """Tree-decomposition whose nodes are the consistent orientations of n.

    Every tree edge joins two orientations differing in one reversed member,
    and induces exactly that member, so the induced separation set is n.
    """
    if not g.vertices:
        raise EmptyGraphError("empty graph has no tree-decomposition here")
    if not g.is_connected():
        raise DisconnectedGraphError("induce_tree_decomposition requires connectivity")
    ms = list(n)
    for m in ms:
        if not m.is_proper():
            raise PreconditionError(f"improper member {m!r}")
    if len(ms) > 20:
        raise BudgetExceededError("orientation enumeration over nested set", 2**20)
    nodes: list[tuple[OrientedSeparation, ...]] = []
    for mask in range(1 << len(ms)):
        oriented = tuple(
            ms[i].orient("b" if mask >> i & 1 else "a") for i in range(len(ms))
        )
        if _consistency_witness(oriented) is None:
            nodes.append(oriented)
    names = {}
    bags = {}
    for oriented in nodes:
        bag = g.vertices
        for o in oriented:
            bag = bag & o.side_b
        key = "n" + "".join(
            "1" if o.side_b == m.side_b else "0" for o, m in zip(oriented, ms)
        )
        names[oriented] = key
        bags[key] = bag
    edges = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            differ = [k for k in range(len(ms)) if a[k] != b[k]]
            if len(differ) == 1:
                edges.append((names[a], names[b]))
    node_names = tuple(sorted(names.values()))
    edges = tuple(sorted((min(e), max(e)) for e in edges))
    td = TreeDecomposition(nodes=node_names, edges=edges, bags=bags)
    if len(td.nodes) != len(ms) + 1:
        raise InternalCheckError(
            f"expected {len(ms) + 1} orientations, found {len(td.nodes)}"
        )
    return td


@dataclass(frozen=True)
class TreeDecompositionReport:
    tree_ok: bool
    t1_cover: bool
    t2_edges: bool
    t3_connected: bool
    induced_equal: bool
    efficiency_ok: bool
    witnesses: dict

    @property
    def ok(self) -> bool:
        return (
            self.tree_ok
            and self.t1_cover
            and self.t2_edges
            and self.t3_connected
            and self.induced_equal
            and self.efficiency_ok
        )


def _edge_induced_separation(g: Graph, td: TreeDecomposition, edge) -> OrientedSeparation:
    u, v = edge
    banned = {(u, v), (v, u)}
    reach = {u}
    queue = [u]
    while queue:
        x = queue.pop(0)
        for y in td.neighbors(x):
            if (x, y) in banned or y in reach:
                continue
            reach.add(y)
            queue.append(y)
    side_u: set[str] = set()
    side_v: set[str] = set()
    for node in td.nodes:
        (side_u if node in reach else side_v).update(td.bags[node])
    return OrientedSeparation(g, frozenset(side_u), frozenset(side_v))


def verify_tree_decomposition(
    g: Graph,
    td: TreeDecomposition,
    n: NestedSet,
    tangles: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> TreeDecompositionReport:
    """Check (T1)-(T3), the induced separations, and pairwise efficiency."""
    witnesses: dict = {}
    adjacency: dict[str, list[str]] = {node: [] for node in td.nodes}
    for u, v in td.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    tree_ok = True
    if td.nodes:
        seen = {td.nodes[0]}
        queue = [td.nodes[0]]
        while queue:
            x = queue.pop(0)
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        tree_ok = len(seen) == len(td.nodes) and len(td.edges) == len(td.nodes) - 1
    cover = frozenset().union(*td.bags.values()) if td.bags else frozenset()
    t1 = cover == g.vertices
    if not t1:
        witnesses["t1_missing"] = sorted(g.vertices - cover)[:5]
    t2 = True
    for e in sorted(g.edges):
        if not any(e[0] in bag and e[1] in bag for bag in td.bags.values()):
            t2 = False
            witnesses["t2_edge"] = e
            break
    t3 = True
    for v in sorted(g.vertices):
        holding = [node for node in td.nodes if v in td.bags[node]]
        if not holding:
            continue
        seen = {holding[0]}
        queue = [holding[0]]
        while queue:
            x = queue.pop(0)
            for y in adjacency[x]:
                if y in seen or v not in td.bags[y]:
                    continue
                seen.add(y)
                queue.append(y)
        if len(seen) != len(holding):
            t3 = False
            witnesses["t3_vertex"] = v
            break
    induced: set[Separation] = set()
    induced_valid = True
    for edge in td.edges:
        try:
            induced.add(_edge_induced_separation(g, td, edge).canonical())
        except Exception as exc:  # crossing edge: not a separation
            induced_valid = False
            witnesses["induced_invalid"] = (edge, str(exc))
            break
    induced_equal = induced_valid and induced == set(n.members)
    if induced_valid and not induced_equal:
        witnesses["induced_diff"] = {
            "extra": [s.to_json() for s in sorted(induced - set(n.members), key=lambda s: s.sort_key)],
            "missing": [s.to_json() for s in sorted(set(n.members) - induced, key=lambda s: s.sort_key)],
        }
    efficiency_ok = True
    for i in range(len(tangles)):
        for j in range(i + 1, len(tangles)):
            t_star = min_distinguishing_order(g, tangles[i], tangles[j], budget=budget)
            if t_star is None:
                continue
            hit = any(
                s.order == t_star and distinguishes(s, tangles[i], tangles[j])
                for s in induced
            )
            if not hit:
                efficiency_ok = False
                witnesses.setdefault("inefficient_pairs", []).append((i, j, t_star))
    return TreeDecompositionReport(
        tree_ok=tree_ok,
        t1_cover=t1,
        t2_edges=t2,
        t3_connected=t3,
        induced_equal=induced_equal,
        efficiency_ok=efficiency_ok,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class ExhaustivenessVerdict:
    verdict: str  # exhaustive-evidence | non-exhaustive-witness | inconclusive
    evidence_only: bool
    max_order: int
    reference_layer: int
    stable_b_prefix: tuple[str, ...]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "kind": "exhaustiveness_verdict",
            "verdict": self.verdict,
            "evidence_only": self.evidence_only,
            "max_order": self.max_order,
            "reference_layer": self.reference_layer,
            "stable_b_prefix": list(self.stable_b_prefix),
            "notes": list(self.notes),
        }


def check_chain_coherence(p, chains: dict) -> None:
    """Items must restrict across layers: same separator, same A inside the
    smaller window."""
    layers = sorted(chains)
    for prev, cur in zip(layers, layers[1:]):
        small = chains[prev]
        big = chains[cur]
        win = p.graph_at(prev).vertices
        for idx in range(min(len(small), len(big))):
            a, b = small[idx], big[idx]
            if a.separator != b.separator or (b.side_a & win) != a.side_a:
                raise IncoherentChainError(
                    f"item {idx} differs between layers {prev} and {cur}"
                )


def exhaustiveness_evidence(
    p,
    chains: dict,
    *,
    stability_span: int = 3,
) -> ExhaustivenessVerdict:
    """Finite-horizon verdict on whether the chain is exhausting the graph.

    Bounded orders of an all-tight chain are evidence of exhaustion; the
    strict-side of the supremum stabilizing to a fixed non-empty trace in the
    reference window across `stability_span` successive horizons witnesses
    the opposite. Anything else, including conflicting signals, is
    inconclusive. All verdicts are finite-horizon evidence, not proof.
    """
    if not chains:
        raise PreconditionError("no chain layers supplied")
    check_chain_coherence(p, chains)
    layers = sorted(chains)
    ref = layers[0]
    ref_vertices = p.graph_at(ref).vertices
    notes = []
    all_tight = True
    for m in layers:
        g_m = p.graph_at(m)
        for item in chains[m]:
            if not is_tight(g_m, item):
                all_tight = False
                notes.append(f"item of order {item.order} not tight in layer {m}")
                break
        if not all_tight:
            break
    orders_ref = [it.order for it in chains[ref]]
    max_ref = max(orders_ref)
    max_all = max(it.order for m in layers for it in chains[m])
    bounded = max_all <= max_ref
    traces = []
    for m in layers:
        sup = supremum(chains[m])
        traces.append(frozenset((sup.side_b - sup.side_a) & ref_vertices))
    tail = traces[-stability_span:]
    stable_nonempty = (
        len(traces) >= stability_span
        and all(t == tail[0] for t in tail)
        and bool(tail[0])
    )
    if stable_nonempty and bounded and all_tight:
        notes.append("conflicting signals: bounded tight chain with stable B-trace")
        verdict = "inconclusive"
    elif stable_nonempty:
        verdict = "non-exhaustive-witness"
    elif bounded and all_tight:
        verdict = "exhaustive-evidence"
    else:
        verdict = "inconclusive"
    return ExhaustivenessVerdict(
        verdict=verdict,
        evidence_only=True,
        max_order=max_all,
        reference_layer=ref,
        stable_b_prefix=tuple(sorted(tail[0])) if stable_nonempty else (),
        notes=tuple(notes),
    )
