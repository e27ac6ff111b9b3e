"""Trees of tangles and induced tree-decompositions.

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
the verifier checks. Its bags are frozensets of names, as the API and JSON
hand them out and read them back; the clique-pair flows run on masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from math import prod
from operator import and_
from typing import Iterable

from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    EmptyGraphError,
    GraphFormatError,
    InternalCheckError,
    PreconditionError,
    SeparationError,
    UnknownVertexError,
)
from .graph import Graph, _as_json, _checked, _field, _flood, _integer, _select, components
from .separations import (
    DEFAULT_ENUMERATION_BUDGET,
    NestedSet,
    Separation,
    _component_separations,
    _listed,
    enumerate_separations,
    first_crossing,
    leq,
    relation,
)
from .tangles import (
    Orienter,
    PreTangle,
    _clique_flow,
    _orienting,
    _splits,
    check_tangle,
    distinguishable_pairs,
)


def _min_order_distinguishers(
    g: Graph,
    p: Orienter,
    q: Orienter,
    target_order: int,
    *,
    budget: int,
) -> list[Separation]:
    """All distinguishers of exactly the minimum order, canonically sorted.

    For clique witnesses that order is the number of disjoint paths between
    the cliques, so each separator holds one vertex of each path (Menger; a
    common vertex is a path of its own). Each pick is flooded once, and
    when it parts the two cliques, `_component_separations` builds every
    bipartition of the other components with p's on side a and q's on
    side b.
    """
    flow = _clique_flow(g, p, q)
    if flow is None:
        seps = enumerate_separations(g, target_order, budget=budget)
        return [sep for sep in seps if sep.order == target_order and _splits(sep, p, q)]
    paths = flow[0]
    if prod(map(len, paths)) > _integer(budget, "budget"):
        raise BudgetExceededError("clique-pair separator candidates", budget)
    found: list[Separation] = []
    for picked in product(*paths):
        s = g.mask(picked)
        comps = _flood(g, s)
        cp = next(c for c in comps if c & p._anchor)
        cq = next(c for c in comps if c & q._anchor)
        if cp == cq:
            continue
        neutral = [c for c in comps if c != cp and c != cq]
        if len(neutral) > 12:
            raise BudgetExceededError("neutral component assignments", 2**12)
        found += _component_separations(g, s, cp, neutral)
    return sorted(found, key=lambda sep: sep.sort_key)


def build_tree_of_tangles(
    g: Graph,
    tangles: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> NestedSet:
    """Greedy nested set efficiently distinguishing the given tangles.

    Each materialized tangle is checked first; witnesses are not."""
    if not _checked(g).is_connected():
        raise DisconnectedGraphError("build_tree_of_tangles requires a connected graph")
    tangles = _listed(tangles, "tangles", of="orienters")
    _orienting(g, *tangles)
    for t in tangles:
        if isinstance(t, PreTangle):
            report = check_tangle(g, t, budget=budget)
            if not report.ok:
                raise PreconditionError(f"input is not a tangle: {report}")
    pairs = distinguishable_pairs(g, tangles, budget=budget)
    members: list[Separation] = []
    for (i, j), target_order in pairs:
        p, q = tangles[i], tangles[j]
        if any(m.order == target_order and _splits(m, p, q) for m in members):
            continue
        options = _min_order_distinguishers(g, p, q, target_order, budget=budget)
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
    def ok(self) -> bool:
        return (
            self.nested_ok
            and all(s == "relevant" for s in self.relevance.values())
            and all(s == "efficient" for s in self.efficiency.values())
        )


def _window_limited(g: Graph, p: Orienter, q: Orienter, boundary: frozenset[str]) -> bool:
    """True when the sub-minimum cut between clique cores leans on the
    window boundary, so the deficit is an artifact of truncation."""
    if not boundary:
        return False
    flow = _clique_flow(g, p, q)
    return flow is not None and bool(flow[1] & g.mask(boundary | g.neighbourhood(boundary)))


@dataclass(frozen=True)
class PairVerdict:
    """How a set of members distinguishes one distinguishable tangle pair."""

    i: int
    j: int
    order: int  # the pair's efficient order
    hits: tuple[Separation, ...]  # the members distinguishing the pair
    status: str  # efficient | window_limited | missed


def classify_pairs(
    g: Graph,
    members: Iterable[Separation],
    tangles: list[Orienter],
    *,
    boundary: frozenset[str] = frozenset(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[PairVerdict]:
    """Every distinguishable pair of `tangles`, in (i, j) order.

    A pair is "efficient" when some member distinguishing it has its
    efficient order, "window_limited" when members distinguish it only above
    that order and `_window_limited` blames the window edge, and "missed"
    otherwise. The efficient orders come from one `distinguishable_pairs`
    call, which shares one separation enumeration among all pairs.
    """
    members = _listed(members, "members")
    tangles = _listed(tangles, "tangles", of="orienters")
    _orienting(_checked(g), *tangles)
    out = []
    for (i, j), order in sorted(distinguishable_pairs(g, tangles, budget=budget)):
        p, q = tangles[i], tangles[j]
        hits = tuple(m for m in members if _splits(m, p, q))
        if any(m.order == order for m in hits):
            status = "efficient"
        elif hits and _window_limited(g, p, q, boundary):
            status = "window_limited"
        else:
            status = "missed"
        out.append(PairVerdict(i, j, order, hits, status))
    return out


def verify_tree_of_tangles(
    g: Graph,
    n: NestedSet,
    tangles: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> TreeOfTanglesReport:
    """Nestedness, relevance of every member, efficiency for every pair.

    A member is "relevant" when it distinguishes some pair efficiently and
    "irrelevant" otherwise; each distinguishable pair is "efficient" or
    "missed" as `classify_pairs` finds it without a window boundary.
    """
    ms = list(_checked(n, kind=NestedSet))
    verdicts = classify_pairs(g, ms, tangles, budget=budget)
    relevance: dict = {}
    for m in ms:
        hit = any(m in v.hits and m.order == v.order for v in verdicts)
        relevance[m] = "relevant" if hit else "irrelevant"
    crossing = first_crossing(ms)
    return TreeOfTanglesReport(
        nested_ok=crossing is None,
        relevance=relevance,
        efficiency={(v.i, v.j): v.status for v in verdicts},
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

    @cached_property
    def tree(self) -> Graph:
        """The decomposition tree as a graph on the node names. A loop edge
        cannot change what is connected, so it is dropped; the verifier
        still counts it among the edges."""
        return Graph.from_data(self.nodes, (e for e in self.edges if e[0] != e[1]))

    def neighbors(self, node: str) -> list[str]:
        return sorted(self.tree.adjacency[node])

    def to_json(self) -> dict:
        return {
            "kind": "tree_decomposition",
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "bags": {node: sorted(bag) for node, bag in self.bags.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TreeDecomposition":
        """Parse a document whose nodes, edges and bags are lists, whose
        names are strings, whose edges are pairs of declared nodes and whose
        nodes all have bags."""
        doc = _as_json(doc, "a tree decomposition", dict)
        td = cls(
            nodes=tuple(_as_json(_field(doc, "nodes"), "nodes")),
            edges=tuple(tuple(_as_json(e, "an edge")) for e in _as_json(_field(doc, "edges"), "edges")),
            bags={node: frozenset(_as_json(bag, "a bag")) for node, bag in _as_json(_field(doc, "bags"), "bags", dict).items()},
        )
        names = [*td.nodes, *td.bags, *(v for bag in td.bags.values() for v in bag), *(x for e in td.edges for x in e)]
        if not all(isinstance(x, str) for x in names):
            raise GraphFormatError("node names, edge ends and bag vertices must be strings")
        if any(len(e) != 2 for e in td.edges):
            raise GraphFormatError("each edge must be a pair of nodes")
        if not set(td.nodes) <= td.bags.keys():
            raise GraphFormatError("every node needs a bag")
        td.tree  # validates the edges
        return td

    def to_dot(self) -> str:
        lines = ["graph tree_decomposition {", "\tnode [shape=box];"]
        for node in self.nodes:
            label = ",".join(sorted(self.bags[node]))
            lines.append(f'\t"{node}" [label="{label}"];')
        for u, v in self.edges:
            lines.append(f'\t"{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _toward(t: Separation, top: Separation) -> Separation:
    """The orientation of t in the consistent orientation where `top` is
    maximal: t's orientation <= top, else the reverse of its orientation
    >= top. One of the two exists because t and top are nested."""
    x, y = t.orientations()
    if leq(x, top):
        return x
    if leq(y, top):
        return y
    return y if leq(top, x) else x


def induce_tree_decomposition(g: Graph, n: NestedSet) -> TreeDecomposition:
    """Tree-decomposition whose nodes are the consistent orientations of n.

    The nodes are read off directly: for each orientation s of a member, the
    consistent orientation in which s is maximal (`_toward`). For a nested
    set of proper separations these are |n| + 1 distinct orientations, and
    joining the two built from the orientations of each member gives the
    |n| tree edges. Every edge induces exactly its member, so the induced
    separation set is n.
    """
    if not _checked(g).vertices:
        raise EmptyGraphError("empty graph has no tree-decomposition here")
    if not g.is_connected():
        raise DisconnectedGraphError("induce_tree_decomposition requires connectivity")
    ms = list(_checked(n, kind=NestedSet))
    for m in ms:
        if not m.is_proper():
            raise PreconditionError(f"improper member {m!r}")
    nodes: dict[str, tuple[Separation, ...]] = {} if ms else {"n": ()}
    edges = []
    for m in ms:
        ends = []
        for top in m.orientations():
            oriented = tuple(_toward(t, top) for t in ms)
            name = "n" + "".join("1" if o is t else "0" for o, t in zip(oriented, ms))
            nodes[name] = oriented
            ends.append(name)
        edges.append((min(ends), max(ends)))
    if len(nodes) != len(ms) + 1:
        raise InternalCheckError(
            f"expected {len(ms) + 1} orientations, found {len(nodes)}"
        )
    names, full = g._vertex_index[0], (1 << len(g.vertices)) - 1
    bags = {
        name: frozenset(_select(names, reduce(and_, (o.masks[1] for o in oriented), full)))
        for name, oriented in sorted(nodes.items())
    }
    return TreeDecomposition(nodes=tuple(bags), edges=tuple(sorted(edges)), bags=bags)


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


def _edge_induced_separation(g: Graph, td: TreeDecomposition, edge) -> Separation:
    """The separation across a tree edge (u, v): the bags on u's side
    against the bags on v's side."""
    u, v = edge
    near = next((c for c in components(td.tree, {v}) if u in c), frozenset())
    side_u: set[str] = set()
    side_v: set[str] = set()
    for node in td.nodes:
        (side_u if node in near else side_v).update(td.bags[node])
    return Separation(g, side_u, side_v)


def verify_tree_decomposition(
    g: Graph,
    td: TreeDecomposition,
    n: NestedSet,
    tangles: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> TreeDecompositionReport:
    """Check (T1)-(T3), the induced separations, and pairwise efficiency."""
    _checked(n, kind=NestedSet)
    tangles = _listed(tangles, "tangles", of="orienters")
    _orienting(_checked(g), *tangles)
    witnesses: dict = {}
    tree = _checked(td, kind=TreeDecomposition).tree
    tree_ok = not td.nodes or (
        len(components(tree)) == 1 and len(td.edges) == len(td.nodes) - 1
    )
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
        lacking = [node for node in td.nodes if v not in td.bags[node]]
        if len(components(tree, lacking)) > 1:
            t3 = False
            witnesses["t3_vertex"] = v
            break
    induced: set[Separation] = set()
    induced_valid = True
    for edge in td.edges:
        try:
            induced.add(_edge_induced_separation(g, td, edge).canonical())
        except (SeparationError, UnknownVertexError) as exc:  # the bags across it are no separation
            induced_valid = False
            witnesses["induced_invalid"] = (edge, str(exc))
            break
    induced_equal = induced_valid and induced == set(n.members)
    if induced_valid and not induced_equal:
        witnesses["induced_diff"] = {
            "extra": [s.to_json() for s in sorted(induced - set(n.members), key=lambda s: s.sort_key)],
            "missing": [s.to_json() for s in sorted(set(n.members) - induced, key=lambda s: s.sort_key)],
        }
    missed = [
        (v.i, v.j, v.order)
        for v in classify_pairs(g, induced, tangles, budget=budget)
        if v.status != "efficient"
    ]
    if missed:
        witnesses["inefficient_pairs"] = missed
    return TreeDecompositionReport(
        tree_ok=tree_ok,
        t1_cover=t1,
        t2_edges=t2,
        t3_connected=t3,
        induced_equal=induced_equal,
        efficiency_ok=not missed,
        witnesses=witnesses,
    )
