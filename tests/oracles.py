"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's search structures: separations come
from ternary side assignments, cuts and distinguishers from raw subset
enumeration, tangles from a naive backtracking that re-scans every
consistency pair and covering triple from scratch. They stay the slow,
trustworthy side of every dual-route check. The list-scan tangle search,
which tests consistency against every chosen orientation and scans covering
triples without a size cutoff, is the reference for the library's search,
which does neither, in the same visit order. The tuple-keyed flow network,
a dict of dicts scanned in sorted key order, is the reference for the
library's integer-indexed max-flow solver, and the frozenset form of
`relation` is the reference for the bitmask one. The eight-comparison mask
loop, which tests every ordered orientation pair both ways, is the reference
for `relation`'s four facts, witness objects included. The list scans for
the maximal sides A, the first covering triple and the first inconsistent
pair are the references for the column index that `tangles` switches to on
wide antichains. The breadth-first search over frozensets is the reference
for the mask flood fill behind `components`, and the frozenset candidate
loop, which builds every separation through the public constructor, is the
reference for the mask enumeration. The port graph for comb teeth and the
induced graph less the edges inside the base for ray packings, each solved
by the reference network, are the references for the flows that `ends`
runs on the host graph under a vertex mask, and the frozenset loop over
components is the reference for `tight_components` on masks. The per-layer
family generators, which build every layer and a shadow layer h + 1 from
scratch, are the reference for the tower that `families` grows level by
level. The name-lookup orientation query, which anchors a witness at one
vertex and looks it up in the sides, is the reference for `toward`, which
tests the witness's mask against the separation's.
"""

from __future__ import annotations

from itertools import combinations, product

from tangletree.families import LayeredPresentation
from tangletree.graph import Graph
from tangletree.errors import (
    BudgetExceededError,
    InternalCheckError,
    OrientationUndecidableError,
    UnknownVertexError,
)
from tangletree.separations import (
    DEFAULT_ENUMERATION_BUDGET,
    Relation,
    Separation,
    _ambient,
    _leq,
    _leq_corner,
    enumerate_separations,
    leq,
)
from tangletree.tangles import PreTangle, Tangle


def all_separations_brute(g: Graph, max_order: int) -> set[Separation]:
    """Every separation of order <= max_order via 3^|V| side assignments."""
    verts = sorted(g.vertices)
    out: set[Separation] = set()
    for assignment in product("ab2", repeat=len(verts)):
        side_a = frozenset(v for v, c in zip(verts, assignment) if c in "a2")
        side_b = frozenset(v for v, c in zip(verts, assignment) if c in "b2")
        if len(side_a & side_b) > max_order:
            continue
        try:
            sep = Separation(g, side_a, side_b)
        except Exception:
            continue
        out.add(sep.canonical())
    return out


def components_reference(g: Graph, removed=()) -> list[frozenset[str]]:
    """Connected components of g - removed, sorted by minimal vertex, by a
    breadth-first search over frozensets."""
    removed = frozenset(removed)
    unknown = removed - g.vertices
    if unknown:
        raise UnknownVertexError(min(unknown))
    todo = set(g.vertices) - removed
    adj = g.adjacency
    comps: list[frozenset[str]] = []
    while todo:
        seed = min(todo)
        comp = {seed}
        frontier = {seed}
        while frontier:
            grown: set[str] = set()
            for v in frontier:
                grown |= adj[v]
            frontier = grown - comp - removed
            comp |= frontier
        comps.append(frozenset(comp))
        todo -= comp
    return comps


def enumerate_separations_reference(
    g: Graph, max_order: int, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[Separation]:
    """The separations of order <= max_order of a connected g, canonical,
    sorted by (order, sort key): every bipartition of the components of
    g - S, for each candidate S in `combinations` order, built and validated
    by the public constructor. No slot; the budget counts candidates."""
    verts = sorted(g.vertices)
    out: list[Separation] = []
    examined = 0
    for size in range(max_order + 1):
        for sep_tuple in combinations(verts, size):
            examined += 1
            if examined > budget:
                raise BudgetExceededError("separator candidates", budget)
            separator = frozenset(sep_tuple)
            comps = components_reference(g, separator)
            if not comps:
                out.append(Separation(g, separator, separator))  # A == B: canonical
                continue
            rest = comps[1:]
            # first component pinned to the left side; this halves the
            # bipartitions and enumerates each unordered pair exactly once
            for mask in range(1 << len(rest)):
                left = set(comps[0])
                right: set[str] = set()
                for i, comp in enumerate(rest):
                    (left if mask >> i & 1 else right).update(comp)
                sep = Separation(g, frozenset(left) | separator, frozenset(right) | separator)
                out.append(sep.canonical())
    out.sort(key=lambda s: (s.order, s.sort_key))
    return out


def min_cut_brute(g: Graph, s: frozenset[str], t: frozenset[str]) -> int:
    """Smallest vertex set (possibly meeting s and t) whose removal leaves
    no s-t path; single vertices of s & t count as paths."""
    verts = sorted(g.vertices)
    for size in range(len(verts) + 1):
        for cut in combinations(verts, size):
            cut = frozenset(cut)
            if _connects(g, s - cut, t - cut, cut):
                continue
            return size
    return len(verts)


def _connects(g: Graph, s: frozenset[str], t: frozenset[str], removed: frozenset[str]) -> bool:
    if s & t:
        return True
    if not s or not t:
        return False
    seen = set(s)
    queue = list(s)
    while queue:
        v = queue.pop()
        for w in g.adjacency[v]:
            if w in removed or w in seen:
                continue
            if w in t:
                return True
            seen.add(w)
            queue.append(w)
    return False


def _consistent_brute(chosen: list[Separation]) -> bool:
    for x in chosen:
        for y in chosen:
            if x.canonical() == y.canonical():
                continue
            if leq(x.reverse(), y):
                return False
    return True


def _covers_brute(g: Graph, triple) -> bool:
    vs = frozenset().union(*(o.side_a for o in triple))
    if vs != g.vertices:
        return False
    es = frozenset().union(*(g.edges_within(o.side_a) for o in triple))
    return es == g.edges


def all_tangles_brute(g: Graph, k: int, seps: list[Separation]) -> list[Tangle]:
    """Naive backtracking over complete orientations with full re-scans."""
    results: list[Tangle] = []
    chosen: list[Separation] = []

    def ok_so_far() -> bool:
        if not _consistent_brute(chosen):
            return False
        n = len(chosen)
        for i in range(n):
            for j in range(i, n):
                for l in range(j, n):
                    if _covers_brute(g, (chosen[i], chosen[j], chosen[l])):
                        return False
        return True

    def rec(i: int):
        if i == len(seps):
            choices = {
                sep: ("b" if o.side_b == sep.side_b else "a")
                for sep, o in zip(seps, chosen)
            }
            results.append(Tangle(g, k, choices))
            return
        for toward in ("b", "a"):
            chosen.append(seps[i].orient(toward))
            if ok_so_far():
                rec(i + 1)
            chosen.pop()

    rec(0)
    return results


def tangle_search_reference(g: Graph, k: int) -> tuple[list[Tangle], int]:
    """(tangles of order k, search nodes) by the list-scan search.

    It visits orientations in the library's order, one node per orientation
    tried, and keeps the chosen orientations with inclusion-maximal side A.
    Each new orientation is tested for consistency against every chosen one
    and, unless a kept side A contains its own, for a covering triple against
    every pair of it and a kept member, with no size cutoff; it enters the
    kept list by a linear insertion scan.
    """
    seps = enumerate_separations(g, k - 1)
    edges = sorted(g.edges)
    all_vertices = g.mask(g.vertices)
    all_edges = (1 << len(edges)) - 1

    def encode(a: frozenset[str], b: frozenset[str]) -> tuple[int, int, int, int]:
        inside = sum(1 << j for j, (u, v) in enumerate(edges) if u in a and v in a)
        return (g.mask(a), g.mask(b), inside, len(a))

    def covered(pool: list[tuple], x: tuple) -> bool:
        return any(
            x[0] | y[0] | z[0] == all_vertices and x[2] | y[2] | z[2] == all_edges
            for y in pool
            for z in pool
        )

    encoded = [(encode(s.side_a, s.side_b), encode(s.side_b, s.side_a)) for s in seps]
    results: list[Tangle] = []
    chosen: list[tuple] = []
    maximal: list[tuple] = []
    undo: list[list[tuple]] = []
    nodes = 0

    def admit(new: tuple) -> list[tuple] | None:
        a, b, _, size = new
        for c, d, _, _ in chosen:
            if not (b & ~c or d & ~a):
                return None
        for m in maximal:
            if not a & ~m[0]:
                return maximal
        pool = [m for m in maximal if m[0] & ~a]
        pos = 0
        while pos < len(pool) and pool[pos][3] >= size:
            pos += 1
        pool.insert(pos, new)
        return None if covered(pool, new) else pool

    stack = [0]
    while stack:
        i = len(stack) - 1
        if i == len(seps):
            choices = {sep: "ba"[picked - 1] for sep, picked in zip(seps, stack)}
            results.append(Tangle(g, k, choices))
        elif stack[i] < 2:
            nodes += 1
            new = encoded[i][stack[i]]
            stack[i] += 1
            grown = admit(new)
            if grown is not None:
                chosen.append(new)
                undo.append(maximal)
                maximal = grown
                stack.append(0)
            continue
        stack.pop()
        if i:
            chosen.pop()
            maximal = undo.pop()
    return results, nodes


def maximal_sides_reference(members: list[tuple]) -> list[tuple]:
    """The members, tuples with side A as a mask first and |A| fourth, with
    inclusion-maximal side A, one per side, by decreasing |A| (stable): each
    is tested against every member kept before it."""
    kept: list[tuple] = []
    for o in sorted(members, key=lambda o: -o[3]):
        if not any(not o[0] & ~m[0] for m in kept):
            kept.append(o)
    return kept


def witness_triple_reference(g: Graph, p: PreTangle):
    """`check_tangle`'s witness triple by list scans on frozensets: over the
    members with inclusion-maximal side A, by decreasing |A| (stable), the
    first (x, y, z) in that order, y not before x, that covers G, with no
    size cutoff."""
    kept: list[Separation] = []
    for o in sorted(p.oriented_members(), key=lambda o: -len(o.side_a)):
        if not any(o.side_a <= m.side_a for m in kept):
            kept.append(o)
    for i, x in enumerate(kept):
        for y in kept[i:]:
            for z in kept:
                if _covers_brute(g, (x, y, z)):
                    return (x, y, z)
    return None


def consistency_witness_reference(members) -> tuple[Separation, Separation] | None:
    """The first pair (x, y), y after x, with reverse(x) <= y, by a scan of
    every pair on frozensets."""
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            if x.side_b <= y.side_a and y.side_b <= x.side_a:
                return (x, y)
    return None


def _tail_vertex(w) -> str:
    return w.presentation.ray_tail_vertex(w.spine, w.window)


def orients_reference(t, sep: Separation) -> bool:
    """True where t orients sep, by name lookups. A pre-tangle orients the
    separations it has a choice for. A witness orients those below its order
    bound, less, for an end region, those whose separator holds the spine
    tail."""
    if isinstance(t, PreTangle):
        return sep in t.choices
    if sep.order >= t.order_bound:
        return False
    return t.kind == "clique" or _tail_vertex(t) not in sep.separator


def orient_reference(t, sep: Separation) -> Separation:
    """The orientation of sep in t, by name lookups, else the
    OrientationUndecidableError of `orient`. A witness names an anchor
    vertex, the least clique vertex outside the separator or the spine
    tail, and points to the side holding it; a clique witness raises if
    that side does not hold the whole clique."""
    domain = f"separation of order {sep.order} outside this order-{t.order_bound} domain"
    if isinstance(t, PreTangle):
        if sep not in t.choices:
            raise OrientationUndecidableError(domain)
        return sep.orient(t.choices[sep])
    if sep.order >= t.order_bound:
        raise OrientationUndecidableError(domain)
    if t.kind == "clique":
        anchor = min(t.clique - sep.separator)
    else:
        anchor = _tail_vertex(t)
        if anchor in sep.separator:
            raise OrientationUndecidableError(
                "spine tail meets the separator; end_region undecidable in this window"
            )
    oriented = sep.orient("a" if anchor in sep.side_a else "b")
    if t.kind == "clique" and not t.clique <= oriented.side_b:
        raise OrientationUndecidableError("separation splits the witness clique strictly")
    return oriented


def splits_reference(sep: Separation, p, q) -> bool:
    """sep lies below both order bounds, and p and q both orient it, to
    opposite orientations."""
    return (
        sep.order < min(p.order_bound, q.order_bound)
        and orients_reference(p, sep)
        and orients_reference(q, sep)
        and orient_reference(p, sep) != orient_reference(q, sep)
    )


def distinguishes_reference(sep: Separation, p, q) -> bool:
    """p and q orient sep oppositely; raises outside the common domain."""
    if sep.order >= min(p.order_bound, q.order_bound):
        raise OrientationUndecidableError(f"order {sep.order} outside the common domain")
    return orient_reference(p, sep) != orient_reference(q, sep)


def min_distinguishing_order_brute(g: Graph, p: PreTangle, q: PreTangle) -> int | None:
    """Scan subsets as separators, ascending, for the first distinguishing
    separation inside the common domain."""
    bound = min(p.order_bound, q.order_bound)
    verts = sorted(g.vertices)
    for size in range(bound):
        for cand in combinations(verts, size):
            separator = frozenset(cand)
            comps = components_reference(g, separator)
            if not comps:
                continue
            rest = comps[1:]
            for mask in range(1 << len(rest)):
                left = set(comps[0])
                right: set[str] = set()
                for i, comp in enumerate(rest):
                    (left if mask >> i & 1 else right).update(comp)
                sep = Separation(
                    g, frozenset(left) | separator, frozenset(right) | separator
                ).canonical()
                if p.orient(sep) != q.orient(sep):
                    return size
    return None


def clique_pair_separable_below(
    g: Graph, k_core: frozenset[str], l_core: frozenset[str], upto: int
) -> int | None:
    """Least separator size <= upto splitting the cliques, by raw subset
    scan; None when every subset of size <= upto leaves them connected."""
    verts = sorted(g.vertices)
    for size in range(upto + 1):
        for cand in combinations(verts, size):
            cut = frozenset(cand)
            if not _connects(g, k_core - cut, l_core - cut, cut):
                return size
    return None


def min_order_distinguishers_brute(g, p, q, seps) -> list[Separation]:
    """All minimum-order separations distinguishing p and q, from a
    pre-computed full brute-force separation list."""
    bound = min(p.order_bound, q.order_bound)
    hits = [
        s
        for s in sorted(seps, key=lambda s: (s.order, s.sort_key))
        if s.order < bound and p.orient(s) != q.orient(s)
    ]
    if not hits:
        return []
    best = hits[0].order
    return [s for s in hits if s.order == best]


def consistent_orientations_brute(g: Graph, members: list[Separation]):
    """(nodes, edges, bags) of the tree-decomposition a nested set induces,
    by sweeping all 2^|N| orientations of the members for the consistent
    ones and joining those that differ in exactly one member. Node names
    and bags follow `induce_tree_decomposition`."""
    ms = sorted(members, key=lambda s: s.sort_key)
    both = [(m.orient("a"), m.orient("b")) for m in ms]  # each the other's reverse
    pairs = [(i, j) for i in range(len(ms)) for j in range(len(ms)) if i != j]
    nodes = []
    for mask in range(1 << len(ms)):
        bits = [mask >> i & 1 for i in range(len(ms))]
        if not any(leq(both[i][1 - bits[i]], both[j][bits[j]]) for i, j in pairs):
            nodes.append([both[i][bit] for i, bit in enumerate(bits)])
    names = []
    bags = {}
    for oriented in nodes:
        name = "n" + "".join("1" if o.side_b == m.side_b else "0" for o, m in zip(oriented, ms))
        names.append(name)
        bags[name] = g.vertices.intersection(*(o.side_b for o in oriented))
    edges = []
    for (a, x), (b, y) in combinations(zip(names, nodes), 2):
        if sum(o != p for o, p in zip(x, y)) == 1:
            edges.append((min(a, b), max(a, b)))
    return tuple(sorted(names)), tuple(sorted(edges)), bags


def nested_efficient_subsets_exist(g, tangles, pair_candidates) -> bool:
    """Exhaustive check that some pairwise nested choice of per-pair
    minimum-order distinguishers covers every distinguishable pair."""
    from tangletree.separations import relation

    pairs = sorted(pair_candidates)

    def search(idx: int, members: list) -> bool:
        if idx == len(pairs):
            return True
        if any(m in pair_candidates[pairs[idx]] for m in members):
            return search(idx + 1, members)
        for cand in pair_candidates[pairs[idx]]:
            if all(relation(cand, m).nested for m in members):
                if search(idx + 1, members + [cand]):
                    return True
        return False

    return search(0, [])


class _FlowNetwork:
    """Split-vertex unit-capacity network for vertex-disjoint path search.

    Every graph vertex v becomes an arc v_in -> v_out of capacity one;
    adjacency contributes u_out -> v_in both ways. Sources attach at v_in,
    targets leave from v_out, so a source that is also a target yields the
    trivial one-vertex path.
    """

    SRC = ("src", "")
    SNK = ("snk", "")

    def __init__(self, g: Graph, sources: frozenset[str], targets: frozenset[str]):
        self.g = g
        self.sources = sources
        self.targets = targets
        cap: dict[tuple, dict[tuple, int]] = {}
        big = len(g.vertices) + 1  # only vertex arcs may be cut

        def arc(a, b, c):
            cap.setdefault(a, {})[b] = c
            cap.setdefault(b, {}).setdefault(a, 0)

        for v in sorted(g.vertices):
            arc(("in", v), ("out", v), 1)
        for u, v in sorted(g.edges):
            arc(("out", u), ("in", v), big)
            arc(("out", v), ("in", u), big)
        for v in sorted(sources):
            arc(self.SRC, ("in", v), big)
        for v in sorted(targets):
            arc(("out", v), self.SNK, big)
        cap.setdefault(self.SRC, {})
        cap.setdefault(self.SNK, {})
        self.cap = cap
        self.flow: dict[tuple, dict[tuple, int]] = {
            a: {b: 0 for b in nbrs} for a, nbrs in cap.items()
        }

    def _residual_neighbors(self, node):
        for b in sorted(self.cap[node]):
            if self.cap[node][b] - self.flow[node][b] > 0:
                yield b

    def _augment_once(self) -> bool:
        prev: dict[tuple, tuple] = {self.SRC: self.SRC}
        queue = [self.SRC]
        while queue:
            node = queue.pop(0)
            if node == self.SNK:
                break
            for b in self._residual_neighbors(node):
                if b not in prev:
                    prev[b] = node
                    queue.append(b)
        if self.SNK not in prev:
            return False
        node = self.SNK
        while node != self.SRC:
            p = prev[node]
            self.flow[p][node] += 1
            self.flow[node][p] -= 1
            node = p
        return True

    def max_flow(self) -> int:
        value = 0
        while self._augment_once():
            value += 1
        return value

    def paths(self) -> list[list[str]]:
        """Decompose the integral flow into vertex-disjoint paths."""
        out: list[list[str]] = []
        for start in sorted(self.sources):
            if self.flow[self.SRC].get(("in", start), 0) <= 0:
                continue
            path = [start]
            node = ("out", start)
            while self.flow[node].get(self.SNK, 0) <= 0:
                nxt = None
                for b in sorted(self.flow[node]):
                    if self.flow[node][b] > 0:
                        nxt = b
                        break
                assert nxt is not None, "flow decomposition lost its way"
                path.append(nxt[1])
                node = ("out", nxt[1])
            out.append(path)
        return out

    def min_cut_vertices(self) -> frozenset[str]:
        """Leftmost minimum vertex cut via residual reachability."""
        reach = {self.SRC}
        queue = [self.SRC]
        while queue:
            node = queue.pop(0)
            for b in self._residual_neighbors(node):
                if b not in reach:
                    reach.add(b)
                    queue.append(b)
        cut = set()
        for v in self.g.vertices:
            if ("in", v) in reach and ("out", v) not in reach:
                cut.add(v)
        return frozenset(cut)


def flow_reference(g: Graph, s: frozenset[str], t: frozenset[str]):
    """(paths, cut) from the tuple-keyed reference network above, which
    scans its residual arcs in sorted key order; s and t non-empty."""
    net = _FlowNetwork(g, frozenset(s), frozenset(t))
    net.max_flow()
    return net.paths(), net.min_cut_vertices()


def _reference_paths(g: Graph, s: frozenset[str], t: frozenset[str]) -> tuple:
    """The paths of `flow_reference` as tuples; none when a side is empty."""
    if not s or not t:
        return ()
    return tuple(tuple(path) for path in flow_reference(g, s, t)[0])


def teeth_paths_reference(g: Graph, spine: tuple[str, ...], targets: frozenset[str]) -> list:
    """Comb teeth through a port graph: the spine is replaced by one port
    per spine vertex, adjacent to that vertex's off-spine neighbours only,
    so no path can pass a second spine vertex; spine vertices in the target
    set are their own trivial paths, listed first in spine order."""
    spine_set = frozenset(spine)
    rest = g.vertices - spine_set
    # longer than every vertex name, so no port can collide with a vertex
    prefix = "@" * (1 + max(map(len, g.vertices), default=0))
    vertices = set(rest)
    edges = [e for e in g.edges if e[0] in rest and e[1] in rest]
    for v in spine:
        vertices.add(prefix + v)
        edges += [(prefix + v, x) for x in sorted(g.adjacency[v] & rest)]
    aux = Graph.from_data(vertices, edges)
    ports = frozenset(prefix + v for v in spine)
    found = _reference_paths(aux, ports, frozenset(targets) - spine_set)
    trivial = [(v,) for v in spine if v in targets]
    return trivial + [(path[0][len(prefix):],) + path[1:] for path in found]


def paths_from_base_reference(g: Graph, base, region, targets) -> tuple:
    """Disjoint base-to-target paths in the graph induced by base | region,
    less the edges inside base, built as a graph of its own."""
    base = frozenset(base)
    vertices = frozenset(region) | base
    edges = [e for e in g.edges_within(vertices) if not (e[0] in base and e[1] in base)]
    return _reference_paths(Graph.from_data(vertices, edges), base, frozenset(targets) & vertices)


def tight_components_reference(g: Graph, x) -> list[frozenset[str]]:
    """Components K of g - x with N_G(K) == x, by a loop over frozensets."""
    x = frozenset(x)
    return [k for k in components_reference(g, x) if g.neighbourhood(k) == x]


def _leq_sets(s: Separation, t: Separation) -> bool:
    """(A, B) <= (C, D) iff A <= C and B >= D, on the frozenset sides."""
    return s.side_a <= t.side_a and s.side_b >= t.side_b


def _leq_corner_sets(s: Separation, t: Separation) -> bool:
    """Corner form of <= : (A & D) - S empty, S = (A & B) & (C & D)."""
    shared = s.separator & t.separator
    return not ((s.side_a & t.side_b) - shared)


def relation_reference(s: Separation, t: Separation) -> Relation:
    """`relation` computed on frozenset sides: both tests on every ordered
    orientation pair, the first comparable pair found as the witness."""
    s_or = (s, s.reverse())
    t_or = (t, t.reverse())
    witness = None
    any_comparable = False
    for so in s_or:
        for to in t_or:
            by_def = _leq_sets(so, to)
            by_corner = _leq_corner_sets(so, to)
            if by_def != by_corner:
                raise InternalCheckError(
                    f"corner test disagrees with definition on {so!r} vs {to!r}"
                )
            if by_def:
                any_comparable = True
                if witness is None:
                    witness = (so, to)
            if _leq_sets(to, so) != _leq_corner_sets(to, so):
                raise InternalCheckError(
                    f"corner test disagrees with definition on {to!r} vs {so!r}"
                )
            if witness is None and _leq_sets(to, so):
                any_comparable = True
                witness = (to, so)
    return Relation(any_comparable, witness)


def relation_eight_way(s: Separation, t: Separation) -> Relation:
    """`relation` as an eight-comparison loop on masks: both tests on every
    ordered orientation pair, in both directions, the first comparable pair
    found as the witness."""
    _ambient(s.graph, t)
    witness = None
    for so in s.orientations():
        a, b = so.masks
        for to in t.orientations():
            c, d = to.masks
            below = _leq(a, b, c, d)
            above = _leq(c, d, a, b)
            if below != _leq_corner(a, b, c, d) or above != _leq_corner(c, d, a, b):
                raise InternalCheckError(
                    f"corner test disagrees with definition between {so!r} and {to!r}"
                )
            if witness is None and (below or above):
                witness = (so, to) if below else (to, so)
    return Relation(witness is not None, witness)


def _finish_reference(family, params, raw_layers, rays, cliques=()) -> LayeredPresentation:
    """Drop the shadow layer h + 1, computing each boundary from its successor."""
    layers = raw_layers[:-1]
    boundaries = []
    for m, g in enumerate(layers):
        old = g.vertices
        bd = set()
        for u, v in raw_layers[m + 1].edges:
            if (u in old) != (v in old):
                bd.add(u if u in old else v)
        boundaries.append(frozenset(bd))
    return LayeredPresentation(
        family, params, len(layers) - 1, tuple(layers), tuple(boundaries), rays, cliques
    )


def _clique_chain_reference(params: dict) -> LayeredPresentation:
    h, sizes = params["horizon"], params.get("sizes")
    top = h + 1  # shadow level used to compute boundary(h)

    def clique_members(n: int) -> list[str]:
        if sizes is None:
            c_n = 2 ** (n + 4)
        else:
            c_n = sizes[n] if n < len(sizes) else 3 * 2**n
        entries = ["u:0:1"] if n == 0 else [f"v:{n-1}:{i}" for i in range(1, 2**n + 1)]
        exits = [f"v:{n}:{i}" for i in range(1, 2 ** (n + 1) + 1)]
        privates = [f"p:{n}:{j}" for j in range(1, c_n - len(entries) - len(exits) + 1)]
        return entries + exits + privates

    cliques = [frozenset(clique_members(n)) for n in range(top + 1)]
    raw_layers = []
    for m in range(top + 1):
        vertices: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for n in range(m + 1):
            members = sorted(cliques[n])
            vertices.update(members)
            edges.update(combinations(members, 2))
        for n in range(m + 1):
            for j in range(m + 1):
                vertices.add(f"r:{n}:{j}")
                if j > 0:
                    edges.add((f"r:{n}:{j-1}", f"r:{n}:{j}"))
                if j >= n:
                    edges.add((f"r:{n}:{j}", f"v:{j}:1"))
        raw_layers.append(Graph.from_data(vertices, edges))
    rays = tuple(
        (f"R{n}", tuple(f"r:{n}:{j}" for j in range(h + 1))) for n in range(h + 1)
    )
    return _finish_reference("clique_chain", params, raw_layers, rays, tuple(cliques[: h + 1]))


def _ray_reference(params: dict) -> LayeredPresentation:
    h = params["horizon"]
    raw_layers = []
    for m in range(h + 2):
        vs = [f"r:0:{j}" for j in range(m + 1)]
        es = [(f"r:0:{j}", f"r:0:{j+1}") for j in range(m)]
        raw_layers.append(Graph.from_data(vs, es))
    rays = (("R0", tuple(f"r:0:{j}" for j in range(h + 1))),)
    return _finish_reference("ray", params, raw_layers, rays)


def _double_ray_reference(params: dict) -> LayeredPresentation:
    h = params["horizon"]
    raw_layers = []
    for m in range(h + 2):
        vs = [f"r:0:{j}" for j in range(m + 1)] + [f"l:0:{j}" for j in range(m + 1)]
        es = [(f"r:0:{j}", f"r:0:{j+1}") for j in range(m)]
        es += [(f"l:0:{j}", f"l:0:{j+1}") for j in range(m)]
        es.append(("l:0:0", "r:0:0"))
        raw_layers.append(Graph.from_data(vs, es))
    rays = (
        ("L0", tuple(f"l:0:{j}" for j in range(h + 1))),
        ("R0", tuple(f"r:0:{j}" for j in range(h + 1))),
    )
    return _finish_reference("double_ray", params, raw_layers, rays)


def _grid_reference(params: dict) -> LayeredPresentation:
    h, width = params["horizon"], params.get("width", 3)
    raw_layers = []
    for m in range(h + 2):
        vs = [f"g:{x}:{y}" for x in range(m + 1) for y in range(width)]
        es = []
        for x in range(m + 1):
            for y in range(width):
                if x < m:
                    es.append((f"g:{x}:{y}", f"g:{x+1}:{y}"))
                if y < width - 1:
                    es.append((f"g:{x}:{y}", f"g:{x}:{y+1}"))
        raw_layers.append(Graph.from_data(vs, es))
    rays = tuple(
        (f"row{y}", tuple(f"g:{x}:{y}" for x in range(h + 1))) for y in range(width)
    )
    return _finish_reference("grid", params, raw_layers, rays)


def _binary_tree_reference(params: dict) -> LayeredPresentation:
    h = params["horizon"]
    raw_layers = []
    for m in range(h + 2):
        vs = ["b:r" + "".join(bits) for d in range(m + 1) for bits in _bit_strings(d)]
        es = [(v[:-1], v) for v in vs if len(v) > 3]  # every vertex but the root "b:r"
        raw_layers.append(Graph.from_data(vs, es))
    rays = (
        ("L", tuple("b:r" + "0" * d for d in range(h + 1))),
        ("R", tuple("b:r" + "1" * d for d in range(h + 1))),
    )
    return _finish_reference("binary_tree", params, raw_layers, rays)


def _bit_strings(d: int) -> list[list[str]]:
    if d == 0:
        return [[]]
    return [bits + [b] for bits in _bit_strings(d - 1) for b in ("0", "1")]


_FAMILY_REFERENCES = {
    "clique_chain": _clique_chain_reference,
    "ray": _ray_reference,
    "double_ray": _double_ray_reference,
    "grid": _grid_reference,
    "binary_tree": _binary_tree_reference,
}


def family_reference(name: str, params: dict) -> LayeredPresentation:
    """`generate_family` on valid parameters, building every layer and a
    shadow layer h + 1 from scratch and reading each boundary off the
    successor layer's edges."""
    return _FAMILY_REFERENCES[name](dict(params))
