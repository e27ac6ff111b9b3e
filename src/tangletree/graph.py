"""Finite simple undirected graphs and the search primitives built on them.

Vertices are opaque strings with the global lexicographic order; every
set-valued result is emitted in a canonical order (components sorted by their
minimal vertex, paths listed source-first) so repeated runs are reproducible
byte for byte.

Disjoint path computation uses unit-vertex-capacity max-flow on the
split-vertex digraph, so its cardinality equals the minimum vertex cut
between the two terminal sets (Menger duality); tests check this against
brute-force cut enumeration on small graphs. One solver, `_solve`, serves
`disjoint_paths`, `minimum_separator` and the flows of the end evidence;
it takes vertex masks and returns its cut as one. Its breadth-first
search pops an in-node and expands the out-node it leads to in one step,
finds the new in-nodes with one mask operation on the closed
neighbourhoods, lowest bit first, and stops as soon as it discovers an
unused vertex of t, which is the one it would pop first. It never
expands a t vertex's out-node, so a used t vertex ends its path and keeps
its unit, and one mask tracks the unused ones. So the emitted paths and
the leftmost cut follow from the sorted vertex order alone, and tests pin
them to a tuple-keyed reference network and to a digest of a seeded
corpus of solves. A vertex mask restricts a solve to an induced subgraph
without building one: vertices outside it are never entered and never
cut. The tangle search restricts itself to a block of G the same way: a
block is a mask, searched on G's own neighbourhood tables, and no `Graph`
is built for it. A cap stops a solve after that many paths, for callers
that only ask whether there are so many. Each graph memoizes the
(paths, cut) of every solve by its masks s, t and `within` and its cap.
In the same order, vertex sets are int bitmasks (`Graph.mask`); one flood
fill, `_flood`, finds the components of G - S as masks for `components`,
`tight_components`, `Graph.is_connected` (once per graph) and separation
enumeration, which keeps them for the tangle search. Frozensets of names
are the boundary only: a `Graph`'s fields and `adjacency`, and the
arguments and results of the public calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Iterable

from .errors import GraphFormatError, PreconditionError, UnknownVertexError

Vertex = str
Edge = tuple[str, str]


def _edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph over non-empty string vertex names.

    Construct through :meth:`from_data` (which normalizes edge tuples) or
    :meth:`loads`; the raw constructor expects pre-normalized frozensets.
    """

    vertices: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        bad = [v for v in _checked(self.vertices, kind=frozenset) if not isinstance(v, str) or not v]
        if bad:  # as in a graph document: names are sorted and written as JSON strings
            raise GraphFormatError(f"vertex must be a non-empty string, got {_least(bad)!r}", context="vertices")
        for edge in _checked(self.edges, kind=frozenset):
            if type(edge) is not tuple or len(edge) != 2:
                raise GraphFormatError(f"edge {edge!r} is not a pair of vertices", context="edges")
            u, v = edge
            if u not in self.vertices or v not in self.vertices:
                raise GraphFormatError(
                    f"edge ({u!r}, {v!r}) has an undeclared endpoint",
                    context="edges",
                )
            if u == v:
                raise GraphFormatError(f"loop edge at {u!r}", context="edges")
            if u > v:
                raise GraphFormatError(
                    f"edge ({u!r}, {v!r}) not normalized", context="edges"
                )
        object.__setattr__(self, "_hash", hash((self.vertices, self.edges)))

    @classmethod
    def from_data(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        try:
            return cls(frozenset(vertices), frozenset(_edge(u, v) for u, v in edges))
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"graph data must be an iterable of names and one of name pairs: {exc}") from None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, |E|={len(self.edges)})"

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    @cached_property
    def _vertex_index(self) -> tuple[list[str], dict[str, int], list[int]]:
        """Sorted vertex names, their indices, and each vertex's closed
        neighbourhood as a mask: the one vertex order that `_solve`'s mask
        frontier, `_flood` and the bitmask sides of separations share."""
        names = sorted(self.vertices)
        index = {v: i for i, v in enumerate(names)}
        closed = [1 << i for i in range(len(names))]
        for u, v in self.edges:
            closed[index[u]] |= 1 << index[v]
            closed[index[v]] |= 1 << index[u]
        return names, index, closed

    @cached_property
    def _flow_memo(self) -> dict:
        """(paths, cut) by the masks (s, t, within) and the cap, filled by
        `_solve`; lives as long as the graph."""
        return {}

    def mask(self, vs: Iterable[str]) -> int:
        """vs as an int with bit i set for the i-th vertex in sorted order,
        checked as `_mask` checks it."""
        return _mask(self, vs, "a vertex set")

    def neighbors(self, v: str) -> frozenset[str]:
        if v not in self.vertices:
            raise UnknownVertexError(v)
        return self.adjacency[v]

    def neighbourhood(self, vs: Iterable[str]) -> frozenset[str]:
        """N_G(vs): neighbors of the set, excluding the set itself, read off
        the closed neighbourhood masks."""
        names, _, closed = self._vertex_index
        vs = self.mask(vs)
        return frozenset(_select(names, reduce(or_, _select(closed, vs), 0) & ~vs))

    def has_edge(self, u: str, v: str) -> bool:
        return _edge(u, v) in self.edges

    def induced(self, vs: Iterable[str]) -> "Graph":
        vs = _vertex_set(self, vs, "vs")
        return Graph(vs, self.edges_within(vs))

    def edges_within(self, vs: frozenset[str]) -> frozenset[Edge]:
        return frozenset(e for e in self.edges if e[0] in vs and e[1] in vs)

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        return len(_flood(self, 0)) == 1

    # -- document format: {"vertices": [...], "edges": [[a, b], ...]} --

    @classmethod
    def loads(cls, text: str) -> "Graph":
        return load_graph(text)

    def dumps(self) -> str:
        doc = {
            "edges": sorted([list(e) for e in self.edges]),
            "vertices": sorted(self.vertices),
        }
        return json.dumps(doc, sort_keys=True)


def load_graph(text: str) -> Graph:
    """Parse a graph document, reporting malformed input with context."""
    try:
        doc = json.loads(_checked(text, kind=str))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"invalid JSON: {exc.msg}", context=f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    return _graph_of_document(doc)


def _graph_of_document(doc) -> Graph:
    """The graph of a decoded graph document, as `load_graph` gives it from
    the text, reporting malformed input with the same context."""
    if not isinstance(doc, dict):
        raise GraphFormatError("document must be a JSON object", context="top level")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise GraphFormatError(f"missing {key!r} field", context="top level")
        if not isinstance(doc[key], list):
            raise GraphFormatError(f"{key!r} must be a list", context=key)
    vertices: list[str] = []
    for i, v in enumerate(doc["vertices"]):
        if not isinstance(v, str) or not v:
            raise GraphFormatError(
                f"vertex must be a non-empty string, got {v!r}",
                context=f"vertices[{i}]",
            )
        vertices.append(v)
    vset = set(vertices)
    if len(vertices) != len(vset):
        dup = sorted(v for v in vset if vertices.count(v) > 1)[0]
        raise GraphFormatError(f"duplicate vertex {dup!r}", context="vertices")
    edges: set[Edge] = set()
    for i, e in enumerate(doc["edges"]):
        ctx = f"edges[{i}]"
        if not (isinstance(e, list) and len(e) == 2):
            raise GraphFormatError("edge must be a pair", context=ctx)
        u, v = e
        if not (isinstance(u, str) and isinstance(v, str)):
            raise GraphFormatError("edge endpoints must be strings", context=ctx)
        if u == v:
            raise GraphFormatError(f"loop edge at {u!r}", context=ctx)
        if u not in vset:
            raise GraphFormatError(f"unknown endpoint {u!r}", context=ctx)
        if v not in vset:
            raise GraphFormatError(f"unknown endpoint {v!r}", context=ctx)
        norm = _edge(u, v)
        if norm in edges:
            raise GraphFormatError(f"duplicate edge {u!r}-{v!r}", context=ctx)
        edges.add(norm)
    return Graph(frozenset(vset), frozenset(edges))


def _as_json(value, what: str, kind: type = list):
    """value, which a document must give as a JSON list (or, for kind dict,
    an object): read as a list, a string would stand for its characters."""
    if not isinstance(value, kind):
        shape = "a list" if kind is list else "an object"
        raise GraphFormatError(f"{what} must be {shape}, got {type(value).__name__}")
    return value


def _field(doc: dict, key: str):
    """doc[key], where a document that lacks it is a format error."""
    if key not in doc:
        raise GraphFormatError(f"missing {key!r} field")
    return doc[key]


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _select(items: list, mask: int):
    """The items at the set bits of mask, lowest first: the binary digits of
    mask, reversed, select them."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


def _flood(g: Graph, removed: int) -> list[int]:
    """Components of g - removed as masks, lowest bit (minimal vertex) first.
    Each round grows a component by the neighbourhoods of its newest vertices."""
    closed = g._vertex_index[2]
    todo = ((1 << len(closed)) - 1) & ~removed
    comps = []
    while todo:
        comp = frontier = todo & -todo
        todo ^= comp
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= closed[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & todo
            todo ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


def components(g: Graph, removed: Iterable[str] = ()) -> list[frozenset[str]]:
    """Connected components of g - removed, sorted by minimal vertex."""
    names = _checked(g)._vertex_index[0]
    return [frozenset(_select(names, c)) for c in _flood(g, g.mask(removed))]


def tight_components(g: Graph, x: Iterable[str]) -> list[frozenset[str]]:
    """Components K of g - x with N_G(K) exactly equal to x, decided on
    masks: the closed neighbourhoods of K's vertices, less K, make up x."""
    names = _checked(g)._vertex_index[0]
    return [frozenset(_select(names, k)) for k in _tight(g, g.mask(x))]


def _tight(g: Graph, x: int) -> list[int]:
    """The masks of the components K of g - x with N(K) = x."""
    closed = g._vertex_index[2]
    return [k for k in _flood(g, x) if reduce(or_, _select(closed, k), 0) ^ k == x]


def _checked(value, kind: type = Graph):
    """value, which a public call takes as a `kind` (a Graph unless named):
    anything else raises PreconditionError naming the type it got. Run once
    per public call, before the value is read."""
    if not isinstance(value, kind):
        raise PreconditionError(f"expected a {kind.__name__}, got {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    """value, which a public call takes as the integer `what`: anything
    else, a bool too, raises PreconditionError. Run once per call, before
    value is compared."""
    if type(value) is not int:
        raise PreconditionError(f"{what} must be an integer, got {value!r}")
    return value


def _ordered(names) -> list:
    """Names sorted; names that cannot be compared (such as str and int
    mixed) sorted by repr."""
    try:
        return sorted(names)
    except TypeError:
        return sorted(names, key=repr)


def _least(names):
    """The least of a set of names, in `_ordered`'s order."""
    return _ordered(names)[0]


def _mask(g: Graph, vs: Iterable[str], what: str) -> int:
    """vs, which a public call takes as `what`, as a mask of g's vertices.
    A name g lacks raises UnknownVertexError (the least such name); a vs
    that is None, is not iterable or holds an unhashable item,
    PreconditionError naming `what`."""
    index = g._vertex_index[1]
    mask = 0
    try:
        try:
            for v in vs:
                mask |= 1 << index[v]
        except KeyError as exc:
            raise UnknownVertexError(_least({exc.args[0], *vs}.difference(index))) from None
    except TypeError as exc:
        raise PreconditionError(f"{what} must be an iterable of vertex names: {exc}") from None
    return mask


def _vertex_set(g: Graph, vs: Iterable[str], what: str) -> frozenset[str]:
    """vs as a set of g's vertices, checked as `_mask` checks it."""
    return frozenset(_select(g._vertex_index[0], _mask(g, vs, what)))


def _names(vs: Iterable[str], what: str) -> frozenset[str]:
    """vs as a set of names that need not lie in any one graph: a vs that is
    None, is not iterable or holds an unhashable item raises
    PreconditionError naming `what`, as `_mask` does."""
    try:
        return frozenset(vs)
    except TypeError as exc:
        raise PreconditionError(f"{what} must be an iterable of vertex names: {exc}") from None


def _solve(g: Graph, s: int, t: int, within: int | None = None, cap: int | None = None):
    """(paths, cut) of the unit-vertex-capacity max flow from the mask s to
    the mask t in the subgraph of g induced by the mask `within` (all of g
    when None); s and t must lie inside it. Paths are tuples of names, the
    cut a mask. With a cap, the flow stops after `cap` augmenting paths, so
    it finds min(cap, max flow) paths; the cut is then None if it stopped
    there. An empty s or t solves to ((), 0).

    The split-vertex network gives each vertex an in-node and an out-node,
    joined by an arc of capacity one; edges join out-nodes to in-nodes both
    ways, uncapped; the source feeds the in-nodes of s and the out-nodes of
    t feed the sink. Breadth-first search augments along one shortest path
    at a time.

    Since every vertex carries at most one unit, the flow is held as
    `into[v]`: the vertex whose out-node sends v its unit, `src` when the
    source does, or -1 when v carries none. That fixes every residual arc.
    An in-node has exactly one arc out: to its own out-node while v is
    unused, and otherwise back to the out-node its unit came from (back to
    the source leads nowhere). That out-node has the in-node as its only
    predecessor, so the search pops an in-node and expands the out-node in
    the same step. An out-node leads to the in-nodes of its closed
    neighbourhood (its own in-node only while v is used, and an unused v's
    in-node is always seen before its out-node) and, in t, to the sink.

    The frontier is a mask: `seen` holds the in-nodes reached so far,
    starting from the starts and every vertex outside `within` (so no path
    enters those and the cut leaves them out), and expanding an out-node
    queues the new in-nodes `closed[v] & ~seen`, lowest bit first. That is
    the order of a scan of the residual arcs by increasing vertex, so the
    paths and the cut follow from g's sorted vertex order alone, which
    inside a mask is the induced subgraph's own.

    The search never expands the out-node of a vertex of t, so no unit
    comes from a t vertex: a used t vertex ends its path, and like every
    vertex it keeps its unit. So `free_t`, the unused vertices of t, loses
    one bit per augmentation. The queue is first in, first out, so the
    first vertex of `free_t` a search would pop is the first it discovers:
    the search stops at its discovery, the lowest bit of the new in-nodes
    in `free_t`, without expanding what was queued before it. A start in
    t is popped before anything is expanded, so the first searches each
    end at the least unused such start; they are done up front, as
    one-vertex paths, up to the cap. So the augmenting paths, their order
    and the cut are those of a search that stops only on popping a vertex
    of `free_t`. The search that finds no augmenting path runs to the end
    and has reached exactly the source side of the leftmost minimum cut:
    the cut is the vertices whose in-node it reached and whose out-node it
    did not.

    Results are memoized on g by (s, t, within, cap), with an unrestricted
    call keyed by the full mask, so a capped solve is never served to an
    uncapped caller; the memo holds no flow state.
    """
    names, _, closed = g._vertex_index
    n = len(names)
    full = (1 << n) - 1
    if within is None:
        within = full
    key = (s, t, within, cap)
    memo = g._flow_memo
    solved = memo.get(key)
    if solved is not None:
        return solved
    src = n
    starts = list(_select(range(n), s))
    blocked = full & ~within | s
    free_t = t
    into = [-1] * n
    # the first searches, each ending at the least unused start in t
    trivial = list(_select(range(n), s & t))[:cap]
    for v in trivial:
        into[v] = src
        free_t ^= 1 << v
    flow = len(trivial)
    # the out-node vertex that reached each in-node (`src` for the starts),
    # and the in-node vertex that reached each out-node, in the latest
    # search: only the nodes on the path it finds are read back, so they
    # need no reset
    via_out = [src] * n
    via_in = [-1] * n
    while flow != cap:
        seen = blocked
        queue = starts.copy()
        last = -1
        for x in queue:  # the loop reads what it appends: first in, first out
            v = into[x]
            if v < 0:
                v = x
            elif v == src:
                continue
            via_in[v] = x
            new = closed[v] & ~seen
            hit = new & free_t
            if hit:
                last = (hit & -hit).bit_length() - 1
                via_out[last] = v
                via_in[last] = last
                break
            seen |= new
            while new:
                low = new & -new
                w = low.bit_length() - 1
                via_out[w] = v
                queue.append(w)
                new ^= low
        if last < 0:
            break
        # walk back from the sink: an arc from the source or another vertex's
        # out-node into in-node w now carries w's unit, and an arc from w's
        # in-node back to another out-node takes the old unit off; the arcs
        # between a vertex's own two nodes leave `into` as the rest set it
        v = last
        while True:
            w = via_in[v]
            if w != v:
                into[w] = -1
            v = via_out[w]
            if v == src:
                into[w] = src
                break
            if v != w:
                into[w] = v
        free_t ^= 1 << last
        flow += 1
    onward = [-1] * n
    for v, u in enumerate(into):
        if 0 <= u < n:
            onward[u] = v
    paths = []
    for v in starts:
        if into[v] != src:
            continue
        path = [names[v]]
        while onward[v] >= 0:
            v = onward[v]
            path.append(names[v])
        paths.append(tuple(path))
    cut = None
    if flow != cap:
        # the last search reached the out-node of each unused vertex whose
        # in-node it reached, and of a used vertex only through the in-node
        # its unit goes on to
        cut = sum(
            1 << v
            for v in _select(range(n), seen & within)
            if into[v] != -1 and not (onward[v] >= 0 and seen >> onward[v] & 1)
        )
    memo[key] = solved = (tuple(paths), cut)
    return solved


def disjoint_paths(g: Graph, s: Iterable[str], t: Iterable[str]) -> list[list[str]]:
    """Maximum family of pairwise vertex-disjoint s-t paths.

    Paths are fully vertex-disjoint, including their endpoints; a vertex in
    both s and t contributes a one-vertex path. Output is deterministic for
    a fixed input: paths are sorted by their first vertex.
    """
    return [list(path) for path in _solve(g, _mask(_checked(g), s, "s"), _mask(g, t, "t"))[0]]


def minimum_separator(g: Graph, s: Iterable[str], t: Iterable[str]) -> frozenset[str]:
    """A minimum s-t vertex cut (the leftmost one, hence deterministic).

    The cut may intersect s and t; its size equals len(disjoint_paths(g,s,t)).
    """
    cut = _solve(g, _mask(_checked(g), s, "s"), _mask(g, t, "t"))[1]
    return frozenset(_select(g._vertex_index[0], cut))

