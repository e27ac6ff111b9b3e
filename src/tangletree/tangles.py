"""Pre-tangles, tangles, their enumeration, and tangle distinguishers.

A pre-tangle of order k is a consistent orientation of every separation of
order < k: no two chosen orientations (A, B), (C, D) of distinct separations
satisfy (B, A) <= (C, D). A tangle additionally forbids any three chosen
orientations (repetition allowed) from covering the graph as subgraphs:
G[A1] | G[A2] | G[A3] = G, on vertices and edges.

Two representations share one orientation-query contract (`order_bound`,
`orient`, `graph`): the materialized PreTangle mapping, and the lazy
TangleWitness whose orientation is computed per query. Witnesses keep the
large generated graphs workable, where materializing every low-order
separation is out of reach.

Efficient distinguishers between two clique witnesses reduce to a minimum
vertex cut between the cliques (any separation splitting the cliques must
contain their shared vertices and block every connecting path, and
conversely every cut yields such a separation), so the search runs as
unit-capacity max-flow. Materialized pre-tangles are compared by direct
enumeration with an explicit budget instead.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    EmptyGraphError,
    FamilyParameterError,
    GraphFormatError,
    OrientationUndecidableError,
    PreconditionError,
)
from .graph import Graph, components, disjoint_paths, minimum_separator
from .separations import (
    DEFAULT_ENUMERATION_BUDGET,
    Separation,
    _leq,
    enumerate_separations,
)

DEFAULT_TANGLE_BUDGET = 500_000


@dataclass(frozen=True, eq=False)
class PreTangle:
    """Materialized consistent orientation of all separations of order < k."""

    graph: Graph
    order_bound: int
    choices: dict

    def __post_init__(self):
        items = tuple(sorted(self.choices.items(), key=lambda kv: kv[0].sort_key))
        key = tuple((s.sort_key, t) for s, t in items)
        object.__setattr__(self, "_items", items)  # the one sort of the choices
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((self.order_bound, key)))

    def __eq__(self, other):
        if not isinstance(other, PreTangle):
            return NotImplemented
        return self.order_bound == other.order_bound and self._key == other._key

    def __hash__(self):
        return self._hash

    @property
    def sort_key(self) -> tuple:
        return (self.order_bound, self._key)

    def orients(self, sep: Separation) -> bool:
        return sep in self.choices

    def orient(self, sep: Separation) -> Separation:
        toward = self.choices.get(sep)
        if toward is None:
            raise OrientationUndecidableError(
                f"separation of order {sep.order} outside this order-{self.order_bound} domain"
            )
        return sep.orient(toward)

    def oriented_members(self) -> tuple[Separation, ...]:
        """The chosen orientations in canonical separation order, sorted once."""
        return self._members

    @cached_property
    def _members(self) -> tuple[Separation, ...]:
        return tuple(s.orient(t) for s, t in self._items)

    def to_json(self) -> dict:
        return {
            "order_bound": self.order_bound,
            "orientation": [{"sep": s.to_json(), "toward": t} for s, t in self._items],
        }

    @classmethod
    def from_json(cls, g: Graph, doc: dict) -> "PreTangle":
        order_bound = doc["order_bound"]
        if type(order_bound) is not int or not 1 <= order_bound <= len(g.vertices) + 1:  # not bool
            raise GraphFormatError(f"order_bound must be an integer in 1..|V| + 1, got {order_bound!r}")
        choices = {}
        for entry in doc["orientation"]:
            sep, toward = Separation.from_json(g, entry["sep"]), entry["toward"]
            if toward not in ("a", "b"):
                raise GraphFormatError("toward must be 'a' or 'b'")
            canonical = sep.canonical()  # toward names a side as written
            choices[canonical] = "b" if sep.orient(toward) is canonical else "a"
        return cls(g, order_bound, choices)


class Tangle(PreTangle):
    """A pre-tangle that passed the covering-triple axiom."""


@dataclass(frozen=True, eq=False)
class TangleWitness:
    """Lazy orientation anchored to a cohesive substructure.

    kind == "clique": orients every separation of order < order_bound toward
    the side containing the clique; a clique is never split strictly, so for
    order < |clique| that side exists and is unique. The orientation is a
    genuine tangle when |clique| >= 3 * order_bound - 2 (see
    `tangle_guaranteed`); for larger bounds up to |clique| it is still a
    consistent pre-tangle, which is what the sequence machinery needs.

    kind == "end_region": orients toward the component holding the last
    window vertex of the declared spine ray; undecidable when the spine tail
    meets the separator.
    """

    kind: str
    graph: Graph
    order_bound: int
    clique: frozenset[str] = frozenset()
    presentation: object = None
    spine: str = ""
    window: int = -1

    def __post_init__(self):
        if self.kind not in ("clique", "end_region"):
            raise FamilyParameterError(f"unknown witness kind {self.kind!r}")
        if self.kind == "clique":
            if not self.clique:
                raise FamilyParameterError("clique witness needs a non-empty clique")
            if self.order_bound > len(self.clique):
                raise FamilyParameterError(
                    "clique witness bound may not exceed the clique size"
                )
        else:
            if self.presentation is None or not self.spine:
                raise FamilyParameterError(
                    "end_region witness needs a presentation and spine label"
                )
        object.__setattr__(self, "_hash", hash((self.kind, self.order_bound, self.clique, self.spine, self.window)))

    def __eq__(self, other):
        if not isinstance(other, TangleWitness):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.order_bound == other.order_bound
            and self.clique == other.clique
            and self.spine == other.spine
            and self.window == other.window
            and self.graph == other.graph
        )

    def __hash__(self):
        return self._hash

    @property
    def sort_key(self) -> tuple:
        return (self.order_bound, self.kind, tuple(sorted(self.clique)), self.spine, self.window)

    @property
    def tangle_guaranteed(self) -> bool:
        return self.kind == "clique" and len(self.clique) >= 3 * self.order_bound - 2

    @cached_property
    def _tail_vertex(self) -> str:
        return self.presentation.ray_tail_vertex(self.spine, self.window)

    def orients(self, sep: Separation) -> bool:
        if sep.order >= self.order_bound:
            return False
        if self.kind == "end_region" and self._tail_vertex in sep.separator:
            return False
        return True

    def orient(self, sep: Separation) -> Separation:
        if sep.order >= self.order_bound:
            raise OrientationUndecidableError(
                f"separation of order {sep.order} outside this order-{self.order_bound} domain"
            )
        if self.kind == "clique":
            rest = self.clique - sep.separator
            anchor = min(rest)
        else:
            anchor = self._tail_vertex
            if anchor in sep.separator:
                raise OrientationUndecidableError(
                    "spine tail meets the separator; end_region undecidable in this window"
                )
        if anchor in sep.side_a:
            oriented = sep.orient("a")
        else:
            oriented = sep.orient("b")
        if self.kind == "clique" and not self.clique <= oriented.side_b:
            raise OrientationUndecidableError(
                "separation splits the witness clique strictly"
            )
        return oriented

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "order_bound": self.order_bound}
        if self.kind == "clique":
            doc["clique"] = sorted(self.clique)
        else:
            doc["spine"] = self.spine
            doc["window"] = self.window
        return doc


Orienter = PreTangle | TangleWitness


def clique_witness(g: Graph, clique: Iterable[str], order_bound: int) -> TangleWitness:
    return TangleWitness("clique", g, order_bound, clique=frozenset(clique))


def end_region_witness(presentation, spine: str, window: int, order_bound: int) -> TangleWitness:
    g = presentation.graph_at(window)
    return TangleWitness(
        "end_region",
        g,
        order_bound,
        presentation=presentation,
        spine=spine,
        window=window,
    )


def materialize(w: TangleWitness, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> PreTangle:
    """Expand a witness into the explicit orientation mapping (small graphs)."""
    seps = enumerate_separations(w.graph, w.order_bound - 1, budget=budget)
    choices = {}
    for sep in seps:
        oriented = w.orient(sep)
        choices[sep] = "b" if oriented.side_b == sep.side_b else "a"
    return PreTangle(w.graph, w.order_bound, choices)


@dataclass(frozen=True)
class PreTangleReport:
    complete: bool
    consistent: bool
    missing: tuple[Separation, ...]
    extra: tuple[Separation, ...]
    witness_pair: tuple[Separation, Separation] | None

    @property
    def ok(self) -> bool:
        return self.complete and self.consistent


def _consistency_witness(members: Sequence[Separation]):
    """First pair (x, y) with reverse(x) <= y among orientations of distinct
    separations, else None."""
    for i, x in enumerate(members):
        a, b = x.masks
        for y in members[i + 1 :]:
            if _leq(b, a, *y.masks):
                return (x, y)
    return None


def _maximal_pair_inconsistent(members: Sequence[Separation]) -> bool:
    """True iff two distinct members are inconsistent, decided on the
    <=-maximal ones.

    reverse(x) <= y is symmetric in x and y and upward-closed: it gives
    reverse(x) <= y' for y <= y'. So an inconsistent pair lifts to maximal
    members m >= x and m' >= y with reverse(m) <= m'. If m is not m', the
    maximal pair shows it. Otherwise m is co-small, (V, B), and one of x, y,
    say z, is not m; by symmetry reverse(z) <= m. One pass over the members
    looks for such a z for each co-small maximal m.
    """
    kept: list[tuple[int, int]] = []
    co_small: list[Separation] = []
    for o in sorted(members, key=lambda o: (-len(o.side_a), len(o.side_b))):
        a, b = o.masks  # anything above o came earlier, so kept is the antichain
        if not any(_leq(a, b, c, d) for c, d in kept):
            if any(_leq(b, a, c, d) for c, d in kept):
                return True
            kept.append((a, b))
            if _leq(b, a, a, b):
                co_small.append(o)
    return any(z is not m and _leq(*z.masks[::-1], *m.masks) for m in co_small for z in members)


def check_pretangle(g: Graph, p: PreTangle, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> PreTangleReport:
    """Completeness and consistency report with witnesses on failure.

    Consistency is decided on the <=-maximal members; the first-pair scan
    over all members runs only when they flag a pair, to name the witness."""
    return _pretangle_report(g, p, budget, scan=True)


def _pretangle_report(g: Graph, p: PreTangle, budget: int, scan: bool) -> PreTangleReport:
    """`check_pretangle`'s report; with scan False, p is known consistent."""
    domain = set(enumerate_separations(g, p.order_bound - 1, budget=budget))
    have = set(p.choices)
    missing = tuple(sorted(domain - have, key=lambda s: s.sort_key))
    extra = tuple(sorted(have - domain, key=lambda s: s.sort_key))
    members = p.oriented_members()
    witness = _consistency_witness(members) if scan and _maximal_pair_inconsistent(members) else None
    return PreTangleReport(
        complete=not missing and not extra,
        consistent=witness is None,
        missing=missing,
        extra=extra,
        witness_pair=witness,
    )


def _mask_encoder(g: Graph):
    """(all vertices, all edges, encode) as masks; encode(A, B), on the
    `Separation.masks` of an orientation, gives the tuple
    (A, B, edges inside A, |A|) that the covering test runs on. Edge bit j
    stands for the j-th edge in sorted order.

    The edges inside A are those no vertex outside A touches. encode reads
    them off one table per 8 vertices, indexed by which of those lie
    outside A, so it takes |V|/8 lookups rather than one per vertex.
    """
    touching = dict.fromkeys(g.vertices, 0)  # the edges at each vertex
    for j, (u, v) in enumerate(sorted(g.edges)):
        touching[u] |= 1 << j
        touching[v] |= 1 << j
    ordered = [touching[v] for v in sorted(g.vertices)]  # in `Graph.mask` bit order
    tables = []  # tables[c][s]: the edges at vertices 8c + i for the bits i of s
    for c in range(0, len(ordered), 8):
        table = [0]
        for edges in ordered[c : c + 8]:
            table += [t | edges for t in table]
        tables.append(table)
    all_vertices = (1 << len(ordered)) - 1
    all_edges = (1 << len(g.edges)) - 1

    def encode(a: int, b: int) -> tuple[int, int, int, int]:
        outside = all_vertices ^ a
        cut = 0
        for table in tables:
            cut |= table[outside & 255]
            outside >>= 8
        return (a, b, all_edges & ~cut, a.bit_count())

    return all_vertices, all_edges, encode


def _cover(pool: list[tuple], all_vertices: int, all_edges: int, x: tuple, y: tuple):
    """Some z in pool with G[x.A] | G[y.A] | G[z.A] = G, else None, on
    `_mask_encoder` tuples. pool must be sorted by decreasing |A|, so the
    size cutoff can stop the scan early."""
    vmiss = all_vertices & ~(x[0] | y[0])
    need = vmiss.bit_count()
    emiss = None
    for z in pool:
        if z[3] < need:
            return None
        if vmiss & ~z[0]:
            continue
        if emiss is None:
            emiss = all_edges & ~(x[2] | y[2])
        if not emiss & ~z[2]:
            return z
    return None


@dataclass(frozen=True)
class TangleReport:
    pretangle: PreTangleReport
    axiom_ok: bool
    witness_triple: tuple | None

    @property
    def ok(self) -> bool:
        return self.pretangle.ok and self.axiom_ok


def _minus_size(m: tuple) -> int:
    return -m[3]


def _maximal(members: list[tuple]) -> list[tuple]:
    """One member per inclusion-maximal side A, by decreasing |A| (stable).

    If A <= C then G[A] <= G[C], so a covering triple exists among members
    iff one exists among these: replace each part of a triple by a kept
    member whose side A contains it.
    """
    kept: list[tuple] = []
    for o in sorted(members, key=lambda o: -o[3]):
        if not any(not o[0] & ~m[0] for m in kept):
            kept.append(o)
    return kept


def check_tangle(g: Graph, p: PreTangle, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> TangleReport:
    """Pre-tangle checks plus the covering-triple axiom, scanned over the
    members with maximal side A (see `_maximal`).

    The axiom decides consistency when it holds: an inconsistent pair x, y
    makes x, y, y a covering triple (see `enumerate_tangles`). So the
    consistency scan of `check_pretangle` runs only when a triple is found,
    and the pre-tangle report is `check_pretangle`'s either way."""
    all_vertices, all_edges, encode = _mask_encoder(g)
    by_size = _maximal([(*encode(*o.masks), o) for o in p.oriented_members()])
    witness = None
    for i, x in enumerate(by_size):
        for y in by_size[i:]:
            if x[3] + y[3] + by_size[0][3] < len(g.vertices):
                break
            z = _cover(by_size, all_vertices, all_edges, x, y)
            if z is not None:
                witness = (x[4], y[4], z[4])
                break
        if witness:
            break
    pre = _pretangle_report(g, p, budget, scan=witness is not None)
    return TangleReport(pretangle=pre, axiom_ok=witness is None, witness_triple=witness)


def enumerate_tangles(
    g: Graph,
    k: int,
    *,
    budget: int = DEFAULT_TANGLE_BUDGET,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[Tangle]:
    """Exactly all tangles of order k, by depth-first orientation search.

    Separations are fixed in (order, canonical) order; each partial
    orientation is pruned on the first covering triple among the chosen
    orientations, which leaves precisely the tangles as completed branches.
    The search keeps its own stack, so its depth is not bounded by the
    interpreter's recursion limit.

    Both orientations of each separation are encoded once, from their
    cached `Separation.masks`, as `_mask_encoder` tuples. The
    covering test runs against the chosen orientations with maximal side A
    only (see `_maximal`), and stops once |A| sizes show that no third
    member can cover what two leave out.

    No consistency test runs, as the covering test rejects every
    inconsistent orientation. Each vertex and each edge of G lies inside A
    or inside B, since (A, B) is a separation. If a new (A, B) and a chosen
    (C, D) have (B, A) <= (C, D), then B <= C puts each of them inside A or
    inside C, so (A, B), (C, D), (C, D) is a covering triple.
    """
    if not g.vertices:
        raise EmptyGraphError("enumerate_tangles requires a non-empty graph")
    if not g.is_connected():
        raise DisconnectedGraphError("enumerate_tangles requires a connected graph")
    if k < 1:
        raise PreconditionError(f"tangle order must be at least 1, got {k}")
    seps = enumerate_separations(g, k - 1, budget=enumeration_budget)
    n = len(g.vertices)
    all_vertices, all_edges, encode = _mask_encoder(g)
    encoded = [(encode(a, b), encode(b, a)) for a, b in (s.orient("b").masks for s in seps)]
    results: list[Tangle] = []
    maximal: list[tuple] = []  # chosen with maximal side A, by decreasing |A|
    undo: list[list[tuple]] = []  # `maximal` before each chosen entry
    nodes = 0

    def admit(new: tuple) -> list[tuple] | None:
        """`maximal` with new added, or None if new completes a covering triple.

        Triples among the chosen orientations already passed, so only
        triples through new are tested, and only against maximal members.
        """
        a, _, _, size = new
        pos = bisect_right(maximal, -size, key=_minus_size)  # the members with |A| >= size
        head = maximal[:pos]
        for m in head:
            if not a & ~m[0]:
                return maximal
        outside = all_vertices ^ a
        pool = head + [new] + [m for m in maximal[pos:] if m[0] & outside]
        least = n - size - pool[0][3]  # |x.A| below this leaves more than any z covers
        for x in pool:
            if x[3] < least:
                break
            if _cover(pool, all_vertices, all_edges, new, x) is not None:
                return None
        return pool

    # stack[i] is the next orientation to try at depth i: 0 toward "b", 1 toward "a"
    stack = [0]
    while stack:
        i = len(stack) - 1
        if i == len(seps):
            # stack[j] - 1 is the orientation picked at depth j
            choices = {sep: "ba"[picked - 1] for sep, picked in zip(seps, stack)}
            results.append(Tangle(g, k, choices))
        elif stack[i] < 2:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError("tangle search nodes", budget)
            new = encoded[i][stack[i]]
            stack[i] += 1
            grown = admit(new)
            if grown is not None:
                undo.append(maximal)
                maximal = grown
                stack.append(0)
            continue
        stack.pop()
        if i:
            maximal = undo.pop()
    return results


def distinguishes(s: Separation, p: Orienter, q: Orienter) -> bool:
    """True iff p and q contain opposite orientations of s."""
    if s.order >= min(p.order_bound, q.order_bound):
        raise OrientationUndecidableError(
            f"order {s.order} outside the common domain"
        )
    return p.orient(s) != q.orient(s)


def _clique_cores(p: Orienter, q: Orienter):
    """The two cliques when p and q are both clique witnesses, else None."""
    if (
        isinstance(p, TangleWitness)
        and isinstance(q, TangleWitness)
        and p.kind == "clique"
        and q.kind == "clique"
    ):
        return p.clique, q.clique
    return None


def _splits(sep: Separation, p: Orienter, q: Orienter) -> bool:
    """True iff sep lies below both order bounds and p and q both orient it,
    in opposite directions."""
    return (
        sep.order < min(p.order_bound, q.order_bound)
        and p.orients(sep)
        and q.orients(sep)
        and p.orient(sep) != q.orient(sep)
    )


def _separation_from_cut(g: Graph, cut: frozenset[str], core: frozenset[str]) -> Separation:
    """Separation with separator `cut`, core-side components on side b."""
    comps = components(g, cut)
    b_side = set(cut)
    a_side = set(cut)
    for comp in comps:
        if comp & core:
            b_side |= comp
        else:
            a_side |= comp
    return Separation(g, frozenset(a_side), frozenset(b_side)).canonical()


def efficient_distinguisher(
    g: Graph,
    p: Orienter,
    q: Orienter,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Separation | None:
    """A minimum-order separation distinguishing p and q, or None.

    For two clique witnesses the minimum order equals the minimum vertex cut
    between the cliques, and the leftmost minimum cut gives a deterministic
    representative. Otherwise the separations below the common order bound
    are scanned in (order, canonical) order, so the returned separation is
    the lexicographically least one of minimum order. Calls on one graph
    share its enumeration through the `enumerate_separations` slot.
    """
    cores = _clique_cores(p, q)
    if cores is not None:
        if min_distinguishing_order(g, p, q, budget=budget) is None:
            return None
        sep = _separation_from_cut(g, minimum_separator(g, *cores), cores[1])
        if not distinguishes(sep, p, q):
            raise OrientationUndecidableError(
                "minimum cut failed to distinguish the clique witnesses"
            )
        return sep
    bound = min(p.order_bound, q.order_bound)
    seps = enumerate_separations(g, bound - 1, budget=budget)
    return next((sep for sep in seps if _splits(sep, p, q)), None)


def min_distinguishing_order(
    g: Graph,
    p: Orienter,
    q: Orienter,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int | None:
    cores = _clique_cores(p, q)
    if cores is not None:
        value = len(disjoint_paths(g, *cores))
        return value if value < min(p.order_bound, q.order_bound) else None
    sep = efficient_distinguisher(g, p, q, budget=budget)
    return None if sep is None else sep.order


def distinguishable_pairs(
    g: Graph,
    tangles: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[tuple[tuple[int, int], int]]:
    """All unordered distinguishable pairs (as index pairs) with their
    efficient order, sorted ascending by (order, i, j)."""
    out = []
    for i in range(len(tangles)):
        for j in range(i + 1, len(tangles)):
            o = min_distinguishing_order(g, tangles[i], tangles[j], budget=budget)
            if o is not None:
                out.append(((i, j), o))
    out.sort(key=lambda e: (e[1], e[0]))
    return out
