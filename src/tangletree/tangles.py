"""Pre-tangles, tangles, their enumeration, and tangle distinguishers.

A pre-tangle of order k is a consistent orientation of every separation of
order < k: no two chosen orientations (A, B), (C, D) of distinct separations
satisfy (B, A) <= (C, D). A tangle additionally forbids any three chosen
orientations (repetition allowed) from covering the graph as subgraphs:
G[A1] | G[A2] | G[A3] = G, on vertices and edges.

Two representations share one orientation-query contract (`order_bound`,
`toward`, `graph`): the materialized PreTangle mapping, and the lazy
TangleWitness whose orientation is computed per query. `toward(sep)` names
the side of sep that the orienter points to, or None where it orients
nothing; `orient`, the split predicate and `materialize` all read it.
Witnesses keep the large generated graphs workable, where materializing
every low-order separation is out of reach.

Efficient distinguishers between two clique witnesses reduce to a minimum
vertex cut between the cliques (any separation splitting the cliques must
contain their shared vertices and block every connecting path, and
conversely every cut yields such a separation), so the search runs as
unit-capacity max-flow. Materialized pre-tangles are compared by direct
enumeration with an explicit budget instead.
"""

from __future__ import annotations

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
from .graph import Graph, _flood, disjoint_paths, minimum_separator
from .separations import (
    DEFAULT_ENUMERATION_BUDGET,
    Separation,
    _ambient,
    _separation,
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

    def toward(self, sep: Separation) -> str | None:
        """The chosen side of the canonical separation sep, else None."""
        return self.choices.get(sep)

    def orient(self, sep: Separation) -> Separation:
        toward = self.toward(sep)
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
    the side holding the clique less the separator. Those vertices are
    pairwise adjacent, so they lie in one component of G - S, and for order
    < |clique| they exist. The orientation is a genuine tangle when |clique|
    >= 3 * order_bound - 2 (see `tangle_guaranteed`); for larger bounds up
    to |clique| it is still a consistent pre-tangle, which is what the
    sequence machinery needs.

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
            closed = self.graph._vertex_index[3]
            c = self._anchor  # raises UnknownVertexError for a vertex outside the graph
            if any(c & ~closed[v] for v in _bits(c)):
                raise FamilyParameterError("clique witness vertices must be pairwise adjacent")
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
    def _anchor(self) -> int:
        """The mask of the clique, or of the spine tail's one vertex."""
        if self.kind == "clique":
            return self.graph.mask(self.clique)
        return self.graph.mask([self.presentation.ray_tail_vertex(self.spine, self.window)])

    def toward(self, sep: Separation) -> str | None:
        """The side of sep holding the anchor less the separator, else None:
        at order >= order_bound, or when the spine tail lies in it. The
        masks of sep must index this graph's vertices, so sep must be a
        separation of it."""
        _ambient(self.graph, sep)
        if sep.order >= self.order_bound:
            return None
        a, b = sep.masks
        rest = self._anchor & ~(a & b)
        if not rest:
            return None
        return "a" if rest & a else "b"

    def orient(self, sep: Separation) -> Separation:
        toward = self.toward(sep)
        if toward is None:
            if sep.order >= self.order_bound:
                raise OrientationUndecidableError(
                    f"separation of order {sep.order} outside this order-{self.order_bound} domain"
                )
            raise OrientationUndecidableError(
                "spine tail meets the separator; end_region undecidable in this window"
            )
        return sep.orient(toward)

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
    choices = {sep: w.toward(sep) for sep in seps}
    for sep, toward in choices.items():
        if toward is None:
            w.orient(sep)  # raises why the witness leaves sep open
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


# _BIT_DIGITS[j] translates each byte to b"0" or b"1", by its bit j
_BIT_DIGITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def _columns(masks: list[int], n: int) -> list[int]:
    """The transpose of masks over n vertices: bit x of column v is set
    when masks[x] holds vertex v. The masks go into one byte string, the
    last first; a strided slice of it holds byte c of every mask, and each
    of its 8 columns comes out by `bytes.translate` and `int(..., 2)`, with
    no Python step per bit."""
    if not masks:
        return [0] * n
    width = (n + 7) // 8
    joined = b"".join([m.to_bytes(width, "little") for m in reversed(masks)])
    columns = []
    for c in range(width):
        chunk = joined[c::width]
        columns += [int(chunk.translate(_BIT_DIGITS[j]), 2) for j in range(min(8, n - 8 * c))]
    return columns


def _bits(s: int):
    """The positions of the set bits of s, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


class _Sides:
    """A column index over a list of sides (vertex masks): bit x of column v
    is set when side x holds vertex v. A set of sides is an int with bit x
    for side x, and each query narrows one by an AND per vertex, stopping
    once it is empty."""

    __slots__ = ("_columns", "_all")

    def __init__(self, sides: list[int], n: int):
        self._columns = {1 << v: c for v, c in enumerate(_columns(sides, n))}
        self._all = (1 << n) - 1

    def holding(self, among: int, s: int) -> int:
        """The sides in among that hold every vertex of s."""
        columns = self._columns
        while among and s:
            low = s & -s
            among &= columns[low]
            s ^= low
        return among

    def inside(self, among: int, s: int) -> int:
        """The sides in among that lie inside s."""
        columns = self._columns
        s ^= self._all
        while among and s:
            low = s & -s
            among &= ~columns[low]
            s ^= low
        return among


def _consistency_witness(members: Sequence[Separation]):
    """First pair (x, y) with reverse(x) <= y among orientations of distinct
    separations, else None.

    reverse(x) <= y iff B_x lies inside A_y and B_y inside A_x. So for each
    x in order, column indexes of the sides A and of the sides B give every
    later y at once, and the lowest of them is the scan's first partner."""
    if not members:
        return None
    n = len(members[0].graph.vertices)
    masks = [m.masks for m in members]
    sides_a = _Sides([a for a, _ in masks], n)
    sides_b = _Sides([b for _, b in masks], n)
    later = (1 << len(masks)) - 1
    for i, (a, b) in enumerate(masks):
        later ^= 1 << i
        y = sides_b.inside(sides_a.holding(later, b), a)
        if y:
            return members[i], members[(y & -y).bit_length() - 1]
    return None


def check_pretangle(g: Graph, p: PreTangle, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> PreTangleReport:
    """Completeness and consistency report with witnesses on failure.

    Consistency is decided by one scan, `_consistency_witness`, which names
    the first inconsistent pair of members."""
    return _pretangle_report(g, p, budget, scan=True)


def _pretangle_report(g: Graph, p: PreTangle, budget: int, scan: bool) -> PreTangleReport:
    """`check_pretangle`'s report; with scan False, p is known consistent."""
    domain = set(enumerate_separations(g, p.order_bound - 1, budget=budget))
    have = set(p.choices)
    missing = tuple(sorted(domain - have, key=lambda s: s.sort_key))
    extra = tuple(sorted(have - domain, key=lambda s: s.sort_key))
    witness = _consistency_witness(p.oriented_members()) if scan else None
    return PreTangleReport(
        complete=not missing and not extra,
        consistent=witness is None,
        missing=missing,
        extra=extra,
        witness_pair=witness,
    )


def _mask_encoder(g: Graph):
    """encode(A, B, x), on the `Separation.masks` of an orientation, gives
    the tuple (A, B, edges inside A, |A|, x) that the covering test runs
    on; x numbers it in its `_Antichains` family. Edge bit j stands for the
    j-th edge in sorted order.

    The edges inside A are those no vertex outside A touches. encode reads
    them off one table per 8 vertices, indexed by which of those lie
    outside A, so it takes |V|/8 lookups rather than one per vertex.
    """
    touching = dict.fromkeys(g.vertices, 0)  # the edges at each vertex
    for j, (u, v) in enumerate(sorted(g.edges)):
        touching[u] |= 1 << j
        touching[v] |= 1 << j
    tables = _tables([touching[v] for v in sorted(g.vertices)])  # in `Graph.mask` bit order
    all_vertices = (1 << len(g.vertices)) - 1
    all_edges = (1 << len(g.edges)) - 1

    def encode(a: int, b: int, x: int) -> tuple[int, int, int, int, int]:
        outside = all_vertices ^ a
        cut = 0
        for table in tables:
            cut |= table[outside & 255]
            outside >>= 8
        return (a, b, all_edges & ~cut, a.bit_count(), x)

    return encode


def _tables(masks: list[int]) -> list[list[int]]:
    """One table per 8 masks: tables[c][s] is the union of masks 8c + i
    over the bits i of s."""
    tables = []
    for c in range(0, len(masks), 8):
        table = [0]
        for m in masks[c : c + 8]:
            table += [t | m for t in table]
        tables.append(table)
    return tables


def _union(tables: list[list[int]], s: int) -> int:
    """The union of the masks at the bits of s, read off `_tables`."""
    out = 0
    for table in tables:
        out |= table[s & 255]
        s >>= 8
    return out


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


_WIDE = 4  # an antichain of at least _WIDE * |V| members runs on the column index


class _Antichains:
    """Antichains of sides A over one family of `_mask_encoder` tuples,
    member x being family[x].

    An antichain is a value that no method changes, so the search undoes
    an insert by going back to the value before it. While narrow it is a
    list by decreasing |A|, stable, and each test scans it. Once it holds
    `_WIDE` * |V| members it is the pair (live, top): live an int with bit
    x for member x, top the largest |A| among them. Its tests then read a
    column index of the family's sides A (see `_Sides`), built at the first
    switch: "does a member's side hold these vertices?" is one AND per
    vertex instead of one step per member. Both forms give the same
    answers; the list is faster on narrow antichains and the index on wide
    ones, so the width, a property of the input, picks the form.

    Once wide, a member whose side A lies inside a later member's stays in
    live. No answer changes by it: each test asks for a member whose side
    holds some set, and the later member's does whenever its does.
    """

    def __init__(self, g: Graph, family: list[tuple]):
        self.family = family
        self._g = g
        self._n = len(g.vertices)
        self._all_vertices = (1 << self._n) - 1
        self._all_edges = (1 << len(g.edges)) - 1
        self._wide = _WIDE * self._n
        self._index: _Sides | None = None  # built by `_widen`, with _at_least
        self._at_least: list[int] = []
        self._ends: list[list[int]] | None = None

    def insert(self, chain, x: int):
        """chain with member x added, or chain itself when a member's side A
        holds x's: the "dominated?" test. The members whose sides A lie
        inside x's leave a list, and stay in a wide antichain (see above)."""
        new = self.family[x]
        a, size = new[0], new[3]
        if type(chain) is tuple:
            live, top = chain
            if self._index.holding(live & self._at_least[size], a):
                return chain
            return (live | 1 << x, max(top, size))
        pos = 0  # past the members with |A| >= size, which alone can hold A
        for m in chain:
            if m[3] < size:
                break
            if not a & ~m[0]:
                return chain
            pos += 1
        outside = self._all_vertices ^ a
        grown = chain[:pos] + [new] + [m for m in chain[pos:] if m[0] & outside]
        return grown if len(grown) < self._wide else self._widen(grown)

    def _widen(self, members: list[tuple]) -> tuple[int, int]:
        """The wide form of a list, with the index built on the first call."""
        if self._index is None:
            family = self.family
            self._index = _Sides([m[0] for m in family], self._n)
            at_least = [0] * (self._n + 2)  # at_least[s]: the members with |A| >= s
            for x, m in enumerate(family):
                at_least[m[3]] |= 1 << x
            for s in range(self._n, -1, -1):
                at_least[s] |= at_least[s + 1]
            self._at_least = at_least
        return (sum(1 << m[4] for m in members), members[0][3])

    def members(self, chain) -> list[tuple]:
        """The members of chain: by decreasing |A|, stable, while narrow, and
        in family order once wide. The two agree in `_maximal`."""
        if type(chain) is list:
            return chain
        return [self.family[x] for x in _bits(chain[0])]

    def _holding_rest(self, live: int, x: tuple, y: tuple) -> int:
        """The members in live whose side A holds what x and y leave out:
        each vertex outside x.A and y.A, and both ends of each edge inside
        neither. Those are the z with G[x.A] | G[y.A] | G[z.A] = G."""
        rest = self._all_vertices & ~(x[0] | y[0])
        live = self._index.holding(live, rest)
        if live:
            if self._ends is None:  # the ends of a set of edges, in `_union`
                self._ends = _tables([self._g.mask(e) for e in sorted(self._g.edges)])
            edges = self._all_edges & ~(x[2] | y[2])
            live = self._index.holding(live, _union(self._ends, edges) & ~rest)
        return live

    def cover(self, chain, x: tuple, y: tuple):
        """The first member z of chain, in `members` order, with
        G[x.A] | G[y.A] | G[z.A] = G, else None. Wide, the order must be
        the family's, as in `_maximal`."""
        if type(chain) is list:
            return _cover(chain, self._all_vertices, self._all_edges, x, y)
        z = self._holding_rest(chain[0], x, y)
        return self.family[(z & -z).bit_length() - 1] if z else None

    def closes(self, chain, x: int) -> bool:
        """True iff member x of chain and two members, repetition allowed,
        cover G. A pair x, y leaves out more than any z covers once
        |x.A| + |y.A| + (the largest |A|) < |V|, so sizes decide first."""
        new = self.family[x]
        if type(chain) is list:
            least = self._n - new[3] - chain[0][3]  # |y.A| below this leaves out too much
            all_vertices, all_edges = self._all_vertices, self._all_edges
            for y in chain:
                if y[3] < least:
                    break
                if _cover(chain, all_vertices, all_edges, new, y) is not None:
                    return True
            return False
        live, top = chain
        least = self._n - new[3] - top
        if least > top:
            return False
        ys = live & self._at_least[max(least, 0)]
        outside = self._all_vertices ^ new[0]
        if outside:  # y or z holds its lowest vertex; by symmetry, y does
            ys = self._index.holding(ys, outside & -outside)
        return any(self._holding_rest(live, new, self.family[y]) for y in _bits(ys))


def _maximal(g: Graph, family: list[tuple]) -> tuple[_Antichains, list | tuple]:
    """The members with inclusion-maximal side A, one per side, as an
    antichain over family, which must be sorted by decreasing |A|.

    If A <= C then G[A] <= G[C], so a covering triple exists among members
    iff one exists among these: replace each part of a triple by a kept
    member whose side A contains it.
    """
    antichains = _Antichains(g, family)
    chain = []
    for x in range(len(family)):
        chain = antichains.insert(chain, x)
    return antichains, chain


def check_tangle(g: Graph, p: PreTangle, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> TangleReport:
    """Pre-tangle checks plus the covering-triple axiom, scanned over the
    members with maximal side A (see `_maximal`).

    The axiom decides consistency when it holds: an inconsistent pair x, y
    makes x, y, y a covering triple (see `enumerate_tangles`). So the
    consistency scan of `check_pretangle` runs only when a triple is found,
    and the pre-tangle report is `check_pretangle`'s either way. Each
    member's sides are read as masks off its choice, so only a witness
    triple is built as oriented `Separation`s."""
    encode = _mask_encoder(g)
    chosen = [(s.masks if t == "b" else s.masks[::-1], s, t) for s, t in p._items]
    chosen.sort(key=lambda c: -c[0][0].bit_count())  # stable: by decreasing |A|
    antichains, chain = _maximal(g, [encode(*ab, x) for x, (ab, _, _) in enumerate(chosen)])
    by_size = antichains.members(chain)
    witness = None
    for i, x in enumerate(by_size):
        if 2 * x[3] + by_size[0][3] < len(g.vertices):
            break  # no y from x on leaves out little enough, as y[3] <= x[3]
        for y in by_size[i:]:
            if x[3] + y[3] + by_size[0][3] < len(g.vertices):
                break
            z = antichains.cover(chain, x, y)
            if z is not None:
                witness = tuple(chosen[w[4]][1].orient(chosen[w[4]][2]) for w in (x, y, z))
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
    cached `Separation.masks`, as `_mask_encoder` tuples; orientation 2i
    points separation i toward "b" and 2i + 1 toward "a". The chosen ones
    with maximal side A form an antichain (see `_Antichains`), and the
    covering test runs against those only (see `_maximal`). It stops once
    |A| sizes show that no third member can cover what two leave out.

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
    encode = _mask_encoder(g)
    family = []
    for i, (a, b) in enumerate(s.orient("b").masks for s in seps):
        family += (encode(a, b, 2 * i), encode(b, a, 2 * i + 1))
    antichains = _Antichains(g, family)
    insert, closes = antichains.insert, antichains.closes
    chain = []  # the chosen orientations with maximal side A
    undo = []  # chain before each chosen entry
    results: list[Tangle] = []
    nodes = 0
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
            x = 2 * i + stack[i]
            stack[i] += 1
            grown = insert(chain, x)
            # a member's side A holding x's means every triple through x was tested
            if grown is chain or not closes(grown, x):
                undo.append(chain)
                chain = grown
                stack.append(0)
            continue
        stack.pop()
        if i:
            chain = undo.pop()
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
    in opposite directions. The two orientations of (V, V) are one
    separation, so it splits nothing."""
    if sep.order >= min(p.order_bound, q.order_bound):
        return False
    x, y = p.toward(sep), q.toward(sep)
    return x is not None and y is not None and x != y and sep.side_a != sep.side_b


def _separation_from_cut(g: Graph, cut: frozenset[str], core: frozenset[str]) -> Separation:
    """Separation with separator `cut`, core-side components on side b."""
    s, c = g.mask(cut), g.mask(core)
    comps = _flood(g, s)
    core_side = sum(k for k in comps if k & c)
    return _separation(g, s | sum(comps) - core_side, s | core_side, cut).canonical()


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
