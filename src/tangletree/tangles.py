"""Pre-tangles, tangles, their enumeration, and tangle distinguishers.

A pre-tangle of order k is a consistent orientation of every separation of
order < k: no two chosen orientations (A, B), (C, D) of distinct separations
satisfy (B, A) <= (C, D). A tangle additionally forbids any three chosen
orientations (repetition allowed) from covering the graph as subgraphs:
G[A1] | G[A2] | G[A3] = G, on vertices and edges. The search and
`check_tangle` decide that on vertex masks alone (see `_rest`).

`enumerate_tangles` finds the tangles of order k as havens, one component
β(S) of G - S per separator S with |S| < k, by one depth-first search,
`_havens`. When k >= 2 and G has a cut vertex it runs that search on each
block of G with at least k vertices, a vertex mask of G, whose havens
orient G's separations, so the separators through a cut vertex no longer
multiply one search over the whole graph (see `_tangles_of`).

Two representations subclass one `Orienter` (`order_bound`, `toward`,
`graph`, `sort_key`): the materialized PreTangle mapping, and the lazy
TangleWitness whose orientation is computed per query. `toward(sep)` names
the side of sep that the orienter points to, or None where it orients
nothing; `orient`, `holds`, the split predicate and `materialize` all read
it. Witnesses keep the large generated graphs workable, where
materializing every low-order separation is out of reach.

Efficient distinguishers between two clique witnesses reduce to a minimum
vertex cut between the cliques (any separation splitting the cliques must
contain their shared vertices and block every connecting path, and
conversely every cut yields such a separation), so the search runs as
unit-capacity max-flow, read from one memoized solve (`_clique_flow`) on
the clique masks; `clique` is a frozenset of names for the API and JSON.
Materialized pre-tangles are compared by enumeration with a budget instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DisconnectedGraphError,
    EmptyGraphError,
    FamilyParameterError,
    GraphFormatError,
    InternalCheckError,
    OrientationUndecidableError,
    PreconditionError,
)
from .families import LayeredPresentation
from .graph import (
    Graph,
    _as_json,
    _blocks,
    _checked,
    _field,
    _flood,
    _solve,
    _vertex_set,
)
from .separations import (
    DEFAULT_ENUMERATION_BUDGET,
    Separation,
    _ambient,
    _component_separations,
    _enumeration,
    _graph_of,
    _listed,
    enumerate_separations,
)

DEFAULT_TANGLE_BUDGET = 500_000


class Orienter:
    """An orientation of the separations of order < `order_bound` of
    `graph`, asked through `toward(sep)`. Its `sort_key` compares across
    every kind. The constructor checks the graph and the order bound only;
    `check_pretangle` and `check_tangle` check the orientation."""

    def __post_init__(self):
        _checked(self.graph)
        if type(self.order_bound) is not int or self.order_bound < 1:  # not bool, as in `PreTangle.from_json`
            raise FamilyParameterError(f"order_bound must be an integer >= 1, got {self.order_bound!r}")

    def __eq__(self, other):
        if not isinstance(other, Orienter):
            return NotImplemented
        return self.sort_key == other.sort_key and self.graph == other.graph

    def __hash__(self):
        return self._key_hash

    @cached_property
    def _key_hash(self) -> int:
        return hash(self.sort_key)

    def orient(self, sep: Separation) -> Separation:
        toward = self.toward(sep)
        if toward is None:
            raise OrientationUndecidableError(self._open(sep))
        return sep.orient(toward)

    def _open(self, sep: Separation) -> str:
        """Why `toward` leaves sep open."""
        return f"separation of order {sep.order} outside this order-{self.order_bound} domain"

    def holds(self, item: Separation) -> bool:
        """True when item's order lies below the order bound and `toward`
        orients item's separation as item."""
        if self.order_bound <= item.order:
            return False
        sep = item.canonical()
        toward = self.toward(sep)
        return toward is not None and sep.orient(toward) == item


@dataclass(frozen=True, eq=False)
class PreTangle(Orienter):
    """Materialized consistent orientation of all separations of order < k."""

    graph: Graph
    order_bound: int
    choices: dict

    def __post_init__(self):
        super().__post_init__()
        choices = _checked(self.choices, kind=dict)
        try:  # the one sort of the choices, which fails on a key with no sort key or
            # with one that does not compare with a separation's; the least is checked
            items = sorted(choices.items(), key=lambda kv: kv[0].sort_key)
            valid = {"a", "b"}.issuperset(choices.values()) and all(type(s) is Separation for s, _ in items[:1])
        except (AttributeError, TypeError):
            valid = False
        if not valid:
            bad = next((s, t) for s, t in choices.items() if type(s) is not Separation or t not in ("a", "b"))
            raise PreconditionError(f"choice {bad[0]!r}: {bad[1]!r} is not a separation oriented toward 'a' or 'b'")
        object.__setattr__(self, "_items", tuple(items))

    @cached_property
    def sort_key(self) -> tuple:
        return (self.order_bound, "", tuple((s.sort_key, t) for s, t in self._items))

    def toward(self, sep: Separation) -> str | None:
        """The chosen side of the canonical separation sep, else None."""
        return self.choices.get(sep)

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
        order_bound = _field(_as_json(doc, "a tangle", dict), "order_bound")
        if type(order_bound) is not int or not 1 <= order_bound <= len(g.vertices) + 1:  # not bool
            raise GraphFormatError(f"order_bound must be an integer in 1..|V| + 1, got {order_bound!r}")
        choices = {}
        for entry in _as_json(_field(doc, "orientation"), "orientation"):
            entry = _as_json(entry, "an orientation entry", dict)
            sep, toward = Separation.from_json(g, _field(entry, "sep")), _field(entry, "toward")
            if toward not in ("a", "b"):
                raise GraphFormatError("toward must be 'a' or 'b'")
            canonical = sep.canonical()  # toward names a side as written
            if canonical in choices:
                raise GraphFormatError(f"separation {canonical!r} is oriented twice")
            choices[canonical] = "b" if sep.orient(toward) is canonical else "a"
        return cls(g, order_bound, choices)


class Tangle(PreTangle):
    """A pre-tangle that passed the covering-triple axiom."""


@dataclass(frozen=True, eq=False)
class TangleWitness(Orienter):
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
        super().__post_init__()
        if self.kind not in ("clique", "end_region"):
            raise FamilyParameterError(f"unknown witness kind {self.kind!r}")
        if self.kind == "clique":
            object.__setattr__(self, "clique", _vertex_set(self.graph, self.clique, "a clique"))
            if not self.clique:
                raise FamilyParameterError("clique witness needs a non-empty clique")
            if self.order_bound > len(self.clique):
                raise FamilyParameterError(
                    "clique witness bound may not exceed the clique size"
                )
            closed = self.graph._vertex_index[2]
            c = self._anchor
            if any(c & ~closed[v] for v in _bits(c)):
                raise FamilyParameterError("clique witness vertices must be pairwise adjacent")
        else:
            if self.presentation is None or not self.spine:
                raise FamilyParameterError(
                    "end_region witness needs a presentation and spine label"
                )

    @cached_property
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

    def _open(self, sep: Separation) -> str:
        if sep.order < self.order_bound:
            return "spine tail meets the separator; end_region undecidable in this window"
        return super()._open(sep)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "order_bound": self.order_bound}
        if self.kind == "clique":
            doc["clique"] = sorted(self.clique)
        else:
            doc["spine"] = self.spine
            doc["window"] = self.window
        return doc


def _orienting(g: Graph, *orienters, kind: type = Orienter) -> None:
    """Raise AmbientMismatchError unless each orienter is a `kind` over g,
    as `_ambient` does for a separation: the masks of another graph's
    separations would be read with g's vertex tables."""
    for p in orienters:
        if not isinstance(p, kind):
            what = "a pre-tangle" if kind is PreTangle else "an orienter"
            raise AmbientMismatchError(f"expected {what}, got {type(p).__name__}")
        if not (p.graph is g or p.graph == g):
            raise AmbientMismatchError("orienter does not live over this graph")


def clique_witness(g: Graph, clique: Iterable[str], order_bound: int) -> TangleWitness:
    return TangleWitness("clique", g, order_bound, clique=clique)


def end_region_witness(presentation, spine: str, window: int, order_bound: int) -> TangleWitness:
    g = _checked(presentation, kind=LayeredPresentation).graph_at(window)
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
    seps = enumerate_separations(_checked(w, kind=TangleWitness).graph, w.order_bound - 1, budget=budget)
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
    _orienting(g, p, kind=PreTangle)
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


def _mask_encoder(within: int, closed: list[list[int]]):
    """encode(A, B, x), on the masks of an orientation of a separation of
    G[within], gives the tuple (A, B, ∂A, |A|, x) that the covering test
    runs on; x numbers it in its `_Antichains` family. ∂A is the set of
    vertices of A with a neighbour in within - A, read as A & N[within - A]
    off `closed`, the tables `_tables(g._vertex_index[2])` of G's closed
    neighbourhoods, so it takes |V|/8 lookups rather than one per vertex."""

    def encode(a: int, b: int, x: int) -> tuple[int, int, int, int, int]:
        return (a, b, a & _union(closed, within ^ a), a.bit_count(), x)

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


def _cover(pool: list[tuple], within: int, closed: list[list[int]], x: tuple, y: tuple):
    """Some z in pool with H[x.A] | H[y.A] | H[z.A] = H, for H = G[within],
    else None, on `_mask_encoder` tuples: the first whose side A holds
    `_rest` of x and y. R is built once a z holds its cheap part, the
    vertices outside x.A and y.A. pool must be sorted by decreasing |A|, so
    the size cutoff can stop the scan early."""
    vmiss = within & ~(x[0] | y[0])
    need = vmiss.bit_count()
    rest = None
    for z in pool:
        if z[3] < need:
            return None
        if vmiss & ~z[0]:
            continue
        if rest is None:
            rest = _rest(closed, within, vmiss, x, y)
        if not rest & ~z[0]:
            return z
    return None


def _rest(closed: list[list[int]], within: int, vmiss: int, x: tuple, y: tuple) -> int:
    """R = N[V - (X | Y)] | (∂X - Y) | (∂Y - X) in H = G[within], for vmiss
    = V(H) - (X | Y) and the sides X, Y of x and y: the vertices outside
    X | Y and the ends of the edges inside neither, which a side Z must
    hold for H[X] | H[Y] | H[Z] = H. An edge with an end outside X | Y has
    both in N[V(H) - (X | Y)]; one inside X | Y but inside neither X nor Y
    has one end in ∂X - Y and the other in ∂Y - X, and each vertex of those
    is such an end. N is cut back to within, which G's can leave."""
    return (_union(closed, vmiss) & within) | (x[2] & ~y[0]) | (y[2] & ~x[0])


@dataclass(frozen=True)
class TangleReport:
    pretangle: PreTangleReport
    axiom_ok: bool
    witness_triple: tuple | None

    @property
    def ok(self) -> bool:
        return self.pretangle.ok and self.axiom_ok


_WIDE = 4  # an antichain of at least _WIDE * |within| members runs on the column index


class _Antichains:
    """Antichains of sides A over one family of `_mask_encoder` tuples,
    member x being family[x], all encoded with the vertex space `within`
    of the separations of G[within] that they orient.

    An antichain is a value that no method changes, so the search undoes
    an insert by going back to the value before it. While narrow it is a
    list by decreasing |A|, stable, and each test scans it. Once it holds
    `_WIDE` * |within| members it is the pair (live, top): live an int with bit
    x for member x, top the largest |A| among them. Its tests then read a
    column index of the family's sides A (see `_Sides`), built at the first
    switch: "does a member's side hold these vertices?" is one AND per
    vertex instead of one step per member. Both forms give the same
    answers; the list is faster on narrow antichains and the index on wide
    ones, so the width, a property of the input, picks the form.

    Once wide, a member whose side A lies inside a later member's stays in
    live. No answer changes by it: each test asks for a member whose side
    holds some set, and the later member's does whenever its does. Inserted
    by decreasing |A|, as `check_tangle` does, no member is ever held by a
    later one, so the two forms then keep the same members.
    """

    def __init__(self, within: int, family: list[tuple], closed: list[list[int]]):
        self.family = family
        self._closed = closed  # the tables the family was encoded with
        self._n = within.bit_count()
        self._all_vertices = within
        self._wide = _WIDE * self._n
        self._index: _Sides | None = None  # built by `_widen`, with _at_least
        self._at_least: list[int] = []

    def load(self, xs: Iterable[int]) -> tuple:
        """(chain, x): the members xs inserted in turn from the empty
        antichain, each that no kept side holds tested with `closes`, up to
        x, the first that closes a covering triple, or x None for none."""
        chain = []
        for x in xs:
            grown = self.insert(chain, x)
            if grown is chain:
                continue  # a covering triple through x gives one through the member holding it
            if self.closes(grown, x):
                return grown, x
            chain = grown
        return chain, None

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
            self._index = _Sides([m[0] for m in family], self._all_vertices.bit_length())
            at_least = [0] * (self._n + 2)  # at_least[s]: the members with |A| >= s
            for x, m in enumerate(family):
                at_least[m[3]] |= 1 << x
            for s in range(self._n, -1, -1):
                at_least[s] |= at_least[s + 1]
            self._at_least = at_least
        return (sum(1 << m[4] for m in members), members[0][3])

    def members(self, chain) -> list[tuple]:
        """The members of chain: by decreasing |A|, stable, while narrow, and
        in family order once wide. The two agree when the family is sorted
        by decreasing |A|."""
        if type(chain) is list:
            return chain
        return [self.family[x] for x in _bits(chain[0])]

    def _holding_rest(self, live: int, x: tuple, y: tuple) -> int:
        """The members in live whose side A holds `_rest` of x and y: those
        are the z with H[x.A] | H[y.A] | H[z.A] = H, for H = G[within]. The
        vertices outside x.A and y.A are asked first, and R less them only
        of the members that hold them."""
        rest = self._all_vertices & ~(x[0] | y[0])
        live = self._index.holding(live, rest)
        if live:
            live = self._index.holding(live, _rest(self._closed, self._all_vertices, rest, x, y) & ~rest)
        return live

    def closes(self, chain, x: int) -> bool:
        """True iff member x of chain and two members y, z, repetition
        allowed, cover G[within]: z.A holds `_rest` of x and y. A pair x, y
        leaves out more than any z covers once |x.A| + |y.A| + (the largest
        |A|) < |within|, so sizes decide first, then the vertices outside
        x.A and y.A, and R only for the z that hold those."""
        new = self.family[x]
        if type(chain) is list:
            least = self._n - new[3] - chain[0][3]  # |y.A| below this leaves out too much
            all_vertices, closed = self._all_vertices, self._closed
            for y in chain:
                if y[3] < least:
                    break
                if _cover(chain, all_vertices, closed, new, y) is not None:
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


def check_tangle(g: Graph, p: PreTangle, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> TangleReport:
    """Pre-tangle checks plus the covering-triple axiom, by the search's own
    test: the members go into one antichain by decreasing |A|, stable, and
    each that no kept side A holds is tested with `closes`.

    If A <= C then G[A] <= G[C], so a covering triple exists among the
    members iff one exists among those with inclusion-maximal side A:
    replace each part of a triple by a kept member whose side A contains
    it. Each triple of kept members is tested when its last one goes in.
    The witness triple is (x, y, z): x the first member that closes a
    triple, then y and z the first pair in `members` order that covers G
    with it.

    The axiom decides consistency when it holds: an inconsistent pair x, y
    makes x, y, y a covering triple (see `enumerate_tangles`). So the
    consistency scan of `check_pretangle` runs only when a triple is found,
    and the pre-tangle report is `check_pretangle`'s either way. Each
    member's sides are read as masks off its choice, so only a witness
    triple is built as oriented `Separation`s."""
    _orienting(g, p, kind=PreTangle)
    closed = _tables(g._vertex_index[2])
    full = (1 << len(g.vertices)) - 1
    encode = _mask_encoder(full, closed)
    chosen = [(s.masks if t == "b" else s.masks[::-1], s, t) for s, t in p._items]
    chosen.sort(key=lambda c: -c[0][0].bit_count())  # stable: by decreasing |A|
    family = [encode(*ab, x) for x, (ab, _, _) in enumerate(chosen)]
    antichains = _Antichains(full, family, closed)
    chain, x = antichains.load(range(len(family)))
    witness = None
    if x is not None:
        kept = antichains.members(chain)
        y, z = next((y, z) for y in kept if (z := _cover(kept, full, closed, family[x], y)))
        witness = tuple(chosen[w[4]][1].orient(chosen[w[4]][2]) for w in (family[x], y, z))
    pre = _pretangle_report(g, p, budget, scan=witness is not None)
    return TangleReport(pretangle=pre, axiom_ok=witness is None, witness_triple=witness)


def enumerate_tangles(
    g: Graph,
    k: int,
    *,
    budget: int = DEFAULT_TANGLE_BUDGET,
) -> list[Tangle]:
    """Exactly all tangles of order k, by depth-first search over havens.

    A tangle of order k picks, for each separator S with |S| < k, exactly
    one component β(S) of G - S whose complement V - β(S) is a small side
    (see the README on havens), and it orients a separation (A, B) with
    separator S toward "b" iff β(S) lies in B - A. A choice of β is a
    tangle iff no three of the sides (V - β(S), S | β(S)), repetition
    allowed, cover G: every small side lies inside its separator's.

    The separators and their components are those `enumerate_separations`
    flooded, read off its slot; `_havens` searches them. When k >= 2, each
    block of G (maximal 2-connected subgraph or bridge) with at least k
    vertices is searched on its own, as a vertex mask of G with no `Graph`
    built for it, and its havens orient G's separations (see `_tangles_of`):
    every tangle of order k >= 2 lives in one block, and a block with fewer
    than k vertices has none. That claim is checked against the
    whole-graph search and the brute-force oracle by a property test, not
    proved here. A 2-connected G is its one block. `budget` counts the
    search's nodes, summed over the blocks; the enumeration runs under
    `DEFAULT_ENUMERATION_BUDGET`, whatever `budget` is.

    The tangles are sorted at the end into the order of a search over
    orientations: lexicographic in the choice vector over the (order,
    `sort_key`) separation order, "b" first.
    """
    return _search_tangles(g, k, budget)


def _search_tangles(g: Graph, k: int, budget: int, split: bool = True) -> list[Tangle]:
    """`enumerate_tangles`; with split False, by one search on the whole
    graph even where G has a cut vertex. The havens are (block, β) pairs."""
    if not _checked(g).vertices:
        raise EmptyGraphError("enumerate_tangles requires a non-empty graph")
    if not g.is_connected():
        raise DisconnectedGraphError("enumerate_tangles requires a connected graph")
    if type(k) is not int or k < 1:
        raise PreconditionError(f"tangle order must be an integer at least 1, got {k!r}")
    seps, floods = _enumeration(g, k - 1, DEFAULT_ENUMERATION_BUDGET)
    closed = _tables(g._vertex_index[2])
    full = (1 << len(g.vertices)) - 1
    blocks = _blocks(g) if split and k >= 2 else [full]
    components = dict(floods) if len(blocks) > 1 else {}
    havens, nodes = [], 0
    for block in blocks:
        if block.bit_count() < k:
            continue  # (B, B) is a separation of G[B] of order < k
        # the components of G[B] - S are the nonempty traces on B of those of
        # G - S, since a path of G - S that leaves B returns through the cut
        # vertex it left by; listed as an enumeration of G[B] would list them
        traces = floods if block == full else [
            (s, sorted((c & block for c in components[s] if c & block), key=lambda c: c & -c))
            for size in range(k)
            for s in map(sum, combinations([1 << v for v in _bits(block)], size))
        ]
        found, nodes = _havens(closed, block, k, traces, budget, nodes)
        havens += ((block, beta) for beta in found)
    return _tangles_of(g, k, seps, havens)


def _havens(closed, within: int, k: int, floods, budget: int, nodes: int = 0) -> tuple[list[dict[int, int]], int]:
    """The havens of order k of H = G[within], |within| >= k, over `floods`,
    the separators S of H with |S| < k and the components of H - S, as
    masks of G read with its `_tables` closed, in enumeration order: one
    map S -> β(S) per haven, and the search's node count added to `nodes`,
    which past `budget` raises BudgetExceededError.

    Each (S, component) pair is encoded once as a `_mask_encoder` tuple. A
    separator with one component C is forced, with side V(H) - C = S; those
    sides go into the antichain (see `_Antichains` and `check_tangle`)
    once, at the root, largest first, and a covering triple among them
    leaves no haven. The search then branches over the separators with two
    or more components, in the order of `floods`, trying each component in
    turn; a node is one such try. A choice is pruned on the first covering
    triple that its side closes. The search keeps its own stack, so its
    depth is not bounded by the interpreter's recursion limit."""
    encode = _mask_encoder(within, closed)
    # the members of the branching separators come first, so that a wide
    # antichain's covering scan, which reads members in index order, meets
    # their large sides before the forced ones
    family = []
    branching = []  # (separator, its components, its first member) per branching separator
    for s, comps in floods:
        if len(comps) > 1:
            branching.append((s, comps, len(family)))
            for c in comps:
                family.append(encode(within ^ c, s | c, len(family)))
    first_forced = len(family)
    forced = {}
    for s, comps in floods:
        if len(comps) == 1:
            forced[s] = comps[0]
            family.append(encode(s, within, len(family)))
    antichains = _Antichains(within, family, closed)
    insert, closes = antichains.insert, antichains.closes
    # the chosen sides that are maximal, the forced ones by decreasing |S|
    chain, closer = antichains.load(range(len(family) - 1, first_forced - 1, -1))
    if closer is not None:
        return [], nodes
    undo = []  # chain before each chosen component
    havens = []
    # stack[i] is the next component to try at branching separator i
    stack = [0]
    while stack:
        i = len(stack) - 1
        if i == len(branching):
            beta = dict(forced)
            beta.update((s, comps[j - 1]) for (s, comps, _), j in zip(branching, stack))
            havens.append(beta)
        elif stack[i] < len(branching[i][1]):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError("tangle search nodes", budget)
            x = branching[i][2] + stack[i]
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
    return havens, nodes


def _tangles_of(g: Graph, k: int, seps: list[Separation], havens: list[tuple[int, dict[int, int]]]) -> list[Tangle]:
    """The tangles of the havens, each a pair (B, β) of a block B of G and
    a haven β of G[B], in the order of `enumerate_tangles`. A separation
    (A, B') of G with separator S points toward "b" iff β(S ∩ B) meets B':
    it is connected in G[B] - S ⊆ G - S, so it lies in A - B' or B' - A."""
    sides = [(a & b, b) for a, b in (sep.masks for sep in seps)]
    vectors = sorted([not beta[s & block] & b for s, b in sides] for block, beta in havens)  # True: toward "a"; "b" first
    return [Tangle(g, k, dict(zip(seps, ["ba"[t] for t in v]))) for v in vectors]


def distinguishes(s: Separation, p: Orienter, q: Orienter) -> bool:
    """True iff p and q contain opposite orientations of s."""
    _orienting(_graph_of(s), p, q)
    if s.order >= min(p.order_bound, q.order_bound):
        raise OrientationUndecidableError(
            f"order {s.order} outside the common domain"
        )
    return p.orient(s) != q.orient(s)


def _clique_flow(g: Graph, p: Orienter, q: Orienter):
    """(paths, leftmost cut) of the max flow between the cliques of p and q
    when both are clique witnesses, else None: one `_solve`, memoized on g,
    read by every distinguisher query on the pair."""
    if isinstance(p, TangleWitness) and isinstance(q, TangleWitness) and p.kind == q.kind == "clique":
        return _solve(g, p._anchor, q._anchor)
    return None


def _splits(sep: Separation, p: Orienter, q: Orienter) -> bool:
    """True iff sep lies below both order bounds and p and q both orient it,
    in opposite directions. The two orientations of (V, V) are one
    separation, so it splits nothing."""
    if sep.order >= min(p.order_bound, q.order_bound):
        return False
    x, y = p.toward(sep), q.toward(sep)
    return x is not None and y is not None and x != y and sep.masks[0] != sep.masks[1]


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
    representative: the components of G - cut that meet q's clique go to
    side b, the others to side a. Otherwise the separations below the
    common order bound are scanned in (order, canonical) order, so the
    returned separation is the lexicographically least one of minimum
    order. Calls on one graph share its enumeration through the
    `enumerate_separations` slot.
    """
    _orienting(g, p, q)
    flow = _clique_flow(g, p, q)
    if flow is not None:
        if len(flow[0]) >= min(p.order_bound, q.order_bound):
            return None
        pinned = sum(c for c in _flood(g, flow[1]) if not c & q._anchor)
        sep = _component_separations(g, flow[1], pinned, [])[0]
        if not _splits(sep, p, q):
            raise InternalCheckError("minimum cut failed to distinguish the clique witnesses")
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
    _orienting(g, p, q)
    flow = _clique_flow(g, p, q)
    if flow is not None:
        value = len(flow[0])
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
    tangles = _listed(tangles, "tangles", of="orienters")
    _orienting(_checked(g), *tangles)
    out = []
    for i in range(len(tangles)):
        for j in range(i + 1, len(tangles)):
            o = min_distinguishing_order(g, tangles[i], tangles[j], budget=budget)
            if o is not None:
                out.append(((i, j), o))
    out.sort(key=lambda e: (e[1], e[0]))
    return out
