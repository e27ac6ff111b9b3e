"""Separations of a graph: orientations, order, nestedness, sequences, limits.

A separation (A, B) is a pair of vertex sets covering V(G) with no edge
between A - B and B - A; its separator is A & B and its order is |A & B|.
The partial order is (A, B) <= (C, D) iff A <= C and B >= D. Two
separations are nested when some orientations are comparable; `relation`
decides this twice, via the definition and via the corner test on
(A & D) - S with S = (A & B) & (C & D), and insists the two agree.

One class, `Separation`, is the oriented pair (A, B). It stores its sides
once, as int bitmasks over the graph's sorted vertices, next to the
`sort_key` (the sides as sorted name tuples) that the canonical order
compares. The unoriented separation {A, B} is its canonical orientation,
the one of (A, B) and (B, A) with the smaller `sort_key`. One check on
the masks, `_fault`, decides whether (A, B) is a separation, and one
builder, `_built`, stores the masks and the sort key. Equality, hashing,
order, <=, the corner test, `relation` and `supremum` all run on the
masks. `reverse()` builds (B, A) on first call without a check, since it
is a separation exactly when (A, B) is, and links the two. Sides are
frozensets of vertex names in the API and JSON: `side_a`, `side_b` and
`separator` are views built on first read, which the library reads only
to hand names out, to check names a caller passed (`pushing_index`), or
to compare separations of different graphs.

Every separation built from a separator S and the components of G - S,
(S | left, V - left) for a union `left` of components, comes from one
builder, `_component_separations`: the enumeration, the clique-pair
distinguishers of `tree_of_tangles` and the leftmost-cut distinguisher of
`tangles` all call it. `enumerate_separations` keeps its last result in one
slot, together with the components of G - S, as masks, of every candidate
separator S it flooded; the tangle search reads both from there.

Sequences ordered by <= have a supremum (union of the left sides,
intersection of the right sides), which is again a separation; domination
and interlacing compare sequences through that order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from math import comb
from operator import attrgetter
from typing import Iterable, Sequence
from weakref import ref

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    CoverError,
    CrossingEdgeError,
    DisconnectedGraphError,
    EmptyGraphError,
    GraphFormatError,
    InternalCheckError,
    PreconditionError,
    SeparationError,
    SequenceOrderError,
    UnknownVertexError,
)
from .graph import Graph, _as_json, _checked, _edge, _field, _flood, _integer, _least, _names, _ordered, _select, _tight

DEFAULT_ENUMERATION_BUDGET = 2_000_000


@dataclass(frozen=True, eq=False, init=False)
class Separation:
    """The oriented separation (A, B) of `graph`, validated when built.

    It stores (A, B) once, as the `Graph.mask` bitmasks `masks`, on which
    equality, hashing, `order`, `is_proper`, `leq`, the corner test and
    `relation` run, next to `sort_key`, (sorted A, sorted B), which the
    canonical order compares. Two separations are equal when their masks
    are and their graphs are equal. `side_a`, `side_b` and `separator`
    (A & B) are frozensets of vertex names, built on first read. The
    unoriented separation {A, B} is `canonical()`: this object or its
    reverse, whichever has the smaller `sort_key`. The sides may be given
    as any iterables of vertex names; a value that is not iterable raises
    PreconditionError, and unknown names UnknownVertexError naming the
    least of them.
    """

    graph: Graph
    masks: tuple[int, int]
    sort_key: tuple[tuple[str, ...], tuple[str, ...]]

    def __init__(self, graph: Graph, side_a: Iterable[str], side_b: Iterable[str]):
        _checked(graph)
        masks, unknown = [], []
        for side in (side_a, side_b):
            try:
                masks.append(graph.mask(side))  # each side read once: it may be an iterator
            except UnknownVertexError as exc:
                unknown += exc.args
        if unknown:
            raise UnknownVertexError(_least(unknown))
        fault = _fault(graph, *masks)
        if fault:
            raise fault
        _built(self, graph, tuple(masks))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Separation):
            return NotImplemented
        return self.masks == other.masks and (self.graph is other.graph or self.graph == other.graph)

    def __hash__(self):
        return hash(self.masks)

    def __repr__(self):
        return "({} | {})".format(*map(list, self.sort_key))

    side_a = cached_property(lambda self: frozenset(self.sort_key[0]))
    side_b = cached_property(lambda self: frozenset(self.sort_key[1]))
    separator = cached_property(lambda self: frozenset(_select(self.graph._vertex_index[0], self.masks[0] & self.masks[1])))

    @property
    def order(self) -> int:
        return (self.masks[0] & self.masks[1]).bit_count()

    def reverse(self) -> "Separation":
        """(B, A): `s.reverse() is s.reverse()` and `s.reverse().reverse() is s`.

        Built on first call without a check, since it is a separation exactly
        when (A, B) is, from the swapped halves of this object. The builder
        holds it and it links back by weak reference: a cycle would keep
        each pair alive until a full garbage collection.
        """
        d = self.__dict__
        r = d.get("_reverse")
        if r is None:
            back = d.get("_back")
            r = back and back()
            if r is None:
                d["_reverse"] = r = _built(object.__new__(Separation), self.graph, self.masks[::-1],
                                           self.sort_key[::-1], _back=ref(self))
        return r

    def canonical(self) -> "Separation":
        """The unoriented separation: self or self.reverse(), whichever has
        the smaller sort key."""
        a, b = self.sort_key
        return self if a <= b else self.reverse()

    def orient(self, toward: str) -> "Separation":
        """The orientation with the named side ('a' or 'b') of this one as B."""
        if toward == "b":
            return self
        if toward == "a":
            return self.reverse()
        raise ValueError(f"toward must be 'a' or 'b', got {toward!r}")

    def orientations(self) -> tuple["Separation", "Separation"]:
        """(A, B) and (B, A): the same two objects on every call."""
        return (self, self.reverse())

    def is_proper(self) -> bool:
        full = (1 << len(self.graph.vertices)) - 1
        return full not in self.masks

    def to_json(self) -> dict:
        a, b = self.sort_key
        return {"a": list(a), "b": list(b)}

    @classmethod
    def from_json(cls, g: Graph, doc: dict) -> "Separation":
        """The separation (a, b) of a document; each side must be a list of
        vertex names."""
        doc = _as_json(doc, "a separation", dict)
        sides = (_field(doc, "a"), _field(doc, "b"))
        if not all(isinstance(side, list) and all(isinstance(v, str) for v in side) for side in sides):
            raise GraphFormatError("separation sides must be lists of vertex names")
        return make_separation(g, *sides)


def make_separation(g: Graph, a: Iterable[str], b: Iterable[str]) -> Separation:
    """Validated construction of the separation (a, b) of g."""
    return Separation(g, a, b)


def _built(s: Separation, g: Graph, masks: tuple[int, int], key=None, **links) -> Separation:
    """s with its graph, masks, sort key (read off the masks unless given)
    and links set: the one way a Separation is filled in."""
    if key is None:
        names = g._vertex_index[0]
        # via lists: tuples grown from iterators skip, then fill, the tuple free lists
        key = tuple(list(_select(names, masks[0]))), tuple(list(_select(names, masks[1])))
    s.__dict__.update(graph=g, masks=masks, sort_key=key, **links)
    return s


def _fault(g: Graph, a: int, b: int) -> SeparationError | None:
    """Why the masks (A, B) are not a separation of g, or None: a CoverError
    lists up to five vertices on neither side; a CrossingEdgeError joins the
    first vertex of the smaller strict side (A - B on a tie) with a neighbour
    in the other to its least such neighbour. Only that side's closed
    neighbourhoods are scanned, and none when a strict side is empty."""
    names, _, closed = g._vertex_index
    full = (1 << len(names)) - 1
    if a | b != full:
        return CoverError(f"sides do not cover V(G); missing {list(_select(names, full & ~(a | b)))[:5]}")
    strict_a, strict_b = a & ~b, b & ~a
    if not strict_a or not strict_b:
        return None
    if strict_b.bit_count() < strict_a.bit_count():
        strict_a, strict_b = strict_b, strict_a
    if not any(map(strict_b.__and__, _select(closed, strict_a))):
        return None
    for v, near in zip(_select(names, strict_a), _select(closed, strict_a)):
        hit = near & strict_b
        if hit:
            return CrossingEdgeError(_edge(v, names[(hit & -hit).bit_length() - 1]))


def _separation(g: Graph, a: int, b: int) -> Separation:
    """The separation (A, B) of g from its masks. Masks that `_fault`
    rejects can only come from a bug, so they raise InternalCheckError."""
    fault = _fault(g, a, b)
    if fault:
        raise InternalCheckError(f"masks {a:#x} | {b:#x} are not a separation of {g!r}: {fault}")
    return _built(object.__new__(Separation), g, (a, b))


def _component_separations(g: Graph, s: int, pinned: int, free: list[int]) -> list[Separation]:
    """The canonical separations (S | left, V - left) of g, for the separator
    mask s: left is the component mask `pinned` joined with each union of
    the components in `free`, the i-th of them taken where bit i of a
    counter is set, in counter order."""
    lefts = [pinned]
    for comp in free:
        lefts += [left | comp for left in lefts]
    full = (1 << len(g._vertex_index[0])) - 1
    return [_separation(g, s | left, full ^ left).canonical() for left in lefts]


def _graph_of(s) -> Graph:
    """The graph of s, checked to be a separation first."""
    if not isinstance(s, Separation):
        raise AmbientMismatchError(f"expected a separation, got {type(s).__name__}")
    return s.graph


def _listed(items, what: str, of: str = "separations") -> list:
    """items as a list; a value that is not iterable raises PreconditionError,
    as `Graph.mask` does for a vertex set."""
    try:
        return list(items)
    except TypeError as exc:
        raise PreconditionError(f"{what} must be an iterable of {of}: {exc}") from None


def _ambient(g: Graph, s) -> None:
    if not (_graph_of(s) is g or s.graph == g):
        raise AmbientMismatchError("separation does not live over this graph")


def _leq(a: int, b: int, c: int, d: int) -> bool:
    """(A, B) <= (C, D) on masks: A <= C and B >= D."""
    return not (a & ~c or d & ~b)


def _leq_corner(a: int, b: int, c: int, d: int) -> bool:
    """Corner form of <= on masks: (A & D) - S empty, S = (A & B) & (C & D)."""
    return not (a & d & ~(a & b & c & d))


def leq(s: Separation, t: Separation) -> bool:
    """(A, B) <= (C, D) iff A <= C and B >= D."""
    _ambient(_graph_of(s), t)
    return _leq(*s.masks, *t.masks)


def lt(s: Separation, t: Separation) -> bool:
    return leq(s, t) and s.masks != t.masks


@dataclass(frozen=True)
class Relation:
    """Outcome of the nested/cross decision for two separations."""

    nested: bool
    witness: tuple[Separation, Separation] | None = None

    @property
    def cross(self) -> bool:
        return not self.nested


_CROSS = Relation(False)


def relation(s: Separation, t: Separation) -> Relation:
    """Decide nested-with-witness vs cross, by definition and corner test.

    With s = (A, B) and t = (C, D), (C, D) <= (A, B) iff (B, A) <= (D, C),
    in both forms, so the eight ordered orientation pairs hold four facts:
    (A, B) <= (C, D), (B, A) <= (D, C), (A, B) <= (D, C) and
    (B, A) <= (C, D). Each is decided once by each test; disagreement raises
    InternalCheckError since it can only come from an implementation bug.
    The witness is the first true fact in that order, as (s, t), (t, s),
    (s, reverse(t)) or (reverse(t), s); only the last two build a reverse.
    """
    _ambient(_graph_of(s), t)
    a, b = s.masks
    c, d = t.masks
    s_t = _leq(a, b, c, d)
    t_s = _leq(b, a, d, c)
    s_tr = _leq(a, b, d, c)
    tr_s = _leq(b, a, c, d)
    if (
        s_t != _leq_corner(a, b, c, d)
        or t_s != _leq_corner(b, a, d, c)
        or s_tr != _leq_corner(a, b, d, c)
        or tr_s != _leq_corner(b, a, c, d)
    ):
        raise InternalCheckError(f"corner test disagrees with definition between {s!r} and {t!r}")
    if s_t:
        return Relation(True, (s, t))
    if t_s:
        return Relation(True, (t, s))
    if s_tr:
        return Relation(True, (s, t.reverse()))
    if tr_s:
        return Relation(True, (t.reverse(), s))
    return _CROSS


def first_crossing(
    seps: Sequence[Separation],
) -> tuple[Separation, Separation] | None:
    """First crossing pair (s, t), s before t, in the given order, else None."""
    for s, t in combinations(_listed(seps, "separations"), 2):
        if relation(s, t).cross:
            return (s, t)
    return None


def is_proper(g: Graph, s: Separation) -> bool:
    _ambient(g, s)
    return s.is_proper()


def is_tight(g: Graph, s: Separation) -> bool:
    """Both strict sides contain a tight component of g - (A & B)."""
    _ambient(g, s)
    a, b = s.masks
    strict_a = a & ~b
    strict_b = b & ~a
    if not strict_a or not strict_b:
        return False
    # a component of G - (A & B) lies inside A - B or inside B - A
    tight = _tight(g, a & b)
    return any(k & strict_a for k in tight) and any(k & strict_b for k in tight)


# (graph, max_order, separations, floods, widest) of the last enumeration
# finished; floods lists each candidate separator S as (S, the components of
# g - S), as masks, by |S| and then in `combinations` order; widest[k] is the
# most bipartitions of the components of any S with |S| = k. One slot, not
# one per Graph: a sweep over many graphs would keep every enumeration alive
_last_enumeration: tuple = (None, -1, [], [], [])


def enumerate_separations(
    g: Graph,
    max_order: int,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[Separation]:
    """All separations of g with order <= max_order, canonical, each once.

    For every candidate separator S with |S| <= max_order, every bipartition
    of the components of g - S into two sides yields the separation
    (S | left, S | right); the separator of the result is exactly S, so no
    deduplication across candidates is needed. Improper separations are
    included (query `Separation.is_proper`). The call raises before any
    search when the candidate count, sum(C(|V|, s) for s <= max_order),
    exceeds the budget, and before it builds any separation when some
    candidate's bipartitions, 2^(c - 1) for c >= 1 components of g - S,
    exceed it.

    The last finished enumeration stays in one slot. A call on that same
    graph object (`is`) at its order or lower gets a copy, cut to max_order,
    after the same two budget checks.
    """
    if type(max_order) is not int or max_order < 0:  # not bool, as in `Orienter`
        raise PreconditionError(f"max_order must be an integer >= 0, got {max_order!r}")
    return _enumeration(_checked(g), max_order, budget)[0][:]


def _enumeration(g: Graph, max_order: int, budget: int) -> tuple[list[Separation], list[tuple[int, list[int]]]]:
    """The separations of `enumerate_separations` and the floods they were
    built from (see `_last_enumeration`), cut from the slot on a hit. On a
    miss the lists are the slot's own, so callers must not change them."""
    global _last_enumeration
    _integer(budget, "budget")
    last_graph, last_order, last_out, last_floods, last_widest = _last_enumeration
    hit = g is last_graph and max_order <= last_order
    if not hit:
        if not g.vertices:
            raise EmptyGraphError("enumerate_separations requires a non-empty graph")
        if not g.is_connected():
            raise DisconnectedGraphError("enumerate_separations requires a connected graph")
        if max_order > len(g.vertices):
            raise PreconditionError("max_order exceeds |V(g)|")
    candidates = sum(comb(len(g.vertices), s) for s in range(max_order + 1))
    if candidates > budget:
        raise BudgetExceededError("separator candidates", budget)
    if hit:
        if max(last_widest[: max_order + 1]) > budget:
            raise BudgetExceededError("separator bipartitions", budget)
        return last_out[: bisect_right(last_out, max_order, key=attrgetter("order"))], last_floods[:candidates]
    bits = [1 << i for i in range(len(g.vertices))]
    floods = []
    widest = []
    for size in range(max_order + 1):
        block = [(s, _flood(g, s)) for s in map(sum, combinations(bits, size))]
        # the first component is pinned to the left side, which halves the
        # bipartitions and enumerates each unordered pair exactly once
        widest.append(1 << max(1, *(len(comps) for _, comps in block)) - 1)
        floods += block
    if max(widest) > budget:
        raise BudgetExceededError("separator bipartitions", budget)
    out: list[Separation] = []
    unbuilt = iter(floods)
    for size in range(max_order + 1):
        block = len(out)
        for s, comps in islice(unbuilt, comb(len(bits), size)):
            first, *rest = comps or [0]  # with no component left, A == B == V
            out += _component_separations(g, s, first, rest)
        out[block:] = sorted(out[block:], key=attrgetter("sort_key"))  # all of order `size`
    _last_enumeration = (g, max_order, out, floods, widest)  # one rebinding: readers see old or new
    return out, floods


@dataclass(frozen=True, eq=False)
class SeparationSequence:
    """Finite ordered run of oriented separations over one graph.

    Strictly increasing by default; build with `weakly_increasing` for
    callers that only need the non-strict regime.
    """

    items: tuple[Separation, ...]
    strict: bool = True

    def __post_init__(self):
        if type(self.items) is not tuple:
            object.__setattr__(self, "items", tuple(_listed(self.items, "a sequence")))
        if self.items:
            g = _graph_of(self.items[0])
            for it in self.items[1:]:
                _ambient(g, it)
        for prev, cur in zip(self.items, self.items[1:]):
            if not leq(prev, cur):
                raise SequenceOrderError(f"items not increasing: {prev!r} !<= {cur!r}")
            if self.strict and prev == cur:
                raise SequenceOrderError(f"items not strictly increasing at {cur!r}")

    @classmethod
    def strictly_increasing(cls, items: Sequence[Separation]) -> "SeparationSequence":
        return cls(items, strict=True)

    @classmethod
    def weakly_increasing(cls, items: Sequence[Separation]) -> "SeparationSequence":
        return cls(items, strict=False)

    @property
    def graph(self) -> Graph:
        if not self.items:
            raise SequenceOrderError("empty sequence has no ambient graph")
        return self.items[0].graph

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def to_json(self) -> dict:
        return {"items": [it.to_json() for it in self.items]}

    @classmethod
    def from_json(cls, g: Graph, doc: dict) -> "SeparationSequence":
        items = _as_json(_field(_as_json(doc, "a sequence", dict), "items"), "items")
        return cls(tuple(Separation.from_json(g, d) for d in items))


def supremum(seq: SeparationSequence | Sequence[Separation]) -> Separation:
    """(union of A_i, intersection of B_i), on masks; valid for any non-empty
    run: a vertex on no A_i lies on every B_i, and an edge between the strict
    sides of the result would join the strict sides of some item."""
    items = _listed(seq, "a sequence")
    if not items:
        raise SequenceOrderError("supremum of an empty sequence")
    g = _graph_of(items[0])
    a, b = 0, (1 << len(g.vertices)) - 1
    for it in items:
        _ambient(g, it)
        a |= it.masks[0]
        b &= it.masks[1]
    return _separation(g, a, b)


def dominates(
    seq1: SeparationSequence | Sequence[Separation],
    seq2: SeparationSequence | Sequence[Separation],
) -> bool:
    """Each item of seq2 lies below some item of seq1."""
    items1 = _listed(seq1, "a sequence")
    items2 = _listed(seq2, "a sequence")
    if items1 and items2:
        _ambient(_graph_of(items1[0]), items2[0])
    return all(any(leq(c, a) for a in items1) for c in items2)


def interlaced(seq1, seq2) -> bool:
    return dominates(seq1, seq2) and dominates(seq2, seq1)


@dataclass(frozen=True)
class PushingReport:
    """Least stable index for a finite set against an increasing sequence."""

    index: int
    in_separator: frozenset[str]
    in_strict_side: frozenset[str]


def _stable_from(items, predicate) -> int | None:
    """Least I such that predicate holds for every index >= I, or None."""
    idx = None
    for i in range(len(items) - 1, -1, -1):
        if predicate(items[i]):
            idx = i
        else:
            break
    return idx


def pushing_index(seq: SeparationSequence, x: Iterable[str]) -> PushingReport:
    """Least I with x & (A & B) and x & (A - B) stable from I on.

    Stability is against the window supremum; elements of x outside the
    supremum's A side are rejected.
    """
    x = _names(x, "a pushing set")
    sup = supremum(seq)
    outside = x - sup.side_a
    if outside:
        raise UnknownVertexError(
            f"pushing set leaves the supremum's A side: {_ordered(outside)[:5]}"
        )
    g = sup.graph
    xm = g.mask(x)

    def parts(a: int, b: int) -> tuple[int, int]:
        return xm & a & b, xm & a & ~b

    want = parts(*sup.masks)
    index = _stable_from(seq.items, lambda it: parts(*it.masks) == want)
    if index is None:
        raise SequenceOrderError("window exhausted: no stable index in this window")
    names = g._vertex_index[0]
    return PushingReport(index, *(frozenset(_select(names, m)) for m in want))


@dataclass(frozen=True, eq=False)
class NestedSet:
    """Finite set of pairwise nested separations of one graph."""

    graph: Graph
    members: frozenset[Separation]

    def __post_init__(self):
        _checked(self.graph)
        if type(self.members) is not frozenset:
            object.__setattr__(self, "members", frozenset(_listed(self.members, "members")))
        for s in self.members:  # before `_ordered` reads their sort keys
            _ambient(self.graph, s)
        crossing = first_crossing(self._ordered)
        if crossing:
            raise SequenceOrderError(f"members cross: {crossing[0]!r} vs {crossing[1]!r}")

    @cached_property
    def _ordered(self) -> tuple[Separation, ...]:
        """The members by sort key, sorted once."""
        return tuple(sorted(self.members, key=attrgetter("sort_key")))

    @classmethod
    def of(cls, g: Graph, members: Iterable[Separation]) -> "NestedSet":
        return cls(g, members)

    def __iter__(self):
        return iter(self._ordered)

    def __len__(self):
        return len(self.members)

    def __contains__(self, sep: Separation) -> bool:
        return sep in self.members

    def to_json(self) -> dict:
        return {"members": [s.to_json() for s in self]}

    @classmethod
    def from_json(cls, g: Graph, doc: dict) -> "NestedSet":
        return cls.of(g, _nested_members(g, doc))


def _nested_members(g: Graph, doc: dict) -> list[Separation]:
    """The members of a nested-set document over g, canonical, in document
    order, before any check that they are nested."""
    members = _as_json(_field(_as_json(doc, "a nested set", dict), "members"), "members")
    return [Separation.from_json(g, d).canonical() for d in members]
