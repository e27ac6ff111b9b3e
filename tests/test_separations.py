"""Separation algebra: construction, order, nestedness, sequences, limits."""

import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangletree import separations
from tangletree.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    CoverError,
    CrossingEdgeError,
    DisconnectedGraphError,
    EmptyGraphError,
    InternalCheckError,
    PreconditionError,
    SequenceOrderError,
    TangletreeError,
    UnknownVertexError,
)
from tangletree.graph import Graph
from tangletree.limits import classify_vs_limit
from tangletree.separations import (
    NestedSet,
    Separation,
    SeparationSequence,
    dominates,
    enumerate_separations,
    first_crossing,
    interlaced,
    is_proper,
    is_tight,
    leq,
    lt,
    make_separation,
    pushing_index,
    relation,
    supremum,
)
from .conftest import cycle_graph, grid_graph, path_graph, random_connected_graph, star_graph
from .oracles import (
    all_separations_brute,
    components_reference,
    enumerate_separations_reference,
    relation_eight_way,
    relation_reference,
    separation_fault_reference,
)


@pytest.fixture(scope="module")
def p3():
    return path_graph(3)


def sep(g, a, b):
    return make_separation(g, a, b)


def test_make_separation_valid_order_one(p3):
    s = sep(p3, {"p00", "p01"}, {"p01", "p02"})
    assert s.order == 1
    assert s.separator == {"p01"}


def test_make_separation_cover_violation(p3):
    with pytest.raises(CoverError):
        sep(p3, {"p00"}, {"p02"})


def test_make_separation_crossing_edge_names_witness(p3):
    with pytest.raises(CrossingEdgeError) as err:
        sep(p3, {"p00", "p01"}, {"p02"})
    assert err.value.edge == ("p01", "p02")


def test_make_separation_unknown_vertex(p3):
    with pytest.raises(UnknownVertexError):
        sep(p3, {"p00", "zz"}, {"p01", "p02"})


def test_order_of_trivial(p3):
    assert sep(p3, set(), p3.vertices).order == 0


def test_order_clique_chain_separators(scaled_chain):
    # separator sizes follow n + 2^(n+1): 2 and 5 at the first two levels
    assert len(scaled_chain.chain_separator(0)) == 2
    assert len(scaled_chain.chain_separator(1)) == 5


def test_leq_examples(p3):
    small = sep(p3, {"p00"}, p3.vertices)
    mid = sep(p3, {"p00", "p01"}, {"p01", "p02"})
    assert leq(small, mid)
    assert leq(mid, mid)
    assert not leq(mid, small)


def test_leq_ambient_mismatch(p3):
    other = path_graph(4)
    with pytest.raises(AmbientMismatchError):
        leq(sep(p3, set(), p3.vertices), sep(other, set(), other.vertices))


def test_leq_clique_chain_items(scaled_chain):
    chain = scaled_chain.canonical_chain(4)
    assert leq(chain[0], chain[1])
    assert not leq(chain[1], chain[0])


def test_relation_self_nested(p3):
    s = sep(p3, {"p00", "p01"}, {"p01", "p02"}).canonical()
    assert relation(s, s).nested


def test_relation_c4_diagonal_cross():
    g = cycle_graph(4)
    s = sep(g, {"c00", "c01", "c02"}, {"c02", "c03", "c00"}).canonical()
    t = sep(g, {"c01", "c02", "c03"}, {"c03", "c00", "c01"}).canonical()
    rel = relation(s, t)
    assert rel.cross


def test_relation_chain_items_nested(scaled_chain):
    chain = scaled_chain.canonical_chain(4)
    rel = relation(chain[0].canonical(), chain[1].canonical())
    assert rel.nested
    assert rel.witness is not None


def _sides(o):
    return (o.side_a, o.side_b)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_relation_matches_frozenset_reference(data):
    """Same verdict, same witness sides in the same order, for canonical,
    reversed and mixed pairs; oriented inputs are sometimes built afresh
    rather than taken from a separation's cached pair."""
    seed = data.draw(st.integers(0, 10**6))
    g = random_connected_graph(random.Random(seed), data.draw(st.integers(1, 7)))
    seps = enumerate_separations(g, min(2, len(g.vertices)))

    def draw_input():
        s = data.draw(st.sampled_from(seps))
        kind = data.draw(st.sampled_from(["separation", "cached", "fresh"]))
        if kind == "separation":
            return s
        o = s.orient(data.draw(st.sampled_from("ab")))
        return o if kind == "cached" else make_separation(g, o.side_a, o.side_b)

    for _ in range(20):
        s, t = draw_input(), draw_input()
        got, want = relation(s, t), relation_reference(s, t)
        assert got.nested == want.nested
        if want.witness is None:
            assert got.witness is None
        else:
            assert [_sides(o) for o in got.witness] == [_sides(o) for o in want.witness]


def test_relation_raises_when_corner_test_disagrees(monkeypatch):
    g = cycle_graph(4)
    s = sep(g, {"c00", "c01", "c02"}, {"c02", "c03", "c00"}).canonical()
    t = sep(g, {"c00", "c01"}, {"c01", "c02", "c03", "c00"}).canonical()
    assert relation(s, t).nested
    corner = separations._leq_corner
    monkeypatch.setattr(separations, "_leq_corner", lambda *masks: not corner(*masks))
    with pytest.raises(InternalCheckError):
        relation(s, t)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_relation_matches_eight_way_loop(data):
    """The four facts give the eight-comparison loop's verdict and the very
    same witness objects, on canonical, flipped and freshly built inputs;
    the frozenset reference still agrees."""
    seed = data.draw(st.integers(0, 10**6))
    g = random_connected_graph(random.Random(seed), data.draw(st.integers(1, 8)))
    seps = enumerate_separations(g, min(data.draw(st.integers(0, 3)), len(g.vertices)))

    def draw_input():
        s = data.draw(st.sampled_from(seps))
        kind = data.draw(st.sampled_from(["canonical", "flipped", "fresh"]))
        if kind == "canonical":
            return s
        if kind == "flipped":
            return s.reverse()
        o = s.orient(data.draw(st.sampled_from("ab")))
        return make_separation(g, o.side_a, o.side_b)

    for _ in range(20):
        s, t = draw_input(), draw_input()
        got, want = relation(s, t), relation_eight_way(s, t)
        assert got.nested == want.nested == relation_reference(s, t).nested
        if want.witness is None:
            assert got.witness is None
        else:
            assert got.witness[0] is want.witness[0] and got.witness[1] is want.witness[1]


def _counting(monkeypatch, name):
    calls = []
    real = getattr(separations, name)
    monkeypatch.setattr(separations, name, lambda *masks: calls.append(1) or real(*masks))
    return calls


def test_relation_decides_four_facts_each_way(monkeypatch):
    g = random_connected_graph(random.Random(3), 7)
    seps = enumerate_separations(g, 3)[:40]
    pairs = [(s, t) for s in seps for t in (seps[0], seps[-1], seps[20])]
    pairs += [(s.reverse(), t) for s, t in pairs]
    assert {relation(s, t).nested for s, t in pairs} == {True, False}
    definition = _counting(monkeypatch, "_leq")
    corner = _counting(monkeypatch, "_leq_corner")
    for s, t in pairs:
        relation(s, t)
    assert len(definition) == len(corner) == 4 * len(pairs)


def test_relation_on_a_crossing_pair_builds_no_reverse():
    g = cycle_graph(4)
    s = sep(g, {"c00", "c01", "c02"}, {"c02", "c03", "c00"})
    t = sep(g, {"c01", "c02", "c03"}, {"c03", "c00", "c01"})
    assert relation(s, t).cross
    assert "_reverse" not in s.__dict__ and "_reverse" not in t.__dict__


def test_relation_raises_when_definition_disagrees(monkeypatch):
    g = cycle_graph(4)
    s = sep(g, {"c00", "c01", "c02"}, {"c02", "c03", "c00"}).canonical()
    t = sep(g, {"c00", "c01"}, {"c01", "c02", "c03", "c00"}).canonical()
    assert relation(s, t).nested
    definition = separations._leq
    monkeypatch.setattr(separations, "_leq", lambda *masks: not definition(*masks))
    with pytest.raises(InternalCheckError):
        relation(s, t)


@pytest.mark.parametrize("other", [None, 3, "a", ({"p00"}, {"p00", "p01", "p02"})])
def test_non_separation_is_an_ambient_error(p3, other):
    s = sep(p3, {"p00", "p01"}, {"p01", "p02"})
    for call in (lambda: relation(s, other), lambda: leq(s, other), lambda: is_proper(p3, other)):
        with pytest.raises(AmbientMismatchError):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda g, s: relation(None, s),
        lambda g, s: leq(3, s),
        lambda g, s: lt(None, s),
        lambda g, s: NestedSet.of(g, [None]),
        lambda g, s: SeparationSequence.strictly_increasing([None]),
        lambda g, s: supremum([None]),
        lambda g, s: dominates([None], [s]),
    ],
    ids=["relation", "leq", "lt", "NestedSet.of", "strictly_increasing", "supremum", "dominates"],
)
def test_non_separation_first_is_an_ambient_error(p3, call):
    """A non-separation in the first place is checked before its graph or
    sort key is read."""
    with pytest.raises(AmbientMismatchError):
        call(p3, sep(p3, {"p00", "p01"}, {"p01", "p02"}))


def _abc() -> Graph:
    return Graph.from_data("abc", [("a", "b"), ("b", "c")])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda g, seq: make_separation(g, None, {"a"}), PreconditionError, None),
        (lambda g, seq: supremum(None), PreconditionError, None),
        (lambda g, seq: dominates(None, [seq[0]]), PreconditionError, None),
        (lambda g, seq: dominates([seq[0]], 3), PreconditionError, None),
        (lambda g, seq: NestedSet.of(g, None), PreconditionError, None),
        (lambda g, seq: SeparationSequence.strictly_increasing(None), PreconditionError, None),
        (lambda g, seq: SeparationSequence.weakly_increasing(3), PreconditionError, None),
        (lambda g, seq: first_crossing(None), PreconditionError, None),
        (lambda g, seq: pushing_index(seq, None), PreconditionError, None),
        (lambda g, seq: Separation(g, {1}, {"zz"}), UnknownVertexError, "zz"),
        (lambda g, seq: make_separation(g, iter(["q", "a"]), ["b", "c", "p"]), UnknownVertexError, "p"),
        (lambda g, seq: pushing_index(seq, [1, "zz"]), UnknownVertexError,
         "pushing set leaves the supremum's A side: ['zz', 1]"),
        (lambda g, seq: classify_vs_limit(seq, None), AmbientMismatchError, "expected a separation, got NoneType"),
    ],
    ids=["make_separation None", "supremum None", "dominates None", "dominates 3", "NestedSet.of None",
         "strictly_increasing None", "weakly_increasing 3", "first_crossing None",
         "pushing_index None", "mixed names", "unknown names in an iterator", "pushing mixed names",
         "classify_vs_limit None"],
)
def test_malformed_arguments_raise_library_errors(call, error, message):
    """A value that is not iterable is a PreconditionError, an unknown name
    an UnknownVertexError naming the least unknown name (by repr where
    names cannot be compared), and an argument that is no separation an
    AmbientMismatchError."""
    g = _abc()
    seq = SeparationSequence.strictly_increasing([sep(g, {"a"}, {"a", "b", "c"}), sep(g, {"a", "b"}, {"b", "c"})])
    with pytest.raises(error) as caught:
        call(g, seq)
    if message is not None:
        assert str(caught.value) == message


def test_sides_may_be_any_iterables_of_names():
    g = _abc()
    want = make_separation(g, {"a", "b"}, {"b", "c"})
    for a, b in (({"a", "b"}, ["b", "c"]), (("a", "b"), iter("bc")), ("ab", frozenset("bc"))):
        got = Separation(g, a, b)
        assert got == want and got.sort_key == want.sort_key and got.separator == {"b"}


def test_orientations_are_built_once(p3):
    s = sep(p3, {"p00", "p01"}, {"p01", "p02"}).canonical()
    x, y = s.orientations()
    assert s.orientations()[0] is x and s.orientations()[1] is y
    assert s.orient("b") is x and s.orient("a") is y
    assert (x.side_a, x.side_b) == (s.side_a, s.side_b) and y == x.reverse()


def test_sides_are_validated_once(monkeypatch):
    """Enumeration checks each separation's sides once, on their masks; the
    orientations it hands out are that object and its reverse, which are not
    checked again."""
    calls = []
    check = separations._fault
    monkeypatch.setattr(separations, "_fault", lambda *a: calls.append(1) or check(*a))
    seps = enumerate_separations(grid_graph(3, 6), 4)
    for s in seps:
        assert s.orient("b") is s and s.orient("a") is s.reverse()
        assert s.reverse() is s.reverse() and s.reverse().reverse() is s
        assert s.canonical() is s and s.reverse().canonical() is s
    assert len(seps) == 5280
    assert len(calls) == len(seps)


def test_mask_check_rejects_forged_pairs():
    g = path_graph(4)
    check = separations._fault
    assert check(g, g.mask({"p00", "p01"}), g.mask({"p01", "p02", "p03"})) is None
    forged = [
        ({"p00", "p01"}, {"p02", "p03"}),  # p01-p02 crosses: the last strict vertex of A
        ({"p02", "p03"}, {"p00", "p01"}),  # p02-p01 crosses: the first strict vertex of A
        ({"p00", "p01"}, {"p01", "p02"}),  # p03 is on neither side
    ]
    for a, b in forged:
        assert check(g, g.mask(a), g.mask(b)) is not None
        with pytest.raises(InternalCheckError):
            separations._separation(g, g.mask(a), g.mask(b))


# Vertex names whose sorted order is not their order here; those a graph
# does not take stand for unknown vertices.
_NAMES = ("x2", "b", "zz", "a", "x10", "m", "b0", "q", "x1", "z", "c", "y")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_public_constructor_matches_the_frozenset_check(data):
    """The mask check gives the frozenset check's error type, message and
    edge, and on valid sides the masks, sort key and separator computed from
    the sides, on random graphs of at most 9 vertices and sides that may
    name unknown vertices."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    names = rng.sample(_NAMES, rng.randint(1, 9))
    density, stray = rng.random(), rng.random() / 4
    g = Graph.from_data(names, [e for e in combinations(names, 2) if rng.random() < density])
    where = {v: rng.choice("aaaaabbbbb22222-") if v in g.vertices else rng.choice("ab2") if rng.random() < stray else "-"
             for v in _NAMES}
    a = frozenset(v for v, w in where.items() if w in "a2")
    b = frozenset(v for v, w in where.items() if w in "b2")
    want = separation_fault_reference(g, a, b)
    try:
        got = make_separation(g, a, b)
    except TangletreeError as exc:
        assert (type(exc), str(exc), getattr(exc, "edge", None)) == (type(want), str(want), getattr(want, "edge", None))
    else:
        assert want is None
        assert got.masks == (g.mask(a), g.mask(b))
        assert got.sort_key == (tuple(sorted(a)), tuple(sorted(b)))
        assert got.separator == a & b


def _k4_and_pendant() -> Graph:
    return Graph.from_data("abcdp", [*combinations("abcd", 2), ("d", "p")])


@pytest.mark.parametrize(
    "g",
    [path_graph(6), star_graph(5), cycle_graph(6), _k4_and_pendant()],
    ids=["path", "star", "cycle", "K4 and a pendant vertex"],
)
def test_mask_check_matches_the_frozenset_check_on_every_assignment(g):
    """Every vertex on side A only, B only, both or neither: the mask check
    gives the frozenset check's error type, message and edge, or None as
    it does, also where a strict side is empty."""
    names = sorted(g.vertices)
    for where in product("ab2-", repeat=len(names)):
        a = frozenset(v for v, w in zip(names, where) if w in "a2")
        b = frozenset(v for v, w in zip(names, where) if w in "b2")
        got, want = separations._fault(g, g.mask(a), g.mask(b)), separation_fault_reference(g, a, b)
        assert (type(got), str(got), getattr(got, "edge", None)) == (type(want), str(want), getattr(want, "edge", None))


def _stored_frozensets(s) -> list[str]:
    return [name for name, value in vars(s).items() if isinstance(value, frozenset)]


def test_every_separation_stores_masks_until_a_view_is_read():
    """Every way of building a separation stores its masks and sort key and
    no frozenset: the public constructor, `make_separation`, `from_json`,
    enumeration, `reverse()`, `supremum` and `_component_separations`. Once
    read, each view equals the names of its mask, and reading the views
    changes neither equality, the hash nor the sort key."""
    g = path_graph(4)
    names = sorted(g.vertices)
    public = Separation(g, {"p00", "p01"}, {"p01", "p02", "p03"})
    later = make_separation(g, ["p00", "p01", "p02"], ["p02", "p03"])
    enumerated = enumerate_separations(g, 1)[-1]
    built = {
        "constructor": public,
        "make_separation": later,
        "from_json": Separation.from_json(g, {"a": ["p00"], "b": ["p00", "p01", "p02", "p03"]}),
        "enumeration": enumerated,
        "reverse": public.reverse(),
        "reverse of enumerated": enumerated.reverse(),
        "supremum": supremum([public, later]),
        "_component_separations": separations._component_separations(g, g.mask({"p01"}), g.mask({"p00"}), [])[0],
    }
    for how, s in built.items():
        assert {"masks", "sort_key"} <= vars(s).keys() and not _stored_frozensets(s), how
        twin = separations._separation(g, *s.masks)
        before = (s == twin, hash(s), s.sort_key)
        a, b = s.masks
        for view, mask in ((s.side_a, a), (s.side_b, b), (s.separator, a & b)):
            assert view == frozenset(v for i, v in enumerate(names) if mask >> i & 1), how
        assert sorted(_stored_frozensets(s)) == ["separator", "side_a", "side_b"], how
        assert (s == twin, hash(s), s.sort_key) == before == (True, hash(twin), twin.sort_key), how


@pytest.mark.parametrize("name", ["side_a", "side_b", "separator", "masks", "sort_key", "graph", "other"])
def test_separation_is_immutable(p3, name):
    s = sep(p3, {"p00", "p01"}, {"p01", "p02"})
    s.separator  # a view that has been read is no more writable than one that has not
    with pytest.raises(AttributeError):
        setattr(s, name, frozenset())
    with pytest.raises(AttributeError):
        delattr(s, name)
    assert s == sep(p3, {"p00", "p01"}, {"p01", "p02"})


def _tree(rng: random.Random, n: int) -> Graph:
    vs = [f"t{i}" for i in range(n)]
    return Graph.from_data(vs, [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)])


def _budget_exceeded(enumerate_, g, max_order, budget) -> bool:
    try:
        enumerate_(g, max_order, budget=budget)
    except BudgetExceededError:
        return True
    return False


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_enumeration_matches_the_frozenset_loop(data):
    """Same list in the same order, each object built with the caches that
    fresh computation from its sides gives, and the same budget failures, on
    random connected graphs, trees and stars, at every order. In part of
    the examples the budget is drawn, per order, from the candidate count
    up to below the widest separator's bipartition count, where only the
    bipartition rule raises."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 9))
    g = data.draw(st.sampled_from([random_connected_graph, _tree]))(rng, n)
    if data.draw(st.booleans()):
        g = star_graph(n - 1)
    budget = data.draw(st.integers(0, 2**n))
    near_bipartitions = data.draw(st.booleans())
    candidates = widest = 0
    for max_order in range(n + 1):  # ascending, so each call on g misses the slot
        if near_bipartitions:
            candidates += comb(n, max_order)
            for separator in combinations(sorted(g.vertices), max_order):
                widest = max(widest, 1 << len(components_reference(g, separator)[1:]))
            if candidates < widest:
                budget = data.draw(st.integers(candidates, widest - 1))
        got = enumerate_separations(g, max_order)
        assert not any(_stored_frozensets(o) for s in got for o in (s, s.reverse()))
        expected = enumerate_separations_reference(g, max_order)
        assert [(s.side_a, s.side_b) for s in got] == [(s.side_a, s.side_b) for s in expected]
        for s in got:
            for o in (s, s.reverse()):
                assert vars(o)["masks"] == (g.mask(o.side_a), g.mask(o.side_b))
                assert vars(o)["sort_key"] == (tuple(sorted(o.side_a)), tuple(sorted(o.side_b)))
                assert o.separator == o.side_a & o.side_b
                assert hash(o) == hash(make_separation(g, o.side_a, o.side_b))
        exceeded = _budget_exceeded(enumerate_separations_reference, g, max_order, budget)
        twin = Graph(g.vertices, g.edges)  # a miss, then a hit on g's slot
        assert _budget_exceeded(enumerate_separations, twin, max_order, budget) == exceeded
        assert _budget_exceeded(enumerate_separations, g, max_order, budget) == exceeded


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_equality_and_hash_follow_the_name_sets(data):
    """Separations built by the constructor, by enumeration and by
    `reverse()`, over two distinct but equal graphs, are equal exactly when
    their sides are equal as name sets, and equal ones hash equal. None of
    them equals the separation with the same masks over an unequal graph:
    the graph with every name prefixed (the same vertex order), or with one
    edge fewer."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_connected_graph(rng, data.draw(st.integers(1, 8)))
    twin = Graph(g.vertices, g.edges)
    built = []
    for graph in (g, twin):
        seps = enumerate_separations(graph, min(2, len(g.vertices)))
        built += rng.sample(seps, min(4, len(seps)))
        built += [s.reverse() for s in rng.sample(seps, min(4, len(seps)))]
        for s in rng.sample(seps, min(4, len(seps))):
            a, b = (s.side_a, s.side_b) if rng.random() < 0.5 else (s.side_b, s.side_a)
            built.append(Separation(graph, sorted(a), iter(b)))
    for s, t in product(built, repeat=2):
        equal = s == t
        assert equal == ((s.side_a, s.side_b) == (t.side_a, t.side_b))
        assert not equal or hash(s) == hash(t)
    renamed = Graph.from_data(("x" + v for v in g.vertices), (("x" + u, "x" + v) for u, v in g.edges))
    fewer = [Graph(g.vertices, g.edges - {min(g.edges)})] if g.edges else []
    for h in [renamed, *fewer]:
        for s in built:
            other = separations._separation(h, *s.masks)
            assert s != other and other != s


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_sort_key_matches_the_sides(data):
    seed = data.draw(st.integers(0, 10**6))
    g = random_connected_graph(random.Random(seed), data.draw(st.integers(1, 7)))
    for s in enumerate_separations(g, min(2, len(g.vertices))):
        fresh = make_separation(g, s.side_b, s.side_a)  # built by the public constructor
        for o in (s, s.reverse(), fresh.reverse(), fresh):
            assert o.sort_key == (tuple(sorted(o.side_a)), tuple(sorted(o.side_b)))
        assert s.sort_key <= s.reverse().sort_key


def test_canonical_orientation_equals_its_separation(p3):
    s = sep(p3, {"p00", "p01"}, {"p01", "p02"}).canonical()
    fresh = sep(p3, s.side_b, s.side_a)
    assert fresh != s and fresh.canonical() == s and hash(fresh.canonical()) == hash(s)
    assert fresh.reverse() == s and {s: 1}[fresh.reverse()] == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corner_test_agrees_with_definition(data):
    # `relation` raises InternalCheckError on any disagreement, so running it
    # over every pair is the property
    seed = data.draw(st.integers(0, 10**6))
    n = data.draw(st.integers(2, 6))
    g = random_connected_graph(random.Random(seed), n)
    seps = enumerate_separations(g, min(3, len(g.vertices)))
    for i, s in enumerate(seps):
        for t in seps[i:]:
            relation(s, t)


def test_is_proper(p3):
    assert not is_proper(p3, sep(p3, set(), p3.vertices))
    assert not is_proper(p3, sep(p3, {"p00"}, p3.vertices))
    assert is_proper(p3, sep(p3, {"p00", "p01"}, {"p01", "p02"}))


def test_is_tight(p3):
    assert is_tight(p3, sep(p3, {"p00", "p01"}, {"p01", "p02"}))
    assert not is_tight(p3, sep(p3, set(), p3.vertices))


def test_is_tight_clique_chain_first_item(scaled_chain):
    g = scaled_chain.graph_at(2)
    assert is_tight(g, scaled_chain.chain_item(0, 2))


def test_enumerate_p3_proper_separations(p3):
    seps = enumerate_separations(p3, 1)
    proper = [s for s in seps if s.is_proper()]
    assert len(proper) == 1
    assert proper[0].separator == {"p01"}


def test_enumerate_k4_no_proper_below_order_two():
    g = Graph.from_data(
        ["k1", "k2", "k3", "k4"],
        [("k1", "k2"), ("k1", "k3"), ("k1", "k4"), ("k2", "k3"), ("k2", "k4"), ("k3", "k4")],
    )
    assert not [s for s in enumerate_separations(g, 1) if s.is_proper()]


def test_enumerate_two_k4_bridge_separation():
    from .conftest import two_k4_bridge

    g = two_k4_bridge()
    seps = enumerate_separations(g, 2)
    bridge_like = [
        s for s in seps if s.is_proper() and s.order == 1
    ]
    assert len(bridge_like) == 2  # separator {a1} and separator {b1}
    assert set(all_separations_brute(g, 2)) == set(seps)


def test_enumerate_rejects_disconnected():
    g = Graph.from_data(["a", "b"], [])
    with pytest.raises(DisconnectedGraphError):
        enumerate_separations(g, 1)


def test_enumerate_rejects_empty():
    with pytest.raises(EmptyGraphError):
        enumerate_separations(Graph.from_data([], []), 0)


def test_enumerate_budget():
    g = path_graph(6)
    with pytest.raises(BudgetExceededError):
        enumerate_separations(g, 3, budget=3)


def test_enumeration_slot_hit_keeps_the_budget():
    """A hit costs no search, but the candidate count of its order still
    counts: 1 + 7 + 21 = 29 separators for order 2 on 7 vertices, 8 for
    order 1."""
    g = cycle_graph(7)
    enumerate_separations(g, 2)
    for max_order, needed in ((2, 29), (1, 8)):
        with pytest.raises(BudgetExceededError):
            enumerate_separations(g, max_order, budget=needed - 1)
        assert enumerate_separations(g, max_order, budget=needed)


def test_enumeration_slot_lower_order_hit_equals_fresh_enumeration():
    g = cycle_graph(7)
    top = enumerate_separations(g, 3)
    lower = enumerate_separations(g, 2)
    assert lower[0] is top[0]  # served from the slot
    assert lower == enumerate_separations(cycle_graph(7), 2)


def test_enumeration_slot_returns_copies():
    g = cycle_graph(7)
    expected = enumerate_separations(cycle_graph(7), 2)
    for max_order in (2, 2, 1):  # a miss, a hit at its order, a lower-order hit
        enumerate_separations(g, max_order).clear()
        assert enumerate_separations(g, 2) == expected


def test_enumeration_slot_needs_the_same_graph_object():
    g, twin = cycle_graph(7), cycle_graph(7)
    first = enumerate_separations(g, 2)
    again = enumerate_separations(twin, 2)
    assert again == first
    assert not any(a is b for a, b in zip(first, again))


def test_enumeration_slot_keeps_nothing_from_a_failed_miss():
    g = cycle_graph(7)
    enumerate_separations(g, 1)
    before = separations._last_enumeration
    with pytest.raises(BudgetExceededError):
        enumerate_separations(cycle_graph(7), 2, budget=28)
    with pytest.raises(BudgetExceededError):
        enumerate_separations(g, 2, budget=28)
    assert separations._last_enumeration is before


def test_a_miss_over_budget_floods_nothing(monkeypatch):
    """The candidate count, 1 + 7 + 21 = 29 separators, is known before the
    loop, so a miss with budget 28 raises before its first flood."""
    floods = []
    real = separations._flood
    monkeypatch.setattr(separations, "_flood", lambda *a: floods.append(1) or real(*a))
    with pytest.raises(BudgetExceededError, match="separator candidates"):
        enumerate_separations(cycle_graph(7), 2, budget=28)
    assert floods == []


def test_a_star_over_budget_raises_alike_on_a_miss_and_a_hit():
    """The centre of a 16-leaf star leaves 16 components, so 2^15 = 32,768
    bipartitions: over a budget of 100, which the 18 candidates of order 1
    fit. The separator of order 0 has one bipartition."""
    g = star_graph(16)
    with pytest.raises(BudgetExceededError, match="separator bipartitions"):
        enumerate_separations(g, 1, budget=100)  # a miss
    assert len(enumerate_separations(g, 1, budget=2**15)) == 1 + 2**15 + 16
    for budget in (100, 2**15 - 1):  # hits
        with pytest.raises(BudgetExceededError, match="separator bipartitions"):
            enumerate_separations(g, 1, budget=budget)
    assert len(enumerate_separations(g, 0, budget=100)) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enumerate_matches_brute_force(data):
    seed = data.draw(st.integers(0, 10**6))
    n = data.draw(st.integers(2, 7))
    g = random_connected_graph(random.Random(seed), n)
    max_order = data.draw(st.integers(0, n))
    assert set(enumerate_separations(g, max_order)) == all_separations_brute(g, max_order)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_leq_antisymmetric_and_transitive(data):
    seed = data.draw(st.integers(0, 10**6))
    g = random_connected_graph(random.Random(seed), data.draw(st.integers(2, 6)))
    oriented = []
    for s in enumerate_separations(g, 2):
        oriented.extend(s.orientations())
    for a in oriented:
        for b in oriented:
            if leq(a, b) and leq(b, a):
                assert a == b
            for c in oriented:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)


def test_sequence_strictness_enforced(p3):
    s = sep(p3, {"p00"}, p3.vertices)
    with pytest.raises(SequenceOrderError):
        SeparationSequence.strictly_increasing([s, s])
    weak = SeparationSequence.weakly_increasing([s, s])
    assert len(weak) == 2


def test_sequence_requires_monotone(p3):
    lo = sep(p3, {"p00"}, p3.vertices)
    hi = sep(p3, {"p00", "p01"}, {"p01", "p02"})
    with pytest.raises(SequenceOrderError):
        SeparationSequence.strictly_increasing([hi, lo])


def test_supremum_constant_sequence(p3):
    s = sep(p3, {"p00", "p01"}, {"p01", "p02"})
    assert supremum(SeparationSequence.weakly_increasing([s, s, s])) == s


def test_supremum_ray_cuts():
    g = path_graph(6)
    vs = sorted(g.vertices)
    items = [
        make_separation(g, set(vs[: i + 1]), set(vs[i:])) for i in range(len(vs))
    ]
    sup = supremum(SeparationSequence.strictly_increasing(items))
    assert sup.side_a == g.vertices
    assert sup.side_b == {vs[-1]}


def test_supremum_empty_rejected():
    with pytest.raises(SequenceOrderError):
        supremum([])


def test_supremum_dominates_members(scaled_chain):
    chain = scaled_chain.canonical_chain(4)
    sup = supremum(chain)
    for item in chain:
        assert leq(item, sup)


def test_supremum_clique_chain_strict_side_is_rays(scaled_chain):
    m = 4
    chain = scaled_chain.canonical_chain(m)
    sup = supremum(chain)
    strict_b = sup.side_b - sup.side_a
    g = scaled_chain.graph_at(m)
    ray_vertices = {v for v in g.vertices if v.startswith("r:")}
    # everything on the far side of the window limit, apart from the clique
    # beyond the last chain level, is ray territory
    beyond = scaled_chain.clique(m) - sup.separator
    assert strict_b == ray_vertices | beyond


def test_dominates_and_interlaced(scaled_chain):
    chain = scaled_chain.canonical_chain(4)
    sub = SeparationSequence.strictly_increasing([chain[1], chain[3]])
    assert dominates(chain, sub)
    assert interlaced(chain, chain)
    assert interlaced(chain, sub)
    # a subsequence of an increasing run dominates the run as well, which is
    # exactly why the two are interlaced
    assert dominates(sub, chain)


def test_domination_transfers_to_suprema(scaled_chain):
    # domination of sequences orders their suprema
    chain = scaled_chain.canonical_chain(4)
    sub = SeparationSequence.strictly_increasing([chain[0], chain[2]])
    assert dominates(chain, sub)
    assert leq(supremum(sub), supremum(chain))
    both = SeparationSequence.strictly_increasing([chain[1], chain[3]])
    if interlaced(chain, both):
        assert supremum(both) == supremum(chain)


def test_pushing_empty_set(scaled_chain):
    chain = scaled_chain.canonical_chain(4)
    assert pushing_index(chain, set()).index == 0


def test_pushing_ray_first_vertex():
    g = path_graph(6)
    vs = sorted(g.vertices)
    items = [
        make_separation(g, set(vs[: i + 1]), set(vs[i:])) for i in range(len(vs))
    ]
    seq = SeparationSequence.strictly_increasing(items)
    assert pushing_index(seq, {vs[0]}).index == 1


def test_pushing_attachment_vertex(scaled_chain):
    chain = scaled_chain.canonical_chain(4)
    w0 = scaled_chain.attachment_vertex(0)
    report = pushing_index(chain, {w0})
    # w^0 is a designated exit of level 0, so it sits in every separator
    assert report.index == 0
    assert report.in_separator == {w0}


def test_pushing_rejects_outside_supremum(scaled_chain):
    chain = SeparationSequence.strictly_increasing(scaled_chain.canonical_chain(4).items[:2])
    tail_ray = "r:3:4"
    with pytest.raises(UnknownVertexError):
        pushing_index(chain, {tail_ray})


def test_nested_set_rejects_crossing():
    g = cycle_graph(4)
    s = sep(g, {"c00", "c01", "c02"}, {"c02", "c03", "c00"}).canonical()
    t = sep(g, {"c01", "c02", "c03"}, {"c03", "c00", "c01"}).canonical()
    with pytest.raises(SequenceOrderError):
        NestedSet.of(g, [s, t])


def test_json_round_trips(p3, scaled_chain):
    s = sep(p3, {"p00", "p01"}, {"p01", "p02"})
    assert s.to_json() == {"a": ["p00", "p01"], "b": ["p01", "p02"]}
    chain = scaled_chain.canonical_chain(3)
    g = scaled_chain.graph_at(3)
    doc = chain.to_json()
    assert SeparationSequence.from_json(g, doc).items == chain.items
    nested = NestedSet.of(g, [it.canonical() for it in chain])
    assert NestedSet.from_json(g, nested.to_json()).members == nested.members
