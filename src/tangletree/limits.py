"""Relating fixed separations to window limits, plus interlacing machinery.

Window suprema stand in for the limits of strictly increasing sequences.
Every verdict produced here is finite-horizon evidence about an
infinite-object statement, and the reports say so via `evidence_only`.

An interlaced pair couples a strictly increasing sequence (s_i) with
pre-tangles (P_i), one more than there are separations, such that

    IM1: reverse(s_i) lies in P_i and s_i lies in P_{i+1}, and
    IM2: for i < j, every minimal-order separation among s_i .. s_{j-1}
         efficiently distinguishes P_i and P_j.

`construct_interlaced` runs the insertion recursion: whenever a consecutive
pair of chain members fails to distinguish its induced tangles efficiently,
the efficient distinguisher from the nested set is inserted strictly between
them. `thin_out` selects the last index attaining each successive minimal
order, yielding strictly increasing orders while preserving IM1 and IM2.
`exhaustiveness_evidence` reads a presentation's layer chains for signs that
they exhaust the graph.

Frozensets of names are the boundary only: the limit separator handed out,
the boundary argument, and the layer checks and traces, which compare
separations of different windows by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable

from .errors import (
    AmbientMismatchError,
    IncoherentChainError,
    InternalCheckError,
    OrientationUndecidableError,
    PreconditionError,
)
from .families import LayeredPresentation
from .graph import Graph, _checked, _integer, _select, _tight, _vertex_set
from .separations import (
    DEFAULT_ENUMERATION_BUDGET,
    NestedSet,
    Separation,
    SeparationSequence,
    _ambient,
    _listed,
    _stable_from,
    is_tight,
    leq,
    lt,
    relation,
    supremum,
)
from .tangles import Orienter, _orienting, _splits, distinguishes, min_distinguishing_order


@dataclass(frozen=True)
class LimitRelationReport:
    """Which relations a fixed separation bears to the window supremum, and
    from which window index the per-item counterpart holds onward."""

    supremum: Separation
    below: int | None
    reverse_below: int | None
    above: int | None
    cross: int | None
    holds: dict

    def stable_index(self, kind: str) -> int | None:
        return getattr(self, kind)


def classify_vs_limit(seq: SeparationSequence, cd: Separation) -> LimitRelationReport:
    """Relation report of the finite-order separation cd against the window
    supremum of a strictly increasing sequence."""
    sup = supremum(seq)
    _ambient(sup.graph, cd)
    rev = cd.reverse()
    tests = {
        "below": lambda it: leq(cd, it),
        "reverse_below": lambda it: leq(rev, it),
        "above": lambda it: leq(it, cd),
        "cross": lambda it: relation(cd.canonical(), it.canonical()).cross,
    }
    holds = {kind: test(sup) for kind, test in tests.items()}
    stable = {
        kind: _stable_from(seq.items, test) if holds[kind] else None
        for kind, test in tests.items()
    }
    return LimitRelationReport(supremum=sup, holds=holds, **stable)


@dataclass(frozen=True, eq=False)
class InterlacedPair:
    """A window sequence with its accompanying pre-tangles (one extra)."""

    sequence: SeparationSequence
    tangles: tuple

    def __post_init__(self):
        if type(self.tangles) is not tuple:
            object.__setattr__(self, "tangles", tuple(_listed(self.tangles, "tangles", of="orienters")))
        if len(self.tangles) != len(_checked(self.sequence, kind=SeparationSequence)) + 1:
            raise PreconditionError("tangle list must be one longer than the sequence")
        for t in self.tangles:
            if not isinstance(t, Orienter):
                raise AmbientMismatchError(f"expected an orienter, got {type(t).__name__}")

    @property
    def graph(self) -> Graph:
        return self.sequence.graph

    def to_json(self) -> dict:
        return {
            "kind": "interlaced_pair",
            "sequence": self.sequence.to_json(),
            "tangles": [t.to_json() for t in self.tangles],
        }


@dataclass(frozen=True)
class InterlacingReport:
    im1_ok: bool
    im2_ok: bool
    im1_witness: tuple | None
    im2_witness: tuple | None

    @property
    def ok(self) -> bool:
        return self.im1_ok and self.im2_ok


def check_interlaced_pair(
    g: Graph,
    ip: InterlacedPair,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> InterlacingReport:
    """Verify IM1 pointwise and IM2 for every index pair i < j."""
    _checked(g)
    _checked(ip, kind=InterlacedPair)
    im1_witness = _im1_witness(ip.sequence, ip.tangles)
    im2_witness = None
    if im1_witness is None:
        im2_witness = _im2_witness(g, ip.sequence, ip.tangles, budget=budget)
    return InterlacingReport(
        im1_ok=im1_witness is None,
        im2_ok=im1_witness is None and im2_witness is None,
        im1_witness=im1_witness,
        im2_witness=im2_witness,
    )


def _im1_witness(seq, tangles) -> tuple | None:
    """First index i where P_i misses reverse(s_i) or P_{i+1} misses s_i."""
    for i, item in enumerate(seq):
        sep = item.canonical()
        try:
            if tangles[i].orient(sep) != item.reverse():
                return (i, "reverse not in P_i")
            if tangles[i + 1].orient(sep) != item:
                return (i, "forward not in P_{i+1}")
        except OrientationUndecidableError as exc:
            return (i, str(exc))
    return None


def _im2_witness(g, seq, tangles, *, budget) -> tuple | None:
    """First (i, j, sep, reason) where a minimal-order item among s_i ..
    s_{j-1} fails to efficiently distinguish P_i and P_j."""
    for i, j in combinations(range(len(tangles)), 2):
        window = seq.items[i:j]
        minimal = min(it.order for it in window)
        t_star = min_distinguishing_order(g, tangles[i], tangles[j], budget=budget)
        for item in window:
            if item.order != minimal:
                continue
            sep = item.canonical()
            try:
                if not distinguishes(sep, tangles[i], tangles[j]):
                    return (i, j, sep, "does not distinguish")
            except OrientationUndecidableError as exc:
                return (i, j, sep, str(exc))
            if t_star != minimal:
                return (i, j, sep, f"minimum order is {t_star}")
    return None


@dataclass(frozen=True)
class StrongRelevanceReport:
    witnessed: bool
    witness: tuple | None  # (O, P, Q)


def _efficiently_distinguishes(g, sep, p, q, *, budget) -> bool:
    return _splits(sep, p, q) and min_distinguishing_order(g, p, q, budget=budget) == sep.order


def check_strongly_relevant(
    g: Graph,
    s: Separation,
    t: Separation,
    pool: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> StrongRelevanceReport:
    """Witness (O, P, Q) from the pool: s efficiently distinguishes O and P
    with s in P, and t efficiently distinguishes P and Q with reverse(t)
    in P. P is the first pool member in sort order that admits both
    partners; O and Q are the first partners of P."""
    pool = _listed(pool, "a pool", of="orienters")
    _orienting(_checked(g), *pool)
    if not lt(_checked(s, kind=Separation), _checked(t, kind=Separation)):
        raise PreconditionError("strong relevance needs s strictly below t")
    s_sep, t_sep = s.canonical(), t.canonical()
    ordered = sorted(pool, key=lambda x: x.sort_key)
    for p in ordered:
        if not (p.holds(s) and p.holds(t.reverse())):
            continue
        o = next((x for x in ordered if _efficiently_distinguishes(g, s_sep, x, p, budget=budget)), None)
        if o is None:
            continue
        q = next((x for x in ordered if _efficiently_distinguishes(g, t_sep, p, x, budget=budget)), None)
        if q is not None:
            return StrongRelevanceReport(True, (o, p, q))
    return StrongRelevanceReport(False, None)


def _relevance_partner(g, item, pool, *, budget):
    """Lexicographically least (P, Q) with item's separation efficiently
    distinguishing them and item in Q; None when item is not pool-relevant."""
    sep = item.canonical()
    ordered = sorted(pool, key=lambda x: x.sort_key)
    for p in ordered:
        if not p.holds(item.reverse()):
            continue
        for q in ordered:
            if q.holds(item) and _efficiently_distinguishes(g, sep, p, q, budget=budget):
                return (p, q)
    return None


def construct_interlaced(
    g: Graph,
    n: NestedSet,
    seq: SeparationSequence,
    pool: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> InterlacedPair:
    """Insertion recursion producing an interlaced pair over the nested set.

    Requires strictly increasing orders and pool-relevant items. Between
    consecutive items whose induced tangles are not efficiently distinguished
    by the earlier item, the efficient distinguisher from n (oriented into
    the later induced tangle) is inserted; it lands strictly between the two
    by nestedness and consistency, and a failure to do so aborts loudly.
    """
    pool = _listed(pool, "a pool", of="orienters")
    _orienting(_checked(g), *pool)
    if not _checked(seq, kind=SeparationSequence):
        raise PreconditionError("the sequence is empty")
    members = set(_checked(n, kind=NestedSet).members)
    for item in seq:
        if item.canonical() not in members:
            raise PreconditionError(f"sequence item {item!r} is not in the nested set")
    orders = [item.order for item in seq]
    if any(a >= b for a, b in zip(orders, orders[1:])):
        raise PreconditionError("item orders must be strictly increasing")
    partners = []
    for item in seq:
        pq = _relevance_partner(g, item, pool, budget=budget)
        if pq is None:
            raise PreconditionError(f"item {item!r} is not pool-relevant")
        partners.append(pq)
    out: list[Separation] = [seq[0]]
    for idx in range(len(seq) - 1):
        cur, nxt = seq[idx], seq[idx + 1]
        p_cur, _ = partners[idx]
        p_nxt, _ = partners[idx + 1]
        if _efficiently_distinguishes(g, cur.canonical(), p_cur, p_nxt, budget=budget):
            out.append(nxt)
            continue
        inserted = None
        t_star = min_distinguishing_order(g, p_cur, p_nxt, budget=budget)
        for member in n:
            if member.order != t_star or not _splits(member, p_cur, p_nxt):
                continue
            oriented = p_nxt.orient(member)
            if lt(cur, oriented) and lt(oriented, nxt):
                inserted = oriented
                break
            raise InternalCheckError(
                "efficient distinguisher does not sit between consecutive items; "
                "preconditions on the nested set are violated"
            )
        if inserted is None:
            raise InternalCheckError(
                "nested set carries no efficient distinguisher for the induced "
                "tangle pair; it cannot efficiently distinguish the pool"
            )
        out.append(inserted)
        out.append(nxt)
    new_seq = SeparationSequence.strictly_increasing(out)
    tangles = _assign_tangles(g, new_seq, pool, budget=budget)
    return InterlacedPair(new_seq, tuple(tangles))


def _assign_tangles(g, seq, pool, *, budget):
    """The pre-tangles of an interlaced pair, from the pool. One item takes
    its relevance pair. Otherwise slot i+1 is the P of the strong-relevance
    witness (O, P, Q) of items i and i+1, the first slot is the first
    witness's O and the last slot the last witness's Q."""
    if len(seq) == 1:
        pq = _relevance_partner(g, seq[0], pool, budget=budget)
        if pq is None:
            raise InternalCheckError("tangle assignment incomplete")
        return list(pq)
    witnesses = []
    for i in range(len(seq) - 1):
        report = check_strongly_relevant(g, seq[i], seq[i + 1], pool, budget=budget)
        if not report.witnessed:
            raise InternalCheckError(f"no tangle assignment for slot {i + 1}")
        witnesses.append(report.witness)
    return [witnesses[0][0], *(p for _, p, _ in witnesses), witnesses[-1][2]]


@dataclass(frozen=True)
class ThinOutReport:
    selected: tuple[int, ...]
    pair: InterlacedPair


def thin_out(ip: InterlacedPair) -> ThinOutReport:
    """Subsequence selection: j(0) is the last index attaining the minimal
    order; j(i) the last index after j(i-1) attaining the minimal remaining
    order. Orders become strictly increasing; the co-selected tangles keep
    IM1 and IM2."""
    seq = _checked(ip, kind=InterlacedPair).sequence
    if not seq.items:
        return ThinOutReport((), ip)
    selected = _last_minima([item.order for item in seq])
    items = tuple(seq[i] for i in selected)
    tangles = tuple(ip.tangles[i] for i in selected) + (ip.tangles[selected[-1] + 1],)
    new_pair = InterlacedPair(SeparationSequence.strictly_increasing(items), tangles)
    return ThinOutReport(tuple(selected), new_pair)


def _last_minima(orders: list[int]) -> list[int]:
    """The indices j of `thin_out`'s selection: those whose order is below
    every later order, found by one scan from the end."""
    selected = []
    least = math.inf
    for j in range(len(orders) - 1, -1, -1):
        if orders[j] < least:
            least = orders[j]
            selected.append(j)
    return selected[::-1]


@dataclass(frozen=True)
class PseudoTightReport:
    ok: bool
    threshold: int
    witnesses: dict
    boundary_interference: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def evidence_only(self) -> bool:
        return True


def pseudo_tight_check(
    g_window: Graph,
    seq: SeparationSequence,
    *,
    boundary: Iterable[str] = frozenset(),
) -> PseudoTightReport:
    """Window rendering of the pseudo-tight limit property.

    Every interior vertex of the supremum's separator must have a neighbour
    in B - A that lies, for at least half the window indices (rounded up,
    the report's `threshold`), in a tight component on the B side. Vertices
    too close to the window boundary (in it or next to it) are reported as
    interference, not failures. The witness is the first neighbour, in
    sorted order, with the largest count; the counts are read from one
    table, built once per call from each item's tight B-side components.
    """
    g = _checked(g_window)
    for item in _checked(seq, kind=SeparationSequence):
        if not is_tight(g, item):
            raise PreconditionError(f"sequence item {item!r} is not tight")
    sup = supremum(seq)
    sup_a, sup_b = sup.masks
    strict_b = sup_b & ~sup_a
    if not strict_b:
        raise PreconditionError("supremum has empty strict B side in this window")
    threshold = math.ceil(len(seq) / 2)
    names, _, closed = g._vertex_index
    vertices = range(len(names))
    # counts[w]: in how many items w lies in a tight component on the B side
    counts = [0] * len(names)
    for item in seq:
        a, b = item.masks
        strict = b & ~a
        held = reduce(or_, (k for k in _tight(g, a & b) if not k & ~strict), 0)
        for w in _select(vertices, held):
            counts[w] += 1
    boundary = _vertex_set(g, boundary, "boundary")
    fringe = boundary | g.neighbourhood(boundary)
    witnesses: dict = {}
    interference: list[str] = []
    failures: list[str] = []
    for i in _select(vertices, sup_a & sup_b):
        v = names[i]
        best = None
        for w in _select(vertices, closed[i] & strict_b):
            if best is None or counts[w] > best[1]:
                best = (names[w], counts[w])
        if best is not None and best[1] >= threshold:
            witnesses[v] = best
        elif v in fringe:
            interference.append(v)
        else:
            failures.append(v)
    return PseudoTightReport(
        ok=not failures,
        threshold=threshold,
        witnesses=witnesses,
        boundary_interference=tuple(interference),
        failures=tuple(failures),
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


def _chain_layers(chains: dict) -> list:
    """The layers of chains, a non-empty dict from layer to chain, sorted."""
    if not _checked(chains, kind=dict):
        raise PreconditionError("no chain layers supplied")
    return sorted(_integer(m, "a chain layer") for m in chains)


# Successive horizons over which the strict B-side trace must stay fixed to
# witness non-exhaustion.
_STABILITY_SPAN = 3


def exhaustiveness_evidence(p, chains: dict) -> ExhaustivenessVerdict:
    """Finite-horizon verdict on whether the chain is exhausting the graph.

    Bounded orders of an all-tight chain are evidence of exhaustion; the
    strict-side of the supremum stabilizing to a fixed non-empty trace in the
    reference window across `_STABILITY_SPAN` successive horizons witnesses
    the opposite. Anything else, including conflicting signals, is
    inconclusive. All verdicts are finite-horizon evidence, not proof.
    """
    _checked(p, kind=LayeredPresentation)
    layers = _chain_layers(chains)
    for m in layers:
        if not chains[m]:
            raise PreconditionError(f"the chain of layer {m} is empty")
    check_chain_coherence(p, chains)
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
    tail = traces[-_STABILITY_SPAN:]
    stable_nonempty = (
        len(traces) >= _STABILITY_SPAN
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


# Trailing items whose separators the window limit separator intersects.
_LOOKBACK = 2


def limit_separator_prefix(seq: SeparationSequence) -> frozenset[str]:
    """Window rendering of the limit separator: vertices staying in the
    separator through the last `_LOOKBACK` items (membership in A and B is
    monotone along the sequence, so the limit separator is exactly the set
    of vertices eventually always in the separators)."""
    items = _checked(seq, SeparationSequence).items[-_LOOKBACK:]
    if not items:
        raise PreconditionError("an empty sequence has no limit separator")
    prefix = items[0].separator
    for item in items[1:]:
        prefix = prefix & item.separator
    return prefix


@dataclass(frozen=True)
class GrowthTable:
    rows: tuple[tuple[int, int], ...]  # (horizon, separator-prefix size)
    prefixes: dict
    monotone: bool
    unbounded_evidence: bool

    @property
    def evidence_only(self) -> bool:
        return True

    def to_csv(self) -> str:
        lines = ["horizon,separator_size"]
        lines += [f"{m},{size}" for m, size in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "kind": "growth_table",
            "evidence_only": True,
            "monotone": self.monotone,
            "rows": [list(r) for r in self.rows],
            "unbounded_evidence": self.unbounded_evidence,
        }


def limit_separator_growth(p, chains: dict) -> GrowthTable:
    """Per-horizon size of the window limit separator for a non-exhaustive
    chain; flags unbounded-evidence when strictly increasing across the last
    three horizons."""
    verdict = exhaustiveness_evidence(p, chains)
    if verdict.verdict != "non-exhaustive-witness":
        raise PreconditionError(
            f"growth table needs a non-exhaustive-witness chain, got {verdict.verdict}"
        )
    return _growth_table(chains)


def _growth_table(chains: dict) -> GrowthTable:
    """The table of `limit_separator_growth`, for callers that already hold
    a non-exhaustive-witness verdict on these chains."""
    rows = []
    prefixes = {}
    for m in sorted(chains):
        if len(chains[m]) < _LOOKBACK:
            continue  # window too short for the liminf proxy
        prefix = limit_separator_prefix(chains[m])
        prefixes[m] = prefix
        rows.append((m, len(prefix)))
    sizes = [s for _, s in rows]
    monotone = all(a <= b for a, b in zip(sizes, sizes[1:]))
    unbounded = len(sizes) >= 3 and sizes[-3] < sizes[-2] < sizes[-1]
    return GrowthTable(
        rows=tuple(rows),
        prefixes=prefixes,
        monotone=monotone,
        unbounded_evidence=unbounded,
    )
