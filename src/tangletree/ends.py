"""End machinery at truncation scale: combs, directions, ray packings.

Directions are anchored to the generator-declared rays of a presentation.
Two rays are window-equivalent at layer m when at least `_JOINING_PATHS`
(three) pairwise vertex-disjoint paths join them in G_m; one or two
connections arise incidentally in every family, and no caller needs another
value. An equivalence class counts as a direction in the closure of a vertex
set u when some ray of the class carries a comb with that many disjoint
teeth in u, unless the caller asks for another tooth count.

The thick-end pipeline stitches the finite shadows of the limit analysis
together: growing limit-separator prefixes, a unique direction in their
closure, ray packings growing with the horizon, and a packing realized
beyond the window supremum, starting inside its separator. Every stage is
explicitly evidence at a finite horizon, never proof about the infinite
object.

Every flow here runs on vertex masks of the window: spines, ray prefixes,
bases, territories and the supremum's sides. Frozensets of names are the
boundary only: the arguments of the public calls, `RayPacking.base`, the
sets the `validate` methods check, and stage details.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FamilyParameterError, PreconditionError
from .families import LayeredPresentation
from .graph import Graph, _checked, _flood, _integer, _names, _solve, _vertex_set
from .limits import _chain_layers, _growth_table, exhaustiveness_evidence, limit_separator_prefix
from .separations import (
    DEFAULT_ENUMERATION_BUDGET,
    NestedSet,
    enumerate_separations,
    is_tight,
    lt,
    supremum,
)
from .tangles import Orienter
from .tree_of_tangles import classify_pairs

# Disjoint paths that make two rays window-equivalent, and the default tooth
# count of a comb admitting a direction.
_JOINING_PATHS = 3


@dataclass(frozen=True)
class CombWitness:
    """A spine (ray prefix) plus disjoint paths to teeth in the target set.

    Teeth paths meet the spine only at their first vertex; a spine vertex
    lying in the target set is its own one-vertex tooth path.
    """

    spine: tuple[str, ...]
    teeth_paths: tuple[tuple[str, ...], ...]

    @property
    def teeth(self) -> tuple[str, ...]:
        return tuple(path[-1] for path in self.teeth_paths)

    def validate(self, g: Graph, u: frozenset[str]) -> None:
        spine_set = set(self.spine)
        for a, b in zip(self.spine, self.spine[1:]):
            if not g.has_edge(a, b):
                raise PreconditionError(f"spine hop {a}-{b} is not an edge")
        used: set[str] = set()
        for path in self.teeth_paths:
            if path[0] not in spine_set:
                raise PreconditionError("tooth path must start on the spine")
            if set(path[1:]) & spine_set:
                raise PreconditionError("tooth path re-enters the spine")
            if path[-1] not in u:
                raise PreconditionError("tooth outside the target set")
            if set(path) & used:
                raise PreconditionError("teeth paths are not disjoint")
            used |= set(path)
            for a, b in zip(path, path[1:]):
                if not g.has_edge(a, b):
                    raise PreconditionError(f"tooth hop {a}-{b} is not an edge")

    def to_json(self) -> dict:
        return {
            "kind": "comb",
            "spine": list(self.spine),
            "teeth_paths": [list(p) for p in self.teeth_paths],
        }


def _teeth_paths(g: Graph, spine: tuple[str, ...], targets: frozenset[str]) -> list[tuple[str, ...]]:
    """Disjoint spine-to-target paths meeting the spine only at their start.

    Spine vertices inside the target set contribute their trivial path; the
    others come from one flow in g from the whole spine to the remaining
    targets, both as masks. No edge needs deleting for that: each search of
    the flow enters every source's in-node from the source first, so no
    path enters a second spine vertex and an edge between two spine
    vertices carries no flow.
    """
    trivial = [(v,) for v in spine if v in targets]
    spine_mask = g.mask(spine)
    return trivial + list(_solve(g, spine_mask, g.mask(targets) & ~spine_mask)[0])


def find_comb(
    p,
    m: int,
    u,
    t: int,
) -> CombWitness | None:
    """A comb with at least t teeth in u at horizon m, or None.

    The spine is chosen among the declared family rays in label order; teeth
    are routed by disjoint-path search from the spine into u.
    """
    if type(t) is not int or t < 1:  # not bool, as in `Orienter`
        raise PreconditionError(f"at least one tooth is required, got {t!r}")
    g = _checked(p, kind=LayeredPresentation).graph_at(m)
    u = _names(u, "a target set") & g.vertices
    labels = p.rays_in_layer(m)
    if not labels:
        raise FamilyParameterError("no declared rays in this window")
    for label in sorted(labels):
        spine = p.ray_prefix(label, m)
        paths = _teeth_paths(g, spine, u)
        if len(paths) >= t:
            return CombWitness(spine=spine, teeth_paths=tuple(paths))
    return None


@dataclass(frozen=True)
class Direction:
    """Window-equivalence class of declared rays, named by its least label."""

    rays: tuple[str, ...]

    @property
    def representative(self) -> str:
        return self.rays[0]


@dataclass(frozen=True)
class DirectionsReport:
    classes: tuple[Direction, ...]
    all_classes: tuple[Direction, ...]

    @property
    def unique(self) -> bool:
        return len(self.classes) == 1


def ray_equivalence_classes(p, m: int) -> tuple[Direction, ...]:
    """Transitive closure of 'joined by >= `_JOINING_PATHS` disjoint paths
    in G_m'."""
    g = p.graph_at(m)
    labels = sorted(p.rays_in_layer(m))
    prefix = {lab: g.mask(p.ray_prefix(lab, m)) for lab in labels}
    least = {lab: lab for lab in labels}  # the least label of each label's class so far
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if least[a] == least[b]:
                continue  # already joined: a flow would not change the classes
            if len(_solve(g, prefix[a], prefix[b], cap=_JOINING_PATHS)[0]) == _JOINING_PATHS:
                low, high = sorted((least[a], least[b]))
                least = {lab: low if c == high else c for lab, c in least.items()}
    classes: dict[str, list[str]] = {}
    for lab in labels:  # in label order, so each class comes in at its least label
        classes.setdefault(least[lab], []).append(lab)
    return tuple(Direction(tuple(rays)) for rays in classes.values())


def directions_in_closure(
    p,
    m: int,
    u,
    *,
    min_teeth: int = _JOINING_PATHS,
) -> DirectionsReport:
    """Equivalence classes whose rays admit combs with `min_teeth` teeth in u."""
    if type(min_teeth) is not int or min_teeth < 1:
        raise PreconditionError(f"at least one tooth is required, got {min_teeth!r}")
    g = _checked(p, kind=LayeredPresentation).graph_at(m)
    u = _names(u, "a target set") & g.vertices
    all_classes = ray_equivalence_classes(p, m)
    admitted = []
    for cls in all_classes:
        for label in cls.rays:
            spine = p.ray_prefix(label, m)
            if len(_teeth_paths(g, spine, u)) >= min_teeth:
                admitted.append(cls)
                break
    return DirectionsReport(classes=tuple(admitted), all_classes=all_classes)


@dataclass(frozen=True)
class RayPacking:
    """Pairwise disjoint paths from a base set to the horizon boundary."""

    base: frozenset[str]
    paths: tuple[tuple[str, ...], ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    def validate(self, g: Graph, boundary: frozenset[str]) -> None:
        used: set[str] = set()
        for path in self.paths:
            if path[0] not in self.base:
                raise PreconditionError("packing path must start in the base")
            if path[-1] not in boundary:
                raise PreconditionError("packing path must end on the boundary")
            if set(path) & used:
                raise PreconditionError("packing paths are not disjoint")
            used |= set(path)
            for a, b in zip(path, path[1:]):
                if not g.has_edge(a, b):
                    raise PreconditionError(f"packing hop {a}-{b} is not an edge")

    def to_json(self) -> dict:
        return {
            "kind": "ray_packing",
            "base": sorted(self.base),
            "paths": [list(p) for p in self.paths],
        }


def _ray_tails(g: Graph, p, m: int, direction: Direction, base: int = 0) -> int:
    """The mask of the last vertex outside base of each ray prefix of the
    direction in g, which is G_m."""
    index = g._vertex_index[1]
    outside = ([v for v in p.ray_prefix(label, m) if not base >> index[v] & 1] for label in direction.rays)
    return g.mask(prefix[-1] for prefix in outside if prefix)


def ray_packing(p, m: int, direction: Direction, base) -> RayPacking:
    """Maximum disjoint base-to-boundary paths inside the direction's
    territory (the components of G_m - base holding the direction's ray
    tails)."""
    _checked(p, kind=LayeredPresentation)
    _checked(direction, kind=Direction)
    g = p.graph_at(m)
    base = _vertex_set(g, base, "a base")
    z = g.mask(base)
    tails = _ray_tails(g, p, m, direction, z)
    territory = sum(c for c in _flood(g, z) if c & tails)
    if not territory:
        raise PreconditionError("empty territory for this direction at this horizon")
    return RayPacking(base=base, paths=_paths_from_base(g, z, territory, g.mask(p.boundary(m))))


def _paths_from_base(g: Graph, base: int, region: int, targets: int) -> tuple:
    """Maximum disjoint paths from base to targets in G[base | region] less
    the edges inside base, as one flow in g restricted to base | region,
    all four vertex masks. The edges inside base need no deleting: every
    search of the flow enters each base vertex from the source first, so no
    such edge carries flow.
    """
    within = region | base
    return _solve(g, base, targets & within, within)[0]


@dataclass(frozen=True)
class StageReport:
    name: str
    status: str  # pass | fail | rejected | skipped
    details: dict

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "details": _jsonable(self.details)}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[StageReport, ...]
    evidence_only: bool = True

    @property
    def rejected(self) -> bool:
        return any(s.status == "rejected" for s in self.stages)

    @property
    def ok(self) -> bool:
        return all(s.status == "pass" for s in self.stages)

    def stage(self, name: str) -> StageReport:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "kind": "thick_end_pipeline",
            "evidence_only": True,
            "ok": self.ok,
            "rejected": self.rejected,
            "stages": [s.to_json() for s in self.stages],
        }


def _pool_efficiency(g, n: NestedSet, pool, boundary, *, budget) -> tuple[str, dict]:
    """Classify each pool pair: verified, window-limited, or failed."""
    verified, limited, failed = [], [], []
    for v in classify_pairs(g, n, pool, boundary=boundary, budget=budget):
        if v.status == "efficient":
            verified.append((v.i, v.j, v.order))
        elif v.status == "window_limited":
            limited.append((v.i, v.j, v.order, min(m.order for m in v.hits)))
        else:
            failed.append((v.i, v.j, v.order))
    status = "fail" if failed else "pass"
    return status, {"verified": verified, "window_limited": limited, "failed": failed}


_STAGES = ("preconditions", "growth", "direction", "packing_growth", "beyond_limit")


def _report(stages: list[StageReport]) -> PipelineReport:
    """The pipeline report, with every stage not reached marked skipped."""
    reached = {s.name for s in stages}
    skipped = tuple(StageReport(name, "skipped", {}) for name in _STAGES if name not in reached)
    return PipelineReport(tuple(stages) + skipped)


def thick_end_pipeline(
    p,
    n: NestedSet,
    chains: dict,
    pool: list[Orienter],
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> PipelineReport:
    """Four-stage evidence pipeline for a thick end beyond a window limit.

    Preconditions (chain in the nested set's orientations, tightness,
    non-exhaustive-witness verdict, the nested set efficiently distinguishing
    the pool) are re-verified as far as the window allows; clique-pair
    efficiency deficits caused by the window edge are flagged, not fatal.
    """
    _checked(p, kind=LayeredPresentation)
    _checked(n, kind=NestedSet)
    stages: list[StageReport] = []
    top = _chain_layers(chains)[-1]
    g = p.graph_at(top)
    boundary = p.boundary(top)

    def reject(**details):
        stages.append(StageReport("preconditions", "rejected", details))
        return _report(stages)

    members = set(n.members)
    top_chain = chains[top]
    for item in top_chain:
        if item.canonical() not in members:
            return reject(reason="chain item outside the nested set")
        if not is_tight(g, item):
            return reject(reason=f"chain item of order {item.order} not tight")
    verdict = exhaustiveness_evidence(p, chains)
    if verdict.verdict != "non-exhaustive-witness":
        return reject(reason=f"exhaustiveness verdict: {verdict.verdict}")
    eff_status, eff_details = _pool_efficiency(g, n, pool, boundary, budget=budget)
    if eff_status == "fail":
        return reject(reason="nested set misses pool pairs", **eff_details)
    stages.append(
        StageReport("preconditions", "pass", {"verdict": verdict.verdict, **eff_details})
    )

    # stage 1: limit separator growth
    table = _growth_table(chains)
    stages.append(
        StageReport(
            "growth",
            "pass" if table.unbounded_evidence and table.monotone else "fail",
            {"rows": list(table.rows)},
        )
    )
    if stages[-1].status != "pass":
        return _report(stages)

    # stage 2: unique direction in the closure of the limit separator
    u_top = limit_separator_prefix(chains[top])
    report = directions_in_closure(p, top, u_top)
    stages.append(
        StageReport(
            "direction",
            "pass" if report.unique else "fail",
            {
                "classes": [list(c.rays) for c in report.classes],
                "all_classes": [list(c.rays) for c in report.all_classes],
            },
        )
    )
    if not report.unique:
        return _report(stages)
    direction = report.classes[0]

    # stage 3: packing strictly increasing across the last three horizons
    horizons = [m for m in sorted(chains) if m >= top - 2]
    packs = []
    for m in horizons:
        base_m = limit_separator_prefix(chains[m])
        packs.append((m, ray_packing(p, m, direction, base_m).size))
    growing = len(packs) >= 3 and all(a[1] < b[1] for a, b in zip(packs, packs[1:]))
    # finite proxy for thickness: growing packings reach every size up to the
    # largest one, which some horizon attains, so the proxy is the growth
    stages.append(
        StageReport(
            "packing_growth",
            "pass" if growing else "fail",
            {"packings": packs, "thick_evidence": growing},
        )
    )

    # stage 4: packing realized beyond the window supremum
    a, b = supremum(top_chain).masks
    strict_b = b & ~a
    z = g.mask(u_top)
    if z & ~(a & b):
        stages.append(
            StageReport("beyond_limit", "fail", {"reason": "prefix not inside separator"})
        )
        return _report(stages)
    paths = _paths_from_base(g, z, strict_b, g.mask(boundary))
    contained = not any(g.mask(path[1:]) & ~strict_b for path in paths)
    status = "pass" if len(paths) == len(u_top) and contained and z else "fail"
    stages.append(
        StageReport(
            "beyond_limit",
            status,
            {
                "target_size": len(u_top),
                "achieved": len(paths),
                "contained_in_strict_b": contained,
                "paths": [list(path) for path in paths],
            },
        )
    )
    return PipelineReport(tuple(stages))


def thin_end_bound(
    p,
    direction: Direction,
    m: int,
    *,
    max_bound: int = 3,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[int, list] | None:
    """Least K admitting an exhausting tight chain of order <= K toward the
    direction, or None at this horizon.

    A chain qualifies when every item is tight with connected right side and
    keeps every ray tail of the direction on its strict right side, and its
    final item retains only the boundary fringe. The search is exhaustive
    over the window's separations of order up to each candidate K.
    """
    g = _checked(p, kind=LayeredPresentation).graph_at(m)
    _checked(direction, kind=Direction)
    boundary = p.boundary(m)
    fringe = g.mask(boundary | g.neighbourhood(boundary))
    tails = _ray_tails(g, p, m, direction)
    if not tails:
        raise PreconditionError("direction has no ray tails in this window")
    full = (1 << len(g.vertices)) - 1
    for bound in range(1, _integer(max_bound, "max_bound") + 1):
        candidates = []
        for sep in enumerate_separations(g, bound, budget=budget):
            if not is_tight(g, sep):
                continue
            a, b = sep.masks
            if not tails & ~(a & ~b):
                oriented = sep.orient("a")
            elif not tails & ~(b & ~a):
                oriented = sep.orient("b")
            else:
                continue
            if len(_flood(g, full ^ oriented.masks[1])) != 1:
                continue
            candidates.append(oriented)
        finals = [c for c in candidates if not c.masks[1] & ~fringe]
        if not finals:
            continue
        finals.sort(key=lambda c: c.canonical().sort_key)
        final = finals[0]
        chain = [final]
        pool = [c for c in candidates if lt(c, final)]
        while pool:
            maximal = [c for c in pool if not any(lt(c, d) for d in pool if d != c)]
            maximal.sort(key=lambda c: c.canonical().sort_key)
            head = maximal[0]
            chain.insert(0, head)
            pool = [c for c in pool if lt(c, head)]
        return bound, chain
    return None
