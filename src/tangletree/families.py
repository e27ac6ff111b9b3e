"""Finitely-presented locally finite graphs as monotone towers of truncations.

A LayeredPresentation is a chain G_0 <= G_1 <= ... <= G_h of induced
subgraphs together with, per layer, the boundary: the vertices that gain a
neighbour in the next layer. Generators also declare the family's rays (as
vertex paths) and, for the clique chain, the cliques themselves, so that
tests and pipelines can reference designated vertices by name. So the
boundaries, cliques and chain separators are frozensets of names: a family
is built, and read back from JSON, by name.

Each generator declares its graph once, up to level h + 1: every vertex
with the level at which it enters, and every edge, which enters with its
later end. One builder, `_tower`, derives the rest: layer m is the
subgraph induced on the vertices of level <= m, and boundary(m) is the set
of layer-m ends of the edges of level m + 1. Level h + 1 serves boundary(h)
only and gets no layer.

Vertex identifier conventions:
    clique_chain   u:0:1 (the single level-0 entry vertex),
                   v:n:i (designated vertex i of level n; equals the i-th
                   entry vertex of level n+1), p:n:j (private to level n),
                   r:n:m (vertex m of ray n). The attachment vertex w^m is
                   v:m:1.
    ray            r:0:m
    double_ray     l:0:m and r:0:m, joined at l:0:0 - r:0:0
    grid           g:x:y, a strip of fixed width (columns grow with layers)
    binary_tree    b:r plus a 0/1 path string per node

The clique chain realizes a level-n clique of size c_n with 2^n entry and
2^(n+1) exit vertices, exit i of level n identified with entry i of level
n+1, plus one ray per level, ray n touching w^m for every m >= n. Default
sizes are c_n = 2^(n+4); an explicit `sizes` override supports desk scale,
and levels beyond the override fall back to the minimum admissible size
3 * 2^n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product

from .errors import FamilyParameterError, GraphFormatError
from .graph import Graph, _as_json, _checked, _edge, _field
from .separations import Separation, SeparationSequence

FAMILIES = ("clique_chain", "ray", "double_ray", "grid", "binary_tree")


@dataclass(frozen=True, eq=False)
class LayeredPresentation:
    family: str
    params: dict
    horizon: int
    layers: tuple[Graph, ...]
    boundaries: tuple[frozenset[str], ...]
    rays: tuple[tuple[str, tuple[str, ...]], ...]
    cliques: tuple[frozenset[str], ...] = ()

    def graph_at(self, m: int) -> Graph:
        return self.layers[self._layer(m)]

    def boundary(self, m: int) -> frozenset[str]:
        return self.boundaries[self._layer(m)]

    def _layer(self, m: int) -> int:
        if type(m) is not int or not 0 <= m <= self.horizon:  # not bool, as in `Orienter`
            raise FamilyParameterError(f"layer {m!r} outside horizon {self.horizon}")
        return m

    def ray_path(self, label: str) -> tuple[str, ...]:
        for lab, path in self.rays:
            if lab == label:
                return path
        raise FamilyParameterError(f"unknown ray {label!r}")

    def ray_prefix(self, label: str, m: int) -> tuple[str, ...]:
        vs = self.graph_at(m).vertices
        return tuple(v for v in self.ray_path(label) if v in vs)

    def ray_tail_vertex(self, label: str, m: int) -> str:
        prefix = self.ray_prefix(label, m)
        if not prefix:
            raise FamilyParameterError(f"ray {label!r} not present in layer {m}")
        return prefix[-1]

    def rays_in_layer(self, m: int) -> tuple[str, ...]:
        vs = self.graph_at(m).vertices
        return tuple(lab for lab, path in self.rays if path and path[0] in vs)

    # -- clique-chain designated structure --

    def clique(self, n: int) -> frozenset[str]:
        if self.family != "clique_chain":
            raise FamilyParameterError("cliques are only defined for clique_chain")
        if n >= len(self.cliques):
            raise FamilyParameterError(f"no clique at level {n}")
        return self.cliques[n]

    def attachment_vertex(self, m: int) -> str:
        """w^m, the first designated exit vertex of level m."""
        return f"v:{m}:1"

    def chain_separator(self, n: int) -> frozenset[str]:
        """Separator of the canonical chain item at level n."""
        if self.family != "clique_chain":
            raise FamilyParameterError("chain separators are clique_chain specific")
        sep = {f"v:{i}:1" for i in range(n)}
        sep |= {f"v:{n}:{j}" for j in range(1, 2 ** (n + 1) + 1)}
        return frozenset(sep)

    def chain_item(self, n: int, m: int) -> Separation:
        """Canonical chain separation at level n, materialized in layer m."""
        g = self.graph_at(m)
        if self.family == "clique_chain":
            if n >= m:
                raise FamilyParameterError(
                    f"chain item {n} needs layer at least {n + 1}, got {m}"
                )
            a = frozenset().union(*self.cliques[: n + 1])
            s = self.chain_separator(n)
        elif self.family == "ray":
            a = frozenset(f"r:0:{j}" for j in range(n + 1))
            s = frozenset({f"r:0:{n}"})
        elif self.family == "double_ray":
            left = frozenset(v for v in g.vertices if v.startswith("l:"))
            a = left | frozenset(f"r:0:{j}" for j in range(n + 1))
            s = frozenset({f"r:0:{n}"})
        elif self.family == "grid":
            a = frozenset(v for v in g.vertices if int(v.split(":")[1]) <= n)
            s = frozenset(v for v in g.vertices if int(v.split(":")[1]) == n)
        elif self.family == "binary_tree":
            spine = "b:r" + "0" * n
            below = frozenset(
                v for v in g.vertices if v.startswith(spine) and v != spine
            )
            a = g.vertices - below
            s = frozenset({spine})
        else:
            raise FamilyParameterError(f"no canonical chain for {self.family!r}")
        b = (g.vertices - a) | s
        return Separation(g, a, b)

    def _chain_levels(self, m: int) -> range:
        if self.family == "clique_chain":
            return range(0, m)
        # tail cuts need a non-trivial left side to stay tight
        return range(1, m)

    def canonical_chain(self, m: int) -> SeparationSequence:
        """The family's canonical strictly increasing tight chain in layer m."""
        levels = self._chain_levels(m)
        items = [self.chain_item(n, m) for n in levels]
        if not items:
            raise FamilyParameterError(f"layer {m} too small for a canonical chain")
        return SeparationSequence.strictly_increasing(items)

    def canonical_layer_chains(self) -> dict[int, SeparationSequence]:
        chains: dict[int, SeparationSequence] = {}
        for m in range(self.horizon + 1):
            if len(self._chain_levels(m)) > 0:
                chains[m] = self.canonical_chain(m)
        return chains

    # -- serialization --

    def to_json(self) -> dict:
        return {
            "kind": "presentation",
            "family": self.family,
            "params": self.params,
            "horizon": self.horizon,
            "layers": [
                {
                    "boundary": sorted(self.boundaries[m]),
                    "edges": sorted([list(e) for e in self.layers[m].edges]),
                    "vertices": sorted(self.layers[m].vertices),
                }
                for m in range(self.horizon + 1)
            ],
            "rays": {label: list(path) for label, path in self.rays},
            "cliques": [sorted(c) for c in self.cliques],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LayeredPresentation":
        horizon = _field(_as_json(doc, "a presentation", dict), "horizon")
        layers = [_as_json(layer, "a layer", dict) for layer in _as_json(_field(doc, "layers"), "layers")]
        top = len(layers) - 1
        if type(horizon) is not int:  # not bool
            raise GraphFormatError(f"horizon must be an integer, got {horizon!r}")
        if horizon != top:
            raise GraphFormatError(f"horizon must be the layer count less one, {top}, got {horizon}")
        graphs = tuple(
            Graph.from_data(
                _as_json(_field(layer, "vertices"), "layer vertices"),
                [tuple(_as_json(e, "an edge")) for e in _as_json(_field(layer, "edges"), "layer edges")],
            )
            for layer in layers
        )
        boundaries = tuple(frozenset(_as_json(_field(layer, "boundary"), "a boundary")) for layer in layers)
        rays = _as_json(_field(doc, "rays"), "rays", dict).items()
        rays = tuple(sorted((lab, tuple(_as_json(p, "a ray path"))) for lab, p in rays))
        return cls(
            family=_field(doc, "family"),
            params=_as_json(_field(doc, "params"), "params", dict),
            horizon=horizon,
            layers=graphs,
            boundaries=boundaries,
            rays=rays,
            cliques=tuple(frozenset(_as_json(c, "a clique")) for c in _as_json(doc.get("cliques", []), "cliques")),
        )


def truncate(p: LayeredPresentation, m: int) -> tuple[Graph, frozenset[str]]:
    """The finite window G_m with its boundary toward the next layer."""
    return _checked(p, kind=LayeredPresentation).graph_at(m), p.boundary(m)


def _require_horizon(params: dict) -> int:
    h = params.get("horizon")
    if type(h) is not int or h < 0:  # not bool, which from_json rejects
        raise FamilyParameterError("params must carry a non-negative integer 'horizon'")
    return h


def _tower(family, params, h, levels, edges, rays, cliques=()) -> LayeredPresentation:
    """The presentation of horizon h whose vertices enter at levels[v] and
    whose edges up to level h + 1 are edges (see the module docstring).

    The layers grow one vertex set and one edge set, so each edge is
    normalized once."""
    new_vertices = [[] for _ in range(h + 2)]
    for v, n in levels.items():
        new_vertices[n].append(v)
    new_edges = [[] for _ in range(h + 2)]
    for u, v in edges:
        new_edges[max(levels[u], levels[v])].append(_edge(u, v))
    vs, es, layers, boundaries = set(), set(), [], []
    for m in range(h + 1):
        vs.update(new_vertices[m])
        es.update(new_edges[m])
        layers.append(Graph(frozenset(vs), frozenset(es)))
        boundaries.append(frozenset(w for e in new_edges[m + 1] for w in e if levels[w] <= m))
    return LayeredPresentation(family, params, h, tuple(layers), tuple(boundaries), rays, cliques)


def _clique_chain_size(n: int, sizes: list[int] | None) -> int:
    minimum = 3 * 2**n
    if sizes is None:
        return 2 ** (n + 4)
    if n < len(sizes):
        c = sizes[n]
        if c < minimum:
            raise FamilyParameterError(
                f"sizes[{n}]={c} too small to host the {2**n} + {2**(n+1)} "
                f"designated vertices"
            )
        return c
    return minimum


def _generate_clique_chain(params: dict) -> LayeredPresentation:
    h = _require_horizon(params)
    sizes = params.get("sizes")
    if sizes is not None and (
        not isinstance(sizes, list) or not all(isinstance(c, int) for c in sizes)
    ):
        raise FamilyParameterError("'sizes' must be a list of integers")
    levels = {"u:0:1": 0}
    edges = []
    cliques = []
    for n in range(h + 2):
        entries = ["u:0:1"] if n == 0 else [f"v:{n-1}:{i}" for i in range(1, 2**n + 1)]
        exits = [f"v:{n}:{i}" for i in range(1, 2 ** (n + 1) + 1)]
        count = _clique_chain_size(n, sizes) - len(entries) - len(exits)
        entering = exits + [f"p:{n}:{j}" for j in range(1, count + 1)]
        levels.update(dict.fromkeys(entering, n))
        if n <= h:
            cliques.append(frozenset(entries + entering))
            edges += combinations(entries + entering, 2)
        else:  # only the edges at the entries reach layer h
            edges += product(entries, entering)
    for n in range(h + 2):
        for j in range(h + 2):
            levels[f"r:{n}:{j}"] = max(n, j)
            if j > 0:
                edges.append((f"r:{n}:{j-1}", f"r:{n}:{j}"))
            if j >= n:
                edges.append((f"r:{n}:{j}", f"v:{j}:1"))
    rays = tuple((f"R{n}", _path(f"r:{n}:", h)) for n in range(h + 1))
    return _tower("clique_chain", params, h, levels, edges, rays, tuple(cliques))


def _path(prefix: str, last: int) -> tuple[str, ...]:
    """The vertices prefix + j for j = 0..last, vertex j at level j."""
    return tuple(f"{prefix}{j}" for j in range(last + 1))


def _generate_ray(params: dict) -> LayeredPresentation:
    h = _require_horizon(params)
    r = _path("r:0:", h + 1)
    levels = {v: j for j, v in enumerate(r)}
    return _tower("ray", params, h, levels, zip(r, r[1:]), (("R0", r[:-1]),))


def _generate_double_ray(params: dict) -> LayeredPresentation:
    h = _require_horizon(params)
    left, right = _path("l:0:", h + 1), _path("r:0:", h + 1)
    levels = {v: j for path in (left, right) for j, v in enumerate(path)}
    edges = [*zip(left, left[1:]), *zip(right, right[1:]), ("l:0:0", "r:0:0")]
    rays = (("L0", left[:-1]), ("R0", right[:-1]))
    return _tower("double_ray", params, h, levels, edges, rays)


def _generate_grid(params: dict) -> LayeredPresentation:
    h = _require_horizon(params)
    width = params.get("width", 3)
    if type(width) is not int or width < 1:  # not bool
        raise FamilyParameterError("'width' must be a positive integer")
    levels = {f"g:{x}:{y}": x for x in range(h + 2) for y in range(width)}
    edges = [(f"g:{x}:{y}", f"g:{x+1}:{y}") for x in range(h + 1) for y in range(width)]
    edges += [(f"g:{x}:{y}", f"g:{x}:{y+1}") for x in range(h + 2) for y in range(width - 1)]
    rays = tuple(
        (f"row{y}", tuple(f"g:{x}:{y}" for x in range(h + 1))) for y in range(width)
    )
    return _tower("grid", params, h, levels, edges, rays)


def _generate_binary_tree(params: dict) -> LayeredPresentation:
    h = _require_horizon(params)
    levels = {"b:r" + "".join(bits): d for d in range(h + 2) for bits in product("01", repeat=d)}
    edges = [(v[:-1], v) for v in levels if v != "b:r"]
    rays = (
        ("L", tuple("b:r" + "0" * d for d in range(h + 1))),
        ("R", tuple("b:r" + "1" * d for d in range(h + 1))),
    )
    return _tower("binary_tree", params, h, levels, edges, rays)


_GENERATORS = {
    "clique_chain": _generate_clique_chain,
    "ray": _generate_ray,
    "double_ray": _generate_double_ray,
    "grid": _generate_grid,
    "binary_tree": _generate_binary_tree,
}


def generate_family(name: str, params: dict) -> LayeredPresentation:
    """Build the named family at the requested horizon."""
    if name not in FAMILIES:  # a tuple, so an unhashable name is unknown, not a TypeError
        raise FamilyParameterError(
            f"unknown family {name!r}; expected one of {', '.join(FAMILIES)}"
        )
    return _GENERATORS[name](dict(_checked(params, kind=dict)))


def load_presentation_spec(text: str) -> LayeredPresentation:
    """Parse `{"family": ..., "params": {...}}` and generate the family."""
    try:
        doc = json.loads(_checked(text, kind=str))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"invalid JSON: {exc.msg}", context=f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    if not isinstance(doc, dict) or "family" not in doc:
        raise GraphFormatError("presentation spec needs a 'family' field")
    return generate_family(doc["family"], _as_json(doc.get("params", {}), "params", dict))
