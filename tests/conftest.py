"""Shared corpus fixtures: seeded random graphs and structured examples."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import settings

from tangletree.families import generate_family
from tangletree.graph import Graph

# Property tests draw the same examples on every run, so failures reproduce
# and the suite's run time does not drift with the draw.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus random extra edges; always connected."""
    verts = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((verts[min(i, j)], verts[max(i, j)]))
        edges.add((min(verts[i], verts[j]), max(verts[i], verts[j])))
    edges = {(min(a, b), max(a, b)) for a, b in edges}
    possible = [
        (a, b) for a, b in combinations(sorted(verts), 2) if (a, b) not in edges
    ]
    extra = rng.randrange(0, len(possible) + 1)
    for e in rng.sample(possible, min(extra, len(possible))):
        edges.add(e)
    return Graph.from_data(verts, edges)


def clique_graph(prefix: str, n: int) -> tuple[list[str], list[tuple[str, str]]]:
    vs = [f"{prefix}{i}" for i in range(1, n + 1)]
    return vs, [(a, b) for a, b in combinations(vs, 2)]


def two_k4_bridge() -> Graph:
    a_vs, a_es = clique_graph("a", 4)
    b_vs, b_es = clique_graph("b", 4)
    return Graph.from_data(a_vs + b_vs, a_es + b_es + [("a1", "b1")])


def path_graph(n: int) -> Graph:
    vs = [f"p{i:02d}" for i in range(n)]
    return Graph.from_data(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    vs = [f"c{i:02d}" for i in range(n)]
    return Graph.from_data(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    vs = [f"g{r}{c}" for r in range(rows) for c in range(cols)]
    es = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                es.append((f"g{r}{c}", f"g{r+1}{c}"))
            if c + 1 < cols:
                es.append((f"g{r}{c}", f"g{r}{c+1}"))
    return Graph.from_data(vs, es)


def star_graph(leaves: int) -> Graph:
    vs = ["c"] + [f"l{i}" for i in range(1, leaves + 1)]
    return Graph.from_data(vs, [("c", leaf) for leaf in vs[1:]])


def clique_chain_graph(count: int, size: int) -> Graph:
    """count copies of K_size in a path, clique i's last vertex joined to
    clique i+1's first by one edge."""
    vs, es = [], []
    for i in range(count):
        c_vs, c_es = clique_graph(f"c{i}_", size)
        vs += c_vs
        es += c_es
        if i:
            es.append((f"c{i - 1}_{size}", c_vs[0]))
    return Graph.from_data(vs, es)


def two_k5_shared_vertex() -> Graph:
    a_vs, a_es = clique_graph("a", 5)
    b_vs, b_es = clique_graph("b", 4)
    es = a_es + b_es + [("a5", b) for b in b_vs]
    return Graph.from_data(a_vs + b_vs, es)


@pytest.fixture(scope="session")
def corpus_small() -> list[Graph]:
    """Fixed corpus: 50 seeded random connected graphs on 2..7 vertices."""
    rng = random.Random(20240817)
    return [random_connected_graph(rng, rng.randrange(2, 8)) for _ in range(50)]


@pytest.fixture(scope="session")
def corpus_structured() -> list[Graph]:
    """Structured graphs up to 12 vertices for the pipeline checks."""
    return [
        two_k4_bridge(),
        path_graph(12),
        cycle_graph(10),
        grid_graph(3, 4),
        star_graph(5),
        two_k5_shared_vertex(),
        Graph.from_data(*clique_graph("k", 4)),
        Graph.from_data(*clique_graph("k", 6)),
    ]


@pytest.fixture(scope="session")
def corpus_all(corpus_small, corpus_structured) -> list[Graph]:
    return corpus_small + corpus_structured


@pytest.fixture(scope="session")
def scaled_chain():
    """The scaled clique chain used throughout the acceptance criteria."""
    return generate_family("clique_chain", {"horizon": 5, "sizes": [8, 12, 20, 36]})


@pytest.fixture(scope="session")
def ray_presentation():
    return generate_family("ray", {"horizon": 6})


@pytest.fixture(scope="session")
def grid_presentation():
    return generate_family("grid", {"horizon": 5})


@pytest.fixture(scope="session")
def double_ray_presentation():
    return generate_family("double_ray", {"horizon": 5})
