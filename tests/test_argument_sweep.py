"""Every public callable of `tangletree` raises only library errors when one
of its required positional arguments is malformed.

The sweep walks `tangletree.__all__`. Each callable has one valid call
below, which must succeed; the sweep then replaces one required positional
argument at a time with None, a string and an int. A callable added to the
package later fails here until it has a valid call, and is then swept."""

import inspect

import pytest

import tangletree
from tangletree import (
    Direction,
    NestedSet,
    SeparationSequence,
    clique_witness,
    construct_interlaced,
    enumerate_tangles,
    generate_family,
    induce_tree_decomposition,
    make_separation,
)
from tangletree.errors import PreconditionError, TangletreeError

from .conftest import clique_chain_graph

_CALLABLES = sorted(name for name in tangletree.__all__ if callable(getattr(tangletree, name)))
# the keyword arguments of a valid call, where it needs any
_KEYWORDS = {"TangleWitness": {"clique": {"c0_1", "c0_2", "c0_3", "c0_4"}}}


@pytest.fixture(scope="module")
def valid_calls(scaled_chain):
    """The positional arguments of one valid call per public callable: three K4
    joined by bridges with its order-2 tangles, a ray, and the scaled clique
    chain for the calls that need a non-exhaustive chain."""
    g = clique_chain_graph(3, 4)
    k4 = [{v for v in g.vertices if v.startswith(f"c{i}_")} for i in range(3)]
    tangles = enumerate_tangles(g, 2)
    s = make_separation(g, k4[0], k4[1] | k4[2] | {"c0_4"})
    t = make_separation(g, k4[0] | k4[1], k4[2] | {"c1_4"})
    nested = NestedSet.of(g, [s.canonical(), t.canonical()])
    seq = SeparationSequence.strictly_increasing([s])
    pair = construct_interlaced(g, nested, seq, tangles)
    witness = clique_witness(g, k4[0], 2)
    td = induce_tree_decomposition(g, nested)
    ray = generate_family("ray", {"horizon": 3})
    window = ray.graph_at(3).vertices
    chain = scaled_chain
    chains = chain.canonical_layer_chains()
    top = chain.graph_at(5)
    pool = [clique_witness(top, chain.clique(i), len(chain.clique(i))) for i in range(6)]
    return {
        "CombWitness": (("r:0:0",), ()),
        "Direction": (("R0",),),
        "Graph": (g.vertices, g.edges),
        "InterlacedPair": (seq, pair.tangles),
        "LayeredPresentation": (ray.family, ray.params, ray.horizon, ray.layers, ray.boundaries, ray.rays),
        "NestedSet": (g, frozenset(nested.members)),
        "PreTangle": (g, 2, dict(tangles[0].choices)),
        "RayPacking": (frozenset({"r:0:0"}), ()),
        "Separation": (g, s.side_a, s.side_b),
        "SeparationSequence": ((s,),),
        "Tangle": (g, 2, dict(tangles[0].choices)),
        "TangleWitness": ("clique", g, 2),
        "TreeDecomposition": (td.nodes, td.edges, td.bags),
        "build_tree_of_tangles": (g, tangles),
        "check_interlaced_pair": (g, pair),
        "check_pretangle": (g, tangles[0]),
        "check_strongly_relevant": (g, s, t, tangles),
        "check_tangle": (g, tangles[0]),
        "classify_vs_limit": (seq, t),
        "clique_witness": (g, k4[0], 2),
        "components": (g,),
        "construct_interlaced": (g, nested, seq, tangles),
        "directions_in_closure": (ray, 3, window),
        "disjoint_paths": (g, k4[0], k4[2]),
        "distinguishable_pairs": (g, tangles),
        "distinguishes": (s.canonical(), tangles[0], tangles[1]),
        "dominates": (seq, seq),
        "efficient_distinguisher": (g, tangles[0], tangles[1]),
        "end_region_witness": (ray, "R0", 3, 2),
        "enumerate_separations": (g, 1),
        "enumerate_tangles": (g, 2),
        "exhaustiveness_evidence": (chain, chains),
        "find_comb": (ray, 3, window, 1),
        "generate_family": ("ray", {"horizon": 2}),
        "induce_tree_decomposition": (g, nested),
        "interlaced": (seq, seq),
        "is_proper": (g, s),
        "is_tight": (g, s),
        "leq": (s, t),
        "limit_separator_growth": (chain, chains),
        "limit_separator_prefix": (seq,),
        "load_graph": ('{"vertices": ["a"], "edges": []}',),
        "load_presentation_spec": ('{"family": "ray", "params": {"horizon": 2}}',),
        "make_separation": (g, s.side_a, s.side_b),
        "materialize": (witness,),
        "min_distinguishing_order": (g, tangles[0], tangles[1]),
        "minimum_separator": (g, k4[0], k4[2]),
        "pseudo_tight_check": (g, seq),
        "pushing_index": (seq, k4[0]),
        "ray_packing": (ray, 3, Direction(("R0",)), {"r:0:0"}),
        "relation": (s, t),
        "supremum": (seq,),
        "thick_end_pipeline": (chain, NestedSet.of(top, [it.canonical() for it in chains[5]]), chains, pool),
        "thin_end_bound": (ray, Direction(("R0",)), 3),
        "thin_out": (pair,),
        "tight_components": (g, {"c0_4"}),
        "truncate": (ray, 2),
        "verify_tree_decomposition": (g, td, nested, tangles),
        "verify_tree_of_tangles": (g, nested, tangles),
    }


@pytest.mark.parametrize("bad", [None, "x", 3], ids=["None", "str", "int"])
@pytest.mark.parametrize("name", _CALLABLES)
def test_a_malformed_positional_argument_raises_only_library_errors(valid_calls, name, bad):
    call = getattr(tangletree, name)
    args, kwargs = valid_calls[name], _KEYWORDS.get(name, {})
    call(*args, **kwargs)
    required = [
        p
        for p in inspect.signature(call).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) and p.default is p.empty
    ]
    assert len(required) == len(args)
    for i in range(len(args)):
        try:
            call(*args[:i], bad, *args[i + 1 :], **kwargs)
        except TangletreeError:
            pass


# the keyword-only integer arguments of the public callables
_INTEGER_KEYWORDS = ("budget", "max_bound", "min_teeth")


def _integer_keywords(name: str) -> list[str]:
    parameters = inspect.signature(getattr(tangletree, name)).parameters.values()
    return [p.name for p in parameters if p.kind is p.KEYWORD_ONLY and p.name in _INTEGER_KEYWORDS]


@pytest.mark.parametrize("bad", [None, "x"], ids=["None", "str"])
@pytest.mark.parametrize("name", [name for name in _CALLABLES if _integer_keywords(name)])
def test_a_malformed_keyword_only_integer_raises_a_precondition_error(valid_calls, name, bad):
    """Each keyword-only integer is checked on entry, where a None or a
    string used to raise TypeError where it was compared, or pass unread
    when the call never reached the comparison."""
    call = getattr(tangletree, name)
    args, kwargs = valid_calls[name], _KEYWORDS.get(name, {})
    for keyword in _integer_keywords(name):
        with pytest.raises(PreconditionError, match=f"^({keyword} must be an integer|at least one tooth is required), got {bad!r}$"):
            call(*args, **kwargs, **{keyword: bad})


@pytest.mark.parametrize("name, position", [("exhaustiveness_evidence", 1), ("thick_end_pipeline", 2)])
@pytest.mark.parametrize("layer", ["x", None], ids=["str", "None"])
def test_a_chain_layer_that_is_no_integer_raises_a_precondition_error(valid_calls, name, position, layer):
    """The layers of a chain dict are sorted, which used to raise TypeError
    on a key that is no int beside the int layers."""
    args = list(valid_calls[name])
    chains = args[position]
    args[position] = {**chains, layer: chains[max(chains)]}
    with pytest.raises(PreconditionError, match=f"^a chain layer must be an integer, got {layer!r}$"):
        getattr(tangletree, name)(*args)
