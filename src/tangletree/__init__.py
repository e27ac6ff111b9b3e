"""Separations, tangles, trees of tangles, and end evidence on finite windows."""

__version__ = "0.1.0"

from .graph import (
    Graph,
    components,
    disjoint_paths,
    load_graph,
    minimum_separator,
    tight_components,
)
from .separations import (
    NestedSet,
    Separation,
    SeparationSequence,
    dominates,
    enumerate_separations,
    interlaced,
    is_proper,
    is_tight,
    leq,
    make_separation,
    pushing_index,
    relation,
    supremum,
)
from .families import LayeredPresentation, generate_family, load_presentation_spec, truncate
from .tangles import (
    PreTangle,
    Tangle,
    TangleWitness,
    check_pretangle,
    check_tangle,
    clique_witness,
    distinguishable_pairs,
    distinguishes,
    efficient_distinguisher,
    end_region_witness,
    enumerate_tangles,
    materialize,
    min_distinguishing_order,
)
from .tree_of_tangles import (
    TreeDecomposition,
    build_tree_of_tangles,
    induce_tree_decomposition,
    verify_tree_decomposition,
    verify_tree_of_tangles,
)
from .limits import (
    InterlacedPair,
    check_interlaced_pair,
    check_strongly_relevant,
    classify_vs_limit,
    construct_interlaced,
    exhaustiveness_evidence,
    limit_separator_growth,
    limit_separator_prefix,
    pseudo_tight_check,
    thin_out,
)
from .ends import (
    CombWitness,
    Direction,
    RayPacking,
    directions_in_closure,
    find_comb,
    ray_packing,
    thick_end_pipeline,
    thin_end_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
