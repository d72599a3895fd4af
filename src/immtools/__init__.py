"""Multigraph toolkit: immersion search with certificates, edge-disjoint
path and minimum-cut computations, path-like and tree-cut decompositions,
and the quantitative bounds relating them."""

from .bounds import (
    Theorem31Constants,
    converse_n,
    converse_n_alpha,
    d_of_k,
    theorem31_constants,
)
from .connectivity import (
    CutWitness,
    edge_disjoint_paths,
    is_k_edge_connected_set,
    max_flow_min_cut,
)
from .generators import (
    gen_complete,
    gen_pk,
    gen_pk_chorded,
    gen_random_multigraph,
)
from .immersion import (
    ABSENT,
    BUDGET,
    FOUND,
    ImmersionCertificate,
    SearchResult,
    find_immersion,
    star_minor_to_immersion,
    verify_immersion,
)
from .iso import canonical_key
from .multigraph import Multigraph, SizeLimitError, consolidate
from .pathdecomp import (
    NOT_PATH_SHAPED,
    SMALL_CUT,
    STAR_MINOR,
    FailureWitness,
    LinearityCertificate,
    PathLikeDecomposition,
    build_auxiliary_graph,
    compute_separator,
    has_k1k_minor,
    linear_decompose,
    min_linearizing_set,
    verify_linear_certificate,
)
from .simplegraph import SimpleGraph, StarMinorModel
from .treecut import (
    StructureDecomposition,
    Torso,
    TreeCutDecomposition,
    adhesion,
    compose_decompositions,
    edge_sum,
    is_alpha_basic,
    is_grounded,
    structure_decompose,
    torso_at,
    torsos,
    verify_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
