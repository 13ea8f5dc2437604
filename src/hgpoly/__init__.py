"""Exact-arithmetic hypergraph polytopes, game cores, and the signed chain
complexes of graph-indexed free constructions."""

from .hypergraph import Hypergraph
from .constructs import (
    Construct,
    FacePoset,
    check_diamond,
    collapse,
    enumerate_constructs,
    face_poset,
    is_construct,
    rank,
    split,
)
from .games import (
    CooperativeGame,
    HRepresentation,
    Realization,
    additive_game,
    brute_force_vertices,
    builtin_game,
    construct_face_support,
    core_hrep,
    is_strictly_convex,
    realize,
)
from .graphs import (
    Graph,
    GraphMorphism,
    GraphTree,
    alpha,
    alpha_inv,
    canonical_contraction,
    contract_tree_edge,
    corolla_tree,
    enumerate_graph_trees,
    factor_pre_elementary,
    gr,
    graft,
    incidence_hypergraph,
    subgraph_from_edges,
    validate_graph,
)
from .minimodel import (
    DetBasis,
    FreeComponent,
    SignConvention,
    det_basis,
    boundary,
    boundary_matrix,
    generator_boundary,
    graft_chain,
    rho,
    shuffle_sign,
)
from .homology import ChainComplex, betti, diamond_sign_check, exact_rank, verify_complex
from .variants import (
    GenusGrading,
    Orientation,
    check_srtr_closure,
    classify,
    genus,
    induce_genus,
    is_contractible,
    is_rooted,
    is_strongly_rooted,
    is_wheeled_oriented,
    restrict_model,
)
from .pipeline import complex_for_graph, cover_signs, homology_report

__version__ = "0.1.0"
