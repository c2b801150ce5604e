"""rigidkit: exact randomized toolkit for combinatorial rigidity.

Generic rigidity matroid queries, stress-matrix global rigidity
certificates, minimally-globally-rigid sparsification, linked-pair
analysis, and extraction of mixed-connected and globally rigid subgraphs
from dense graphs. All linear algebra is exact over the prime field with
p = 2**61 - 1; randomized answers have one-sided, negligible error.
"""

__version__ = "0.1.0"

from .field import PRIME, FieldMatrix, Rng, nullspace_basis, rank, random_combination
from .graph import (
    GENERATORS,
    Graph,
    GraphError,
    MixedCut,
    ParseError,
    TwoSumSpec,
    complete,
    complete_bipartite,
    cone,
    cycle,
    generate,
    icosahedron,
    icosahedron_braced,
    is_k_connected,
    k4e_chain,
    local_connectivity,
    min_mixed_cut,
    mixed_cut_cost,
    parse_edge_list,
    path,
    two_separation,
    two_sum,
    vertex_connectivity,
    wheel,
)
from .rigidity import (
    DEFAULT_SEED,
    TRIALS,
    MatroidReport,
    Realization,
    bridges,
    fundamental_circuit,
    generic_rank,
    is_circuit,
    is_independent,
    is_matroid_connected,
    is_redundantly_matroid_connected,
    is_redundantly_rigid,
    is_rigid,
    is_vertex_redundantly_rigid,
    matroid_components,
    matroid_report,
    rigid_basis,
    rigidity_matrix,
    sample_realization,
)
from .global_rigidity import (
    GlobalRigidityCertificate,
    NonGenericRealizationError,
    NotGloballyRigidError,
    RankNotAchievableError,
    SparsifyResult,
    Stress,
    is_globally_k_d_rigid,
    is_globally_rigid,
    is_minimally_globally_rigid,
    is_redundantly_globally_rigid,
    minimally_globally_rigid_edge_bound,
    sparsify_globally_rigid,
    stress_basis,
    stress_matrix,
    subset_rank_reduce,
)
from .linked import (
    CorpusSpec,
    PairVerdict,
    explore_conjecture,
    globally_linked_1d,
    is_globally_linked_2d,
    is_linked,
)
from .extract import (
    ExtractionError,
    ExtractionTrace,
    GrnEstimate,
    conditional_grn_bound,
    estimate_grn,
    globally_rigid_subgraph_2d,
    mixed_k_connected_subgraph,
    replay_trace,
)
