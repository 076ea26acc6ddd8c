"""prodvec: product vectors in prescribed subspaces and sign-matrix permanents.

Library + CLI deciding existence of partially conjugated product vectors
in prescribed subspaces of a multipartite tensor product, with an exact
truncated-polynomial/permanent core, an independent numerical
least-squares verifier, classification of vanishing-permanent sign
matrices up to equivalence, and PPT edge-state rank analysis.
"""

from .mpstate import (
    DensityMatrix,
    EdgeReport,
    RankProfile,
    build_separable,
    density_matrix,
    edge_analysis,
    is_ppt,
    maximally_mixed,
    partial_transpose,
    random_state,
    range_complement,
    rank_profile,
)
from .signmat import (
    EquivalenceOp,
    InvariantProfile,
    SignMatrix,
    associated_matrix,
    canonical_form,
    classify_vanishing,
    equivalent,
    invariants,
    permanent,
    permanent_naive,
    sign_matrix,
)
from .solvability import (
    Constraint,
    ProblemSpec,
    Verdict,
    counts,
    generic_count,
    problem_spec,
    reduce,
    verdict,
)
from .solver import (
    ProductVector,
    SolveReport,
    SolverConfig,
    SubspaceConstraint,
    count_distinct,
    partial_conjugate,
    product_vector,
    random_instance,
    residual,
    solve,
)
from .truncpoly import TruncatedPolynomial, coefficient_direct, expand_product

__version__ = "0.1.0"
# Name of the permanent kernels, reported by ``--version``.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "Constraint",
    "DensityMatrix",
    "EdgeReport",
    "EquivalenceOp",
    "InvariantProfile",
    "ProblemSpec",
    "ProductVector",
    "RankProfile",
    "SignMatrix",
    "SolveReport",
    "SolverConfig",
    "SubspaceConstraint",
    "TruncatedPolynomial",
    "Verdict",
    "associated_matrix",
    "build_separable",
    "canonical_form",
    "classify_vanishing",
    "coefficient_direct",
    "count_distinct",
    "counts",
    "density_matrix",
    "edge_analysis",
    "equivalent",
    "expand_product",
    "generic_count",
    "invariants",
    "is_ppt",
    "maximally_mixed",
    "partial_conjugate",
    "partial_transpose",
    "permanent",
    "permanent_naive",
    "problem_spec",
    "product_vector",
    "random_instance",
    "random_state",
    "range_complement",
    "rank_profile",
    "reduce",
    "residual",
    "sign_matrix",
    "solve",
    "verdict",
    "__version__",
]
