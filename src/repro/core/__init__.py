"""Core algorithm: the augmented matrix, variance learning, and LIA."""

from repro.core.augmented import (
    AugmentedMatrixBuilder,
    IntersectingPairs,
    augmented_matrix,
    augmented_rank,
    has_identifiable_variances,
    intersecting_pairs,
    num_pair_rows,
    pair_from_row_index,
    pair_row_index,
)
from repro.core.engine import FactorizationCache, InferenceEngine
from repro.core.identifiability import (
    IdentifiabilityReport,
    audit_identifiability,
    verify_theorem1,
)
from repro.core.lia import LIAResult, LossInferenceAlgorithm
from repro.core.reduction import (
    ReductionResult,
    reduce_to_full_rank,
    solve_reduced_system,
)
from repro.core.variance import (
    SPARSE_AUTO_THRESHOLD,
    VARIANCE_METHODS,
    VarianceEstimate,
    estimate_link_variances,
    solve_normal_sparse,
    variance_recovery_error,
)

__all__ = [
    "AugmentedMatrixBuilder",
    "FactorizationCache",
    "IdentifiabilityReport",
    "InferenceEngine",
    "IntersectingPairs",
    "LIAResult",
    "LossInferenceAlgorithm",
    "ReductionResult",
    "SPARSE_AUTO_THRESHOLD",
    "VARIANCE_METHODS",
    "VarianceEstimate",
    "audit_identifiability",
    "augmented_matrix",
    "augmented_rank",
    "estimate_link_variances",
    "has_identifiable_variances",
    "intersecting_pairs",
    "num_pair_rows",
    "pair_from_row_index",
    "pair_row_index",
    "reduce_to_full_rank",
    "solve_normal_sparse",
    "solve_reduced_system",
    "variance_recovery_error",
    "verify_theorem1",
]
