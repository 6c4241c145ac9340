"""Phase 1 of LIA: estimating the link variances (Section 5.1).

Solves the overdetermined system ``Sigma_hat* = A v`` for the vector of
link log-rate variances ``v``.  Theorem 1 guarantees ``A`` has full
column rank, so the least-squares solution is unique; the estimator is a
special case of the generalised method of moments (consistent, no
distributional assumption, no iterative MLE).

Three estimators:

``"wls"`` (default)
    feasible generalised least squares: each covariance equation is
    weighted by the inverse of its sampling variance,
    ``var(Sigma_hat_ij) ~= (Sigma_ii Sigma_jj + Sigma_ij^2) / (m - 1)``
    (the Wishart second moment), estimated from the sample path
    variances.  Equations between quiet path pairs carry far less noise
    than those crossing congested links; weighting them up sharpens the
    good/congested variance separation dramatically on meshes.  This is
    the efficient-GMM refinement of the paper's estimator.
``"normal"``
    the paper's unweighted least squares.
``"nnls"``
    non-negative least squares — variances are non-negative by
    definition, so projecting onto the feasible set is a natural
    extension (ablated in the benchmarks).

``"wls"`` and ``"normal"`` share one solve path, the normal equations
``A^T A v = A^T s``.  Up to :data:`SPARSE_AUTO_THRESHOLD` columns the
Gram matrix is assembled densely; above it a dense ``n_c x n_c`` array
is the memory bottleneck (10k links means 800 MB before factorizing),
so the Gram matrix stays sparse and goes to SuperLU
(:func:`solve_normal_sparse`).  Both add the same tiny Tikhonov ridge,
so they agree to solver precision.  Unlike an iterative solver, neither
degrades with the conditioning the WLS weights introduce, and where
filtering costs column rank both land on the minimum-norm solution.

Equations with negative sample covariance are dropped first, as in the
paper.  :func:`estimate_link_variances_from_moments` owns the filter,
the WLS weighting, the underdetermined-system guard and the residual
bookkeeping; the loss layer (:func:`estimate_link_variances`), the delay
layer and the online monitor all reach phase 1 through it, so they
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize, sparse
from scipy.sparse import linalg as sparse_linalg

from repro.core.augmented import IntersectingPairs, intersecting_pairs
from repro.core.covariance import (
    CovarianceSummary,
    negative_pair_mask,
    sample_covariance_pairs,
)
from repro.probing.snapshot import MeasurementCampaign

VARIANCE_METHODS = ("wls", "normal", "nnls")

#: Column count above which the normal equations stay sparse
#: (:func:`solve_normal_sparse`) instead of being assembled densely.
#: Every topology the experiment presets generate stays below it, so
#: their payloads never change solver; CI's 10k-link phase-1 bench runs
#: above it.  Read at call time, so tests can move the crossover.
SPARSE_AUTO_THRESHOLD = 4096

#: The tiny-Tikhonov scale of both normal-equation paths
#: (``ridge = RIDGE_SCALE * trace(A^T A) / n_c``).
RIDGE_SCALE = 1e-10


@dataclass(frozen=True)
class VarianceEstimate:
    """Estimated link variances plus estimation diagnostics.

    ``residual_norm`` is always the residual of the *unweighted* system
    ``||A v - sigma||`` over the equations that survived filtering, so it
    is comparable across every estimator; for ``"wls"`` the residual of
    the row-scaled system the solver actually minimised is exposed
    separately as ``weighted_residual_norm`` (``None`` for unweighted
    methods).
    """

    variances: np.ndarray
    method: str
    covariance_summary: CovarianceSummary
    residual_norm: float
    weighted_residual_norm: Optional[float] = None

    @property
    def num_links(self) -> int:
        return int(self.variances.shape[0])

    def order_by_variance(self) -> np.ndarray:
        """Column indices sorted by increasing variance (phase-2 input)."""
        return np.argsort(self.variances, kind="stable")


def estimate_link_variances(
    campaign: MeasurementCampaign,
    method: str = "wls",
    drop_negative: bool = True,
    floor: Optional[float] = None,
    pairs: Optional[IntersectingPairs] = None,
) -> VarianceEstimate:
    """Run phase 1 on a training campaign.

    Parameters
    ----------
    campaign:
        The ``m`` training snapshots over a fixed routing matrix.
    method:
        One of :data:`VARIANCE_METHODS`.
    drop_negative:
        Drop equations whose sample covariance is negative (the paper's
        rule).  The redundant system tolerates the removal.
    floor:
        Continuity floor for the log transform (default ``0.5 / S``).
    pairs:
        Pre-built intersecting-pairs structure; pass it when running many
        campaigns over one routing matrix ("we only need to do this once
        for the whole network").
    """
    if method not in VARIANCE_METHODS:
        raise ValueError(f"unknown method {method!r}, want one of {VARIANCE_METHODS}")
    if len(campaign) < 2:
        raise ValueError("variance estimation needs at least two snapshots")

    if pairs is None:
        pairs = intersecting_pairs(campaign.routing.matrix)
    log_matrix = campaign.log_matrix(floor)
    return estimate_link_variances_from_moments(
        pairs,
        sample_covariance_pairs(log_matrix, pairs.pair_i, pairs.pair_j),
        log_matrix.var(axis=0, ddof=1),
        len(campaign),
        method=method,
        drop_negative=drop_negative,
    )


def estimate_link_variances_from_moments(
    pairs: IntersectingPairs,
    sigma: np.ndarray,
    path_variances: np.ndarray,
    num_snapshots: int,
    method: str = "wls",
    drop_negative: bool = True,
) -> VarianceEstimate:
    """Phase 1 from the window moments: filter, weight, solve, residuals.

    *pairs* gives the sparse augmented matrix ``A``, *sigma* the
    per-pair sample covariance vector (entry order matching *pairs*),
    *path_variances* the per-path sample variances and *num_snapshots*
    the window length ``m`` they were computed over.  A rolling monitor
    maintains these incrementally — O(pairs) per snapshot — and the
    batch and delay layers compute them from their measurement matrix
    (log rates for loss, raw delays for delay), so every phase-1 caller
    runs this one body.
    """
    if method not in VARIANCE_METHODS:
        raise ValueError(f"unknown method {method!r}, want one of {VARIANCE_METHODS}")
    if num_snapshots < 2:
        raise ValueError("variance estimation needs at least two snapshots")
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (pairs.num_pairs,):
        raise ValueError("one covariance per intersecting pair required")
    negative = negative_pair_mask(sigma)
    summary = CovarianceSummary(
        num_snapshots=num_snapshots,
        num_pairs=pairs.num_pairs,
        num_negative=int(negative.sum()),
    )
    keep = ~negative if drop_negative and negative.any() else None
    plain = pairs.matrix if keep is None else pairs.matrix[keep]
    target = sigma if keep is None else sigma[keep]
    if plain.shape[0] < plain.shape[1]:
        raise ValueError(
            f"after filtering, {plain.shape[0]} equations remain for "
            f"{plain.shape[1]} unknowns; take more snapshots or keep negatives"
        )
    if method == "wls":
        weights = _wls_weights(
            np.asarray(path_variances, dtype=np.float64),
            pairs,
            sigma,
            num_snapshots,
        )
        if keep is not None:
            weights = weights[keep]
        A = sparse.diags(weights) @ plain
        b = weights * target
    else:
        A, b = plain, target

    v = _solve(A, b, method)
    return VarianceEstimate(
        variances=v,
        method=method,
        covariance_summary=summary,
        residual_norm=float(np.linalg.norm(plain @ v - target)),
        weighted_residual_norm=(
            float(np.linalg.norm(A @ v - b)) if method == "wls" else None
        ),
    )


def _wls_weights(
    path_variances: np.ndarray,
    pairs: IntersectingPairs,
    sigma: np.ndarray,
    num_snapshots: int,
) -> np.ndarray:
    """Square-root inverse sampling variance of each covariance equation.

    ``var(Sigma_hat_ij) ~= (Sigma_ii Sigma_jj + Sigma_ij^2) / (m - 1)``,
    with the per-path variances taken from the sample.  Floored so that
    perfectly quiet path pairs (zero sample variance) cannot produce
    infinite weights.
    """
    eq_var = (
        path_variances[pairs.pair_i] * path_variances[pairs.pair_j] + sigma**2
    ) / max(num_snapshots - 1, 1)
    floor = max(float(eq_var.max()) * 1e-9, 1e-30)
    return 1.0 / np.sqrt(np.maximum(eq_var, floor))


def _solve(A: sparse.spmatrix, b: np.ndarray, method: str) -> np.ndarray:
    if method == "nnls":
        solution, _ = optimize.nnls(A.toarray(), b)
        return solution
    if A.shape[1] > SPARSE_AUTO_THRESHOLD:
        return solve_normal_sparse(A, b)
    # Exact normal equations.  n_c x n_c stays dense-friendly into the
    # thousands, and unlike iterative solvers the answer does not
    # degrade with the conditioning the WLS weights introduce.
    AtA = (A.T @ A).toarray()
    Atb = A.T @ b
    # Tiny Tikhonov term guards against numerically repeated columns;
    # Theorem 1 makes AtA nonsingular in exact arithmetic.
    ridge = RIDGE_SCALE * np.trace(AtA) / max(AtA.shape[0], 1)
    return np.linalg.solve(AtA + ridge * np.eye(AtA.shape[0]), Atb)


def solve_normal_sparse(A: sparse.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``A^T A v = A^T b`` keeping the Gram matrix sparse.

    The CSC ``A^T A`` goes straight into a SuperLU factorization (a
    sparse Cholesky in effect, since the matrix is SPD); no dense
    ``n_c x n_c`` array is ever materialized, so memory follows the
    factor fill-in.  The ridge matches the dense path's
    (``sum(diag(A^T A)) == trace(A^T A)``), so where both run they agree
    to solver precision (~1e-12 relative on well-conditioned meshes).
    """
    A = A.tocsr()
    b = np.asarray(b, dtype=np.float64)
    gram = (A.T @ A).tocsc()
    ridge = float(RIDGE_SCALE * gram.diagonal().sum() / max(gram.shape[0], 1))
    if ridge > 0.0:
        gram = gram + ridge * sparse.identity(gram.shape[0], format="csc")
    lu = sparse_linalg.splu(gram.tocsc())
    return np.asarray(lu.solve(A.T @ b), dtype=np.float64)


def variance_recovery_error(
    estimate: VarianceEstimate, true_variances: np.ndarray
) -> float:
    """Relative L2 error against ground-truth variances (for tests/benches)."""
    truth = np.asarray(true_variances, dtype=np.float64)
    if truth.shape != estimate.variances.shape:
        raise ValueError("variance vectors must align")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        return float(np.linalg.norm(estimate.variances))
    return float(np.linalg.norm(estimate.variances - truth) / denom)
