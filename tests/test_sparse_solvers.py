"""Tests for the phase-1 solve path: dense and sparse normal equations.

Covers the sparse SuperLU path (pinned to the dense normal equations on
well-conditioned systems), the automatic dense→sparse crossover, the
unweighted/weighted residual-norm split, rank deficiency after the
negative-equation filter, and the empty-system guard both the loss and
delay layers raise from
:func:`repro.core.variance.estimate_link_variances_from_moments`.
"""

import numpy as np
import pytest
from scipy import sparse

from oracles import solve_least_squares_qr
from repro.core import variance
from repro.core.augmented import intersecting_pairs
from repro.core.variance import (
    VARIANCE_METHODS,
    estimate_link_variances,
    estimate_link_variances_from_moments,
    solve_normal_sparse,
)
from repro.delay import DelayCampaign, DelayInferenceAlgorithm, DelaySnapshot
from tests.test_covariance_variance import synthetic_campaign


def synthetic_sparse_system(num_paths, num_links, links_per_path, seed):
    """A phase-1-shaped system: sparse binary A from random 'paths'.

    Each path marks ``links_per_path`` random links and every link is
    touched at least once, so ``A`` (the intersecting-pairs matrix of
    the implied routing matrix) has full column rank with high
    probability; ``b = A v_true + noise``.
    """
    rng = np.random.default_rng(seed)
    R = np.zeros((num_paths, num_links), dtype=np.uint8)
    for i in range(num_paths):
        R[i, rng.choice(num_links, size=links_per_path, replace=False)] = 1
    # Guarantee coverage: give orphan links to round-robin paths.
    for k in np.flatnonzero(R.sum(axis=0) == 0):
        R[int(k) % num_paths, k] = 1
    pairs = intersecting_pairs(R)
    v_true = rng.uniform(0.01, 1.0, size=num_links)
    b = pairs.matrix @ v_true + rng.normal(0.0, 1e-6, size=pairs.num_pairs)
    return pairs.matrix, b, v_true


class TestSparseSolvers:
    def test_sparse_matches_dense_normal(self):
        A, b, _ = synthetic_sparse_system(300, 150, 6, seed=0)
        dense = variance._solve(A, b, "normal")
        via_sparse = solve_normal_sparse(A, b)
        assert np.linalg.norm(via_sparse - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_solvers_recover_truth(self):
        A, b, v_true = synthetic_sparse_system(400, 200, 6, seed=2)
        for v in (variance._solve(A, b, "normal"), solve_normal_sparse(A, b)):
            assert np.linalg.norm(v - v_true) <= 1e-3 * np.linalg.norm(v_true)

    def test_auto_crossover_routes_wls_to_sparse(self, figure2, monkeypatch):
        """Above the threshold, 'wls' solves the same weighted system sparsely."""
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=200, seed=12
        )
        dense_wls = estimate_link_variances(campaign, method="wls")
        monkeypatch.setattr(variance, "SPARSE_AUTO_THRESHOLD", 1)
        sparse_wls = estimate_link_variances(campaign, method="wls")
        assert np.linalg.norm(
            sparse_wls.variances - dense_wls.variances
        ) <= 1e-8 * np.linalg.norm(dense_wls.variances)
        # The identically regularized system also yields identical
        # residual diagnostics to float precision.
        assert sparse_wls.residual_norm == pytest.approx(dense_wls.residual_norm)

    def test_auto_crossover_below_threshold_is_dense_path(
        self, figure2, monkeypatch
    ):
        """Every experiment-scale system stays on the dense solve."""
        _, _, routing = figure2
        assert routing.num_links <= variance.SPARSE_AUTO_THRESHOLD
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=50, seed=13
        )

        def refuse(A, b):
            raise AssertionError("sparse path taken below the threshold")

        monkeypatch.setattr(variance, "solve_normal_sparse", refuse)
        for method in ("wls", "normal"):
            estimate_link_variances(campaign, method=method)
        monkeypatch.setattr(variance, "SPARSE_AUTO_THRESHOLD", 1)
        with pytest.raises(AssertionError, match="sparse path taken"):
            estimate_link_variances(campaign, method="normal")


class TestCrossSolverAgreement:
    def test_unweighted_solvers_agree(self, figure2, monkeypatch):
        """The dense and sparse 'normal' paths pin the same v.

        That this v is the least-squares solution is pinned against
        ``np.linalg.lstsq`` by ``test_methods_agree_on_same_data``.
        """
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=300, seed=4
        )
        pairs = intersecting_pairs(routing.matrix)
        dense = estimate_link_variances(campaign, method="normal", pairs=pairs)
        monkeypatch.setattr(variance, "SPARSE_AUTO_THRESHOLD", 1)
        via_sparse = estimate_link_variances(
            campaign, method="normal", pairs=pairs
        )
        assert np.allclose(via_sparse.variances, dense.variances, atol=1e-8)

    def test_every_method_recovers_known_variances(self, figure2):
        """All VARIANCE_METHODS agree with ground truth."""
        _, _, routing = figure2
        link_std = np.linspace(0.05, 0.2, routing.num_links)
        campaign = synthetic_campaign(routing, link_std, m=3000, seed=5)
        true_var = link_std**2 * (1 - 2 / np.pi)
        for method in VARIANCE_METHODS:
            estimate = estimate_link_variances(campaign, method=method)
            error = np.linalg.norm(estimate.variances - true_var)
            assert error <= 0.15 * np.linalg.norm(true_var), method


class TestRankDeficiency:
    """Dropping negative equations can cost ``A`` column rank.

    Theorem 1 makes the full system identifiable, but the paper's filter
    may remove exactly the equations that separate a shared link from
    the links below it.  The kept system then has a null space, and the
    estimator must return the minimum-norm least-squares solution, not
    an arbitrary point of that null space (which a plain Householder QR
    back-substitution returns).
    """

    @staticmethod
    def filtered_rank_deficient_system():
        # Three leaves under one shared link 0, plus a repeat of path 0;
        # only the cross equations on link 0 alone separate it from the
        # private links 1-3, and those are the negative ones.
        R = np.array(
            [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]],
            dtype=np.uint8,
        )
        pairs = intersecting_pairs(R)
        dense = pairs.matrix.toarray()
        v_true = np.array([0.02, 0.05, 0.01, 0.03])
        sigma = dense @ v_true
        only_link_0 = (dense == np.array([1, 0, 0, 0])).all(axis=1)
        sigma[only_link_0] = -0.004
        return pairs, dense, sigma, ~only_link_0

    @pytest.mark.parametrize("threshold", [None, 1], ids=["dense", "sparse"])
    def test_normal_is_minimum_norm_lstsq(self, threshold, monkeypatch):
        pairs, dense, sigma, keep = self.filtered_rank_deficient_system()
        assert np.linalg.matrix_rank(dense) == dense.shape[1]
        kept = dense[keep]
        assert kept.shape[0] >= kept.shape[1]
        assert np.linalg.matrix_rank(kept) < kept.shape[1]
        if threshold is not None:
            monkeypatch.setattr(variance, "SPARSE_AUTO_THRESHOLD", threshold)
        estimate = estimate_link_variances_from_moments(
            pairs, sigma, np.ones(dense.shape[0]), 50, method="normal"
        )
        oracle, *_ = np.linalg.lstsq(kept, sigma[keep], rcond=None)
        # The tiny ridge amplifies round-off along the null direction by
        # ~1/ridge, so the match is ~1e-6 relative here, not to the last
        # bit; an arbitrary null-space component is off by tens of
        # percent, as the Householder back-substitution shows.
        assert np.allclose(estimate.variances, oracle, atol=1e-8)
        householder = solve_least_squares_qr(kept, sigma[keep])
        assert np.linalg.norm(householder - oracle) > 0.1 * np.linalg.norm(oracle)


class TestResidualNorm:
    def test_wls_residual_is_unweighted(self, figure2):
        """Regression: wls used to report the *weighted* residual."""
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=100, seed=6
        )
        pairs = intersecting_pairs(routing.matrix)
        estimate = estimate_link_variances(campaign, method="wls", pairs=pairs)
        # Recompute the unweighted residual over the surviving equations.
        from repro.core.covariance import (
            negative_pair_mask,
            sample_covariance_pairs,
        )

        sigma = sample_covariance_pairs(
            campaign.log_matrix(None), pairs.pair_i, pairs.pair_j
        )
        keep = ~negative_pair_mask(sigma)
        expected = np.linalg.norm(
            pairs.matrix[keep] @ estimate.variances - sigma[keep]
        )
        assert estimate.residual_norm == pytest.approx(expected)
        assert estimate.weighted_residual_norm is not None
        assert estimate.weighted_residual_norm != pytest.approx(
            estimate.residual_norm
        )

    def test_residuals_comparable_across_solvers(self, figure2, monkeypatch):
        """On one system, every estimator's residual_norm is commensurate."""
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=150, seed=7
        )
        residuals = {
            m: estimate_link_variances(campaign, method=m).residual_norm
            for m in VARIANCE_METHODS
        }
        monkeypatch.setattr(variance, "SPARSE_AUTO_THRESHOLD", 1)
        residuals["sparse"] = estimate_link_variances(
            campaign, method="normal"
        ).residual_norm
        # "normal" minimises this residual; wls trades a little of it for
        # statistical efficiency and nnls is constrained, so both sit
        # within a small factor rather than orders of magnitude away.
        assert residuals["wls"] <= 3.0 * residuals["normal"]
        assert residuals["normal"] <= residuals["nnls"] <= 3.0 * residuals["normal"]
        assert residuals["sparse"] == pytest.approx(residuals["normal"], rel=1e-6)

    def test_unweighted_methods_have_no_weighted_residual(self, figure2):
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=50, seed=8
        )
        estimate = estimate_link_variances(campaign, method="normal")
        assert estimate.weighted_residual_norm is None


class _StubRouting:
    """The minimal routing surface DelayInferenceAlgorithm touches."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.uint8)

    @property
    def num_links(self):
        return int(self.matrix.shape[1])

    @property
    def num_paths(self):
        return int(self.matrix.shape[0])

    def to_sparse(self):
        return sparse.csr_matrix(self.matrix.astype(np.float64))


class TestEmptySystemGuard:
    def test_core_raises_on_underdetermined_filtered_system(self):
        pairs = intersecting_pairs(np.eye(3, dtype=np.uint8))
        sigma = np.array([-1.0, -2.0, -0.5])  # every equation dropped
        with pytest.raises(ValueError, match="equations remain"):
            estimate_link_variances_from_moments(
                pairs, sigma, np.ones(3), 10, method="normal"
            )

    def test_delay_layer_raises_same_error(self):
        """Regression: this used to crash in a degenerate dense solve.

        Two paths share one link and carry one private link each; their
        cross covariance is negative by construction, so after the
        paper's filter only the two self-pair equations survive for
        three unknowns.
        """
        routing = _StubRouting([[1, 1, 0], [1, 0, 1]])
        delays = np.array(
            [[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.5, 1.5]]
        )
        campaign = DelayCampaign(
            routing=routing,
            snapshots=[
                DelaySnapshot(path_delays=row, num_probes=100) for row in delays
            ],
        )
        algorithm = DelayInferenceAlgorithm(routing)
        with pytest.raises(ValueError, match="equations remain"):
            algorithm.learn_variances(campaign)

    def test_delay_layer_weight_floor_matches_core(self, small_tree):
        """The drifted copy-paste floor is gone: quiet systems still solve."""
        _, _, routing = small_tree
        rng = np.random.default_rng(9)
        m, n_paths = 12, routing.matrix.shape[0]
        delays = np.abs(rng.normal(5.0, 1.0, size=(m, n_paths)))
        campaign = DelayCampaign(
            routing=routing,
            snapshots=[
                DelaySnapshot(path_delays=row, num_probes=100) for row in delays
            ],
        )
        estimate = DelayInferenceAlgorithm(routing).learn_variances(campaign)
        assert estimate.num_links == routing.num_links
        assert np.isfinite(estimate.variances).all()

    def test_delay_variance_method_validated(self, small_tree):
        _, _, routing = small_tree
        with pytest.raises(ValueError, match="unknown variance method"):
            DelayInferenceAlgorithm(routing, variance_method="bogus")

    def test_delay_sparse_solver_end_to_end(self, small_tree, monkeypatch):
        """The delay layer reaches the sparse solve through the crossover."""
        _, _, routing = small_tree
        rng = np.random.default_rng(10)
        m, n_paths = 25, routing.matrix.shape[0]
        base = rng.uniform(1.0, 3.0, size=n_paths)
        delays = base + np.abs(rng.normal(0.0, 2.0, size=(m, n_paths)))
        campaign = DelayCampaign(
            routing=routing,
            snapshots=[
                DelaySnapshot(path_delays=row, num_probes=100) for row in delays
            ],
        )
        wls = DelayInferenceAlgorithm(routing).learn_variances(campaign)
        dense = DelayInferenceAlgorithm(
            routing, variance_method="normal"
        ).learn_variances(campaign)
        monkeypatch.setattr(variance, "SPARSE_AUTO_THRESHOLD", 1)
        estimate = DelayInferenceAlgorithm(
            routing, variance_method="normal"
        ).learn_variances(campaign)
        assert estimate.num_links == routing.num_links
        assert np.linalg.norm(
            estimate.variances - dense.variances
        ) <= 1e-8 * np.linalg.norm(dense.variances)
        # The unweighted estimator lands near the weighted default on a
        # well-conditioned system.
        assert np.corrcoef(estimate.variances, wls.variances)[0, 1] > 0.9
