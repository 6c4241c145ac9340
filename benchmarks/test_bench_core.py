"""Micro-benchmarks of the core kernels (Section 6.4 analogue).

These time the stages the paper discusses: building the augmented matrix
(once per network), phase-1 variance learning, phase-2 reduction and the
reduced solve.  pytest-benchmark's calibration applies (they are fast).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.augmented import intersecting_pairs
from repro.core.lia import LossInferenceAlgorithm
from repro.core.linalg import greedy_independent_columns
from repro.core.reduction import reduce_to_full_rank, solve_reduced_system
from repro.core.variance import VARIANCE_METHODS, estimate_link_variances
from tests.oracles import back_substitution_loop, householder_panel, householder_qr


def test_build_intersecting_pairs(benchmark, bench_tree):
    prepared, _, _ = bench_tree
    pairs = benchmark(intersecting_pairs, prepared.routing.matrix)
    assert pairs.num_links == prepared.routing.num_links


@pytest.mark.parametrize("method", VARIANCE_METHODS)
def test_variance_learning(benchmark, bench_tree, method):
    prepared, _, campaign = bench_tree
    training, _ = campaign.split_training_target()
    pairs = intersecting_pairs(prepared.routing.matrix)
    estimate = benchmark(
        estimate_link_variances, training, method=method, pairs=pairs
    )
    assert estimate.num_links == prepared.routing.num_links


@pytest.mark.parametrize("strategy", ["threshold", "gap", "paper", "greedy"])
def test_reduction_strategies(benchmark, bench_tree, strategy):
    prepared, _, campaign = bench_tree
    training, _ = campaign.split_training_target()
    estimate = estimate_link_variances(training)
    kwargs = {}
    if strategy == "threshold":
        kwargs["variance_cutoff"] = 16 * 0.002 / 400
    result = benchmark(
        reduce_to_full_rank,
        prepared.routing.matrix,
        estimate.variances,
        strategy,
        **kwargs,
    )
    sub = prepared.routing.to_dense()[:, result.kept_columns]
    if result.num_kept:
        assert np.linalg.matrix_rank(sub) == result.num_kept


def test_reduced_solve(benchmark, bench_tree):
    prepared, _, campaign = bench_tree
    training, target = campaign.split_training_target()
    estimate = estimate_link_variances(training)
    reduction = reduce_to_full_rank(
        prepared.routing.matrix,
        estimate.variances,
        "threshold",
        variance_cutoff=16 * 0.002 / 400,
    )
    y = target.path_log_rates()
    x = benchmark(
        solve_reduced_system, prepared.routing.matrix, y, reduction
    )
    assert (x <= 0).all()


def test_per_snapshot_inference(benchmark, bench_tree):
    """The paper's headline: after A is built, inference is sub-second."""
    prepared, _, campaign = bench_tree
    training, target = campaign.split_training_target()
    lia = LossInferenceAlgorithm(prepared.routing)
    estimate = lia.learn_variances(training)  # warm: A cached
    result = benchmark(lia.infer, target, estimate)
    assert result.num_links == prepared.routing.num_links


# -- mesh-scale kernels (the blocked/reuse-aware hot path) ----------------------


@pytest.fixture(scope="module")
def mesh_estimate(bench_mesh):
    prepared, _, campaign = bench_mesh
    training, _ = campaign.split_training_target()
    return estimate_link_variances(training)


def test_mesh_reduction_paper(benchmark, bench_mesh, mesh_estimate):
    """Phase-2 paper reduction: one basis sweep vs the seed's SVD search."""
    prepared, _, _ = bench_mesh
    result = benchmark(
        reduce_to_full_rank,
        prepared.routing.matrix,
        mesh_estimate.variances,
        "paper",
    )
    sub = prepared.routing.to_dense()[:, result.kept_columns]
    assert np.linalg.matrix_rank(sub) == result.num_kept


def test_mesh_reduced_solve_warm(benchmark, bench_mesh, mesh_estimate):
    """Reduced solve with a warm engine: two triangular-cost operations.

    The seed re-ran ``np.linalg.lstsq`` per snapshot; the engine pays one
    factorization per kept-column set and this bench measures the
    marginal (cached) per-snapshot solve.
    """
    prepared, _, campaign = bench_mesh
    _, target = campaign.split_training_target()
    lia = LossInferenceAlgorithm(prepared.routing)
    lia.infer(target, mesh_estimate)  # warm: reduction memo + factorization
    result = benchmark(lia.infer, target, mesh_estimate)
    assert result.num_links == prepared.routing.num_links


def test_mesh_infer_batch(benchmark, bench_mesh, mesh_estimate):
    """A 16-snapshot window as one multi-RHS solve."""
    prepared, _, campaign = bench_mesh
    tail = campaign.snapshots[-16:]
    lia = LossInferenceAlgorithm(prepared.routing)
    lia.infer(tail[0], mesh_estimate)  # warm
    results = benchmark(lia.infer_batch, tail, mesh_estimate)
    assert len(results) == len(tail)


def test_mesh_infer_loop_warm(benchmark, bench_mesh, mesh_estimate):
    """The same 16 snapshots as per-snapshot calls (infer_batch's foil)."""
    prepared, _, campaign = bench_mesh
    tail = campaign.snapshots[-16:]
    lia = LossInferenceAlgorithm(prepared.routing)
    lia.infer(tail[0], mesh_estimate)  # warm

    def loop():
        return [lia.infer(snapshot, mesh_estimate) for snapshot in tail]

    results = benchmark(loop)
    assert len(results) == len(tail)


def test_mesh_householder_qr(benchmark, bench_mesh, mesh_estimate):
    """Blocked Householder QR (the test oracle) on the mesh's kept-column block."""
    prepared, _, _ = bench_mesh
    reduction = reduce_to_full_rank(
        prepared.routing.matrix, mesh_estimate.variances, "paper"
    )
    R_star = prepared.routing.to_dense()[:, reduction.kept_columns]
    Q, R = benchmark(householder_qr, R_star)
    assert np.allclose(Q @ R, R_star, atol=1e-8)


def test_mesh_greedy_independent_columns(benchmark, bench_mesh, mesh_estimate):
    """Batched-MGS greedy column scan over the full mesh matrix."""
    prepared, _, _ = bench_mesh
    descending = np.argsort(mesh_estimate.variances)[::-1]
    kept = benchmark(
        greedy_independent_columns, prepared.routing.to_sparse(), descending
    )
    assert len(kept) > 0


# -- kernel microbenches (repro.core.kernels) ---------------------------------
#
# Each sweep repeats one kernel loop over many campaign-scale-small
# inputs, so per-iteration interpreter overhead dominates the time.  The
# back-substitution and Householder-panel sweeps time the test oracles
# (``tests/oracles.py``), which the library no longer calls.


@pytest.fixture(scope="module")
def kernel_inputs():
    rng = np.random.default_rng(17)
    triangulars = [
        (np.triu(rng.standard_normal((48, 48))) + 8.0 * np.eye(48),
         rng.standard_normal(48))
        for _ in range(256)
    ]
    basis = np.linalg.qr(rng.standard_normal((300, 24)))[0].copy(order="F")
    offers = [rng.standard_normal(300) for _ in range(256)]
    q, r = np.linalg.qr(rng.standard_normal((200, 40)))
    panels = [rng.standard_normal((128, 16)) for _ in range(128)]
    return triangulars, basis, offers, (q, r), panels


def test_kernel_back_substitution_sweep(benchmark, kernel_inputs):
    triangulars = kernel_inputs[0]

    def sweep():
        return sum(back_substitution_loop(U, b, 1e-12)[0] for U, b in triangulars)

    assert np.isfinite(benchmark(sweep))


def test_kernel_cgs2_sweep(benchmark, kernel_inputs):
    from repro.core.kernels import cgs2_project

    _, basis, offers, _, _ = kernel_inputs

    def sweep():
        return sum(cgs2_project(basis, 24, v.copy())[0] for v in offers)

    assert np.isfinite(benchmark(sweep))


def test_kernel_givens_downdate_sweep(benchmark, kernel_inputs):
    from repro.core.kernels import givens_downdate

    q, r = kernel_inputs[3]

    def sweep():
        for _ in range(64):
            givens_downdate(r.copy(), q.copy(), 0)

    benchmark(sweep)


def test_kernel_householder_panel_sweep(benchmark, kernel_inputs):
    panels = kernel_inputs[4]

    def sweep():
        acc = 0.0
        for panel in panels:
            work = panel.copy()
            V = np.zeros_like(work)
            betas = np.zeros(work.shape[1])
            T = householder_panel(work, V, betas, 0, work.shape[1])
            acc += T[0, 0]
        return acc

    assert np.isfinite(benchmark(sweep))
