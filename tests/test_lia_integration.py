"""End-to-end integration tests of the LIA pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    LossInferenceAlgorithm,
    MeasurementCampaign,
    ProberConfig,
    ProbingSimulator,
    RoutingMatrix,
)
from repro.lossmodel import LLRD1, LLRD2
from repro.metrics import evaluate_location
from repro.topology.routing import VirtualLink


class TestTreePipeline:
    @pytest.fixture(scope="class")
    def outcome(self, small_tree, tree_campaign):
        _, _, routing = small_tree
        lia = LossInferenceAlgorithm(routing)
        result = lia.run(tree_campaign)
        target = tree_campaign[-1]
        return routing, result, target

    def test_detection_quality(self, outcome):
        routing, result, target = outcome
        metrics = evaluate_location(
            result.loss_rates,
            target.virtual_congested(routing),
            routing,
            LLRD1.threshold,
        )
        assert metrics.detection_rate >= 0.85
        assert metrics.false_positive_rate <= 0.25

    def test_rate_accuracy_on_congested(self, outcome):
        routing, result, target = outcome
        realized = target.realized_virtual_loss_rates(routing)
        congested = target.virtual_congested(routing)
        found = congested & (result.loss_rates > LLRD1.threshold)
        if found.any():
            errors = np.abs(result.loss_rates[found] - realized[found])
            assert np.median(errors) < 0.02

    def test_good_links_near_zero(self, outcome):
        routing, result, target = outcome
        good = ~target.virtual_congested(routing)
        assert np.median(result.loss_rates[good]) < 1e-3

    def test_transmission_rates_valid(self, outcome):
        _, result, _ = outcome
        assert (result.transmission_rates > 0).all()
        assert (result.transmission_rates <= 1).all()

    def test_congested_links_mask(self, outcome):
        _, result, _ = outcome
        mask = result.congested_links(0.002)
        assert mask.sum() == (result.loss_rates > 0.002).sum()


class TestMeshPipeline:
    def test_planetlab_like_end_to_end(self, small_mesh):
        topo, paths, routing = small_mesh
        config = ProberConfig(
            probes_per_snapshot=500, congestion_probability=0.10
        )
        sim = ProbingSimulator(
            paths, topo.network.num_links, config=config
        )
        campaign = sim.run_campaign(26, routing, seed=5)
        result = LossInferenceAlgorithm(routing).run(campaign)
        target = campaign[-1]
        metrics = evaluate_location(
            result.loss_rates,
            target.virtual_congested(routing),
            routing,
            LLRD1.threshold,
        )
        assert metrics.detection_rate >= 0.8
        assert metrics.false_positive_rate <= 0.35

    def test_llrd2_model_works(self, small_mesh):
        topo, paths, routing = small_mesh
        sim = ProbingSimulator(
            paths,
            topo.network.num_links,
            model=LLRD2,
            config=ProberConfig(probes_per_snapshot=500),
        )
        campaign = sim.run_campaign(26, routing, seed=6)
        result = LossInferenceAlgorithm(routing).run(campaign)
        assert result.num_links == routing.num_links


def permute_paths(campaign, order):
    """*campaign* with its paths listed in *order*: routing-matrix rows,
    ``paths`` and every snapshot's ``path_transmission`` move together;
    the columns (links) stay put."""
    routing = campaign.routing
    permuted = RoutingMatrix(
        routing.matrix[order],
        [routing.paths[i] for i in order],
        routing.virtual_links,
    )
    snapshots = [
        replace(snapshot, path_transmission=snapshot.path_transmission[order])
        for snapshot in campaign.snapshots
    ]
    return MeasurementCampaign(permuted, snapshots)


@pytest.fixture(scope="module")
def mesh_campaign(small_mesh):
    topo, paths, routing = small_mesh
    sim = ProbingSimulator(
        paths,
        topo.network.num_links,
        config=ProberConfig(
            probes_per_snapshot=500, congestion_probability=0.10
        ),
    )
    return sim.run_campaign(26, routing, seed=5)


class TestPathPermutation:
    """Metamorphic relation: the order paths are listed in is not data."""

    @pytest.mark.parametrize("layout", ["tree", "mesh"])
    @pytest.mark.parametrize("order_seed", [0, 1])
    def test_per_link_output_unchanged(
        self, request, layout, order_seed
    ):
        campaign = request.getfixturevalue(
            "tree_campaign" if layout == "tree" else "mesh_campaign"
        )
        routing = campaign.routing
        order = np.random.default_rng(order_seed).permutation(routing.num_paths)
        assert not np.array_equal(order, np.arange(routing.num_paths))
        shuffled = permute_paths(campaign, order)

        expected = LossInferenceAlgorithm(routing).run(campaign)
        got = LossInferenceAlgorithm(shuffled.routing).run(shuffled)
        np.testing.assert_allclose(
            got.loss_rates, expected.loss_rates, rtol=0, atol=1e-12
        )
        assert np.array_equal(
            got.congested_links(LLRD1.threshold),
            expected.congested_links(LLRD1.threshold),
        )
        assert expected.congested_links(LLRD1.threshold).any()


def relabel_links(campaign, order):
    """*campaign* with its links relabelled: new column ``j`` is old
    column ``order[j]``.  The paths and every measurement stay put."""
    routing = campaign.routing
    relabelled = RoutingMatrix(
        routing.matrix[:, order],
        routing.paths,
        [
            VirtualLink(column=j, members=routing.virtual_links[k].members)
            for j, k in enumerate(order)
        ],
    )
    return MeasurementCampaign(relabelled, list(campaign.snapshots))


class TestLinkRelabelling:
    """Metamorphic relation: relabelling links permutes the output."""

    @pytest.mark.parametrize("layout", ["tree", "mesh"])
    @pytest.mark.parametrize("order_seed", [0, 1])
    def test_per_link_output_permuted(self, request, layout, order_seed):
        campaign = request.getfixturevalue(
            "tree_campaign" if layout == "tree" else "mesh_campaign"
        )
        routing = campaign.routing
        order = np.random.default_rng(order_seed).permutation(routing.num_links)
        assert not np.array_equal(order, np.arange(routing.num_links))
        relabelled = relabel_links(campaign, order)

        expected = LossInferenceAlgorithm(routing).run(campaign)
        got = LossInferenceAlgorithm(relabelled.routing).run(relabelled)
        np.testing.assert_allclose(
            got.loss_rates, expected.loss_rates[order], rtol=0, atol=1e-12
        )
        assert np.array_equal(
            got.congested_links(LLRD1.threshold),
            expected.congested_links(LLRD1.threshold)[order],
        )
        assert expected.congested_links(LLRD1.threshold).any()


class TestDriverPlumbing:
    def test_variance_reuse_across_snapshots(self, small_tree, tree_campaign):
        _, _, routing = small_tree
        lia = LossInferenceAlgorithm(routing)
        training, target = tree_campaign.split_training_target()
        estimate = lia.learn_variances(training)
        a = lia.infer(target, estimate)
        b = lia.infer(tree_campaign[0], estimate)
        assert a.variance_estimate is b.variance_estimate

    def test_pairs_cached(self, small_tree):
        _, _, routing = small_tree
        lia = LossInferenceAlgorithm(routing)
        assert lia.pairs is lia.pairs

    def test_mismatched_variances_rejected(self, small_tree, tree_campaign):
        _, _, routing = small_tree
        lia = LossInferenceAlgorithm(routing)
        training, target = tree_campaign.split_training_target()
        estimate = lia.learn_variances(training)
        truncated = replace(estimate, variances=estimate.variances[:-1])
        with pytest.raises(ValueError):
            lia.infer(target, truncated)

    def test_invalid_construction(self, small_tree):
        _, _, routing = small_tree
        with pytest.raises(ValueError):
            LossInferenceAlgorithm(routing, variance_method="bogus")
        with pytest.raises(ValueError):
            LossInferenceAlgorithm(routing, reduction_strategy="bogus")
        with pytest.raises(ValueError):
            LossInferenceAlgorithm(routing, congestion_threshold=2.0)
        with pytest.raises(ValueError):
            LossInferenceAlgorithm(routing, cutoff_scale=-1)

    def test_explicit_num_training(self, small_tree, tree_campaign):
        _, _, routing = small_tree
        lia = LossInferenceAlgorithm(routing)
        result = lia.run(tree_campaign, num_training=10)
        assert result.num_links == routing.num_links

    @pytest.mark.parametrize("strategy", ("gap", "paper", "greedy"))
    def test_alternate_reductions_run(
        self, small_tree, tree_campaign, strategy
    ):
        _, _, routing = small_tree
        lia = LossInferenceAlgorithm(routing, reduction_strategy=strategy)
        result = lia.run(tree_campaign)
        assert result.reduction.strategy == strategy
