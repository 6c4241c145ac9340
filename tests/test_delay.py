"""Tests for the delay-tomography extension."""

import numpy as np
import pytest

from repro.delay import (
    DelayCampaign,
    DelayInferenceAlgorithm,
    DelayModel,
    DelayProbingSimulator,
    DelaySnapshot,
)


@pytest.fixture(scope="module")
def delay_setup(small_tree):
    topo, paths, routing = small_tree
    simulator = DelayProbingSimulator(
        paths, topo.network.num_links, congestion_probability=0.1, seed=4
    )
    campaign = simulator.run_campaign(31, routing, seed=5)
    return routing, simulator, campaign


class TestDelayModel:
    def test_base_delays_in_range(self):
        model = DelayModel(base_range=(1.0, 2.0))
        base = model.draw_base_delays(1000, seed=0)
        assert base.min() >= 1.0 and base.max() <= 2.0

    def test_queue_means_only_on_congested(self):
        model = DelayModel()
        congested = np.array([True, False, True])
        means = model.draw_queue_means(congested, seed=1)
        assert means[1] == 0.0
        assert (means[[0, 2]] > 0).all()

    def test_snapshot_delays_add_queueing(self):
        model = DelayModel()
        base = np.array([1.0, 1.0])
        queue = np.array([0.0, 20.0])
        delays = model.sample_snapshot_delays(base, queue, seed=2)
        assert delays[0] == 1.0
        assert delays[1] > 1.0

    def test_theoretical_variance(self):
        model = DelayModel(queue_shape=0.8)
        assert model.theoretical_variance(np.array([10.0]))[0] == pytest.approx(
            100.0 / 0.8
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayModel(queue_shape=0.0)
        with pytest.raises(ValueError):
            DelayModel(base_range=(5.0, 1.0))


class TestDelaySimulator:
    def test_path_delay_is_link_sum(self, delay_setup, small_tree):
        routing, simulator, campaign = delay_setup
        _, paths, _ = small_tree
        snap = campaign[0]
        for path in paths[:20]:
            expected = snap.link_delays[list(path.link_indices())].sum()
            assert snap.path_delays[path.index] == pytest.approx(
                expected, abs=0.5
            )

    def test_congested_links_vary_across_snapshots(self, delay_setup, small_tree):
        routing, simulator, campaign = delay_setup
        link_delays = np.vstack([s.link_delays for s in campaign.snapshots])
        variances = link_delays.var(axis=0)
        if simulator.congested.any() and (~simulator.congested).any():
            assert (
                variances[simulator.congested].min()
                > variances[~simulator.congested].max()
            )

    def test_snapshot_validation(self):
        with pytest.raises(ValueError):
            DelaySnapshot(path_delays=np.array([-1.0]), num_probes=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_snapshot_rejects_non_finite_or_negative(self, bad):
        with pytest.raises(ValueError, match="finite, non-negative"):
            DelaySnapshot(path_delays=np.array([1.0, bad, 2.0]), num_probes=10)


class TestDelayInference:
    def test_variance_ordering_identifies_congested(self, delay_setup):
        routing, simulator, campaign = delay_setup
        training, _ = campaign.split_training_target()
        algorithm = DelayInferenceAlgorithm(routing)
        estimate = algorithm.learn_variances(training)
        cong_cols = routing.aggregate_any(simulator.congested)
        if not cong_cols.any():
            pytest.skip("no congested link drawn")
        order = np.argsort(estimate.variances)[::-1]
        top = order[: int(cong_cols.sum())]
        assert cong_cols[top].mean() >= 0.8

    def test_deviations_match_truth(self, delay_setup):
        routing, simulator, campaign = delay_setup
        training, target = campaign.split_training_target()
        algorithm = DelayInferenceAlgorithm(routing)
        estimate = algorithm.learn_variances(training)
        result = algorithm.infer(target, estimate)
        link_train = np.vstack(
            [s.virtual_link_delays(routing) for s in training.snapshots]
        )
        true_dev = target.virtual_link_delays(routing) - link_train.mean(axis=0)
        kept = result.kept_columns
        if len(kept):
            errors = np.abs(result.delay_deviations[kept] - true_dev[kept])
            assert np.median(errors) < 1.0  # ms

    def test_quiet_links_get_zero_deviation(self, delay_setup):
        routing, simulator, campaign = delay_setup
        algorithm = DelayInferenceAlgorithm(routing)
        result = algorithm.run(campaign)
        quiet = np.setdiff1d(
            np.arange(routing.num_links), result.kept_columns
        )
        assert np.allclose(result.delay_deviations[quiet], 0.0)

    def test_high_delay_mask(self, delay_setup):
        routing, _, campaign = delay_setup
        result = DelayInferenceAlgorithm(routing).run(campaign)
        mask = result.high_delay_links(3.0)
        assert mask.dtype == bool

    def test_infer_names_wrong_path_count(self, delay_setup):
        routing, _, campaign = delay_setup
        training, target = campaign.split_training_target()
        algorithm = DelayInferenceAlgorithm(routing)
        estimate = algorithm.learn_variances(training)
        short = DelaySnapshot(
            path_delays=target.path_delays[:-1], num_probes=target.num_probes
        )
        message = (
            f"snapshot has {routing.num_paths - 1} paths, but the routing "
            f"matrix has {routing.num_paths}"
        )
        with pytest.raises(ValueError, match=message):
            algorithm.infer(short, estimate)

    def test_needs_two_snapshots(self, delay_setup):
        routing, _, campaign = delay_setup
        short = DelayCampaign(routing=routing, snapshots=[campaign[0]])
        with pytest.raises(ValueError):
            DelayInferenceAlgorithm(routing).learn_variances(short)

    def test_cutoff_validation(self, delay_setup):
        routing, _, _ = delay_setup
        with pytest.raises(ValueError):
            DelayInferenceAlgorithm(routing, variance_cutoff_ms2=0.0)
