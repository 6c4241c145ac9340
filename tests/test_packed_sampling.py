"""Packed drop words against the per-step chain and the float measurement.

:class:`~repro.lossmodel.gilbert.GilbertProcess` realises its chain as an
adder carry chain over packed ``uint64`` words, and
:meth:`~repro.probing.prober.ProbingSimulator._measure_packet` turns the
words into path outcomes with a bitwise OR and popcounts.  Both must
equal the per-step chain and the sparse float product in
``tests/oracles.py`` exactly (``np.array_equal``), draw the same uniforms
and leave the generator in the same state.
"""

import numpy as np
import pytest

from oracles import gilbert_states_reference, measure_packet_reference
from repro.lossmodel import (
    LLRD1,
    LLRD2,
    STREAMING_CHUNK,
    STREAMING_PROBE_THRESHOLD,
    BernoulliProcess,
    CongestionLossProcess,
    GilbertProcess,
    draw_snapshot_truth,
)
from repro.lossmodel.assignment import SnapshotGroundTruth
from repro.lossmodel.processes import pack_states, unpack_states
from repro.probing import ProberConfig, ProbingSimulator

PROBE_COUNTS = [1, 63, 64, 65, 600, 4097]


def _rates(kind, num_links=40, seed=0):
    """Per-link average rates: a model's congested/good mix, or an edge."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(num_links)
    if kind == "one":
        return np.ones(num_links)
    if kind == "mixed":
        # 0, 1, the Gilbert ceiling's neighbourhood and everything between.
        rates = rng.uniform(0.0, 1.0, num_links)
        rates[:4] = [0.0, 1.0, 1.0 / 1.65, 0.35]
        return rates
    model = {"LLRD1": LLRD1, "LLRD2": LLRD2}[kind]
    truth = draw_snapshot_truth(num_links, 0.4, model, seed=rng)
    return truth.loss_rates


def _state(rng):
    return rng.bit_generator.state


RATE_KINDS = ["LLRD1", "LLRD2", "zero", "one", "mixed"]


class TestGilbertMatchesPerStepChain:
    @pytest.mark.parametrize("kind", RATE_KINDS)
    @pytest.mark.parametrize("num_probes", PROBE_COUNTS)
    def test_states_and_packed(self, kind, num_probes):
        process = GilbertProcess()
        rates = _rates(kind, seed=num_probes)
        oracle_rng = np.random.default_rng(11)
        expected = gilbert_states_reference(
            process, rates, num_probes, seed=oracle_rng
        )
        rng = np.random.default_rng(11)
        states = process.sample_states(rates, num_probes, seed=rng)
        assert states.dtype == bool and states.shape == expected.shape
        assert np.array_equal(states, expected)
        assert _state(rng) == _state(oracle_rng)

        rng = np.random.default_rng(11)
        packed = process.sample_packed(rates, num_probes, seed=rng)
        assert packed.dtype == np.uint64
        assert packed.shape == (rates.size, -(-num_probes // 64))
        assert np.array_equal(packed, pack_states(expected))
        assert _state(rng) == _state(oracle_rng)

    @pytest.mark.parametrize("kind", ["LLRD1", "LLRD2", "mixed"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 100, STREAMING_CHUNK])
    def test_chunks(self, kind, chunk_size):
        process = GilbertProcess()
        rates = _rates(kind, seed=chunk_size)
        num_probes = 4097
        oracle_rng = np.random.default_rng(5)
        expected = gilbert_states_reference(
            process, rates, num_probes, seed=oracle_rng, chunk_size=chunk_size
        )
        rng = np.random.default_rng(5)
        blocks = list(
            process.iter_state_chunks(
                rates, num_probes, seed=rng, chunk_size=chunk_size
            )
        )
        assert all(b.shape[1] <= chunk_size for b in blocks)
        assert np.array_equal(np.concatenate(blocks, axis=1), expected)
        assert _state(rng) == _state(oracle_rng)

    @pytest.mark.parametrize("kind", RATE_KINDS)
    @pytest.mark.parametrize(
        "num_probes",
        [600, STREAMING_PROBE_THRESHOLD, STREAMING_PROBE_THRESHOLD + 2 * STREAMING_CHUNK + 5],
    )
    def test_fractions_stream_above_threshold(self, kind, num_probes):
        process = GilbertProcess()
        rates = _rates(kind, seed=3)
        oracle_rng = np.random.default_rng(2)
        expected = gilbert_states_reference(
            process, rates, num_probes, seed=oracle_rng
        )
        rng = np.random.default_rng(2)
        fractions = process.sample_loss_fractions(rates, num_probes, seed=rng)
        assert np.array_equal(fractions, expected.mean(axis=1))
        assert _state(rng) == _state(oracle_rng)

    def test_other_stay_bad(self):
        process = GilbertProcess(stay_bad=0.8)
        rates = _rates("mixed", seed=9)
        expected = gilbert_states_reference(process, rates, 333, seed=4)
        assert np.array_equal(process.sample_states(rates, 333, seed=4), expected)


class TestPacking:
    @pytest.mark.parametrize("num_probes", PROBE_COUNTS)
    def test_round_trip_and_zero_padding(self, num_probes):
        states = np.random.default_rng(num_probes).random((5, num_probes)) < 0.5
        packed = pack_states(states)
        assert np.array_equal(unpack_states(packed, num_probes), states)
        assert np.array_equal(
            np.bitwise_count(packed).sum(axis=1), states.sum(axis=1)
        )

    @pytest.mark.parametrize(
        "process",
        [BernoulliProcess(), CongestionLossProcess([(0, 1), (2,)], 4)],
        ids=["bernoulli", "congestion"],
    )
    @pytest.mark.parametrize("num_probes", [1, 65, 600])
    def test_base_default_packs_sample_states(self, process, num_probes):
        rates = np.array([0.05, 0.1, 0.0, 0.4])
        oracle_rng = np.random.default_rng(8)
        expected = process.sample_states(rates, num_probes, seed=oracle_rng)
        rng = np.random.default_rng(8)
        packed = process.sample_packed(rates, num_probes, seed=rng)
        assert np.array_equal(unpack_states(packed, num_probes), expected)
        assert _state(rng) == _state(oracle_rng)


def _simulator(small_tree, process, num_probes, model=LLRD1):
    topo, paths, _ = small_tree
    config = ProberConfig(probes_per_snapshot=num_probes, congestion_probability=0.3)
    return ProbingSimulator(
        paths, topo.network.num_links, model=model, process=process, config=config
    )


class TestMeasurePacketMatchesFloatProduct:
    @pytest.mark.parametrize("model", [LLRD1, LLRD2], ids=["LLRD1", "LLRD2"])
    @pytest.mark.parametrize("num_probes", PROBE_COUNTS)
    def test_gilbert(self, small_tree, model, num_probes):
        simulator = _simulator(small_tree, GilbertProcess(), num_probes, model)
        truth = draw_snapshot_truth(
            simulator.num_physical_links, 0.3, model, seed=num_probes
        )
        oracle_rng = np.random.default_rng(21)
        drops = gilbert_states_reference(
            simulator.process, truth.loss_rates, num_probes, seed=oracle_rng
        )
        expected = measure_packet_reference(simulator._membership, drops)
        rng = np.random.default_rng(21)
        rates, realized = simulator._measure_packet(truth, rng)
        assert np.array_equal(rates, expected[0])
        assert np.array_equal(realized, expected[1])
        assert _state(rng) == _state(oracle_rng)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_edge_rates(self, small_tree, rate):
        simulator = _simulator(small_tree, GilbertProcess(), 65)
        num_links = simulator.num_physical_links
        truth = SnapshotGroundTruth(
            congested=np.full(num_links, rate > 0),
            loss_rates=np.full(num_links, rate),
        )
        rates, realized = simulator._measure_packet(truth, np.random.default_rng(0))
        assert np.array_equal(rates, np.full(len(simulator.paths), 1.0 - rate))
        assert np.array_equal(realized, np.full(num_links, rate))

    def test_congestion_process(self, small_tree):
        topo, paths, _ = small_tree
        process = CongestionLossProcess(paths, topo.network.num_links)
        simulator = _simulator(small_tree, process, 200)
        truth = draw_snapshot_truth(simulator.num_physical_links, 0.3, LLRD1, seed=6)
        drops = process.sample_states(truth.loss_rates, 200, seed=np.random.default_rng(3))
        expected = measure_packet_reference(simulator._membership, drops)
        rates, realized = simulator._measure_packet(truth, np.random.default_rng(3))
        assert np.array_equal(rates, expected[0])
        assert np.array_equal(realized, expected[1])

    def test_bernoulli_process(self, small_tree):
        simulator = _simulator(small_tree, BernoulliProcess(), 600)
        truth = draw_snapshot_truth(simulator.num_physical_links, 0.3, LLRD1, seed=1)
        oracle_rng = np.random.default_rng(4)
        drops = simulator.process.sample_states(truth.loss_rates, 600, seed=oracle_rng)
        expected = measure_packet_reference(simulator._membership, drops)
        rng = np.random.default_rng(4)
        rates, realized = simulator._measure_packet(truth, rng)
        assert np.array_equal(rates, expected[0])
        assert np.array_equal(realized, expected[1])
        assert _state(rng) == _state(oracle_rng)
