"""Tests for the open-loop traffic plane (profiles, fees, tracker, model)."""

import numpy as np
import pytest

from repro.analysis.stats import percentile
from repro.protocol.mining import MiningProcess, equal_hash_power
from repro.protocol.node import NodeConfig
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network
from repro.workloads.traffic import (
    ConfirmationTracker,
    FeeModel,
    TrafficModel,
    TrafficProfile,
)


def build_loaded_network(node_count=10, seed=7, **node_config_kwargs):
    """A small funded ring-with-chords network for traffic tests."""
    params = NetworkParameters(
        node_count=node_count, seed=seed, node_config=NodeConfig(**node_config_kwargs)
    )
    simulated = build_network(params)
    ids = simulated.node_ids()
    for index, node_id in enumerate(ids):
        simulated.network.connect(node_id, ids[(index + 1) % len(ids)])
        simulated.network.connect(node_id, ids[(index + 3) % len(ids)])
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=4)
    return simulated


class TestTrafficProfile:
    def test_constant_rate(self):
        profile = TrafficProfile(kind="constant", rate_tps=3.0)
        assert profile.rate_at(0.0) == 3.0
        assert profile.rate_at(1e6) == 3.0
        assert profile.peak_rate() == 3.0

    def test_ramp_interpolates_and_clamps(self):
        profile = TrafficProfile(
            kind="ramp", rate_tps=10.0, base_rate_tps=2.0, ramp_duration_s=100.0
        )
        assert profile.rate_at(0.0) == 2.0
        assert profile.rate_at(50.0) == pytest.approx(6.0)
        assert profile.rate_at(100.0) == 10.0
        assert profile.rate_at(500.0) == 10.0
        assert profile.peak_rate() == 10.0

    def test_step_jumps_at_the_step_time(self):
        profile = TrafficProfile(
            kind="step", rate_tps=8.0, base_rate_tps=2.0, step_at_s=60.0
        )
        assert profile.rate_at(59.999) == 2.0
        assert profile.rate_at(60.0) == 8.0

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown profile kind"):
            TrafficProfile(kind="burst")
        with pytest.raises(ValueError, match="rate_tps must be positive"):
            TrafficProfile(rate_tps=0.0)
        with pytest.raises(ValueError, match="ramp_duration_s"):
            TrafficProfile(kind="ramp", rate_tps=1.0)
        with pytest.raises(ValueError, match="step_at_s"):
            TrafficProfile(kind="step", rate_tps=1.0)


class TestFeeModel:
    def test_draws_respect_the_floor(self):
        model = FeeModel(mean_fee_satoshi=100.0, min_fee_satoshi=7)
        rng = np.random.default_rng(1)
        draws = [model.draw(rng) for _ in range(200)]
        assert all(draw >= 7 for draw in draws)
        assert len(set(draws)) > 10  # actually a distribution

    def test_zero_mean_is_the_constant_floor(self):
        model = FeeModel(mean_fee_satoshi=0.0, min_fee_satoshi=3)
        rng = np.random.default_rng(1)
        assert [model.draw(rng) for _ in range(5)] == [3] * 5

    def test_validation(self):
        with pytest.raises(ValueError):
            FeeModel(mean_fee_satoshi=-1.0)
        with pytest.raises(ValueError):
            FeeModel(min_fee_satoshi=-1)


class TestTrafficModelDeterminism:
    def run_cell(self, seed=7):
        simulated = build_loaded_network(seed=seed)
        traffic = TrafficModel(
            simulated.simulator,
            simulated.nodes,
            profile=TrafficProfile(kind="constant", rate_tps=2.0),
            fee_model=FeeModel(mean_fee_satoshi=100.0),
        )
        traffic.start()
        simulated.simulator.run(until=30.0)
        traffic.stop()
        return traffic

    def test_same_seed_same_workload(self):
        first = self.run_cell()
        second = self.run_cell()
        assert first.txs_generated == second.txs_generated
        assert first.fees_offered == second.fees_offered
        assert first.generation_failures == second.generation_failures
        assert first.txs_generated > 20  # ~2 tx/s * 30 s

    def test_different_seed_different_workload(self):
        assert self.run_cell(seed=7).fees_offered != self.run_cell(seed=8).fees_offered

    def test_traffic_streams_do_not_perturb_other_consumers(self):
        """The golden-safety contract: wiring a TrafficModel must not change
        a single draw seen by any other named stream of the same master seed."""
        simulated = build_loaded_network()
        baseline = simulated.simulator.random.stream("mining").random(8)
        loaded = build_loaded_network()
        TrafficModel(
            loaded.simulator,
            loaded.nodes,
            profile=TrafficProfile(kind="constant", rate_tps=5.0),
        )
        assert np.array_equal(loaded.simulator.random.stream("mining").random(8), baseline)

    def test_generated_transactions_carry_fees(self):
        simulated = build_loaded_network()
        traffic = TrafficModel(
            simulated.simulator,
            simulated.nodes,
            profile=TrafficProfile(kind="constant", rate_tps=2.0),
            fee_model=FeeModel(mean_fee_satoshi=500.0, min_fee_satoshi=1),
        )
        traffic.start()
        simulated.simulator.run(until=20.0)
        traffic.stop()
        assert traffic.txs_generated > 0
        assert traffic.fees_offered >= traffic.txs_generated  # floor is 1

    def test_validation(self):
        simulated = build_loaded_network()
        profile = TrafficProfile(kind="constant", rate_tps=1.0)
        # A payment needs a receiver distinct from its sender: with one node
        # the receiver draw would never end.
        node_id = next(iter(simulated.nodes))
        for nodes in ({}, {node_id: simulated.nodes[node_id]}):
            with pytest.raises(ValueError, match="at least two nodes"):
                TrafficModel(simulated.simulator, nodes, profile=profile)
        with pytest.raises(ValueError, match="payment_satoshi"):
            TrafficModel(
                simulated.simulator, simulated.nodes, profile=profile, payment_satoshi=0
            )
        traffic = TrafficModel(simulated.simulator, simulated.nodes, profile=profile)
        traffic.start()
        with pytest.raises(RuntimeError, match="already running"):
            traffic.start()


class TestThinning:
    def test_ramp_generates_fewer_than_constant_peak(self):
        """Thinning must track the schedule: a 0→r ramp over the whole window
        accepts roughly half the arrivals a constant-r schedule does."""
        constant = build_loaded_network()
        flat = TrafficModel(
            constant.simulator,
            constant.nodes,
            profile=TrafficProfile(kind="constant", rate_tps=4.0),
        )
        flat.start()
        constant.simulator.run(until=60.0)
        flat.stop()

        ramped_net = build_loaded_network()
        ramped = TrafficModel(
            ramped_net.simulator,
            ramped_net.nodes,
            profile=TrafficProfile(
                kind="ramp", rate_tps=4.0, base_rate_tps=0.0, ramp_duration_s=60.0
            ),
        )
        ramped.start()
        ramped_net.simulator.run(until=60.0)
        ramped.stop()

        flat_offered = flat.txs_generated + flat.generation_failures
        ramp_offered = ramped.txs_generated + ramped.generation_failures
        assert 0.3 < ramp_offered / flat_offered < 0.7


class ExactQuantile:
    """StreamingQuantile stand-in that stores every sample (test oracle)."""

    def __init__(self, q):
        self.q = q
        self.samples = []

    def add(self, value):
        self.samples.append(float(value))

    def value(self):
        return percentile(self.samples, self.q * 100)


class TestConfirmationTracker:
    def run_tracked_cell(self, *, rate_tps=0.4, horizon_s=120.0, depth=2):
        simulated = build_loaded_network()
        observer = simulated.node(simulated.node_ids()[0])
        tracker = ConfirmationTracker(observer, depth=depth)
        exact_p50 = ExactQuantile(0.5)
        tracker.p50 = exact_p50  # record the stream for the oracle comparison
        traffic = TrafficModel(
            simulated.simulator,
            simulated.nodes,
            profile=TrafficProfile(kind="constant", rate_tps=rate_tps),
            tracker=tracker,
        )
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("mining"),
            block_interval_s=10.0,
        )
        traffic.start()
        mining.start()
        simulated.simulator.run(until=horizon_s)
        traffic.stop()
        mining.stop()
        return tracker, exact_p50

    def test_confirms_after_depth_burials(self):
        tracker, exact = self.run_tracked_cell()
        assert tracker.confirmed > 0
        assert tracker.confirmed == len(exact.samples)
        # Burial takes at least (depth - 1) further blocks, so latency is
        # bounded below by propagation alone being impossible: it is positive.
        assert all(sample > 0 for sample in exact.samples)
        assert tracker.latency_max == max(exact.samples)
        assert tracker.mean_latency == pytest.approx(
            sum(exact.samples) / len(exact.samples)
        )

    def test_p99_stays_within_observed_range(self):
        tracker, exact = self.run_tracked_cell(rate_tps=1.0)
        assert tracker.confirmed > 5
        assert min(exact.samples) <= tracker.p99.value() <= max(exact.samples)

    def test_pending_counts_unconfirmed(self):
        tracker, _ = self.run_tracked_cell(horizon_s=40.0)
        # The tail of the run has registered-but-unburied transactions.
        assert tracker.pending >= 0
        assert tracker.confirmed + tracker.pending > tracker.confirmed - 1

    def test_depth_validation(self):
        simulated = build_loaded_network()
        with pytest.raises(ValueError, match="depth"):
            ConfirmationTracker(simulated.node(0), depth=0)

    def test_mean_latency_zero_before_any_confirmation(self):
        simulated = build_loaded_network()
        tracker = ConfirmationTracker(simulated.node(0), depth=6)
        assert tracker.mean_latency == 0.0
        assert tracker.pending == 0
