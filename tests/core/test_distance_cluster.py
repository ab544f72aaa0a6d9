"""Tests for the distance calculator (Eq. 1) and cluster bookkeeping."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterRegistry
from repro.core.distance import DistanceCalculator, DistanceEstimate
from repro.workloads.network_gen import NetworkParameters, build_network


@pytest.fixture
def network():
    return build_network(NetworkParameters(node_count=20, seed=9)).network


class TestDistanceEstimate:
    def test_threshold_rule_eq1(self):
        estimate = DistanceEstimate(node_a=0, node_b=1, mean_rtt_s=0.020, std_rtt_s=0.001, samples=3)
        assert estimate.is_close(0.025)
        assert not estimate.is_close(0.015)

    def test_threshold_must_be_positive(self):
        estimate = DistanceEstimate(node_a=0, node_b=1, mean_rtt_s=0.020, std_rtt_s=0.001, samples=3)
        with pytest.raises(ValueError):
            estimate.is_close(0.0)

    def test_slotted_estimate_survives_a_pickle_round_trip(self):
        estimate = DistanceEstimate(node_a=0, node_b=1, mean_rtt_s=0.020, std_rtt_s=0.001, samples=3)
        assert not hasattr(estimate, "__dict__")
        assert pickle.loads(pickle.dumps(estimate)) == estimate


class TestDistanceCalculator:
    def test_measure_returns_mean_and_variance(self, network):
        calc = DistanceCalculator(network, samples_per_pair=5)
        estimate = calc.measure(0, 1)
        assert estimate.samples == 5
        assert estimate.mean_rtt_s > 0
        assert estimate.std_rtt_s >= 0

    def test_self_measurement_rejected(self, network):
        calc = DistanceCalculator(network)
        with pytest.raises(ValueError):
            calc.measure(3, 3)

    def test_measurement_charges_ping_traffic(self, network):
        calc = DistanceCalculator(network, samples_per_pair=4)
        before = network.messages_sent.get("ping", 0)
        calc.measure(0, 1)
        assert network.messages_sent["ping"] == before + 4
        assert calc.ping_exchanges == 4

    def test_cache_avoids_remeasuring(self, network):
        calc = DistanceCalculator(network, samples_per_pair=3, cache=True)
        first = calc.measure(0, 1)
        pings_after_first = network.messages_sent["ping"]
        second = calc.measure(1, 0)
        assert second == first
        assert network.messages_sent["ping"] == pings_after_first

    def test_cache_keeps_pairs_sharing_a_node_apart(self, network):
        calc = DistanceCalculator(network, samples_per_pair=3, cache=True)
        first = {pair: calc.measure(*pair) for pair in ((0, 1), (2, 0), (0, 3), (3, 2))}
        assert [(e.node_a, e.node_b) for e in first.values()] == [(0, 1), (0, 2), (0, 3), (2, 3)]
        pings = network.messages_sent["ping"]
        for (a, b), estimate in first.items():
            assert calc.measure(b, a) == estimate
        assert network.messages_sent["ping"] == pings

    def test_cache_disabled_remeasures(self, network):
        calc = DistanceCalculator(network, samples_per_pair=3, cache=False)
        calc.measure(0, 1)
        pings_after_first = network.messages_sent["ping"]
        calc.measure(0, 1)
        assert network.messages_sent["ping"] == pings_after_first + 3

    def test_clear_cache(self, network):
        calc = DistanceCalculator(network, samples_per_pair=2)
        calc.measure(0, 1)
        calc.clear_cache()
        pings_before = network.messages_sent["ping"]
        calc.measure(0, 1)
        assert network.messages_sent["ping"] == pings_before + 2

    def test_rank_by_distance_sorted(self, network):
        calc = DistanceCalculator(network)
        estimates = calc.rank_by_distance(0, list(range(1, 10)))
        rtts = [e.mean_rtt_s for e in estimates]
        assert rtts == sorted(rtts)

    def test_ranking_charges_its_misses_in_one_call(self, network, monkeypatch):
        calc = DistanceCalculator(network, samples_per_pair=3)
        calc.measure(0, 1)
        charges = []
        record = network.record_ping_exchange
        monkeypatch.setattr(
            network, "record_ping_exchange", lambda count: (charges.append(count), record(count))
        )
        pings = network.messages_sent["ping"]
        calc.rank_by_distance(0, [1, 2, 3, 0, 4])
        assert charges == [9]
        assert network.messages_sent["ping"] == network.messages_sent["pong"] == pings + 9
        assert (calc.ping_exchanges, calc.measurements_taken) == (12, 4)
        calc.rank_by_distance(4, [0, 1, 2])
        assert charges == [9, 6]
        calc.rank_by_distance(0, [1, 2])
        assert charges == [9, 6]
        # A ranking that fails part-way still charges the pings it took, and
        # a later measure charges its own again.
        with pytest.raises(KeyError):
            calc.rank_by_distance(5, [6, 7, 999])
        calc.measure(8, 9)
        assert charges == [9, 6, 6, 3]

    def test_rank_excludes_origin(self, network):
        calc = DistanceCalculator(network)
        estimates = calc.rank_by_distance(0, [0, 1, 2])
        assert len(estimates) == 2

    def test_invalid_samples_rejected(self, network):
        with pytest.raises(ValueError):
            DistanceCalculator(network, samples_per_pair=0)


class TestClusterRegistry:
    def test_create_cluster_assigns_founder(self):
        registry = ClusterRegistry()
        cluster = registry.create_cluster(7, created_at=1.0)
        assert 7 in cluster
        assert registry.cluster_of(7) is cluster
        assert cluster.size == 1

    def test_assign_moves_node(self):
        registry = ClusterRegistry()
        a = registry.create_cluster(1)
        b = registry.create_cluster(2)
        registry.assign(3, a.cluster_id)
        assert registry.are_same_cluster(1, 3)
        registry.assign(3, b.cluster_id)
        assert registry.are_same_cluster(2, 3)
        assert not registry.are_same_cluster(1, 3)
        assert a.size == 1

    def test_assign_to_missing_cluster_rejected(self):
        registry = ClusterRegistry()
        with pytest.raises(KeyError):
            registry.assign(1, 99)

    def test_remove_node_deletes_empty_cluster(self):
        registry = ClusterRegistry()
        cluster = registry.create_cluster(1)
        registry.remove_node(1)
        assert len(registry) == 0
        with pytest.raises(KeyError):
            registry.cluster(cluster.cluster_id)

    def test_remove_unassigned_node_is_noop(self):
        registry = ClusterRegistry()
        assert registry.remove_node(42) is None

    def test_refounding_moves_node_out(self):
        registry = ClusterRegistry()
        first = registry.create_cluster(1)
        registry.assign(2, first.cluster_id)
        registry.create_cluster(2)
        assert not registry.are_same_cluster(1, 2)

    def test_cluster_sizes_descending(self):
        registry = ClusterRegistry()
        a = registry.create_cluster(1)
        registry.assign(2, a.cluster_id)
        registry.assign(3, a.cluster_id)
        registry.create_cluster(10)
        assert registry.cluster_sizes() == [3, 1]

    def test_summary_empty(self):
        summary = ClusterRegistry().summary()
        assert summary["cluster_count"] == 0
        assert summary["assigned_nodes"] == 0

    def test_summary_populated(self):
        registry = ClusterRegistry()
        a = registry.create_cluster(1)
        registry.assign(2, a.cluster_id)
        registry.create_cluster(3)
        summary = registry.summary()
        assert summary["cluster_count"] == 2
        assert summary["assigned_nodes"] == 3
        assert summary["max_size"] == 2
        assert summary["min_size"] == 1

    def test_member_list_sorted(self):
        registry = ClusterRegistry()
        cluster = registry.create_cluster(5)
        registry.assign(2, cluster.cluster_id)
        registry.assign(9, cluster.cluster_id)
        assert cluster.member_list() == [2, 5, 9]

    @given(
        assignments=st.lists(
            st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_membership_invariants_property(self, assignments):
        """Every node belongs to at most one cluster; sizes sum to assigned nodes."""
        registry = ClusterRegistry()
        for node, found_new in assignments:
            existing = list(registry.clusters())
            if found_new or not existing:
                registry.create_cluster(node)
            else:
                registry.assign(node, existing[0].cluster_id)
        seen: set[int] = set()
        for cluster in registry.clusters():
            assert not (cluster.members & seen)
            seen |= cluster.members
        assert sum(registry.cluster_sizes()) == registry.assigned_nodes()
