"""Tests for the three neighbour-selection policies and churn maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bcbpt import BcbptConfig, BcbptPolicy
from repro.core.lbc import LbcConfig, LbcPolicy
from repro.core.maintenance import ChurnMaintainer
from repro.core.random_topology import RandomNeighbourPolicy, RandomPolicyConfig
from repro.net.churn import SessionParameters, SessionLengthModel
from repro.workloads.network_gen import NetworkParameters, build_network
from repro.workloads.scenarios import build_policy, build_scenario


class TestRandomPolicy:
    def test_build_creates_connected_overlay(self, small_bitcoin_scenario):
        scenario = small_bitcoin_scenario
        topology = scenario.network.network.topology
        assert topology.is_connected()
        assert scenario.build_report.node_count == 40
        assert scenario.build_report.link_count > 0

    def test_every_node_reaches_outbound_quota(self, small_bitcoin_scenario):
        network = small_bitcoin_scenario.network.network
        for node_id in network.node_ids():
            assert network.topology.degree(node_id) >= 8

    def test_no_clusters_formed(self, small_bitcoin_scenario):
        assert small_bitcoin_scenario.build_report.cluster_summary["cluster_count"] == 0

    def test_no_ping_measurement_overhead(self, small_bitcoin_scenario):
        assert small_bitcoin_scenario.build_report.ping_exchanges == 0

    def test_select_peers_excludes_self_and_current(self, small_bitcoin_scenario):
        policy = small_bitcoin_scenario.policy
        network = small_bitcoin_scenario.network.network
        peers = policy.select_peers(0)
        assert 0 not in peers
        assert not (set(peers) & set(network.neighbors(0)))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RandomPolicyConfig(max_outbound=0)
        with pytest.raises(ValueError):
            RandomPolicyConfig(max_outbound=8, candidate_pool_size=4)


class TestOnlineSampling:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sample_matches_choice_over_the_filtered_roster(self, data):
        """``_sample_online`` draws what ``rng.choice`` over the online roster
        minus the excluded ids draws, and consumes the stream the same way."""
        simulated = build_network(NetworkParameters(node_count=30, seed=5))
        network = simulated.network
        for node_id in data.draw(st.sets(st.integers(0, 29), max_size=10), label="offline"):
            network.set_online(node_id, False)
        excluded = data.draw(st.sets(st.integers(-1, 35), max_size=30), label="excluded")
        count = data.draw(st.integers(0, 35), label="count")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        policy = build_policy("bitcoin", simulated)
        policy.rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        candidates = [peer for peer in network.online_node_ids() if peer not in excluded]
        expected = []
        if count > 0 and candidates:
            picked = reference.choice(len(candidates), size=min(count, len(candidates)), replace=False)
            expected = [candidates[i] for i in picked]
        assert policy._sample_online(excluded, count) == expected
        assert policy.rng.random() == reference.random()


class TestLbcOutsiderRanking:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_nearest_outsiders_match_brute_force(self, data):
        """LBC's outsider ranking is the first ``recommendation_size`` of the
        exact (distance, id) sort of the online peers outside the excluded
        set.  Liveness changes on the network alone between queries: LBC
        ranks the network's roster, not the DNS seed's online mask."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        simulated = build_network(NetworkParameters(node_count=400, seed=seed))
        network = simulated.network
        size = data.draw(st.integers(1, 40), label="recommendation_size")
        config = LbcConfig(recommendation_size=size)
        policy = LbcPolicy(network, simulated.seed_service, np.random.default_rng(0), config)
        ids = network.node_ids()
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            for node_id in data.draw(st.lists(st.sampled_from(ids), max_size=40), label="toggled"):
                network.set_online(node_id, not network.is_online(node_id))
            node_id = data.draw(st.sampled_from(ids), label="node")
            excluded = set(data.draw(st.lists(st.sampled_from(ids), max_size=30), label="excluded"))
            candidates = [
                peer for peer in network.online_node_ids() if peer != node_id and peer not in excluded
            ]
            candidates.sort(key=lambda peer: (policy.geographic_distance_km(node_id, peer), peer))
            assert policy.nearest_outsiders(node_id, excluded) == candidates[:size]


class TestLbcPolicy:
    def test_build_clusters_every_node(self, small_lbc_scenario):
        policy = small_lbc_scenario.policy
        assert policy.clusters.assigned_nodes() == 40
        assert small_lbc_scenario.build_report.cluster_summary["cluster_count"] >= 1

    def test_overlay_connected(self, small_lbc_scenario):
        assert small_lbc_scenario.network.network.topology.is_connected()

    def test_cluster_members_are_geographically_close_to_someone(self, small_lbc_scenario):
        policy = small_lbc_scenario.policy
        threshold = policy.config.geographic_threshold_km
        for cluster in policy.clusters.clusters():
            members = cluster.member_list()
            if len(members) < 2:
                continue
            for member in members:
                distances = [
                    policy.geographic_distance_km(member, other)
                    for other in members
                    if other != member
                ]
                assert min(distances) < threshold * 2

    def test_recommend_peers_returns_cluster_members(self, small_lbc_scenario):
        policy = small_lbc_scenario.policy
        cluster = next(c for c in policy.clusters.clusters() if c.size >= 3)
        members = cluster.member_list()
        recommendations = policy.recommend_peers(members[0], members[1])
        assert set(recommendations) <= set(members)
        assert members[1] not in recommendations

    def test_no_latency_measurements_taken(self, small_lbc_scenario):
        # LBC never pings: that is the defining difference from BCBPT.
        assert small_lbc_scenario.build_report.ping_exchanges == 0

    def test_long_links_created(self, small_lbc_scenario):
        links = list(small_lbc_scenario.network.network.topology.links())
        assert any(link.is_long_link for link in links)

    def test_rejoin_reassigns_cluster(self, small_lbc_scenario):
        policy = small_lbc_scenario.policy
        network = small_lbc_scenario.network.network
        seed_service = small_lbc_scenario.network.seed_service
        network.set_online(5, False)
        seed_service.set_online(5, False)
        policy.on_node_leave(5)
        assert policy.clusters.cluster_of(5) is None
        network.set_online(5, True)
        seed_service.set_online(5, True)
        policy.on_node_join(5)
        assert policy.clusters.cluster_of(5) is not None
        assert network.topology.degree(5) > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LbcConfig(geographic_threshold_km=0.0)


class TestBcbptPolicy:
    def test_build_clusters_every_node(self, small_bcbpt_scenario):
        policy = small_bcbpt_scenario.policy
        assert policy.clusters.assigned_nodes() == 40

    def test_overlay_connected(self, small_bcbpt_scenario):
        assert small_bcbpt_scenario.network.network.topology.is_connected()

    def test_ping_measurement_overhead_recorded(self, small_bcbpt_scenario):
        # BCBPT must pay the measurement overhead the paper discusses.
        assert small_bcbpt_scenario.build_report.ping_exchanges > 0
        assert small_bcbpt_scenario.network.network.messages_sent["ping"] > 0

    def test_join_traffic_recorded(self, small_bcbpt_scenario):
        messages = small_bcbpt_scenario.network.network.messages_sent
        assert messages["join"] > 0
        assert messages["cluster_members"] > 0

    def test_cluster_links_respect_latency_threshold(self, small_bcbpt_scenario):
        """Every non-long link created by BCBPT joins a pair whose base RTT is
        close to (or under) the threshold — latency-far pairs are never chosen."""
        policy = small_bcbpt_scenario.policy
        network = small_bcbpt_scenario.network.network
        threshold = policy.config.latency_threshold_s
        for link in network.topology.links():
            if link.is_long_link:
                continue
            base = network.base_rtt(link.node_a, link.node_b)
            # Measurement jitter can admit pairs slightly above the threshold.
            assert base < threshold * 2.0

    def test_select_peers_only_returns_close_peers(self, small_bcbpt_scenario):
        policy = small_bcbpt_scenario.policy
        network = small_bcbpt_scenario.network.network
        for peer in policy.select_peers(0)[:5]:
            assert network.base_rtt(0, peer) < policy.config.latency_threshold_s * 2.0

    def test_smaller_threshold_gives_more_smaller_clusters(self):
        params = NetworkParameters(node_count=60, seed=13)
        tight = build_scenario("bcbpt", params, latency_threshold_s=0.015)
        loose = build_scenario("bcbpt", params, latency_threshold_s=0.150)
        tight_summary = tight.policy.clusters.summary()
        loose_summary = loose.policy.clusters.summary()
        assert tight_summary["cluster_count"] >= loose_summary["cluster_count"]
        assert tight_summary["mean_size"] <= loose_summary["mean_size"]

    def test_rejoin_repairs_connections(self, small_bcbpt_scenario):
        policy = small_bcbpt_scenario.policy
        network = small_bcbpt_scenario.network.network
        seed_service = small_bcbpt_scenario.network.seed_service
        network.set_online(3, False)
        seed_service.set_online(3, False)
        policy.on_node_leave(3)
        assert network.topology.degree(3) == 0
        network.set_online(3, True)
        seed_service.set_online(3, True)
        policy.on_node_join(3)
        assert network.topology.degree(3) > 0
        assert policy.clusters.cluster_of(3) is not None

    def test_discovery_round_tops_up_connections(self, small_bcbpt_scenario):
        policy = small_bcbpt_scenario.policy
        network = small_bcbpt_scenario.network.network
        victim = 0
        for peer in list(network.neighbors(victim)):
            network.disconnect(victim, peer)
        created = policy.run_discovery_round(victim)
        assert created > 0
        assert network.topology.degree(victim) > 0

    def test_message_driven_join_handshake(self):
        """The JOIN / JOIN_ACCEPT / CLUSTER_MEMBERS path wires a node into a cluster."""
        simulated = build_network(NetworkParameters(node_count=12, seed=21))
        policy = build_policy("bcbpt", simulated, latency_threshold_s=0.5)
        network = simulated.network
        for node in simulated.nodes.values():
            node.cluster_listener = policy
        # Give the responder a cluster and a link to the joiner first.
        policy.clusters.create_cluster(1, created_at=0.0)
        network.connect(0, 1)
        from repro.protocol.messages import JoinMessage

        network.send(0, 1, JoinMessage(sender=0, measured_rtt_s=0.01))
        simulated.simulator.run(until=10.0)
        assert policy.clusters.are_same_cluster(0, 1)
        assert network.messages_sent["join_accept"] >= 1
        assert network.messages_sent["cluster_members"] >= 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BcbptConfig(latency_threshold_s=0.0)
        with pytest.raises(ValueError):
            BcbptConfig(ping_samples=0)


class TestChurnMaintainer:
    def test_churned_network_stays_usable(self):
        scenario = build_scenario("bcbpt", NetworkParameters(node_count=30, seed=17))
        simulated = scenario.network
        session_params = SessionParameters(
            median_session_s=30.0, sigma=0.5, stable_fraction=0.0, mean_downtime_s=10.0
        )
        maintainer = ChurnMaintainer(
            simulated.simulator,
            simulated.network,
            scenario.policy,
            simulated.seed_service,
            SessionLengthModel(simulated.simulator.random.stream("sessions"), session_params),
            discovery_interval_s=5.0,
        )
        maintainer.start()
        simulated.simulator.run(until=200.0)
        maintainer.stop()
        assert maintainer.churn.leave_events > 0
        assert maintainer.churn.join_events > 0
        online = simulated.network.online_node_ids()
        assert online, "some nodes must be online after churn"
        # Online nodes should still have connections (the maintainer repaired them).
        degrees = [simulated.network.topology.degree(n) for n in online]
        assert sum(1 for d in degrees if d > 0) >= len(online) * 0.8
