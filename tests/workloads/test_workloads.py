"""Tests for network construction, funding and scenarios."""

import pytest

from repro.protocol.block import Block
from repro.protocol.transaction import Transaction
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network
from repro.workloads.scenarios import (
    POLICY_NAMES,
    ChurnSchedule,
    build_policy,
    build_scenario,
    validate_policy_name,
)


class TestNetworkParameters:
    def test_defaults_valid(self):
        NetworkParameters()

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            NetworkParameters(node_count=1)

    def test_with_overrides(self):
        params = NetworkParameters(node_count=50, seed=1)
        changed = params.with_overrides(seed=2)
        assert changed.seed == 2
        assert changed.node_count == 50
        assert params.seed == 1


class TestBuildNetwork:
    def test_builds_requested_node_count(self, small_network):
        assert small_network.node_count == 30
        assert small_network.network.node_count == 30

    def test_nodes_share_genesis(self, small_network):
        hashes = {node.blockchain.genesis.block_hash for node in small_network.nodes.values()}
        assert len(hashes) == 1

    def test_all_nodes_online_and_in_seed(self, small_network):
        assert len(small_network.network.online_node_ids()) == 30
        assert small_network.seed_service.online_count() == 30

    def test_no_links_before_policy(self, small_network):
        assert small_network.network.topology.link_count == 0

    def test_same_seed_same_positions(self):
        a = build_network(NetworkParameters(node_count=20, seed=3))
        b = build_network(NetworkParameters(node_count=20, seed=3))
        positions_a = [(n.position.latitude, n.position.longitude) for n in a.nodes.values()]
        positions_b = [(n.position.latitude, n.position.longitude) for n in b.nodes.values()]
        assert positions_a == positions_b

    def test_different_seed_different_positions(self):
        a = build_network(NetworkParameters(node_count=20, seed=3))
        b = build_network(NetworkParameters(node_count=20, seed=4))
        positions_a = [(n.position.latitude, n.position.longitude) for n in a.nodes.values()]
        positions_b = [(n.position.latitude, n.position.longitude) for n in b.nodes.values()]
        assert positions_a != positions_b

    def test_bandwidth_model_optional(self):
        without = build_network(NetworkParameters(node_count=10, seed=1, use_bandwidth_model=False))
        assert without.bandwidth_model is None


class TestFunding:
    def test_funding_gives_spendable_balance(self, small_network):
        fund_nodes(list(small_network.nodes.values()), amount_satoshi=500, outputs_per_node=2)
        for node in small_network.nodes.values():
            assert node.balance() == 1000
            assert len(node.spendable_outputs()) == 2
            assert node.blockchain.height == 1

    def test_all_nodes_agree_on_funding_block(self, small_network):
        block = fund_nodes(list(small_network.nodes.values()))
        tips = {node.blockchain.tip.block_hash for node in small_network.nodes.values()}
        assert tips == {block.block_hash}

    def test_partial_funding(self, small_network):
        fund_nodes(list(small_network.nodes.values()), funded_node_ids=[0, 1])
        assert small_network.node(0).balance() > 0
        assert small_network.node(5).balance() == 0

    def test_unknown_funded_id_rejected(self, small_network):
        with pytest.raises(ValueError):
            fund_nodes(list(small_network.nodes.values()), funded_node_ids=[999])

    def test_double_funding_rejected(self, small_network):
        nodes = list(small_network.nodes.values())
        fund_nodes(nodes)
        with pytest.raises(ValueError):
            fund_nodes(nodes)

    def test_refused_funding_changes_no_node(self):
        """A node already past genesis makes ``fund_nodes`` refuse before any
        node changes: no node gains the funding block or its outputs, and no
        funding ledger is registered."""
        simulated = build_network(NetworkParameters(node_count=4, seed=2))
        nodes = [simulated.node(node_id) for node_id in simulated.node_ids()]
        early = nodes[3]
        reward = Transaction.coinbase(early.keypair.address, 50, tag="early")
        block = Block.create(early.blockchain.genesis, [reward], timestamp=1.0, nonce=1, miner_id=3)
        assert early.accept_block(block, origin_peer=None)
        before = [(node.blockchain.height, node.balance(), node.utxo) for node in nodes]
        assert before[3][:2] == (1, 50)
        with pytest.raises(ValueError, match="advanced past genesis"):
            fund_nodes(nodes)
        assert [(n.blockchain.height, n.balance(), n.utxo) for n in nodes] == before
        assert all(node.blockchain.block_count == 1 for node in nodes[:3])
        # The early block's ledger is the only one registered.
        assert set(nodes[0].blockchain.index._ledgers) == {block.block_hash}

    def test_invalid_amounts_rejected(self, small_network):
        nodes = list(small_network.nodes.values())
        with pytest.raises(ValueError):
            fund_nodes(nodes, amount_satoshi=0)
        with pytest.raises(ValueError):
            fund_nodes(nodes, outputs_per_node=0)
        with pytest.raises(ValueError):
            fund_nodes([])


class TestScenarios:
    def test_policy_names_constant(self):
        assert set(POLICY_NAMES) == {"bitcoin", "lbc", "bcbpt"}

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_build_scenario_for_every_policy(self, name):
        scenario = build_scenario(name, NetworkParameters(node_count=25, seed=8))
        assert scenario.name == name
        assert scenario.build_report.node_count == 25
        assert scenario.network.network.topology.is_connected()

    def test_unknown_policy_rejected(self, small_network):
        with pytest.raises(ValueError):
            build_policy("mystery", small_network)

    def test_threshold_passed_to_bcbpt(self, small_network):
        policy = build_policy("bcbpt", small_network, latency_threshold_s=0.07)
        assert policy.config.latency_threshold_s == pytest.approx(0.07)

    def test_same_parameters_give_same_node_placement_across_policies(self):
        params = NetworkParameters(node_count=25, seed=8)
        a = build_scenario("bitcoin", params)
        b = build_scenario("bcbpt", params)
        pos_a = [(n.position.latitude, n.position.longitude) for n in a.network.nodes.values()]
        pos_b = [(n.position.latitude, n.position.longitude) for n in b.network.nodes.values()]
        assert pos_a == pos_b

    def test_validate_policy_name_accepts_known_and_rejects_unknown(self):
        for name in POLICY_NAMES:
            assert validate_policy_name(name) == name
        with pytest.raises(ValueError, match="unknown policy 'btc'"):
            validate_policy_name("btc")

    def test_build_scenario_rejects_unknown_policy_before_building(self):
        # The name check fires before any (expensive) network construction.
        with pytest.raises(ValueError, match="unknown policy"):
            build_scenario("mystery", NetworkParameters(node_count=25, seed=8))


class TestChurnSchedule:
    def test_defaults_valid(self):
        schedule = ChurnSchedule()
        params = schedule.session_parameters()
        assert params.median_session_s == schedule.median_session_s
        assert params.stable_fraction == schedule.stable_fraction

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"median_session_s": 0.0},
            {"sigma": -1.0},
            {"stable_fraction": 1.5},
            {"stable_session_s": 0.0},
            {"mean_downtime_s": -1.0},
            {"start_delay_s": -0.1},
            {"discovery_interval_s": 0.0},
            {"repair_interval_s": -2.0},
        ],
    )
    def test_invalid_schedule_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChurnSchedule(**kwargs)


class TestDynamicScenario:
    SCHEDULE = ChurnSchedule(
        median_session_s=20.0,
        stable_fraction=0.0,
        mean_downtime_s=10.0,
        discovery_interval_s=2.0,
        repair_interval_s=5.0,
    )

    def test_static_scenario_has_no_maintainer(self):
        scenario = build_scenario("bcbpt", NetworkParameters(node_count=25, seed=8))
        assert not scenario.dynamic
        assert scenario.maintainer is None
        with pytest.raises(RuntimeError, match="without a ChurnSchedule"):
            scenario.start_churn()

    def test_churn_schedule_wires_maintainer_and_resync(self):
        scenario = build_scenario(
            "bcbpt", NetworkParameters(node_count=25, seed=8), churn=self.SCHEDULE
        )
        assert scenario.dynamic
        assert scenario.maintainer is not None
        assert scenario.churn is self.SCHEDULE
        # Every node resynchronises inventory on reconnect under churn.
        for node in scenario.network.nodes.values():
            assert node.config.resync_on_reconnect
        # The network's session model follows the schedule.
        assert (
            scenario.network.session_model.parameters.median_session_s
            == self.SCHEDULE.median_session_s
        )

    def test_start_churn_spares_requested_nodes(self):
        scenario = build_scenario(
            "bcbpt", NetworkParameters(node_count=25, seed=8), churn=self.SCHEDULE
        )
        spared = scenario.network.node_ids()[:2]
        scenario.start_churn(spare=spared)
        scenario.simulator.run(until=200.0)
        maintainer = scenario.maintainer
        assert maintainer.churn.leave_events > 0
        network = scenario.network.network
        for node_id in spared:
            assert network.is_online(node_id), "spared nodes must never leave"
            assert node_id not in maintainer.churn._online

    def test_start_delay_postpones_churn(self):
        delayed = ChurnSchedule(
            median_session_s=20.0,
            stable_fraction=0.0,
            mean_downtime_s=10.0,
            start_delay_s=50.0,
            discovery_interval_s=None,
            repair_interval_s=None,
        )
        scenario = build_scenario(
            "bcbpt", NetworkParameters(node_count=25, seed=8), churn=delayed
        )
        scenario.start_churn()
        scenario.simulator.run(until=40.0)
        assert scenario.maintainer.churn.leave_events == 0
        scenario.simulator.run(until=200.0)
        assert scenario.maintainer.churn.leave_events > 0
