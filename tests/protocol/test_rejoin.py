"""Integration tests: a node that leaves and rejoins mid-run catches back up.

The dynamic-membership path exercised here is the one churn scenarios rely
on: the maintainer takes a node offline (connection teardown, pending-request
cleanup), the network moves on (new blocks, new mempool transactions), and on
rejoin the policy re-clusters and re-connects the node, whose reconnect
resync (``NodeConfig.resync_on_reconnect``) pulls it back to the best chain —
all without ever double-counting in propagation statistics.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import INTER_RUN_GAP_S
from repro.measurement.measuring_node import MeasuringNode
from repro.protocol.mining import MiningProcess, equal_hash_power
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import ChurnSchedule, build_scenario

#: Churn is wired (resync enabled, maintainer built) but never *started*:
#: the tests drive leave/join deterministically through the maintainer hooks.
MANUAL_CHURN = ChurnSchedule(
    median_session_s=3600.0,
    stable_fraction=1.0,
    discovery_interval_s=None,
    repair_interval_s=None,
)


@pytest.fixture
def dynamic_scenario():
    scenario = build_scenario(
        "bcbpt",
        NetworkParameters(node_count=30, seed=13),
        latency_threshold_s=0.05,
        churn=MANUAL_CHURN,
    )
    fund_nodes(list(scenario.network.nodes.values()), outputs_per_node=6)
    return scenario


class TestLeaveRejoinConvergence:
    def test_rejoining_node_converges_to_best_chain(self, dynamic_scenario):
        scenario = dynamic_scenario
        simulated = scenario.network
        simulator = scenario.simulator
        maintainer = scenario.maintainer
        network = simulated.network

        leaver = simulated.node_ids()[-1]
        miner_id = next(n for n in simulated.node_ids() if n != leaver)
        mining = MiningProcess(
            simulator,
            simulated.nodes,
            equal_hash_power([miner_id]),
            simulator.random.stream("test-mining"),
        )

        maintainer._handle_leave(leaver)
        assert not network.is_online(leaver)
        assert network.topology.degree(leaver) == 0

        # The network advances by two blocks (and a pending transaction)
        # while the leaver is away.
        payer = simulated.node(miner_id)
        payer.create_transaction([(payer.keypair.address, 1_000)])
        simulator.run(until=simulator.now + 5.0)
        assert mining.mine_one_block(winner_id=miner_id) is not None
        simulator.run(until=simulator.now + 10.0)
        pending_tx = simulated.node(miner_id).create_transaction(
            [(payer.keypair.address, 2_000)]
        )
        simulator.run(until=simulator.now + 5.0)
        assert mining.mine_one_block(winner_id=miner_id) is not None
        simulator.run(until=simulator.now + 10.0)
        third_tx = simulated.node(miner_id).create_transaction(
            [(payer.keypair.address, 3_000)]
        )
        simulator.run(until=simulator.now + 5.0)

        network_tip = simulated.node(miner_id).blockchain.tip
        leaver_node = simulated.node(leaver)
        assert leaver_node.blockchain.tip.block_hash != network_tip.block_hash
        assert leaver_node.blockchain.height == network_tip.height - 2

        maintainer._handle_join(leaver)
        assert network.is_online(leaver)
        assert network.topology.degree(leaver) > 0
        simulator.run(until=simulator.now + 30.0)

        # Chain convergence: the reconnect resync announced the peers' tips,
        # and recursive parent requests filled the two-block gap.
        assert leaver_node.blockchain.tip.block_hash == network_tip.block_hash
        assert leaver_node.blockchain.height == network_tip.height
        # Mempool catch-up: the transaction created while the node was away
        # (still unconfirmed) arrived through the peers' mempool INVs, while
        # the one confirmed in the missed blocks came in with the chain.
        assert third_tx.txid in leaver_node.known_transactions
        assert leaver_node.blockchain.contains_transaction(pending_tx.txid)
        assert leaver_node.stats.reconnect_syncs > 0

    def test_pending_requests_are_dropped_on_leave(self, dynamic_scenario):
        scenario = dynamic_scenario
        maintainer = scenario.maintainer
        leaver = scenario.network.node_ids()[-1]
        node = scenario.network.node(leaver)
        node.relay.pending_tx_requests["deadbeef"] = 0.0
        node.relay.pending_block_requests["cafebabe"] = 0.0
        maintainer._handle_leave(leaver)
        assert not node.relay.pending_tx_requests
        assert not node.relay.pending_block_requests
        assert node.stats.sessions_ended == 1


class TestNoDoubleCountingUnderChurn:
    def test_leave_and_rejoin_mid_run_counts_each_connection_once(self, dynamic_scenario):
        scenario = dynamic_scenario
        simulated = scenario.network
        simulator = scenario.simulator
        maintainer = scenario.maintainer

        measuring_id = simulated.node_ids()[0]
        measuring = MeasuringNode(
            simulated.node(measuring_id),
            simulator.random.stream("test-measuring"),
            run_timeout_s=20.0,
            exclude_long_links=True,
        )
        connections = measuring._measured_connections()
        assert connections, "measuring node needs connections"
        churner = connections[-1]

        # The churner departs just after the send and rejoins mid-run; its
        # mempool still holds whatever it accepted, and the reconnect resync
        # re-announces inventory in both directions.
        simulator.schedule(0.005, lambda: maintainer._handle_leave(churner))
        simulator.schedule(2.0, lambda: maintainer._handle_join(churner))

        run = measuring.measure_once()

        received_ids = [record.node_id for record in run.receptions]
        assert len(received_ids) == len(set(received_ids)), "a node was counted twice"
        assert set(received_ids) <= set(run.connected_nodes)
        assert len(run.receptions) <= len(run.connected_nodes)
        ranks = sorted(record.rank for record in run.receptions)
        assert ranks == list(range(1, len(run.receptions) + 1))

    def test_campaign_sample_count_matches_unique_receptions(self, dynamic_scenario):
        scenario = dynamic_scenario
        simulated = scenario.network
        simulator = scenario.simulator
        maintainer = scenario.maintainer

        measuring_id = simulated.node_ids()[0]
        measuring = MeasuringNode(
            simulated.node(measuring_id),
            simulator.random.stream("test-measuring"),
            run_timeout_s=15.0,
            exclude_long_links=True,
        )
        churner = measuring._measured_connections()[-1]
        # One full leave/rejoin cycle per repetition, offset into the run.
        for offset in (0.005, 25.0):
            simulator.schedule(offset, lambda: maintainer._handle_leave(churner))
            simulator.schedule(offset + 3.0, lambda: maintainer._handle_join(churner))

        runs = []
        for index in range(2):
            runs.append(measuring.measure_once(run_index=index))
            simulator.run(until=simulator.now + INTER_RUN_GAP_S)

        assert measuring.runs == runs
        for run in runs:
            ids = [record.node_id for record in run.receptions]
            assert len(ids) == len(set(ids))
            assert len(ids) <= len(run.connected_nodes)


def relay_scenario(relay):
    scenario = build_scenario(
        "bcbpt",
        NetworkParameters(node_count=30, seed=13),
        latency_threshold_s=0.05,
        churn=MANUAL_CHURN,
        relay=relay,
    )
    fund_nodes(list(scenario.network.nodes.values()), outputs_per_node=6)
    return scenario


class TestRelayStrategiesUnderChurn:
    """Every non-flood relay strategy survives a leave/rejoin cycle: in-flight
    strategy state is dropped on leave, and the rejoiner converges back to the
    best chain through that strategy's own sync path (compact announcements,
    adaptive fan-out, or a headers round-trip)."""

    @pytest.mark.parametrize("relay", ["compact", "push", "adaptive", "headers"])
    def test_rejoining_node_converges_per_strategy(self, relay):
        scenario = relay_scenario(relay)
        simulated = scenario.network
        simulator = scenario.simulator
        maintainer = scenario.maintainer

        leaver = simulated.node_ids()[-1]
        miner_id = next(n for n in simulated.node_ids() if n != leaver)
        mining = MiningProcess(
            simulator,
            simulated.nodes,
            equal_hash_power([miner_id]),
            simulator.random.stream("test-mining"),
        )

        maintainer._handle_leave(leaver)
        for _ in range(2):
            assert mining.mine_one_block(winner_id=miner_id) is not None
            simulator.run(until=simulator.now + 10.0)

        network_tip = simulated.node(miner_id).blockchain.tip
        leaver_node = simulated.node(leaver)
        assert leaver_node.blockchain.height == network_tip.height - 2

        maintainer._handle_join(leaver)
        simulator.run(until=simulator.now + 30.0)

        assert leaver_node.blockchain.tip.block_hash == network_tip.block_hash
        assert leaver_node.stats.reconnect_syncs > 0
        if relay == "headers":
            # The catch-up went through the headers-first path.
            assert leaver_node.stats.getheaders_sent > 0
            assert leaver_node.stats.headers_received > 0

    @pytest.mark.parametrize("relay", ["compact", "adaptive", "headers"])
    def test_in_flight_strategy_state_dropped_on_leave(self, relay):
        from repro.protocol.relay import _Reconstruction

        scenario = relay_scenario(relay)
        maintainer = scenario.maintainer
        leaver = scenario.network.node_ids()[-1]
        strategy = scenario.network.node(leaver).relay
        strategy.pending_block_requests["cafebabe"] = 0.0
        if relay == "compact":
            strategy._reconstructions["deadbeef"] = _Reconstruction(
                header=None, height=1, slots=[None], origin=0
            )
        elif relay == "adaptive":
            strategy._probes["deadbeef"] = (1, 0.0)
            strategy._score(1).novel_invs = 2
            strategy._fanout = 3
        elif relay == "headers":
            strategy._pending_getheaders[1] = 0.0
            strategy._header_heights["deadbeef"] = 7
            strategy._body_queue.append(("deadbeef", 1))

        maintainer._handle_leave(leaver)

        assert not strategy.pending_block_requests
        if relay == "compact":
            assert not strategy._reconstructions
        elif relay == "adaptive":
            assert not strategy._probes
            assert not strategy.scores
            assert strategy._fanout is None
        elif relay == "headers":
            assert not strategy._pending_getheaders
            assert not strategy._header_heights
            assert not strategy._body_queue

    @pytest.mark.parametrize("relay", ["compact", "adaptive", "headers"])
    def test_no_double_counting_with_churn_per_strategy(self, relay):
        scenario = relay_scenario(relay)
        simulated = scenario.network
        simulator = scenario.simulator
        maintainer = scenario.maintainer

        measuring_id = simulated.node_ids()[0]
        measuring = MeasuringNode(
            simulated.node(measuring_id),
            simulator.random.stream("test-measuring"),
            run_timeout_s=20.0,
            exclude_long_links=True,
        )
        connections = measuring._measured_connections()
        assert connections, "measuring node needs connections"
        churner = connections[-1]
        simulator.schedule(0.005, lambda: maintainer._handle_leave(churner))
        simulator.schedule(2.0, lambda: maintainer._handle_join(churner))

        run = measuring.measure_once()

        received_ids = [record.node_id for record in run.receptions]
        assert len(received_ids) == len(set(received_ids)), "a node was counted twice"
        assert set(received_ids) <= set(run.connected_nodes)
