"""Tests for the Bitcoin node relay logic and the P2P network fabric.

These exercise the Fig. 1 relay pattern (INV -> GETDATA -> TX), the first-seen
rule, block relay, churn handling and the traffic counters the overhead
experiment relies on.
"""

import pytest

from repro.protocol.messages import (
    AddrMessage,
    GetAddrMessage,
    GetDataMessage,
    InvMessage,
    InventoryType,
    PingMessage,
    TxMessage,
)
from repro.net.geo import GeoPosition
from repro.protocol.node import BitcoinNode, NodeConfig
from repro.protocol.transaction import Transaction
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network


def build_connected_network(node_count=12, seed=2, node_config=None):
    """A small fully-built network with a simple ring + chords overlay."""
    params = NetworkParameters(node_count=node_count, seed=seed)
    if node_config is not None:
        params = params.with_overrides(node_config=node_config)
    simulated = build_network(params)
    network = simulated.network
    ids = simulated.node_ids()
    for index, node_id in enumerate(ids):
        network.connect(node_id, ids[(index + 1) % len(ids)])
        network.connect(node_id, ids[(index + 3) % len(ids)])
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=3)
    return simulated


class TestNetworkFabric:
    def test_register_and_lookup(self, small_network):
        network = small_network.network
        assert network.node_count == 30
        assert network.node(0).node_id == 0
        assert 0 in network.node_ids()

    def test_duplicate_registration_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.nodes[0].attach(small_network.network)

    def test_connect_creates_bidirectional_link(self, small_network):
        network = small_network.network
        assert network.connect(0, 1)
        assert 1 in network.neighbors(0)
        assert 0 in network.neighbors(1)

    def test_connect_self_refused(self, small_network):
        assert not small_network.network.connect(3, 3)

    def test_connect_duplicate_refused(self, small_network):
        network = small_network.network
        network.connect(0, 1)
        assert not network.connect(1, 0)

    def test_connect_offline_refused(self, small_network):
        network = small_network.network
        network.set_online(5, False)
        assert not network.connect(0, 5)

    def test_connect_counts_handshake_traffic(self, small_network):
        network = small_network.network
        before = network.messages_sent.get("version", 0)
        network.connect(0, 1)
        assert network.messages_sent["version"] == before + 2
        assert network.messages_sent["verack"] == before + 2

    def test_disconnect(self, small_network):
        network = small_network.network
        network.connect(0, 1)
        assert network.disconnect(0, 1)
        assert not network.topology.are_connected(0, 1)
        assert not network.disconnect(0, 1)

    def test_online_roster_is_cached_until_a_state_change(self, small_network):
        network = small_network.network
        roster = network.online_node_ids()
        assert roster == tuple(range(30))
        assert network.online_node_ids() is roster
        assert network.online_rank(7) == 7
        network.set_online(5, False)
        assert network.online_node_ids() == tuple(i for i in range(30) if i != 5)
        assert network.online_rank(5) is None
        assert network.online_rank(7) == 6
        assert roster == tuple(range(30))  # a held roster is never changed in place
        network.set_online(5, True)
        assert network.online_node_ids() == roster
        assert network.online_rank(7) == 7

    def test_going_offline_tears_down_links(self, small_network):
        network = small_network.network
        network.connect(0, 1)
        network.connect(0, 2)
        network.set_online(0, False)
        assert network.neighbors(0) == []
        assert not network.is_online(0)

    def test_send_without_connection_drops(self, small_network):
        network = small_network.network
        dropped_before = network.messages_dropped
        assert not network.send(0, 1, PingMessage(sender=0))
        assert network.messages_dropped == dropped_before + 1

    def test_send_delivers_after_delay(self, small_network):
        network = small_network.network
        simulator = small_network.simulator
        network.connect(0, 1)
        network.send(0, 1, PingMessage(sender=0, nonce=7))
        assert network.node(1).stats.pings_received == 0
        simulator.run(until=5.0)
        assert network.node(1).stats.pings_received == 1

    def test_ping_gets_pong_reply(self, small_network):
        network = small_network.network
        simulator = small_network.simulator
        network.connect(0, 1)
        network.send(0, 1, PingMessage(sender=0, nonce=7))
        simulator.run(until=5.0)
        assert network.messages_sent["pong"] >= 1

    def test_message_to_node_that_went_offline_is_dropped(self, small_network):
        network = small_network.network
        simulator = small_network.simulator
        network.connect(0, 1)
        network.send(0, 1, PingMessage(sender=0))
        network.set_online(1, False)
        simulator.run(until=5.0)
        assert network.node(1).stats.pings_received == 0

    def test_broadcast_excludes_requested_peers(self, small_network):
        network = small_network.network
        for peer in (1, 2, 3):
            network.connect(0, peer)
        sent = network.broadcast(0, InvMessage(sender=0, hashes=("h",)), exclude={2})
        assert sent == 2

    def test_rtt_measurement_positive_and_accounted(self, small_network):
        network = small_network.network
        before = network.messages_sent.get("ping", 0)
        rtt = network.measure_rtt(0, 1)
        assert rtt > 0
        network.record_ping_exchange(1)
        assert network.messages_sent["ping"] == before + 1

    def test_base_rtt_deterministic(self, small_network):
        network = small_network.network
        assert network.base_rtt(0, 1) == network.base_rtt(0, 1)

    def test_total_counters(self, small_network):
        network = small_network.network
        network.connect(0, 1)
        assert network.total_messages() > 0
        assert network.total_bytes() > 0


class TestNodeClock:
    """A node keeps the simulator's clock from the network it attaches to."""

    def test_unattached_node_has_no_time(self):
        node = BitcoinNode(0, GeoPosition(0.0, 0.0, "test", "XX"))
        with pytest.raises(RuntimeError, match="node 0 is not attached"):
            node.now
        with pytest.raises(RuntimeError, match="node 0 is not attached"):
            node.relay._now
        with pytest.raises(RuntimeError, match="node 0 is not attached"):
            node.relay._network()

    def test_attached_nodes_read_the_simulator_clock(self, small_network):
        simulator = small_network.simulator
        attached = small_network.nodes[0]
        given = BitcoinNode(
            999, GeoPosition(0.0, 0.0, "test", "XX"), network=small_network.network
        )
        simulator.run(until=2.5)
        for node in (attached, given):
            assert node.now == node.relay._now == simulator.now == 2.5
            assert node.relay._network() is small_network.network


class TestTransactionRelay:
    def test_created_transaction_enters_mempool_and_wallet_excludes_spent(self):
        simulated = build_connected_network()
        node = simulated.node(0)
        spendable_before = len(node.spendable_outputs())
        tx = node.create_transaction([("dest", 1000)], broadcast=False)
        assert tx.txid in node.mempool
        assert len(node.spendable_outputs()) == spendable_before - 1

    def test_insufficient_funds_rejected(self):
        simulated = build_connected_network()
        node = simulated.node(0)
        with pytest.raises(ValueError):
            node.create_transaction([("dest", 10**15)])

    def test_transaction_propagates_to_all_nodes(self):
        simulated = build_connected_network()
        node = simulated.node(0)
        tx = node.create_transaction([("dest", 1000)])
        simulated.simulator.run(until=30.0)
        received = [n for n in simulated.nodes.values() if tx.txid in n.known_transactions]
        assert len(received) == simulated.node_count

    def test_inv_getdata_tx_sequence(self):
        simulated = build_connected_network()
        network = simulated.network
        node = simulated.node(0)
        node.create_transaction([("dest", 1000)])
        simulated.simulator.run(until=30.0)
        assert network.messages_sent["inv"] > 0
        assert network.messages_sent["getdata"] > 0
        assert network.messages_sent["tx"] > 0
        # Each node requests the transaction once, so TX deliveries are bounded
        # by the node count (no flooding of full transaction payloads).
        assert network.messages_sent["tx"] <= simulated.node_count

    def test_duplicate_inv_not_rerequested(self):
        simulated = build_connected_network()
        network = simulated.network
        simulator = simulated.simulator
        node = simulated.node(0)
        tx = node.create_transaction([("dest", 1000)], broadcast=False)
        receiver = simulated.node(1)
        network.send(0, 1, InvMessage(sender=0, hashes=(tx.txid,)))
        network.send(0, 1, InvMessage(sender=0, hashes=(tx.txid,)))
        simulator.run(until=10.0)
        assert receiver.stats.duplicate_invs >= 1
        assert receiver.stats.getdata_sent == 1

    def test_invalid_transaction_not_relayed(self):
        simulated = build_connected_network()
        network = simulated.network
        simulator = simulated.simulator
        attacker = simulated.node(0)
        victim_funds = simulated.node(1)
        # Attacker tries to spend an output it does not own.
        stolen = victim_funds.spendable_outputs()[0]
        forged = Transaction.create_signed(attacker.keypair, [stolen], [("dest", 100)])
        network.send(0, 1, TxMessage(sender=0, transaction=forged))
        simulator.run(until=10.0)
        assert forged.txid not in simulated.node(1).mempool
        assert simulated.node(1).stats.transactions_rejected >= 1

    def test_first_seen_rule_across_network(self):
        simulated = build_connected_network()
        node = simulated.node(0)
        tx1 = node.create_transaction([("merchant", 1000)])
        simulated.simulator.run(until=30.0)
        # A conflicting spend of the same output is refused network-wide.
        conflicting = Transaction.create_signed(
            node.keypair,
            [(tx1.inputs[0].prev_txid, tx1.inputs[0].prev_index, 1_000_000)],
            [("attacker", 1000)],
        )
        other = simulated.node(5)
        result = other.accept_transaction(conflicting, origin_peer=None)
        assert not result.valid or conflicting.txid not in other.mempool

    def test_relay_disabled_node_does_not_forward(self):
        config = NodeConfig(relay_transactions=False)
        simulated = build_connected_network(node_config=config)
        node = simulated.node(0)
        tx = node.create_transaction([("dest", 1000)], broadcast=False)
        simulated.network.send(0, simulated.network.neighbors(0)[0], TxMessage(sender=0, transaction=tx))
        simulated.simulator.run(until=10.0)
        received = [n for n in simulated.nodes.values() if tx.txid in n.known_transactions]
        # Only the direct recipient (and the creator) know about it.
        assert len(received) <= 2

    def test_getaddr_returns_addresses(self):
        simulated = build_connected_network()
        network = simulated.network
        simulator = simulated.simulator
        requester = simulated.node(0)
        network.send(0, 1, GetAddrMessage(sender=0))
        simulator.run(until=5.0)
        assert network.messages_sent["addr"] >= 1
        assert len(requester.address_book) >= 1

    def test_addr_message_updates_address_book(self):
        simulated = build_connected_network()
        simulator = simulated.simulator
        network = simulated.network
        network.send(0, 1, AddrMessage(sender=0, addresses=(7, 8, 9)))
        simulator.run(until=5.0)
        assert {7, 8, 9} <= simulated.node(1).address_book

    def test_getdata_for_unknown_hash_sends_nothing(self):
        simulated = build_connected_network()
        network = simulated.network
        simulator = simulated.simulator
        tx_before = network.messages_sent.get("tx", 0)
        network.send(0, 1, GetDataMessage(sender=0, hashes=("deadbeef",)))
        simulator.run(until=5.0)
        assert network.messages_sent.get("tx", 0) == tx_before

    def test_getdata_served_from_best_chain_after_confirmation(self):
        from repro.protocol.mining import MiningProcess, equal_hash_power

        simulated = build_connected_network()
        node = simulated.node(0)
        tx = node.create_transaction([("dest", 700)])
        simulated.simulator.run(until=30.0)
        MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power([0]),
            simulated.simulator.random.stream("mining"),
        ).mine_one_block(winner_id=0)
        simulated.simulator.run(until=90.0)
        assert tx.txid not in node.mempool
        assert node.find_confirmed_transaction(tx.txid) == tx
        before = simulated.network.messages_sent.get("tx", 0)
        simulated.network.send(1, 0, GetDataMessage(sender=1, hashes=(tx.txid,)))
        simulated.simulator.run(until=100.0)
        assert simulated.network.messages_sent["tx"] == before + 1


class TestGetAddrPaths:
    def test_getaddr_reply_capped_at_sample_size(self):
        config = NodeConfig(addr_sample_size=4)
        simulated = build_connected_network(node_config=config)
        responder = simulated.node(1)
        responder.address_book.update(range(2, 12))
        before = set(simulated.node(0).address_book)
        simulated.network.send(0, 1, GetAddrMessage(sender=0))
        simulated.simulator.run(until=5.0)
        # The requester learns at most addr_sample_size new addresses.
        learned = set(simulated.node(0).address_book) - before
        assert 1 <= len(learned) <= 4

    def test_getaddr_reply_excludes_the_requester(self):
        simulated = build_connected_network()
        responder = simulated.node(1)
        responder.address_book.update({0, 5, 6})
        simulated.network.send(0, 1, GetAddrMessage(sender=0))
        simulated.simulator.run(until=5.0)
        assert 0 not in simulated.node(0).address_book

    def test_getaddr_reply_below_the_sample_size_sends_every_address(self):
        simulated = build_connected_network()
        responder = simulated.node(1)
        requester = simulated.node(0)
        assert responder.config.addr_sample_size > 3
        responder.address_book.clear()
        responder.address_book.update({0, 40, 41, 42})
        requester.address_book.clear()
        simulated.network.send(0, 1, GetAddrMessage(sender=0))
        simulated.simulator.run(until=5.0)
        assert requester.address_book == {40, 41, 42}

    def test_addr_listing_the_receiver_is_not_recorded(self):
        simulated = build_connected_network()
        simulated.network.send(0, 1, AddrMessage(sender=0, addresses=(1, 7)))
        simulated.simulator.run(until=5.0)
        book = simulated.node(1).address_book
        assert 7 in book
        assert 1 not in book

    def test_getaddr_with_empty_address_book_sends_empty_addr(self):
        simulated = build_connected_network()
        responder = simulated.node(1)
        responder.address_book.clear()
        before = simulated.network.messages_sent.get("addr", 0)
        simulated.network.send(0, 1, GetAddrMessage(sender=0))
        simulated.simulator.run(until=5.0)
        assert simulated.network.messages_sent["addr"] == before + 1

    def test_connection_populates_address_books_both_ways(self):
        simulated = build_connected_network()
        assert 1 in simulated.node(0).address_book
        assert 0 in simulated.node(1).address_book


class TestBlockRelay:
    def test_mined_block_propagates(self):
        from repro.protocol.mining import MiningProcess, equal_hash_power

        simulated = build_connected_network()
        miners = equal_hash_power(simulated.node_ids()[:3])
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            miners,
            simulated.simulator.random.stream("mining"),
        )
        block = mining.mine_one_block(winner_id=0)
        assert block is not None
        simulated.simulator.run(until=60.0)
        heights = {node.blockchain.height for node in simulated.nodes.values()}
        assert heights == {2}  # funding block + mined block everywhere

    def test_block_confirms_pending_transactions(self):
        from repro.protocol.mining import MiningProcess, equal_hash_power

        simulated = build_connected_network()
        node = simulated.node(0)
        tx = node.create_transaction([("dest", 500)])
        simulated.simulator.run(until=30.0)
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power([0]),
            simulated.simulator.random.stream("mining"),
        )
        mining.mine_one_block(winner_id=0)
        simulated.simulator.run(until=90.0)
        confirmed = [n for n in simulated.nodes.values() if n.blockchain.contains_transaction(tx.txid)]
        assert len(confirmed) == simulated.node_count
        assert tx.txid not in simulated.node(3).mempool
