"""Unit and property tests for the adversary plane (`repro.protocol.adversary`).

Three layers of coverage:

* the byzantine behaviour vocabulary as pure message filters (drop/forward/
  delay decisions, the withheld-hash filter, `referenced_block_hashes`);
* the network plumbing — one behaviour per node on the fabric's single send
  choke point, suppression accounting, and the selfish miner's withholding
  state machine driven by forced winners;
* the PR's Hypothesis properties: the same master seed yields the identical
  event trace with byzantine nodes active, for every relay strategy (all
  adversary randomness lives on its own named streams), and withheld blocks
  never corrupt honest best-chain invariants.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocol.adversary import (
    DelayByzantine,
    SelectiveByzantine,
    SelfishMiner,
    SilentByzantine,
    WithholdingBehavior,
    referenced_block_hashes,
)
from repro.protocol.block import BlockHeader
from repro.protocol.messages import (
    BlockMessage,
    BlockTxnMessage,
    CmpctBlockMessage,
    GetBlockTxnMessage,
    GetDataMessage,
    GetHeadersMessage,
    HeadersMessage,
    InvMessage,
    InventoryType,
    PingMessage,
    TxMessage,
)
from repro.protocol.mining import MiningProcess, equal_hash_power
from repro.protocol.relay import RELAY_COMMANDS, RELAY_NAMES
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network
from repro.workloads.scenarios import AttackSpec, build_scenario, install_attack
from repro.workloads.traffic import TrafficModel, TrafficProfile


def _header(tag: str) -> BlockHeader:
    return BlockHeader(
        previous_hash=f"prev-{tag}", merkle_root="root", timestamp=0.0, nonce=0
    )


#: One instance of every relay-plane message; their commands must cover
#: RELAY_COMMANDS exactly, so a byzantine filter tested against this list is
#: tested against the entire give-inventory vocabulary.
RELAY_MESSAGES = [
    InvMessage(sender=0, inventory_type=InventoryType.BLOCK, hashes=("b1",)),
    TxMessage(sender=0),
    BlockMessage(sender=0),
    CmpctBlockMessage(sender=0),
    BlockTxnMessage(sender=0, block_hash="b1"),
    HeadersMessage(sender=0, headers=(_header("a"),)),
]

#: Request-plane traffic a plausible byzantine peer keeps sending.
REQUEST_MESSAGES = [
    GetDataMessage(sender=0, inventory_type=InventoryType.BLOCK, hashes=("b1",)),
    GetHeadersMessage(sender=0, locator=("b0",)),
    PingMessage(sender=0),
]


class TestReferencedBlockHashes:
    def test_relay_message_fixture_covers_the_whole_vocabulary(self):
        assert {m.command for m in RELAY_MESSAGES} == set(RELAY_COMMANDS)

    def test_block_inv_reveals_its_hashes(self):
        message = InvMessage(
            sender=1, inventory_type=InventoryType.BLOCK, hashes=("b1", "b2")
        )
        assert referenced_block_hashes(message) == ("b1", "b2")

    def test_transaction_inv_reveals_nothing(self):
        message = InvMessage(
            sender=1, inventory_type=InventoryType.TRANSACTION, hashes=("t1",)
        )
        assert referenced_block_hashes(message) == ()

    def test_compact_block_reveals_its_header_hash(self):
        header = _header("c")
        message = CmpctBlockMessage(sender=1, header=header)
        assert referenced_block_hashes(message) == (header.block_hash,)
        assert referenced_block_hashes(CmpctBlockMessage(sender=1)) == ()

    def test_block_txn_round_trip_messages_leak_the_hash(self):
        assert referenced_block_hashes(
            GetBlockTxnMessage(sender=1, block_hash="b9")
        ) == ("b9",)
        assert referenced_block_hashes(
            BlockTxnMessage(sender=1, block_hash="b9")
        ) == ("b9",)

    def test_headers_reveal_every_header(self):
        first, second = _header("h1"), _header("h2")
        message = HeadersMessage(sender=1, headers=(first, second))
        assert referenced_block_hashes(message) == (
            first.block_hash,
            second.block_hash,
        )

    def test_request_plane_reveals_nothing(self):
        for message in REQUEST_MESSAGES:
            assert referenced_block_hashes(message) == ()


class TestSilentByzantine:
    def test_drops_every_relay_command(self):
        behavior = SilentByzantine()
        for message in RELAY_MESSAGES:
            assert behavior.filter_send(7, message, 0.0).drop

    def test_forwards_the_request_plane(self):
        behavior = SilentByzantine()
        for message in REQUEST_MESSAGES:
            decision = behavior.filter_send(7, message, 0.0)
            assert not decision.drop
            assert decision.extra_delay_s == 0.0


class TestSelectiveByzantine:
    def test_starves_only_the_targets(self):
        behavior = SelectiveByzantine(targets={3, 4})
        for message in RELAY_MESSAGES:
            assert behavior.filter_send(3, message, 0.0).drop
            assert behavior.filter_send(4, message, 0.0).drop
            assert not behavior.filter_send(5, message, 0.0).drop

    def test_requests_still_flow_to_the_targets(self):
        behavior = SelectiveByzantine(targets={3})
        for message in REQUEST_MESSAGES:
            assert not behavior.filter_send(3, message, 0.0).drop


class TestDelayByzantine:
    def test_fixed_delay_needs_no_rng(self):
        behavior = DelayByzantine(0.5)
        for message in RELAY_MESSAGES:
            decision = behavior.filter_send(7, message, 0.0)
            assert not decision.drop
            assert decision.extra_delay_s == 0.5

    def test_jitter_draws_from_the_given_stream(self):
        behavior = DelayByzantine(0.5, jitter_s=0.25, rng=np.random.default_rng(3))
        message = RELAY_MESSAGES[0]
        for _ in range(50):
            extra = behavior.filter_send(7, message, 0.0).extra_delay_s
            assert 0.5 <= extra < 0.75

    def test_request_plane_is_not_delayed(self):
        behavior = DelayByzantine(0.5, jitter_s=0.25, rng=np.random.default_rng(3))
        for message in REQUEST_MESSAGES:
            assert behavior.filter_send(7, message, 0.0).extra_delay_s == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DelayByzantine(-0.1)
        with pytest.raises(ValueError, match="negative"):
            DelayByzantine(0.1, jitter_s=-0.1)
        with pytest.raises(ValueError, match="rng"):
            DelayByzantine(0.1, jitter_s=0.1)


class TestWithholdingBehavior:
    def test_everything_flows_while_nothing_is_withheld(self):
        behavior = WithholdingBehavior(set())
        for message in RELAY_MESSAGES + REQUEST_MESSAGES:
            assert not behavior.filter_send(7, message, 0.0).drop
        assert behavior.suppressed == 0

    def test_suppresses_any_reference_to_a_withheld_block(self):
        withheld: set[str] = {"b1"}
        behavior = WithholdingBehavior(withheld)
        announcement = InvMessage(
            sender=0, inventory_type=InventoryType.BLOCK, hashes=("b1",)
        )
        assert behavior.filter_send(7, announcement, 0.0).drop
        assert behavior.suppressed == 1
        # Other blocks — and transactions — still relay normally.
        other = InvMessage(sender=0, inventory_type=InventoryType.BLOCK, hashes=("b2",))
        assert not behavior.filter_send(7, other, 0.0).drop
        # Releasing the hash re-opens the tap (the set is shared by design).
        withheld.discard("b1")
        assert not behavior.filter_send(7, announcement, 0.0).drop


def build_ring_network(node_count=10, seed=4, outputs=3):
    """A funded ring (degree-4) network — no policy, no churn, no relay frills."""
    simulated = build_network(NetworkParameters(node_count=node_count, seed=seed))
    ids = simulated.node_ids()
    for index, node_id in enumerate(ids):
        simulated.network.connect(node_id, ids[(index + 1) % len(ids)])
        simulated.network.connect(node_id, ids[(index + 2) % len(ids)])
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=outputs)
    return simulated


class TestBehaviorPlumbing:
    def test_install_on_unknown_node_rejected(self):
        simulated = build_ring_network()
        with pytest.raises(KeyError, match="unknown node"):
            simulated.network.install_behavior(999, SilentByzantine())

    def test_double_install_rejected(self):
        simulated = build_ring_network()
        simulated.network.install_behavior(2, SilentByzantine())
        with pytest.raises(ValueError, match="already has"):
            simulated.network.install_behavior(2, DelayByzantine(0.1))

    def test_node_accessors_and_removal(self):
        simulated = build_ring_network()
        node = simulated.node(2)
        assert not node.is_byzantine
        behavior = SilentByzantine()
        node.install_behavior(behavior)
        assert node.is_byzantine
        assert node.behavior is behavior
        assert simulated.network.byzantine_node_ids == [2]
        assert simulated.network.remove_behavior(2) is behavior
        assert not node.is_byzantine
        assert simulated.network.remove_behavior(2) is None
        assert simulated.network.byzantine_node_ids == []

    def test_silent_node_really_suppresses_its_relay_traffic(self):
        simulated = build_ring_network()
        creator = simulated.node(2)
        creator.install_behavior(SilentByzantine())
        tx = creator.create_transaction([("dest", 500)])
        simulated.simulator.run(until=10.0)
        assert simulated.network.messages_suppressed > 0
        for node_id in simulated.node_ids():
            if node_id != 2:
                assert tx.txid not in simulated.node(node_id).mempool

    def test_delaying_node_stalls_but_does_not_censor(self):
        simulated = build_ring_network()
        creator = simulated.node(2)
        creator.install_behavior(DelayByzantine(1.0))
        tx = creator.create_transaction([("dest", 500)])
        # Honest link delays are milliseconds; at t=0.9 s the only reason
        # nobody has the transaction is the 1-second byzantine hold-back.
        simulated.simulator.run(until=0.9)
        others = [n for n in simulated.node_ids() if n != 2]
        assert all(tx.txid not in simulated.node(n).mempool for n in others)
        simulated.simulator.run(until=20.0)
        assert all(tx.txid in simulated.node(n).mempool for n in others)
        assert simulated.network.messages_suppressed == 0


class TestSelfishMiner:
    def _setup(self, attacker_id=0):
        simulated = build_ring_network()
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("mining"),
        )
        miner = SelfishMiner(
            simulated.simulator,
            simulated.network,
            simulated.node(attacker_id),
            mining,
        )
        return simulated, mining, miner

    def _advance(self, simulated, seconds=10.0):
        simulated.simulator.run(until=simulated.simulator.now + seconds)

    def test_occupied_mining_hook_rejected(self):
        simulated = build_ring_network()
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("mining"),
        )
        mining.on_block_found = lambda block, miner_id: None
        with pytest.raises(ValueError, match="on_block_found"):
            SelfishMiner(
                simulated.simulator, simulated.network, simulated.node(0), mining
            )

    def test_honest_blocks_pass_through_untouched(self):
        simulated, mining, miner = self._setup()
        block = mining.mine_one_block(winner_id=5)
        self._advance(simulated)
        assert miner.lead == 0
        assert miner.blocks_withheld == 0
        assert all(
            simulated.node(n).blockchain.has_block(block.block_hash)
            for n in simulated.node_ids()
        )

    def test_attacker_block_is_withheld(self):
        simulated, mining, miner = self._setup()
        block = mining.mine_one_block(winner_id=0)
        self._advance(simulated)
        assert miner.lead == 1
        assert miner.blocks_withheld == 1
        assert block.block_hash in miner.withheld_hashes
        assert simulated.node(0).blockchain.has_block(block.block_hash)
        for node_id in simulated.node_ids():
            if node_id != 0:
                assert not simulated.node(node_id).blockchain.has_block(
                    block.block_hash
                )
        assert miner.behavior.suppressed > 0
        assert simulated.network.messages_suppressed > 0

    def test_race_on_a_one_block_lead(self):
        simulated, mining, miner = self._setup()
        private = mining.mine_one_block(winner_id=0)
        self._advance(simulated)
        honest = mining.mine_one_block(winner_id=5)
        self._advance(simulated)
        assert miner.races_started == 1
        assert miner.blocks_released == 1
        assert miner.lead == 0
        assert miner.withheld_hashes == frozenset()
        # The honest block propagated; the released private block competes
        # for the same height, so at least the attacker's neighbours fetched
        # it (distant nodes may never hear about a losing fork).
        assert all(
            simulated.node(n).blockchain.has_block(honest.block_hash)
            for n in simulated.node_ids()
            if n != 0
        )
        neighbours = simulated.network.neighbors(0)
        assert any(
            simulated.node(n).blockchain.has_block(private.block_hash)
            for n in neighbours
        )

    def test_two_block_lead_publishes_the_whole_private_chain(self):
        simulated, mining, miner = self._setup()
        first = mining.mine_one_block(winner_id=0)
        self._advance(simulated)
        second = mining.mine_one_block(winner_id=0)
        self._advance(simulated)
        assert miner.lead == 2
        mining.mine_one_block(winner_id=5)
        self._advance(simulated)
        assert miner.lead == 0
        assert miner.blocks_released == 2
        assert miner.races_started == 0
        # The attacker's two blocks out-run the one honest block: every node
        # converges onto the private chain.
        for node_id in simulated.node_ids():
            chain_hashes = {
                b.block_hash for b in simulated.node(node_id).blockchain.best_chain()
            }
            assert first.block_hash in chain_hashes
            assert second.block_hash in chain_hashes

    def test_long_lead_releases_only_the_oldest_block(self):
        simulated, mining, miner = self._setup()
        blocks = [mining.mine_one_block(winner_id=0) for _ in range(3)]
        self._advance(simulated)
        assert miner.lead == 3
        mining.mine_one_block(winner_id=5)
        self._advance(simulated)
        assert miner.lead == 2
        assert miner.blocks_released == 1
        assert blocks[0].block_hash not in miner.withheld_hashes
        assert blocks[1].block_hash in miner.withheld_hashes
        assert blocks[2].block_hash in miner.withheld_hashes

    def test_release_all_flushes_the_private_chain(self):
        simulated, mining, miner = self._setup()
        for _ in range(2):
            mining.mine_one_block(winner_id=0)
            self._advance(simulated)
        assert miner.release_all() == 2
        self._advance(simulated)
        assert miner.lead == 0
        assert miner.withheld_hashes == frozenset()
        share = miner.revenue_share(simulated.node(5))
        assert share == 1.0  # only attacker blocks were ever mined

    def test_revenue_share_is_nan_without_mined_blocks(self):
        simulated, mining, miner = self._setup()
        assert math.isnan(miner.revenue_share(simulated.node(5)))


def _attacked_trace(seed: int, relay: str, kind: str):
    """Build, corrupt, run and fingerprint one adversarial simulation."""
    scenario = build_scenario(
        "bcbpt",
        NetworkParameters(node_count=20, seed=seed, trace=True),
        latency_threshold_s=0.05,
        relay=relay,
    )
    corrupted = install_attack(scenario, AttackSpec(kind=kind, fraction=0.2))
    simulated = scenario.network
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=30)
    TrafficModel(
        simulated.simulator, simulated.nodes, profile=TrafficProfile(rate_tps=1.0)
    ).start()
    mining = MiningProcess(
        simulated.simulator,
        simulated.nodes,
        equal_hash_power(simulated.node_ids()),
        simulated.simulator.random.stream("attack-mining"),
    )
    simulated.simulator.run(until=10.0)
    mining.mine_one_block()
    simulated.simulator.run(until=20.0)
    trace = [
        (record.time, record.category, record.subject, repr(record.detail))
        for record in simulated.simulator.tracer.records()
    ]
    return corrupted, trace


class TestAdversarialDeterminism:
    """Same master seed ⇒ identical adversarial run, per relay strategy."""

    @pytest.mark.parametrize("relay", RELAY_NAMES)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_same_seed_same_trace_with_byzantine_nodes(self, relay, seed):
        first_corrupted, first = _attacked_trace(seed, relay, "byzantine")
        second_corrupted, second = _attacked_trace(seed, relay, "byzantine")
        assert first_corrupted == second_corrupted
        assert len(first_corrupted) > 0
        assert first == second
        assert len(first) > 0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_jittered_delay_adversary_is_deterministic(self, seed):
        """The delay behaviour's jitter draws come from the named
        ``"adversary-behavior"`` stream, never from global state."""
        first_corrupted, first = _attacked_trace(seed, "flood", "delay")
        second_corrupted, second = _attacked_trace(seed, "flood", "delay")
        assert first_corrupted == second_corrupted
        assert first == second


def _assert_chain_linked(node) -> None:
    chain = node.blockchain.best_chain()
    for height, block in enumerate(chain):
        assert block.height == height
    for previous, current in zip(chain, chain[1:]):
        assert current.header.previous_hash == previous.block_hash


class TestWithholdingInvariants:
    """Withheld blocks never corrupt honest best-chain invariants."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_honest_chains_stay_consistent_through_withholding(self, seed):
        simulated = build_ring_network()
        ids = simulated.node_ids()
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(ids),
            simulated.simulator.random.stream("mining"),
        )
        miner = SelfishMiner(
            simulated.simulator, simulated.network, simulated.node(0), mining
        )
        rng = np.random.default_rng(seed)
        honest = [n for n in ids if n != 0]
        for winner in rng.integers(0, len(ids), size=6):
            mining.mine_one_block(winner_id=ids[int(winner)])
            simulated.simulator.run(until=simulated.simulator.now + 5.0)
            # While a block is withheld, no honest node may know it — and
            # every honest best chain must stay internally linked.
            for node_id in honest:
                node = simulated.node(node_id)
                for withheld_hash in miner.withheld_hashes:
                    assert not node.blockchain.has_block(withheld_hash)
                _assert_chain_linked(node)
        miner.release_all()
        simulated.simulator.run(until=simulated.simulator.now + 15.0)
        assert miner.lead == 0
        assert miner.withheld_hashes == frozenset()
        for node_id in ids:
            _assert_chain_linked(simulated.node(node_id))
        share = miner.revenue_share(simulated.node(honest[0]))
        assert math.isnan(share) or 0.0 <= share <= 1.0
