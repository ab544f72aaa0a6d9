"""One validation per network: the ledgers and verdicts nodes share.

The first node to validate a block object registers the ledger as of it in
the network's :class:`~repro.protocol.blockchain.ConfirmationIndex`; every
other node that receives the same object takes a copy of that ledger instead
of validating and applying the block.  Nodes at one tip hold copies of one
ledger, and a transaction verdict remembered on it serves all of them.

Every reuse is keyed by object, never by txid or block hash alone: neither a
txid nor a block header commits to the witnesses, so a transaction with a
tampered signature has the good one's txid, and a block carrying it has the
good block's hash.  The index keeps a bounded number of ledgers however long
the chain grows, and a populated index survives a snapshot round trip.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.protocol.block import Block
from repro.protocol.blockchain import Blockchain
from repro.protocol.transaction import Transaction
from repro.protocol.utxo import UtxoSet
from repro.protocol.validation import TransactionValidator, ValidationError
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import (
    NetworkParameters,
    build_network,
    load_network,
    save_network,
)


def funded(node_count=3, outputs_per_node=2, seed=2):
    """An unconnected funded network and its nodes, in id order."""
    simulated = build_network(NetworkParameters(node_count=node_count, seed=seed))
    nodes = [simulated.node(node_id) for node_id in simulated.node_ids()]
    funding = fund_nodes(nodes, outputs_per_node=outputs_per_node)
    return simulated, nodes, funding


def payment(payer, payee, output=0, fee=0):
    """A signed payment of one of ``payer``'s confirmed outputs to ``payee``."""
    entry = payer.utxo.spendable_by(payer.keypair.address)[output]
    return Transaction.create_signed(
        payer.keypair,
        [(entry.txid, entry.index, entry.value)],
        [(payee.keypair.address, entry.value - fee)],
        fee=fee,
    )


def tampered(tx):
    """``tx`` with every signature zeroed: the same txid, a bad witness."""
    inputs = tuple(dataclasses.replace(i, signature="0" * 64) for i in tx.inputs)
    return Transaction(inputs=inputs, outputs=tx.outputs, created_at=tx.created_at)


def coinbase_block(parent, address, nonce, *transactions):
    reward = Transaction.coinbase(address, 50, tag=f"shared-{nonce}")
    return Block.create(
        parent, [reward, *transactions], timestamp=float(nonce), nonce=nonce, miner_id=0
    )


def replay(blocks):
    """The flat ledger implied by ``blocks``, genesis first: the reference."""
    utxo = UtxoSet()
    for block in blocks:
        for tx in block.transactions:
            utxo.apply_transaction(tx, block_hash=block.block_hash)
    return utxo


def ledger_dict(utxo):
    return {entry.outpoint: entry for entry in utxo.entries()}


def assert_follows_best_chain(node):
    chain = node.blockchain
    assert ledger_dict(node.utxo) == ledger_dict(replay(chain.best_chain()))


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``validate_transaction``, ``apply_block`` and ledger replay
    (``Blockchain.utxo_as_of``) calls, every node together."""
    counts = {"tx": 0, "block": 0, "replay": 0}
    validate, apply = TransactionValidator.validate_transaction, TransactionValidator.apply_block
    as_of = Blockchain.utxo_as_of

    def counting_validate(self, tx, utxo):
        counts["tx"] += 1
        return validate(self, tx, utxo)

    def counting_apply(self, block, parent, utxo):
        counts["block"] += 1
        return apply(self, block, parent, utxo)

    def counting_as_of(self, block_hash):
        counts["replay"] += 1
        return as_of(self, block_hash)

    monkeypatch.setattr(TransactionValidator, "validate_transaction", counting_validate)
    monkeypatch.setattr(TransactionValidator, "apply_block", counting_apply)
    monkeypatch.setattr(Blockchain, "utxo_as_of", counting_as_of)
    return counts


class TestKeyedByObject:
    """Both tests pass whether or not verdicts are shared; each fails if
    sharing is keyed by txid or block hash alone."""

    def test_tampered_transaction_with_the_good_txid_is_rejected(self):
        _, (first, second, payer), _ = funded()
        good = payment(payer, first)
        bad = tampered(good)
        assert bad.txid == good.txid and bad is not good
        assert first.accept_transaction(good, origin_peer=None).valid
        result = second.accept_transaction(bad, origin_peer=None)
        assert not result.valid
        assert result.error is ValidationError.BAD_SIGNATURE
        assert good.txid not in second.mempool
        assert second.stats.transactions_rejected == 1
        assert second.stats.transactions_accepted == 0
        # The good object still gets the verdict its first validation left.
        assert second.accept_transaction(good, origin_peer=None).valid
        assert good.txid in second.mempool

    def test_block_with_the_good_header_and_a_tampered_transaction_is_rejected(self):
        _, (first, second, payer), funding = funded()
        good_tx = payment(payer, first)
        good = coinbase_block(funding, first.keypair.address, 1, good_tx)
        bad = Block(
            header=good.header,
            transactions=(good.transactions[0], tampered(good_tx)),
            height=good.height,
        )
        assert bad.block_hash == good.block_hash and bad is not good
        assert first.accept_block(good, origin_peer=None)
        assert not second.accept_block(bad, origin_peer=None)
        assert second.blockchain.tip is funding
        assert good_tx.inputs[0].outpoint in second.utxo
        assert second.stats.blocks_accepted == 0
        # The good object takes the ledger its first validation registered.
        assert second.accept_block(good, origin_peer=None)
        assert second.blockchain.tip is good
        assert_follows_best_chain(second)


class TestOneValidationPerNetwork:
    def test_nodes_at_one_tip_validate_a_transaction_object_once(self, calls):
        _, nodes, funding = funded(node_count=4)
        tx = payment(nodes[3], nodes[0], fee=120)
        results = [node.accept_transaction(tx, origin_peer=None) for node in nodes]
        assert calls["tx"] == 1
        assert all(result is results[0] and result.valid for result in results)
        assert results[0].verification_cost_s > 0
        assert all(node.mempool.fee(tx.txid) == 120 for node in nodes)
        assert all(node.stats.transactions_accepted == 1 for node in nodes)
        # A new tip is a new ledger: its first node validates again.
        block = coinbase_block(funding, nodes[0].keypair.address, 1)
        for node in nodes:
            assert node.accept_block(block, origin_peer=None)
        validated = calls["tx"]
        second = payment(nodes[2], nodes[1])
        for node in nodes:
            assert node.accept_transaction(second, origin_peer=None).valid
        assert calls["tx"] == validated + 1

    def test_each_block_object_is_validated_and_applied_once(self, calls):
        _, nodes, funding = funded(node_count=4)
        miner = nodes[0].keypair.address
        b1 = coinbase_block(funding, miner, 1, payment(nodes[1], nodes[2]))
        b2 = coinbase_block(b1, miner, 2, payment(nodes[2], nodes[3]))
        side = coinbase_block(b1, miner, 3, payment(nodes[1], nodes[0], output=1))
        b3 = coinbase_block(side, miner, 4)  # a reorg onto the side branch
        for block in (b1, b2, side, b3):
            for node in nodes:
                assert node.accept_block(block, origin_peer=None)
                assert_follows_best_chain(node)
        assert calls["block"] == 4
        assert all(node.blockchain.tip is b3 for node in nodes)
        # No node writes another's ledger: each holds its own copy.
        assert len({id(node.utxo) for node in nodes}) == len(nodes)

    def test_a_rebuilt_block_object_is_validated_on_its_own(self, calls):
        """Compact relay rebuilds a block on each node: no verdict is shared."""
        _, nodes, funding = funded(node_count=3)
        block = coinbase_block(funding, nodes[0].keypair.address, 1, payment(nodes[1], nodes[2]))
        for node in nodes:
            rebuilt = Block(
                header=dataclasses.replace(block.header),
                transactions=tuple(dataclasses.replace(tx) for tx in block.transactions),
                height=block.height,
            )
            assert node.accept_block(rebuilt, origin_peer=None)
            assert_follows_best_chain(node)
        assert calls["block"] == len(nodes)


class TestRegistryLifetime:
    HEIGHTS = 60

    def test_ledgers_held_stay_bounded_over_a_long_forked_chain(self, calls):
        """Each height gets a main block and a one-deep fork; the index keeps
        the funding ledger and the two highest heights' ledgers, whatever
        the chain length, and the ledgers it drops are freed."""
        _, nodes, funding = funded(node_count=3, outputs_per_node=1)
        set_up_replays = calls["replay"]  # each node's genesis ledger, and funding's
        index = nodes[0].blockchain.index
        miner = nodes[0].keypair.address
        tip, held, first_ledger = funding, [], None
        for height in range(self.HEIGHTS):
            main = coinbase_block(tip, miner, 2 * height + 1)
            fork = coinbase_block(tip, miner, 2 * height + 2)
            for node in nodes:
                assert node.accept_block(main, origin_peer=None)
                assert node.accept_block(fork, origin_peer=None)
                assert node.blockchain.tip is main
            if first_ledger is None:
                first_ledger = weakref.ref(index.ledger(main))
            held.append(len(index._ledgers))
            tip = main
        assert max(held) == held[-1] == 5  # funding + two heights x two blocks
        assert index.ledger(funding) is not None
        gc.collect()
        assert first_ledger() is None
        # Only the first node validates, and no side branch replays.
        assert calls["block"] == 2 * self.HEIGHTS
        assert calls["replay"] == set_up_replays
        for node in nodes:
            assert_follows_best_chain(node)

        # A reorg from ten blocks deep, below what the index holds: a
        # side-branch block there replays its parent's ledger from funding.
        chain = nodes[0].blockchain.best_chain()
        cursor = chain[-11]
        assert index.ledger(cursor) is None
        branch = []
        for offset in range(11):
            cursor = coinbase_block(cursor, nodes[1].keypair.address, 1_000 + offset)
            branch.append(cursor)
        for node in nodes:
            for block in branch:
                assert node.accept_block(block, origin_peer=None)
                heights = {held.height for held, _ in index._ledgers.values()}
                assert funding.height in heights and max(heights) - min(heights - {1}) <= 1
            assert node.blockchain.tip is branch[-1]
            assert_follows_best_chain(node)
        assert calls["replay"] > set_up_replays


class TestSnapshot:
    def test_populated_registry_survives_a_round_trip(self, tmp_path, calls):
        simulated, nodes, funding = funded(node_count=4)
        miner = nodes[0].keypair.address
        b1 = coinbase_block(funding, miner, 1, payment(nodes[1], nodes[2]))
        b2 = coinbase_block(b1, miner, 2)
        side = coinbase_block(b1, miner, 3)
        for block in (b1, b2, side):
            for node in nodes:
                assert node.accept_block(block, origin_peer=None)
        pending = payment(nodes[3], nodes[0])
        assert nodes[0].accept_transaction(pending, origin_peer=None).valid
        index = nodes[0].blockchain.index
        registered = set(index._ledgers)
        assert registered == {block.block_hash for block in (funding, b1, b2, side)}

        loaded = load_network(save_network(simulated, tmp_path / "registry.pkl"))
        copies = [loaded.node(node_id) for node_id in loaded.node_ids()]
        loaded_index = copies[0].blockchain.index
        assert all(node.blockchain.index is loaded_index for node in copies)
        assert set(loaded_index._ledgers) == registered
        chain = copies[0].blockchain
        for block_hash in registered:
            own = chain.get_block(block_hash)
            ledger = loaded_index.ledger(own)
            assert ledger is not None
            assert ledger_dict(ledger) == ledger_dict(replay(chain.chain_to(block_hash)))
            # The objects from before the round trip are not the loaded ones.
            assert loaded_index.ledger(index._ledgers[block_hash][0]) is None

        applied = calls["block"]
        b3 = coinbase_block(chain.get_block(b2.block_hash), miner, 4)
        for node in copies:
            assert node.accept_block(b3, origin_peer=None)
            assert_follows_best_chain(node)
        assert calls["block"] == applied + 1
        loaded_pending = copies[0].mempool.get(pending.txid)
        for node in copies[1:]:
            assert node.accept_transaction(loaded_pending, origin_peer=None).valid
