"""The shared confirmation index answers exactly like a walk of the best chain.

Every chain of a network registers its blocks in one
:class:`~repro.protocol.blockchain.ConfirmationIndex` and keeps only its best
chain as a list by height.  These tests pin that the confirmed-transaction
answers (``contains_transaction``, ``confirmations``, ``best_chain``,
``find_confirmed_transaction``) equal a from-scratch walk of
``chain_to(tip)`` through forks, back-and-forth reorgs, a transaction in two
branches, blocks some chains never store and blocks rebuilt as distinct
objects with the same hash (what compact-block reconstruction produces).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.geo import GeoPosition
from repro.protocol.block import Block
from repro.protocol.blockchain import Blockchain, ConfirmationIndex
from repro.protocol.crypto import KeyPair
from repro.protocol.node import BitcoinNode
from repro.protocol.transaction import Transaction
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import (
    NetworkParameters,
    build_network,
    load_network,
    save_network,
)

WALLET = KeyPair.generate("index-wallet").address
POSITION = GeoPosition(latitude=0.0, longitude=0.0, region="test", country="XX")


def coinbase(tag: str) -> Transaction:
    return Transaction.coinbase(WALLET, 1, tag=tag)


def make_block(parent: Block, txs, *, nonce: int) -> Block:
    return Block.create(parent, list(txs), timestamp=float(nonce), nonce=nonce, miner_id=0)


def rebuilt(block: Block) -> Block:
    """A distinct object with the same hash: new header, new transaction objects."""
    header = dataclasses.replace(block.header)
    transactions = tuple(dataclasses.replace(tx) for tx in block.transactions)
    return Block(header=header, transactions=transactions, height=block.height)


def make_nodes(count: int, genesis: Block, index: ConfirmationIndex) -> list[BitcoinNode]:
    return [
        BitcoinNode(node_id, POSITION, genesis=genesis, confirmation_index=index)
        for node_id in range(count)
    ]


def assert_matches_walk(node: BitcoinNode, expected_tip: Block, txids) -> None:
    """Every confirmed-lookup answer equals a from-scratch walk of chain_to(tip)."""
    chain = node.blockchain
    assert chain.tip.block_hash == expected_tip.block_hash
    assert chain.height == expected_tip.height
    walk = chain.chain_to(chain.tip.block_hash)
    best = chain.best_chain()
    assert [block.block_hash for block in best] == [block.block_hash for block in walk]
    assert all(kept is walked for kept, walked in zip(best, walk))
    for txid in [*txids, "unknown-txid"]:
        confirming = [block for block in walk if txid in block.txids]
        assert chain.contains_transaction(txid) is bool(confirming)
        expected_confirmations = chain.height - confirming[-1].height + 1 if confirming else 0
        assert chain.confirmations(txid) == expected_confirmations
        # The lowest confirming block, and this chain's own transaction object.
        expected_tx = (
            next(tx for tx in confirming[0].transactions if tx.txid == txid)
            if confirming
            else None
        )
        assert node.find_confirmed_transaction(txid) is expected_tx


def assert_index_keeps_first_objects(index: ConfirmationIndex, first_stored, txids) -> None:
    """Each txid maps to the first-stored object of each block, once, in store order."""
    for txid in txids:
        expected = [block for block in first_stored.values() if txid in block.txids]
        indexed = list(index.blocks_with(txid))
        assert len(indexed) == len(expected)
        assert all(got is want for got, want in zip(indexed, expected))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_shared_index_answers_like_a_chain_walk(data):
    genesis = Block.genesis()
    shared_pool = [coinbase(f"shared-{i}") for i in range(3)]
    tree: list[Block] = []
    for position in range(data.draw(st.integers(1, 10), label="blocks")):
        parent = ([genesis] + tree)[data.draw(st.integers(0, len(tree)), label="parent")]
        shared = data.draw(
            st.lists(st.sampled_from(shared_pool), max_size=2, unique_by=lambda tx: tx.txid),
            label="shared txs",
        )
        tree.append(make_block(parent, [coinbase(f"block-{position}"), *shared], nonce=position))
    txids = {txid for block in tree for txid in block.txids}

    index = ConfirmationIndex()
    nodes = make_nodes(3, genesis, index)
    # Reference state, kept without the index: per node the first-seen
    # highest block (the tip rule), and network-wide the first object stored
    # under each hash.
    tips = [genesis] * len(nodes)
    first_stored: dict[str, Block] = {}
    for _ in range(data.draw(st.integers(1, 3 * len(tree)), label="deliveries")):
        which = data.draw(st.integers(0, len(nodes) - 1), label="node")
        chain = nodes[which].blockchain
        available = [
            block
            for block in tree
            if chain.has_block(block.previous_hash) and not chain.has_block(block.block_hash)
        ]
        if not available:
            continue
        block = data.draw(st.sampled_from(available), label="block")
        if data.draw(st.booleans(), label="rebuilt"):
            block = rebuilt(block)
        first_stored.setdefault(block.block_hash, block)
        chain.add_block(block)
        if block.height > tips[which].height:
            tips[which] = block
        for node, tip in zip(nodes, tips):
            assert_matches_walk(node, tip, txids)
        assert_index_keeps_first_objects(index, first_stored, txids)


class TestHashNotIdentity:
    def test_rebuilt_block_confirms_on_the_chain_that_stored_it(self):
        genesis = Block.genesis()
        index = ConfirmationIndex()
        first, second = make_nodes(2, genesis, index)
        payment = coinbase("payment")
        block = make_block(genesis, [coinbase("cb"), payment], nonce=1)
        copy = rebuilt(block)
        first.blockchain.add_block(block)
        second.blockchain.add_block(copy)
        assert list(index.blocks_with(payment.txid)) == [block]
        assert index.blocks_with(payment.txid)[0] is block
        assert second.blockchain.contains_transaction(payment.txid)
        assert second.blockchain.confirmations(payment.txid) == 1
        # Served from the node's own block, not the object the index kept.
        own_tx = copy.transactions[1]
        assert own_tx is not payment
        assert second.find_confirmed_transaction(payment.txid) is own_tx
        assert first.find_confirmed_transaction(payment.txid) is payment

    def test_block_registered_once_however_many_chains_store_it(self):
        genesis = Block.genesis()
        index = ConfirmationIndex()
        nodes = make_nodes(3, genesis, index)
        block = make_block(genesis, [coinbase("cb")], nonce=1)
        for node in nodes:
            node.blockchain.add_block(rebuilt(block))
        (txid,) = block.txids
        assert len(index.blocks_with(txid)) == 1


class TestReorgs:
    def test_back_and_forth_reorg_moves_confirmations(self):
        genesis = Block.genesis()
        chain = Blockchain(genesis)
        shared = coinbase("in-both-branches")
        only_x, only_y = coinbase("only-x"), coinbase("only-y")
        x1 = make_block(genesis, [coinbase("x1"), only_x, shared], nonce=1)
        y1 = make_block(genesis, [coinbase("y1"), only_y], nonce=2)
        y2 = make_block(y1, [coinbase("y2"), shared], nonce=3)
        x2 = make_block(x1, [coinbase("x2")], nonce=4)
        x3 = make_block(x2, [coinbase("x3")], nonce=5)

        chain.add_block(x1)
        chain.add_block(y1)
        assert chain.best_chain() == [genesis, x1]
        assert chain.contains_transaction(only_x.txid)
        assert not chain.contains_transaction(only_y.txid)
        assert chain.confirmations(shared.txid) == 1

        assert chain.add_block(y2)
        assert chain.best_chain() == [genesis, y1, y2]
        assert not chain.contains_transaction(only_x.txid)
        assert chain.contains_transaction(only_y.txid)
        assert chain.confirmations(shared.txid) == 1
        assert chain.confirming_block(shared.txid) is y2

        assert not chain.add_block(x2)  # equal height: the first-seen tip stays
        assert chain.add_block(x3)
        assert chain.best_chain() == [genesis, x1, x2, x3]
        assert chain.contains_transaction(only_x.txid)
        assert not chain.contains_transaction(only_y.txid)
        assert chain.confirmations(shared.txid) == 3
        assert chain.confirming_block(shared.txid) is x1

    def test_one_txid_twice_on_the_best_chain(self):
        genesis = Block.genesis()
        chain = Blockchain(genesis)
        repeated = coinbase("repeated")
        b1 = make_block(genesis, [coinbase("b1"), repeated], nonce=1)
        b2 = make_block(b1, [coinbase("b2")], nonce=2)
        b3 = make_block(b2, [coinbase("b3"), repeated], nonce=3)
        for block in (b1, b2, b3):
            chain.add_block(block)
        # A walk from the tip stops at the highest copy; a lookup from
        # genesis finds the lowest one.
        assert chain.confirmations(repeated.txid) == 1
        assert chain.confirming_block(repeated.txid) is b1


class TestPlumbing:
    def test_chain_built_alone_has_a_private_index(self):
        genesis = Block.genesis()
        alone, other = Blockchain(genesis), Blockchain(genesis)
        block = make_block(genesis, [coinbase("cb")], nonce=1)
        alone.add_block(block)
        (txid,) = block.txids
        assert alone.contains_transaction(txid)
        assert not other.contains_transaction(txid)
        assert other._index is not alone._index

    def test_build_network_shares_one_index(self):
        simulated = build_network(NetworkParameters(node_count=5, seed=2))
        indexes = {id(node.blockchain._index) for node in simulated.nodes.values()}
        assert len(indexes) == 1

    def test_snapshot_keeps_one_shared_index(self, tmp_path):
        simulated = build_network(NetworkParameters(node_count=5, seed=2))
        loaded = load_network(save_network(simulated, tmp_path / "net.pkl"))
        indexes = [node.blockchain._index for node in loaded.nodes.values()]
        assert all(index is indexes[0] for index in indexes)
        assert indexes[0] is not simulated.node(0).blockchain._index

    def test_fund_nodes_confirms_without_known_set_copies(self):
        simulated = build_network(NetworkParameters(node_count=12, seed=2))
        nodes = list(simulated.nodes.values())
        funding = fund_nodes(nodes, outputs_per_node=2)
        assert len(funding.txids) == 2 * len(nodes)
        for node in nodes:
            assert node.known_transactions.isdisjoint(funding.txids)
            for txid in funding.txids:
                assert node.blockchain.contains_transaction(txid)
                assert node.blockchain.confirmations(txid) == 1
        any_txid = next(iter(funding.txids))
        assert list(nodes[0].blockchain._index.blocks_with(any_txid)) == [funding]
