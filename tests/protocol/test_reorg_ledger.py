"""A node's ledger follows its best chain through random block trees.

``accept_block`` applies a block that extends the tip to the node's own
ledger in place (undoing a partial apply when the block is invalid), checks a
side-branch block on a copy of its parent's registered ledger (or a replay
to the parent when the index no longer holds it), and replaces its ledger on
a reorg.  A block object another node already validated is not validated
again: the node takes the ledger that node registered.  The reference is a
flat replay from genesis: after every accepted or rejected block the node's
ledger and ``Blockchain.utxo_set()`` must both read like it, every verdict
(with its ``verification_cost_s``) must equal ``validate_block`` on a ledger
replayed to the block's parent, and every block stored without a verdict
must be valid by that same reference.  Blocks arrive in random orders, so
some wait in the orphan pool and are applied when their parent arrives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.block import Block
from repro.protocol.transaction import Transaction
from repro.protocol.utxo import UtxoEntry, UtxoSet
from repro.protocol.validation import TransactionValidator
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network

NODE_COUNT = 3


class RecordingValidator(TransactionValidator):
    """A node's validator that keeps every block verdict it returns, and
    whether the block was checked off the node's own ledger."""

    def __init__(self, node) -> None:
        super().__init__()
        self.node = node
        self.verdicts = []
        #: Blocks checked, and blocks the node stored without a verdict of its own.
        self.checked = 0
        self.reused = 0

    def apply_block(self, block, parent, utxo):
        self.checked += 1
        side_branch = utxo is not self.node.utxo
        result = super().apply_block(block, parent, utxo)
        self.verdicts.append((block, parent, result, side_branch))
        return result


def funded_nodes(seed=1):
    """Unconnected funded nodes, each with a recording validator."""
    simulated = build_network(NetworkParameters(node_count=NODE_COUNT, seed=seed))
    nodes = [simulated.node(node_id) for node_id in simulated.node_ids()]
    funding = fund_nodes(nodes, outputs_per_node=3)
    for node in nodes:
        node.validator = RecordingValidator(node)
    return nodes, funding


def ledger_state(utxo, addresses=()):
    """What a ledger answers through its public API, as comparable values.

    Every entry ``entries()`` yields must be found by ``in`` and ``get`` and
    counted once by ``len``.  ``spendable_by`` and ``balance`` are read for
    every owner it yields and for ``addresses``, so an owner whose last output
    was spent is checked too.
    """
    entries = list(utxo.entries())
    by_outpoint = {entry.outpoint: entry for entry in entries}
    assert len(by_outpoint) == len(entries) == len(utxo)
    for outpoint, entry in by_outpoint.items():
        assert outpoint in utxo and utxo.get(outpoint) == entry
    owners = {entry.address for entry in entries} | set(addresses)
    return by_outpoint, {a: (utxo.spendable_by(a), utxo.balance(a)) for a in sorted(owners)}


def replay(blocks):
    """The ledger implied by ``blocks``, genesis first."""
    utxo = UtxoSet()
    for block in blocks:
        for tx in block.transactions:
            utxo.apply_transaction(tx, block_hash=block.block_hash)
    return utxo


def spend(keypairs, entry, to_address, created_at):
    """Pay half of ``entry`` to ``to_address``; the rest goes back to its owner."""
    return Transaction.create_signed(
        keypairs[entry.address],
        [(entry.txid, entry.index, entry.value)],
        [(to_address, entry.value // 2)],
        created_at=created_at,
    )


def make_block(parent, transactions, index, keypairs):
    """A block on ``parent``: a coinbase to a known owner, then ``transactions``."""
    owner = sorted(keypairs)[index % len(keypairs)]
    coinbase = Transaction.coinbase(owner, 50_000, tag=f"reorg-{index}")
    return Block.create(
        parent, [coinbase, *transactions], timestamp=float(index + 1), nonce=index, miner_id=0
    )


def stored_blocks(chain):
    """Every block ``chain`` stores, by hash."""
    return {
        block.block_hash: block
        for leaf in chain.leaves()
        for block in chain.chain_to(leaf.block_hash)
    }


def accept_and_check(node, block, keypairs):
    """Accept ``block``, then hold the node's ledger, every verdict it gave
    and every block it stored without one to the replay reference; returns
    the number of side-branch verdicts."""
    chain = node.blockchain
    before = stored_blocks(chain)
    node.accept_block(block, origin_peer=None)
    expected = ledger_state(replay(chain.best_chain()), keypairs)
    assert ledger_state(node.utxo, keypairs) == expected
    assert ledger_state(chain.utxo_set(), keypairs) == expected
    side_branch_verdicts = 0
    validated = set()
    for checked, parent, result, side_branch in node.validator.verdicts:
        at_parent = replay(chain.chain_to(parent.block_hash))
        expected = TransactionValidator().validate_block(checked, parent, at_parent)
        assert result == expected
        side_branch_verdicts += side_branch
        validated.add(checked.block_hash)
    node.validator.verdicts.clear()
    for block_hash, stored in stored_blocks(chain).items():
        if block_hash in before or block_hash in validated:
            continue
        # Stored on another node's verdict: the reference must agree.
        parent = chain.get_block(stored.previous_hash)
        at_parent = replay(chain.chain_to(parent.block_hash))
        assert TransactionValidator().validate_block(stored, parent, at_parent).valid
        node.validator.reused += 1
    return side_branch_verdicts


def draw_tree(data, funding, keypairs):
    """Blocks on top of ``funding`` in creation order, each with its validity.

    Each block spends outputs its parent's ledger holds, so sibling branches
    conflict, and may spend one of its own transactions' outputs; an invalid
    block re-spends an output it already spent (after applying some
    transactions, so the partial apply is undone) or a missing one, and is
    never a parent.
    """
    parents = [(funding, replay([funding]))]
    tree = []
    for index in range(data.draw(st.integers(min_value=2, max_value=10), label="blocks")):
        parent, ledger = parents[
            data.draw(st.integers(min_value=0, max_value=len(parents) - 1), label="parent")
        ]
        spendable = sorted(
            (e for e in ledger.entries() if e.address in keypairs and e.value >= 2),
            key=lambda e: e.outpoint,
        )
        chosen = (
            data.draw(
                st.lists(
                    st.sampled_from(spendable), max_size=3, unique_by=lambda e: e.outpoint
                ),
                label="spends",
            )
            if spendable
            else []
        )
        addresses = sorted(keypairs)
        transactions = [
            spend(keypairs, entry, addresses[(index + n) % len(addresses)], float(index))
            for n, entry in enumerate(chosen)
        ]
        if transactions and data.draw(st.booleans(), label="chained"):
            # Spend the first spend's change too: undo must run newest first.
            first = transactions[0]
            change = UtxoEntry(first.txid, 1, first.outputs[1].value, first.outputs[1].address)
            transactions.append(spend(keypairs, change, addresses[0], float(index)))
        valid = data.draw(st.integers(min_value=0, max_value=4), label="invalid") != 0
        if not valid:
            # Re-spend what this block already spent, or an output no block made.
            entry = chosen[0] if chosen else UtxoEntry("f" * 64, 0, 1_000, addresses[0])
            transactions.append(spend(keypairs, entry, addresses[-1], index + 0.5))
        block = make_block(parent, transactions, index, keypairs)
        tree.append((block, valid))
        if valid:
            child = ledger.copy()
            for tx in block.transactions:
                child.apply_transaction(tx, block_hash=block.block_hash)
            parents.append((block, child))
    return tree


class TestLedgerFollowsBestChain:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_block_trees_in_random_orders(self, data):
        nodes, funding = funded_nodes()
        keypairs = {node.keypair.address: node.keypair for node in nodes}
        tree = draw_tree(data, funding, keypairs)
        orders = [
            data.draw(st.permutations(range(len(tree))), label=f"order-{node.node_id}")
            for node in nodes
        ]
        for step in range(len(tree)):
            for node, order in zip(nodes, orders):
                accept_and_check(node, tree[order[step]][0], keypairs)
        for block, valid in tree:
            for node in nodes:
                assert node.blockchain.has_block(block.block_hash) == valid

    def test_later_nodes_take_the_registered_ledgers(self):
        """Nodes that receive the block objects the first node validated
        store them without validating: only invalid blocks are checked on
        every node."""
        nodes, funding = funded_nodes(seed=2)
        keypairs = {node.keypair.address: node.keypair for node in nodes}
        owners = sorted(keypairs)
        outputs = sorted(replay([funding]).entries(), key=lambda e: e.outpoint)
        main = make_block(funding, [spend(keypairs, outputs[0], owners[1], 0.0)], 0, keypairs)
        fork = make_block(funding, [spend(keypairs, outputs[0], owners[2], 0.0)], 1, keypairs)
        child = make_block(fork, [spend(keypairs, outputs[1], owners[0], 1.0)], 2, keypairs)
        again = spend(keypairs, outputs[1], owners[1], 2.0)  # re-spends what child spent
        invalid = make_block(child, [again], 3, keypairs)
        for node in nodes:
            for block in (main, fork, child, invalid):
                accept_and_check(node, block, keypairs)
            assert node.blockchain.tip is child
        first, *later = nodes
        assert (first.validator.checked, first.validator.reused) == (4, 0)
        for node in later:
            assert (node.validator.checked, node.validator.reused) == (1, 3)

    def test_deep_reorgs_back_and_forth(self):
        nodes, funding = funded_nodes(seed=3)
        node = nodes[0]
        keypairs = {n.keypair.address: n.keypair for n in nodes}
        owners = sorted(keypairs)
        contested = sorted(
            (e for e in replay([funding]).entries() if e.address == owners[0]),
            key=lambda e: e.outpoint,
        )[0]

        def branch(parent, length, start, first_payee):
            blocks = []
            for offset in range(length):
                spends = [spend(keypairs, contested, first_payee, 0.0)] if offset == 0 else []
                parent = make_block(parent, spends, start + offset, keypairs)
                blocks.append(parent)
            return blocks

        # Both branches spend the same funding output, to different payees.
        branch_a = branch(funding, 5, 100, owners[1])
        branch_b = branch(funding, 4, 200, owners[2])
        side = 0
        for block in branch_a[:3] + branch_b:
            side += accept_and_check(node, block, keypairs)
        assert node.blockchain.tip is branch_b[-1]  # reorg three blocks deep
        for block in branch_a[3:]:
            side += accept_and_check(node, block, keypairs)
        assert node.blockchain.tip is branch_a[-1]  # and four blocks back
        assert side == len(branch_b) + 2  # all of branch b, then a's last two
