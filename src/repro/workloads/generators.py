"""Funding helpers.

The measuring node (and any node that should emit payments) needs confirmed,
spendable outputs.  :func:`fund_nodes` installs a *funding block* — one block
at height 1 containing a coinbase output per (node, output) pair — directly on
every node's chain, standing in for history that would precede the experiment
in the real network.  Background payment traffic comes from
:class:`~repro.workloads.traffic.TrafficModel`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.protocol.block import Block
from repro.protocol.node import BitcoinNode
from repro.protocol.transaction import Transaction
from repro.protocol.utxo import UtxoSet


def fund_nodes(
    nodes: Sequence[BitcoinNode],
    *,
    amount_satoshi: int = 1_000_000,
    outputs_per_node: int = 1,
    funded_node_ids: Optional[Sequence[int]] = None,
) -> Block:
    """Give nodes confirmed spendable outputs by installing a shared funding block.

    Every node stores the same block object.  The ledger as of that block is
    built once, flat, and an empty view over it is registered as the funding
    block's ledger in every node's confirmation index (one per network, see
    :class:`~repro.protocol.blockchain.ConfirmationIndex`), which also
    registers the funding txids once.  It is the index's first ledger, so
    the index never drops it.  Each node's ledger is a copy of that view, and
    every later ledger is a view over the same flat ledger, so the copies
    share one set of tables until their first write, a write costs O(changes
    since funding), and a ledger replay
    (:meth:`~repro.protocol.blockchain.Blockchain.utxo_as_of`) starts at the
    funding block at the latest, not at genesis.  No node's
    ``known_transactions`` learns the funding txids: a funding coinbase is
    never announced, so no INV, GETDATA or TX decision reads such an entry,
    and confirmed lookups go to the chain.  Memory is therefore linear in the
    number of funding outputs, before and after blocks flow.

    Args:
        nodes: every node in the network (all of them must learn the block so
            their ledgers agree).
        amount_satoshi: value of each funding output.
        outputs_per_node: number of separate outputs per funded node (a
            measurement campaign of N runs needs at least N outputs on the
            measuring node, because change stays unconfirmed).
        funded_node_ids: nodes that receive outputs; defaults to all of them.

    Returns:
        The funding block that was installed on every node.

    Raises:
        ValueError: on nonsensical amounts/counts or if any node has already
            advanced past the genesis block (the funding block must be the
            first block everyone agrees on).  Every check runs before any node
            changes, so a refused call leaves every node as it was.
    """
    if amount_satoshi <= 0:
        raise ValueError(f"amount_satoshi must be positive, got {amount_satoshi}")
    if outputs_per_node <= 0:
        raise ValueError(f"outputs_per_node must be positive, got {outputs_per_node}")
    if not nodes:
        raise ValueError("fund_nodes needs at least one node")
    funded = set(funded_node_ids) if funded_node_ids is not None else {n.node_id for n in nodes}
    by_id = {node.node_id: node for node in nodes}
    unknown = funded - set(by_id)
    if unknown:
        raise ValueError(f"cannot fund unknown node ids: {sorted(unknown)}")
    advanced = [node.node_id for node in nodes if node.blockchain.height != 0]
    if advanced:
        raise ValueError(
            f"fund_nodes must run before any blocks are mined: nodes {advanced} "
            "have already advanced past genesis"
        )

    reference = nodes[0]
    funding_txs = [
        Transaction.coinbase(
            by_id[node_id].keypair.address,
            amount_satoshi,
            tag=f"funding:{node_id}:{output_index}",
        )
        for node_id in sorted(funded)
        for output_index in range(outputs_per_node)
    ]
    funding_block = Block.create(
        reference.blockchain.genesis,
        funding_txs,
        timestamp=0.0,
        nonce=0,
        miner_id=-1,
    )
    for node in nodes:
        node.blockchain.add_block(funding_block)
        node.known_blocks.add(funding_block.block_hash)
    # Replayed before it is registered, so the replay is flat, from genesis.
    view = UtxoSet(reference.blockchain.utxo_set())
    for node in nodes:
        node.blockchain.index.register_ledger(funding_block, view)
        node.utxo = view.copy()
    return funding_block
