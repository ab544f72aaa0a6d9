"""A fork-capable blockchain.

The paper's motivation hinges on blockchain forks: when propagation is slow,
two blocks can be mined on the same parent, nodes disagree about the chain
tip, and a transaction can appear in two branches — the window a double-spend
attacker exploits.  The :class:`Blockchain` therefore stores the full block
tree, tracks every leaf ("branch"), and selects the best chain by height
(longest-chain rule) with first-seen tie-breaking, exactly like Bitcoin Core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.protocol.block import Block
from repro.protocol.utxo import UtxoSet


@dataclass(frozen=True)
class ForkEvent:
    """Record of an observed fork: two blocks extending the same parent."""

    parent_hash: str
    first_block: str
    second_block: str
    height: int
    observed_at: float


class Blockchain:
    """Block tree with longest-chain selection.

    Args:
        genesis: the shared genesis block; every simulated node must be
            constructed with the same one so that chains are comparable.
    """

    def __init__(self, genesis: Optional[Block] = None) -> None:
        self._genesis = genesis if genesis is not None else Block.genesis()
        self._blocks: dict[str, Block] = {self._genesis.block_hash: self._genesis}
        self._children: dict[str, list[str]] = {self._genesis.block_hash: []}
        self._arrival_order: dict[str, int] = {self._genesis.block_hash: 0}
        self._arrival_counter = 1
        self._tip_hash = self._genesis.block_hash
        self._fork_events: list[ForkEvent] = []
        #: Lazily-built set of txids confirmed by the best chain; invalidated
        #: whenever the best chain changes.  ``contains_transaction`` is on
        #: the per-message hot path, so it must not walk the chain each call.
        self._best_chain_txids: Optional[set[str]] = None

    # ---------------------------------------------------------------- access
    @property
    def genesis(self) -> Block:
        """The genesis block."""
        return self._genesis

    @property
    def tip(self) -> Block:
        """The tip of the currently-best chain."""
        return self._blocks[self._tip_hash]

    @property
    def height(self) -> int:
        """Height of the best chain tip."""
        return self.tip.height

    @property
    def block_count(self) -> int:
        """Total number of blocks stored, across all branches."""
        return len(self._blocks)

    @property
    def fork_events(self) -> list[ForkEvent]:
        """Every fork observed (a parent receiving a second child)."""
        return list(self._fork_events)

    def has_block(self, block_hash: str) -> bool:
        """Whether the block is already stored."""
        return block_hash in self._blocks

    def get_block(self, block_hash: str) -> Block:
        """Fetch a stored block.

        Raises:
            KeyError: if the block is unknown.
        """
        return self._blocks[block_hash]

    # -------------------------------------------------------------- mutation
    def add_block(self, block: Block, *, observed_at: float = 0.0) -> bool:
        """Add a block to the tree.

        Returns:
            True if the best-chain tip changed as a result.

        Raises:
            ValueError: if the block's parent is unknown (orphan blocks are
                not buffered by this class; the node layer requests parents
                first) or its height is inconsistent with its parent.
        """
        if block.block_hash in self._blocks:
            return False
        parent_hash = block.previous_hash
        if parent_hash not in self._blocks:
            raise ValueError(
                f"cannot add block {block.block_hash[:12]}: unknown parent {parent_hash[:12]}"
            )
        parent = self._blocks[parent_hash]
        if block.height != parent.height + 1:
            raise ValueError(
                f"block height {block.height} does not follow parent height {parent.height}"
            )
        siblings = self._children[parent_hash]
        if siblings:
            self._fork_events.append(
                ForkEvent(
                    parent_hash=parent_hash,
                    first_block=siblings[0],
                    second_block=block.block_hash,
                    height=block.height,
                    observed_at=observed_at,
                )
            )
        self._blocks[block.block_hash] = block
        self._children[block.block_hash] = []
        self._children[parent_hash].append(block.block_hash)
        self._arrival_order[block.block_hash] = self._arrival_counter
        self._arrival_counter += 1
        return self._maybe_reorganize(block)

    def _maybe_reorganize(self, candidate: Block) -> bool:
        current = self.tip
        if candidate.height > current.height:
            if (
                candidate.previous_hash == current.block_hash
                and self._best_chain_txids is not None
            ):
                # Pure tip extension: the best chain grows by exactly this
                # block, so the confirmed-txid cache can grow with it instead
                # of being rebuilt from genesis (O(chain) per accepted block,
                # which dominates long sustained-load runs).
                self._best_chain_txids.update(candidate.txids)
            else:
                self._best_chain_txids = None
            self._tip_hash = candidate.block_hash
            return True
        # Equal height: keep the first-seen tip (Bitcoin's behaviour).
        return False

    # -------------------------------------------------------------- chains
    def chain_to(self, block_hash: str) -> list[Block]:
        """Blocks from genesis to ``block_hash`` inclusive, in height order."""
        chain: list[Block] = []
        cursor = self._blocks[block_hash]
        while True:
            chain.append(cursor)
            if cursor.is_genesis:
                break
            cursor = self._blocks[cursor.previous_hash]
        chain.reverse()
        return chain

    def best_chain(self) -> list[Block]:
        """Blocks on the currently-best chain, genesis first."""
        return self.chain_to(self._tip_hash)

    def leaves(self) -> list[Block]:
        """All branch tips (blocks with no children)."""
        return [self._blocks[h] for h, children in self._children.items() if not children]

    def branch_count(self) -> int:
        """Number of distinct branches in the block tree."""
        return len(self.leaves())

    def confirmations(self, txid: str) -> int:
        """Confirmation count of a transaction on the best chain (0 if absent)."""
        depth = 0
        for block in reversed(self.best_chain()):
            if block.contains(txid):
                return self.height - block.height + 1
            depth += 1
        return 0

    def contains_transaction(self, txid: str) -> bool:
        """Whether the best chain confirms the transaction."""
        if self._best_chain_txids is None:
            # A union of the blocks' memoized txid sets: no per-tx property read.
            self._best_chain_txids = set().union(*(block.txids for block in self.best_chain()))
        return txid in self._best_chain_txids

    def utxo_set(self) -> UtxoSet:
        """UTXO set implied by the best chain (recomputed from genesis)."""
        utxo = UtxoSet()
        for block in self.best_chain():
            for tx in block.transactions:
                utxo.apply_transaction(tx, block_hash=block.block_hash)
        return utxo
