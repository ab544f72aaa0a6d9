"""A fork-capable blockchain.

The paper's motivation hinges on blockchain forks: when propagation is slow,
two blocks can be mined on the same parent, nodes disagree about the chain
tip, and a transaction can appear in two branches — the window a double-spend
attacker exploits.  The :class:`Blockchain` therefore stores the full block
tree, tracks every leaf ("branch"), and selects the best chain by height
(longest-chain rule) with first-seen tie-breaking, exactly like Bitcoin Core.

Confirmed-transaction lookups go through a :class:`ConfirmationIndex` that
the whole network shares, so no node keeps its own copy of every confirmed
txid: with a funding block that pays every node, N such copies of N funding
txids made a network's memory quadratic in its size.  The same index holds
the ledgers of the latest validated blocks, registered once for the whole
network, so a node that receives a block another node has validated takes
that ledger instead of validating and applying the block again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


class ConfirmationIndex:
    """Txid -> the blocks that include it, for every block any chain stored,
    and the ledgers as of the latest validated blocks.

    One index serves a whole network: a chain registers each block it stores,
    and the index records a block only the first time its hash is seen.
    Blocks are identified by hash, never by object: compact-block
    reconstruction builds a separate :class:`Block` with the same header on
    every node that reconstructs it, and the index keeps the first object it
    registered.  The index says where a transaction *could* be confirmed;
    whether a given chain confirms it is for that chain's best chain to say
    (:meth:`Blockchain.on_best_chain`).

    It also holds *ledgers*: the ledger as of a block, registered by the
    first node that validated that block object
    (:meth:`~repro.protocol.node.BitcoinNode.accept_block`) or, for the
    funding block, by :func:`~repro.workloads.generators.fund_nodes`.  A
    registered ledger is never written again; whoever needs it writable takes
    a copy, which shares its tables until the copy's first write.  Ledgers
    are looked up by block *object* (:meth:`ledger`): a block hash does not
    commit to the transactions' witnesses, so a block with a tampered
    signature and the same header gets no verdict from the good one.

    What the network's live tips and one-deep forks need is kept, and
    nothing else: the ledgers at the two highest heights registered, and the
    first ledger registered (the funding ledger on a funded network), from
    which :meth:`Blockchain.utxo_as_of` replays any chain through it.  A
    ledger below that window is not registered at all.
    """

    def __init__(self) -> None:
        self._blocks_by_txid: dict[str, list[Block]] = {}
        self._registered: set[str] = set()
        #: Block hash -> (the block object validated, the ledger as of it).
        self._ledgers: dict[str, tuple[Block, UtxoSet]] = {}
        #: The hash of the first ledger registered, which is never dropped.
        self._root: Optional[str] = None
        #: The highest height a ledger was registered at.
        self._top = 0

    def register(self, block: Block) -> None:
        """Index ``block``'s transactions, unless its hash is already indexed."""
        block_hash = block.block_hash
        if block_hash in self._registered:
            return
        self._registered.add(block_hash)
        index = self._blocks_by_txid
        for txid in block.txids:
            blocks = index.get(txid)
            if blocks is None:
                index[txid] = [block]
            else:
                blocks.append(block)

    def blocks_with(self, txid: str) -> Sequence[Block]:
        """Indexed blocks that include ``txid``, in registration order."""
        return self._blocks_by_txid.get(txid, ())

    def register_ledger(self, block: Block, ledger: UtxoSet) -> None:
        """Record ``ledger`` as the ledger as of ``block``.

        ``ledger`` must equal the replay of the chain to ``block`` from
        genesis, ``block`` must be valid on that chain, and nothing may write
        ``ledger`` afterwards.  The first ledger registered under a hash
        stays.  Registering above the highest height so far drops the
        ledgers more than one below it, except the first one registered.
        """
        block_hash = block.block_hash
        ledgers = self._ledgers
        height = block.height
        if block_hash in ledgers or height < self._top - 1:
            return
        ledgers[block_hash] = (block, ledger)
        if self._root is None:
            self._root = block_hash
        if height > self._top:
            self._top = height
            for stale in [
                key
                for key, (held, _) in ledgers.items()
                if held.height < height - 1 and key != self._root
            ]:
                del ledgers[stale]

    def ledger(self, block: Block) -> Optional[UtxoSet]:
        """The ledger registered as of this very block object, or None."""
        held = self._ledgers.get(block.block_hash)
        if held is not None and held[0] is block:
            return held[1]
        return None


class Blockchain:
    """Block tree with longest-chain selection.

    Args:
        genesis: the shared genesis block; every simulated node must be
            constructed with the same one so that chains are comparable.
        index: the confirmation index this chain registers its blocks in and
            answers confirmed-transaction lookups from.  Every chain of one
            network shares one (see
            :func:`~repro.workloads.network_gen.build_network`); a chain built
            without one gets a private index.  Answers are the same either
            way.
    """

    def __init__(
        self, genesis: Optional[Block] = None, *, index: Optional[ConfirmationIndex] = None
    ) -> None:
        self._genesis = genesis if genesis is not None else Block.genesis()
        self._blocks: dict[str, Block] = {self._genesis.block_hash: self._genesis}
        self._children: dict[str, list[str]] = {self._genesis.block_hash: []}
        self._fork_events: list[ForkEvent] = []
        self._index = index if index is not None else ConfirmationIndex()
        self._index.register(self._genesis)
        #: The best chain by height: ``_best[h]`` is its block at height h.
        #: A tip extension appends to it; a reorg replaces the tail above the
        #: fork point.
        self._best: list[Block] = [self._genesis]

    # ---------------------------------------------------------------- access
    @property
    def genesis(self) -> Block:
        """The genesis block."""
        return self._genesis

    @property
    def index(self) -> ConfirmationIndex:
        """The confirmation index this chain registers its blocks in."""
        return self._index

    @property
    def tip(self) -> Block:
        """The tip of the currently-best chain."""
        return self._best[-1]

    @property
    def height(self) -> int:
        """Height of the best chain tip."""
        return len(self._best) - 1

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
        self._index.register(block)
        return self._maybe_reorganize(block)

    def _maybe_reorganize(self, candidate: Block) -> bool:
        best = self._best
        if candidate.height < len(best):
            # Not higher: at equal height the first-seen tip stays (Bitcoin's
            # behaviour).
            return False
        if candidate.previous_hash == best[-1].block_hash:
            best.append(candidate)
            return True
        # Reorg: walk the new branch back to the fork point, then swap tails.
        branch: list[Block] = []
        cursor = candidate
        while not self.on_best_chain(cursor):
            branch.append(cursor)
            cursor = self._blocks[cursor.previous_hash]
        del best[cursor.height + 1 :]
        best.extend(reversed(branch))
        return True

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
        return list(self._best)

    def on_best_chain(self, block: Block) -> bool:
        """Whether a block with ``block``'s hash sits on the best chain."""
        best = self._best
        height = block.height
        return height < len(best) and best[height].block_hash == block.block_hash

    def leaves(self) -> list[Block]:
        """All branch tips (blocks with no children)."""
        return [self._blocks[h] for h, children in self._children.items() if not children]

    def branch_count(self) -> int:
        """Number of distinct branches in the block tree."""
        return len(self.leaves())

    def _confirming_heights(self, txid: str) -> list[int]:
        """Heights of the best-chain blocks that include ``txid``."""
        return [
            block.height for block in self._index.blocks_with(txid) if self.on_best_chain(block)
        ]

    def confirmations(self, txid: str) -> int:
        """Confirmation count of a transaction on the best chain (0 if absent)."""
        heights = self._confirming_heights(txid)
        return self.height - max(heights) + 1 if heights else 0

    def contains_transaction(self, txid: str) -> bool:
        """Whether the best chain confirms the transaction."""
        for block in self._index.blocks_with(txid):
            if self.on_best_chain(block):
                return True
        return False

    def confirming_block(self, txid: str) -> Optional[Block]:
        """This chain's lowest best-chain block that includes ``txid`` (or None)."""
        heights = self._confirming_heights(txid)
        return self._best[min(heights)] if heights else None

    def utxo_as_of(self, block_hash: str) -> UtxoSet:
        """The ledger after the chain ending at ``block_hash``, replayed.

        The fallback for a ledger the index no longer holds: the replay
        starts from a copy of the deepest ledger the index holds for a block
        object on that chain (see :meth:`ConfirmationIndex.register_ledger`;
        on a funded network, at the latest the funding ledger) and applies
        the blocks above it.  A chain through no registered ledger is
        replayed from genesis into a flat ledger.

        Raises:
            KeyError: if the block is unknown.
        """
        registered = self._index.ledger
        replay: list[Block] = []
        cursor = self._blocks[block_hash]
        base = registered(cursor)
        while base is None:
            replay.append(cursor)
            if cursor.is_genesis:
                break
            cursor = self._blocks[cursor.previous_hash]
            base = registered(cursor)
        utxo = base.copy() if base is not None else UtxoSet()
        for block in reversed(replay):
            for tx in block.transactions:
                utxo.apply_transaction(tx, block_hash=block.block_hash)
        return utxo

    def utxo_set(self) -> UtxoSet:
        """The ledger implied by the best chain: :meth:`utxo_as_of` its tip."""
        return self.utxo_as_of(self.tip.block_hash)
