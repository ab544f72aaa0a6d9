"""Simplified proof-of-work mining.

The paper's experiments measure transaction propagation, not mining, but the
double-spend and fork analyses need blocks to be produced.  Mining is
modelled the way analytical Bitcoin papers model it: block discovery on the
whole network is a Poisson process with a configurable mean interval
(10 minutes in Bitcoin), and the miner that finds each block is drawn with
probability proportional to its hash-power share.  The winning miner
assembles a block from its own mempool, so a transaction that has not yet
propagated to the winner does not get confirmed — which is exactly the
coupling between propagation delay and double-spend risk the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.protocol.block import BLOCK_REWARD_SATOSHI, Block
from repro.protocol.mempool import Mempool
from repro.protocol.node import BitcoinNode
from repro.protocol.transaction import (
    TX_BASE_BYTES,
    TX_INPUT_BYTES,
    TX_OUTPUT_BYTES,
    Transaction,
)
from repro.sim.engine import Simulator
from repro.sim.process import Timeout

#: Bitcoin's target average block interval in seconds.
DEFAULT_BLOCK_INTERVAL_S = 600.0

#: Cap on transactions per block, coinbase included.
MAX_BLOCK_TRANSACTIONS = 2000

#: Serialized bytes of a block header (matches ``Block.size_bytes``).
BLOCK_HEADER_BYTES = 80

#: Smallest possible transaction (one input, one output): if even this does
#: not fit in a template's remaining byte budget, the block is full.
MIN_TX_BYTES = TX_BASE_BYTES + TX_INPUT_BYTES + TX_OUTPUT_BYTES


@dataclass(frozen=True)
class BlockTemplate:
    """Transactions chosen for the next block, highest feerate first.

    Built from a miner's mempool by :meth:`build`: the selection greedily
    packs the fee-priority order into ``max_bytes`` (when given), so under
    sustained load blocks fill toward their cap and low-feerate transactions
    wait — the congestion behaviour the load-frontier experiment measures.
    With no byte cap and all-zero fees the template reduces to the historical
    oldest-first, count-capped selection.

    Attributes:
        transactions: the selected transactions (coinbase excluded).
        total_bytes: serialized bytes of the selected transactions.
        total_fees: satoshi the miner collects on top of the block reward.
        byte_budget: the byte budget the template was packed against (None
            when unlimited).
    """

    transactions: tuple[Transaction, ...]
    total_bytes: int
    total_fees: int
    byte_budget: Optional[int] = None

    @property
    def is_full(self) -> bool:
        """Whether even the smallest transaction could not be appended."""
        if self.byte_budget is None:
            return False
        return self.total_bytes + MIN_TX_BYTES > self.byte_budget

    @staticmethod
    def build(
        mempool: Mempool, max_count: int, *, max_bytes: Optional[int] = None
    ) -> "BlockTemplate":
        """Assemble a template from ``mempool``'s fee-priority order."""
        selected = mempool.select_for_block(max_count, max_bytes=max_bytes)
        return BlockTemplate(
            transactions=tuple(selected),
            total_bytes=sum(tx.size_bytes for tx in selected),
            total_fees=sum(mempool.fee(tx.txid) or 0 for tx in selected),
            byte_budget=max_bytes,
        )


@dataclass(frozen=True)
class MinerProfile:
    """A mining participant and its share of the total hash power."""

    node_id: int
    hash_power: float

    def __post_init__(self) -> None:
        if self.hash_power < 0:
            raise ValueError(f"hash power cannot be negative, got {self.hash_power}")


class MiningProcess:
    """Poisson block production across a set of miners.

    Args:
        simulator: the event engine.
        nodes: id -> node mapping for all miners (and any node that may win).
        miners: hash-power profiles; shares are normalised internally.
        rng: random stream for block intervals and winner selection.
        block_interval_s: network-wide mean time between blocks.
        max_block_bytes: cap on a block's serialized size (header + coinbase
            + selected transactions), like Bitcoin's 1 MB limit.  None (the
            default) leaves blocks capped at :data:`MAX_BLOCK_TRANSACTIONS`
            only, the historical behaviour.

    Attributes:
        on_block_found: None, or a callback ``(block, miner_id)`` fired the
            instant a block is assembled, *before* the winner's
            ``accept_block`` runs — i.e. before any announcement can leave
            the miner.  This is the selfish-mining hook: a withholding
            policy (:class:`~repro.protocol.adversary.SelfishMiner`) assigns
            it after construction so the acceptance-time broadcast is
            already suppressed.  Honest experiments leave it None.
    """

    def __init__(
        self,
        simulator: Simulator,
        nodes: dict[int, BitcoinNode],
        miners: Sequence[MinerProfile],
        rng: np.random.Generator,
        *,
        block_interval_s: float = DEFAULT_BLOCK_INTERVAL_S,
        max_block_bytes: Optional[int] = None,
    ) -> None:
        if not miners:
            raise ValueError("at least one miner is required")
        if block_interval_s <= 0:
            raise ValueError(f"block interval must be positive, got {block_interval_s}")
        if max_block_bytes is not None and max_block_bytes <= BLOCK_HEADER_BYTES:
            raise ValueError(
                f"max_block_bytes must exceed the {BLOCK_HEADER_BYTES}-byte header, "
                f"got {max_block_bytes}"
            )
        total_power = sum(m.hash_power for m in miners)
        if total_power <= 0:
            raise ValueError("total hash power must be positive")
        self._simulator = simulator
        self._nodes = nodes
        self._miners = list(miners)
        self._shares = np.array([m.hash_power / total_power for m in self._miners])
        self._rng = rng
        self.block_interval_s = float(block_interval_s)
        self.max_block_bytes = max_block_bytes
        self.on_block_found: Optional[Callable[[Block, int], None]] = None
        self.blocks_mined = 0
        #: Blocks whose template hit the byte cap (``max_block_bytes`` only).
        self.full_blocks_mined = 0
        #: Total miner fees collected across all blocks mined.
        self.total_fees_collected = 0
        self._running = False

    def start(self) -> None:
        """Begin producing blocks."""
        if self._running:
            raise RuntimeError("mining process is already running")
        self._running = True
        self._simulator.spawn(self._mine_forever(), name="mining")

    def stop(self) -> None:
        """Stop after the next scheduled block attempt."""
        self._running = False

    def _mine_forever(self):
        while self._running:
            interval = float(self._rng.exponential(self.block_interval_s))
            yield Timeout(max(interval, 1e-6))
            if not self._running:
                return
            self.mine_one_block()

    def pick_winner(self) -> MinerProfile:
        """Choose the miner of the next block, weighted by hash power."""
        index = int(self._rng.choice(len(self._miners), p=self._shares))
        return self._miners[index]

    def mine_one_block(self, *, winner_id: Optional[int] = None) -> Optional[Block]:
        """Produce one block immediately.

        Args:
            winner_id: force a specific miner to win (used by attack
                experiments); defaults to a hash-power-weighted draw.

        Returns:
            The mined block, or None if the winner is offline/unknown.
        """
        if winner_id is None:
            winner_id = self.pick_winner().node_id
        miner = self._nodes.get(winner_id)
        if miner is None or miner.network is None or not miner.network.is_online(winner_id):
            return None
        coinbase = Transaction.coinbase(
            miner.keypair.address,
            BLOCK_REWARD_SATOSHI,
            created_at=self._simulator.now,
            tag=f"{winner_id}:{miner.blockchain.height + 1}:{self.blocks_mined}",
        )
        tx_budget = None
        if self.max_block_bytes is not None:
            tx_budget = max(
                self.max_block_bytes - BLOCK_HEADER_BYTES - coinbase.size_bytes, 0
            )
        template = BlockTemplate.build(
            miner.mempool, MAX_BLOCK_TRANSACTIONS - 1, max_bytes=tx_budget
        )
        block = Block.create(
            miner.blockchain.tip,
            [coinbase, *template.transactions],
            timestamp=self._simulator.now,
            nonce=self.blocks_mined,
            miner_id=winner_id,
        )
        if self.on_block_found is not None:
            self.on_block_found(block, winner_id)
        accepted = miner.accept_block(block, origin_peer=None)
        if not accepted:
            return None
        self.blocks_mined += 1
        if template.is_full:
            self.full_blocks_mined += 1
        self.total_fees_collected += template.total_fees
        return block


def equal_hash_power(node_ids: Sequence[int]) -> list[MinerProfile]:
    """Convenience: give every listed node the same hash power."""
    if not node_ids:
        return []
    share = 1.0 / len(node_ids)
    return [MinerProfile(node_id=node_id, hash_power=share) for node_id in node_ids]
