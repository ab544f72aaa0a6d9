"""Per-node pool of unconfirmed transactions.

A node's mempool holds transactions it has verified but that are not yet
confirmed on its best chain.  It also tracks which outpoints those pending
transactions spend so that conflicting (double-spending) transactions can be
detected at admission time — the "first seen" rule Bitcoin nodes apply and the
rule the double-spend experiment relies on.

Since the traffic plane landed, the pool is also a fee market: every admitted
transaction carries a fee, and when the pool is full an incoming transaction
whose feerate strictly beats the cheapest pending one evicts it (lowest
feerate first) instead of being dropped blindly.  With all-zero fees the pool
behaves exactly like the pre-fee code — admission order, block selection and
the reject-at-capacity path are unchanged — which is what keeps the fig3
golden fingerprints byte-identical when traffic is off.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Iterator, Optional

from repro.protocol.transaction import Transaction


class Mempool:
    """Set of verified, unconfirmed transactions with conflict tracking and
    fee-priority eviction."""

    def __init__(self, max_size: Optional[int] = None) -> None:
        if max_size is not None and max_size <= 0:
            raise ValueError(f"max_size must be positive or None, got {max_size}")
        self.max_size = max_size
        self._transactions: dict[str, Transaction] = {}
        self._spent_outpoints: dict[tuple[str, int], str] = {}
        self._arrival_times: dict[str, float] = {}
        self._fees: dict[str, int] = {}
        #: ``(feerate, -arrival_time, txid)`` of every pending transaction,
        #: ascending: element 0 is the next fee-priority eviction.  txids are
        #: unique, so the order is total.
        self._eviction_keys: list[tuple[float, float, str]] = []
        #: Transactions evicted by the most recent :meth:`add` call (empty
        #: unless that call made room by fee-priority eviction).  The node
        #: layer uses this to forget the evicted txids so peers can re-offer
        #: them later.
        self.last_evicted: tuple[Transaction, ...] = ()

    # ---------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._transactions)

    def __contains__(self, txid: str) -> bool:
        return txid in self._transactions

    def get(self, txid: str) -> Optional[Transaction]:
        """The transaction with this id, or None."""
        return self._transactions.get(txid)

    def transactions(self) -> Iterator[Transaction]:
        """Iterate over pending transactions in arrival order."""
        for txid in sorted(self._arrival_times, key=self._arrival_times.get):
            yield self._transactions[txid]

    def arrival_time(self, txid: str) -> Optional[float]:
        """When the transaction was admitted (None if unknown)."""
        return self._arrival_times.get(txid)

    def fee(self, txid: str) -> Optional[int]:
        """The fee (satoshi) the transaction was admitted with (None if unknown)."""
        return self._fees.get(txid)

    def feerate(self, txid: str) -> Optional[float]:
        """Fee per byte of the pending transaction (None if unknown)."""
        tx = self._transactions.get(txid)
        if tx is None:
            return None
        return self._fees[txid] / tx.size_bytes

    def min_feerate(self) -> Optional[float]:
        """The lowest feerate currently pending (None if the pool is empty)."""
        return self._eviction_keys[0][0] if self._eviction_keys else None

    def is_full(self) -> bool:
        """Whether the pool has reached its size limit."""
        return self.max_size is not None and len(self._transactions) >= self.max_size

    # -------------------------------------------------------------- conflict
    def conflicting_txid(self, tx: Transaction) -> Optional[str]:
        """Id of a pending transaction that spends one of ``tx``'s inputs."""
        for tx_input in tx.inputs:
            existing = self._spent_outpoints.get(tx_input.outpoint)
            if existing is not None and existing != tx.txid:
                return existing
        return None

    def conflicts(self, tx: Transaction) -> bool:
        """Whether admitting ``tx`` would double-spend a pending transaction."""
        return self.conflicting_txid(tx) is not None

    def spends(self, outpoint: tuple[str, int]) -> bool:
        """Whether a pending transaction spends this ``(txid, index)``."""
        return outpoint in self._spent_outpoints

    # -------------------------------------------------------------- mutation
    def add(self, tx: Transaction, *, arrival_time: float = 0.0, fee: int = 0) -> bool:
        """Admit a transaction.

        When the pool is full, the incoming transaction is admitted only if
        its feerate *strictly* beats the cheapest pending one, which is then
        evicted (exposed via :attr:`last_evicted`).  A zero-fee transaction
        can therefore never evict anything, preserving the pre-fee
        reject-at-capacity behaviour for fee-less workloads.

        Returns:
            True if the transaction was added; False if it was already present,
            conflicts with a pending transaction (first-seen wins), or the pool
            is full and the fee does not buy a slot.

        Raises:
            ValueError: if ``arrival_time`` is NaN or ``fee`` is negative (or
                NaN); either would make the eviction order ill-defined.
        """
        if math.isnan(arrival_time):
            raise ValueError("arrival_time cannot be NaN")
        if not fee >= 0:
            raise ValueError(f"fee cannot be negative, got {fee}")
        stored_fee = int(fee)
        self.last_evicted = ()
        if tx.txid in self._transactions:
            return False
        if self.conflicts(tx):
            return False
        if self.is_full():
            keys = self._eviction_keys
            if fee / tx.size_bytes <= keys[0][0]:
                return False
            evicted = []
            while self.is_full():  # max_size >= 1, so keys is never empty here
                evicted.append(self.remove(keys[0][2]))
            self.last_evicted = tuple(evicted)
        self._transactions[tx.txid] = tx
        self._arrival_times[tx.txid] = arrival_time
        self._fees[tx.txid] = stored_fee
        insort(self._eviction_keys, self._eviction_key(tx))
        if not tx.is_coinbase:
            for tx_input in tx.inputs:
                self._spent_outpoints[tx_input.outpoint] = tx.txid
        return True

    def _eviction_key(self, tx: Transaction) -> tuple[float, float, str]:
        """Where a pending transaction sorts in the eviction order.

        Lowest feerate first; ties broken by newest arrival (oldest-first
        fairness among equals), then txid — fully deterministic.
        """
        txid = tx.txid
        return (self._fees[txid] / tx.size_bytes, -self._arrival_times[txid], txid)

    def remove(self, txid: str) -> Optional[Transaction]:
        """Remove a transaction (e.g. once confirmed); returns it if present."""
        tx = self._transactions.get(txid)
        if tx is None:
            return None
        keys = self._eviction_keys
        del keys[bisect_left(keys, self._eviction_key(tx))]
        del self._transactions[txid]
        del self._arrival_times[txid]
        del self._fees[txid]
        if not tx.is_coinbase:
            for tx_input in tx.inputs:
                if self._spent_outpoints.get(tx_input.outpoint) == txid:
                    del self._spent_outpoints[tx_input.outpoint]
        return tx

    def remove_confirmed(self, txids: set[str]) -> int:
        """Drop every pending transaction whose id is in ``txids``.

        Returns:
            Number of transactions removed.
        """
        removed = 0
        for txid in list(self._transactions):
            if txid in txids:
                self.remove(txid)
                removed += 1
        return removed

    def remove_conflicts(self, spent_outpoints) -> list[Transaction]:
        """Drop pending transactions that spend any of these outpoints.

        Called after a block is applied to the best chain: a pending
        transaction whose input was just consumed by a *confirmed* spend can
        never be mined, and left in the pool it would be packed into block
        templates (and invalidate them) forever.

        Returns:
            The removed transactions.
        """
        removed = []
        for outpoint in spent_outpoints:
            txid = self._spent_outpoints.get(outpoint)
            if txid is not None:
                tx = self.remove(txid)
                if tx is not None:
                    removed.append(tx)
        return removed

    def remove_unspendable(self, utxo) -> list[Transaction]:
        """Drop pending transactions no longer spendable against ``utxo``.

        The reorg counterpart of :meth:`remove_conflicts`: after the UTXO
        view is rebuilt for a new best chain, every input must be either an
        unspent output on that chain or the output of another pending
        transaction.  Removal iterates to a fixpoint so a dead parent takes
        its in-pool descendants with it.

        Returns:
            The removed transactions.
        """
        removed = []
        changed = True
        while changed:
            changed = False
            for txid in list(self._transactions):
                tx = self._transactions[txid]
                if tx.is_coinbase:
                    continue
                dead = any(
                    tx_input.outpoint not in utxo
                    and tx_input.prev_txid not in self._transactions
                    for tx_input in tx.inputs
                )
                if dead:
                    self.remove(txid)
                    removed.append(tx)
                    changed = True
        return removed

    def select_for_block(
        self, max_count: int, *, max_bytes: Optional[int] = None
    ) -> list[Transaction]:
        """Select up to ``max_count`` transactions for mining.

        Highest feerate first, ties broken oldest-first — which reduces to
        the historical oldest-first order when every fee is zero.  With a
        ``max_bytes`` budget the selection greedily packs the priority order,
        skipping any transaction that would overflow the remaining budget (so
        blocks fill toward the cap instead of stopping at the first big tx).
        """
        if max_count <= 0:
            return []
        ordered = sorted(
            self._transactions.values(),
            key=lambda tx: (
                -(self._fees[tx.txid] / tx.size_bytes),
                self._arrival_times[tx.txid],
            ),
        )
        if max_bytes is None:
            return ordered[:max_count]
        selected: list[Transaction] = []
        used = 0
        for tx in ordered:
            if len(selected) >= max_count:
                break
            if used + tx.size_bytes > max_bytes:
                continue
            selected.append(tx)
            used += tx.size_bytes
        return selected

    def clear(self) -> None:
        """Empty the pool."""
        self._transactions.clear()
        self._spent_outpoints.clear()
        self._arrival_times.clear()
        self._fees.clear()
        self._eviction_keys.clear()
        self.last_evicted = ()
