"""The unspent transaction output (UTXO) ledger.

Section III of the paper: the balance of an account is the sum of all unspent
outputs owned by that account, and a transaction is valid only if the coins it
spends have not been spent before.  The UTXO set is the data structure every
node checks on receiving a new transaction ("a peer checks whether the Bitcoin
has been previously spent").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.protocol.transaction import Transaction, TxOutput


@dataclass(frozen=True)
class UtxoEntry:
    """One unspent output: where it came from and what it is worth."""

    txid: str
    index: int
    value: int
    address: str
    confirmed_in_block: Optional[str] = None

    @property
    def outpoint(self) -> tuple[str, int]:
        """The ``(txid, index)`` key of this output."""
        return (self.txid, self.index)


class UtxoSet:
    """Mutable set of unspent outputs, indexed by outpoint and by address.

    :meth:`copy` is copy-on-write: the clone shares the source's two tables
    and a share count, and whichever set writes first while the tables are
    shared takes its own copy of them (:meth:`_own`).  Funding gives every
    node a view of one ledger this way.  A scratch copy written before its
    source (side-branch block validation) costs the one table copy an eager
    copy would have cost, and leaves the source the sole owner of its tables
    again.  A block that extends the tip needs no copy: it is applied in
    place and undone on failure (:meth:`undo_transaction`).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int], UtxoEntry] = {}
        self._by_address: dict[str, set[tuple[str, int]]] = {}
        #: How many live sets view these tables: one counter, shared by all.
        self._shares = [1]

    def __del__(self) -> None:
        self._shares[0] -= 1

    def _own(self) -> None:
        """Take a private copy of the tables if another set still views them."""
        shares = self._shares
        if shares[0] > 1:
            shares[0] -= 1
            self._entries = dict(self._entries)
            self._by_address = {address: set(ops) for address, ops in self._by_address.items()}
            self._shares = [1]

    # ---------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, outpoint: tuple[str, int]) -> bool:
        return outpoint in self._entries

    def get(self, outpoint: tuple[str, int]) -> Optional[UtxoEntry]:
        """The entry for an outpoint, or None if it is spent/unknown."""
        return self._entries.get(outpoint)

    def entries(self) -> Iterator[UtxoEntry]:
        """Iterate over all unspent entries."""
        return iter(self._entries.values())

    def balance(self, address: str) -> int:
        """Total unspent value held by an address."""
        outpoints = self._by_address.get(address, set())
        return sum(self._entries[op].value for op in outpoints)

    def spendable_by(self, address: str) -> list[UtxoEntry]:
        """All unspent entries owned by an address, ordered by outpoint."""
        outpoints = self._by_address.get(address, set())
        return sorted((self._entries[op] for op in outpoints), key=lambda e: e.outpoint)

    def total_value(self) -> int:
        """Sum of all unspent values in the ledger."""
        return sum(entry.value for entry in self._entries.values())

    # -------------------------------------------------------------- mutation
    def add(self, entry: UtxoEntry) -> None:
        """Add an unspent output.

        Raises:
            ValueError: if the outpoint already exists.
        """
        if entry.outpoint in self._entries:
            raise ValueError(f"outpoint {entry.outpoint} is already unspent")
        self._own()
        self._entries[entry.outpoint] = entry
        self._by_address.setdefault(entry.address, set()).add(entry.outpoint)

    def remove(self, outpoint: tuple[str, int]) -> UtxoEntry:
        """Spend (remove) an outpoint.

        Raises:
            KeyError: if the outpoint is not unspent.
        """
        if outpoint not in self._entries:
            raise KeyError(f"outpoint {outpoint} is not in the UTXO set")
        self._own()
        entry = self._entries.pop(outpoint)
        owners = self._by_address.get(entry.address)
        if owners is not None:
            owners.discard(outpoint)
            if not owners:
                del self._by_address[entry.address]
        return entry

    def apply_transaction(
        self, tx: Transaction, *, block_hash: Optional[str] = None
    ) -> list[UtxoEntry]:
        """Apply a transaction: spend its inputs, add its outputs.

        The caller is responsible for having validated the transaction first
        (see :class:`~repro.protocol.validation.TransactionValidator`); this
        method still refuses to spend missing outpoints to protect ledger
        integrity.

        Returns:
            The spent entries, in input order: what :meth:`undo_transaction`
            needs to reverse the apply.
        """
        spent = []
        if not tx.is_coinbase:
            for tx_input in tx.inputs:
                spent.append(self.remove(tx_input.outpoint))
        for index, output in enumerate(tx.outputs):
            self.add(
                UtxoEntry(
                    txid=tx.txid,
                    index=index,
                    value=output.value,
                    address=output.address,
                    confirmed_in_block=block_hash,
                )
            )
        return spent

    def undo_transaction(self, tx: Transaction, spent: Iterable[UtxoEntry]) -> None:
        """Reverse :meth:`apply_transaction`: drop ``tx``'s outputs and restore
        the ``spent`` entries that apply returned."""
        for index in range(len(tx.outputs)):
            self.remove((tx.txid, index))
        for entry in spent:
            self.add(entry)

    def can_apply(self, tx: Transaction) -> bool:
        """Whether every input of ``tx`` is currently unspent."""
        if tx.is_coinbase:
            return True
        return all(tx_input.outpoint in self._entries for tx_input in tx.inputs)

    def copy(self) -> "UtxoSet":
        """An independent set with the same entries, sharing tables until a write."""
        clone = UtxoSet.__new__(UtxoSet)
        clone._entries = self._entries
        clone._by_address = self._by_address
        clone._shares = self._shares
        self._shares[0] += 1
        return clone

    @staticmethod
    def from_transactions(transactions: Iterable[Transaction]) -> "UtxoSet":
        """Build a UTXO set by applying transactions in order."""
        utxo = UtxoSet()
        for tx in transactions:
            utxo.apply_transaction(tx)
        return utxo
