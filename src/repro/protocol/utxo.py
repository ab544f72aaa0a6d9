"""The unspent transaction output (UTXO) ledger.

Section III of the paper: the balance of an account is the sum of all unspent
outputs owned by that account, and a transaction is valid only if the coins it
spends have not been spent before.  The UTXO set is the data structure every
node checks on receiving a new transaction ("a peer checks whether the Bitcoin
has been previously spent").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Iterator, Optional

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

    A set is *flat*, holding every entry in its own tables, or a *view* over
    a flat ``base`` ledger: then its own tables hold only the outputs added
    since the base, plus the base outpoints it has spent.  Reads check the
    view's tables, then the base; writes never touch the base, so one base
    serves any number of views and a write costs O(changes since the base),
    not O(base).  Every read counts an unspent outpoint once, also after
    :meth:`undo_transaction` restores a spent base entry (the entry returns
    to the view's own tables; the base copy stays spent).  Every funded node's
    ledger is a view of the one flat funding ledger
    (:func:`~repro.workloads.generators.fund_nodes`).

    :meth:`copy` is copy-on-write: the clone shares the source's own tables,
    its base and a share count, and whichever set writes first while the
    tables are shared takes its own copy of them (:meth:`_own`).  That is
    how one ledger serves a whole network: the ledger as of each validated
    block is registered once
    (:meth:`~repro.protocol.blockchain.ConfirmationIndex.register_ledger`),
    and every node that reaches that block holds a copy of it, sharing its
    tables until the node's next block is applied to its own ledger.

    The tables also carry a memo of verdicts (:meth:`remember`,
    :meth:`recall`): what a validator concluded about a transaction against
    these very entries.  Every set sharing the tables shares the memo, so
    the nodes at one tip validate each transaction object once between
    them.  Any write ends the memo for the writer, and the sets still
    sharing the old tables keep it.

    Args:
        base: the flat ledger this set views; a flat, empty set when omitted.

    Raises:
        ValueError: if ``base`` is itself a view.
    """

    def __init__(self, base: Optional["UtxoSet"] = None) -> None:
        #: How many live sets view these tables: one counter, shared by all.
        #: Set first, so ``__del__`` finds it even when the check below fails.
        self._shares = [1]
        if base is not None and base._base is not None:
            raise ValueError("a UTXO view's base must be a flat ledger")
        self._entries: dict[tuple[str, int], UtxoEntry] = {}
        self._by_address: dict[str, set[tuple[str, int]]] = {}
        #: The flat ledger this set views, or None for a flat set.
        self._base = base
        #: Base outpoints this view has spent (None on a flat set).
        self._spent: Optional[set[tuple[str, int]]] = None if base is None else set()
        #: txid -> (transaction, key, verdict) remembered since the last
        #: write; None until a verdict is remembered or the set is copied.
        self._verdicts: Optional[dict[str, tuple[Transaction, object, Any]]] = None

    def __del__(self) -> None:
        self._shares[0] -= 1

    def _own(self) -> None:
        """Prepare a write: take a private copy of the tables if another set
        still views them, and drop this set's memo (the sets still sharing
        the old tables keep theirs)."""
        shares = self._shares
        if shares[0] > 1:
            shares[0] -= 1
            self._entries = dict(self._entries)
            self._by_address = {address: set(ops) for address, ops in self._by_address.items()}
            if self._spent is not None:
                self._spent = set(self._spent)
            self._shares = [1]
        self._verdicts = None

    def _owned(self, address: str) -> list[UtxoEntry]:
        """The unspent entries owned by ``address``, own tables first."""
        entries = self._entries
        owned = [entries[op] for op in self._by_address.get(address, ())]
        base = self._base
        if base is not None:
            spent = self._spent
            base_entries = base._entries
            owned.extend(
                base_entries[op] for op in base._by_address.get(address, ()) if op not in spent
            )
        return owned

    # ---------------------------------------------------------------- access
    def __len__(self) -> int:
        base = self._base
        if base is None:
            return len(self._entries)
        return len(base._entries) - len(self._spent) + len(self._entries)

    def __contains__(self, outpoint: tuple[str, int]) -> bool:
        if outpoint in self._entries:
            return True
        base = self._base
        return base is not None and outpoint not in self._spent and outpoint in base._entries

    def get(self, outpoint: tuple[str, int]) -> Optional[UtxoEntry]:
        """The entry for an outpoint, or None if it is spent/unknown."""
        entry = self._entries.get(outpoint)
        if entry is None and self._base is not None and outpoint not in self._spent:
            return self._base._entries.get(outpoint)
        return entry

    def entries(self) -> Iterator[UtxoEntry]:
        """Iterate over all unspent entries."""
        own = iter(self._entries.values())
        base = self._base
        if base is None:
            return own
        spent = self._spent
        return chain(own, (e for op, e in base._entries.items() if op not in spent))

    def balance(self, address: str) -> int:
        """Total unspent value held by an address."""
        return sum(entry.value for entry in self._owned(address))

    def spendable_by(self, address: str) -> list[UtxoEntry]:
        """All unspent entries owned by an address, ordered by outpoint."""
        return sorted(self._owned(address), key=lambda e: e.outpoint)

    def total_value(self) -> int:
        """Sum of all unspent values in the ledger."""
        return sum(entry.value for entry in self.entries())

    # -------------------------------------------------------------- mutation
    def add(self, entry: UtxoEntry) -> None:
        """Add an unspent output.

        Raises:
            ValueError: if the outpoint already exists.
        """
        outpoint = entry.outpoint
        if outpoint in self:
            raise ValueError(f"outpoint {outpoint} is already unspent")
        self._own()
        self._entries[outpoint] = entry
        self._by_address.setdefault(entry.address, set()).add(outpoint)

    def remove(self, outpoint: tuple[str, int]) -> UtxoEntry:
        """Spend (remove) an outpoint.

        Raises:
            KeyError: if the outpoint is not unspent.
        """
        if outpoint in self._entries:
            self._own()
            entry = self._entries.pop(outpoint)
            owners = self._by_address.get(entry.address)
            if owners is not None:
                owners.discard(outpoint)
                if not owners:
                    del self._by_address[entry.address]
            return entry
        base = self._base
        if base is not None and outpoint not in self._spent:
            entry = base._entries.get(outpoint)
            if entry is not None:
                self._own()
                self._spent.add(outpoint)
                return entry
        raise KeyError(f"outpoint {outpoint} is not in the UTXO set")

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
        return all(tx_input.outpoint in self for tx_input in tx.inputs)

    def copy(self) -> "UtxoSet":
        """An independent set with the same entries, sharing tables until a write."""
        clone = UtxoSet.__new__(UtxoSet)
        clone._shares = self._shares
        clone._entries = self._entries
        clone._by_address = self._by_address
        clone._base = self._base
        clone._spent = self._spent
        # A set without a memo shares its tables with no other set, so the
        # memo it starts here is the one every set sharing them reads.
        if self._verdicts is None:
            self._verdicts = {}
        clone._verdicts = self._verdicts
        self._shares[0] += 1
        return clone

    # ---------------------------------------------------------------- verdicts
    def remember(self, tx: Transaction, key: object, verdict: Any) -> None:
        """Store ``verdict`` for this transaction object under ``key`` (the
        validator that reached it) until the next write to these entries."""
        if self._verdicts is None:
            self._verdicts = {}
        self._verdicts[tx.txid] = (tx, key, verdict)

    def recall(self, tx: Transaction, key: object) -> Any:
        """The verdict :meth:`remember` stored for this very transaction object
        and ``key`` since the last write, or None.

        Identity, not the txid, decides: a txid does not commit to the
        witnesses, so a transaction with a tampered signature has the same
        txid as the good one and must be judged on its own.
        """
        verdicts = self._verdicts
        hit = verdicts.get(tx.txid) if verdicts else None
        if hit is not None and hit[0] is tx and hit[1] is key:
            return hit[2]
        return None

    @staticmethod
    def from_transactions(transactions: Iterable[Transaction]) -> "UtxoSet":
        """Build a UTXO set by applying transactions in order."""
        utxo = UtxoSet()
        for tx in transactions:
            utxo.apply_transaction(tx)
        return utxo
