"""Transaction and block validation, with an explicit verification-cost model.

The paper (after Decker & Wattenhofer) attributes much of the propagation
delay to the verification work a node performs before relaying: checking that
the coins are unspent against the (large) ledger and checking signatures.
``TransactionValidator`` therefore returns both a verdict *and* a simulated
CPU cost that the node layer turns into a relay delay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.protocol.block import Block, merkle_root
from repro.protocol.transaction import Transaction
from repro.protocol.utxo import UtxoSet


class ValidationError(enum.Enum):
    """Why a transaction or block was rejected."""

    MISSING_INPUT = "missing-input"
    DOUBLE_SPEND = "double-spend"
    BAD_SIGNATURE = "bad-signature"
    VALUE_OVERSPEND = "value-overspend"
    WRONG_OWNER = "wrong-owner"
    BAD_MERKLE_ROOT = "bad-merkle-root"
    BAD_PREVIOUS_BLOCK = "bad-previous-block"
    EMPTY_OUTPUTS = "empty-outputs"


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating a transaction or block."""

    valid: bool
    error: Optional[ValidationError] = None
    verification_cost_s: float = 0.0

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class VerificationCostModel:
    """Simulated CPU cost of validation.

    Attributes:
        base_cost_s: fixed per-transaction overhead (parsing, ledger lookup
            bookkeeping).
        per_input_cost_s: cost of one signature check + UTXO lookup.
        per_output_cost_s: cost of one output check.
        ledger_scaling: additional cost per 10,000 UTXO entries, modelling the
            paper's remark that "the transaction verification time still
            remains inefficient due to the size of the public ledger".
    """

    base_cost_s: float = 0.002
    per_input_cost_s: float = 0.0005
    per_output_cost_s: float = 0.0001
    ledger_scaling: float = 0.0005

    def transaction_cost_s(self, tx: Transaction, utxo_size: int) -> float:
        """Verification cost of one transaction against a ledger of ``utxo_size``."""
        ledger_term = self.ledger_scaling * (utxo_size / 10_000.0)
        return (
            self.base_cost_s
            + self.per_input_cost_s * len(tx.inputs)
            + self.per_output_cost_s * len(tx.outputs)
            + ledger_term
        )


class TransactionValidator:
    """Validates transactions against a UTXO set and blocks against a parent."""

    def __init__(self, cost_model: Optional[VerificationCostModel] = None) -> None:
        self.cost_model = cost_model if cost_model is not None else VerificationCostModel()

    def validate_transaction(self, tx: Transaction, utxo: UtxoSet) -> ValidationResult:
        """Full transaction check: inputs unspent, owned, signed, value-balanced.

        The ledger checks run on every call; the witness half (the address
        each public key derives, each signature's verdict) comes from
        :attr:`Transaction.witness_checks`, computed once per object.
        """
        cost = self.cost_model.transaction_cost_s(tx, len(utxo))
        if not tx.outputs:
            return ValidationResult(False, ValidationError.EMPTY_OUTPUTS, cost)
        if tx.is_coinbase:
            return ValidationResult(True, None, cost)

        total_in = 0
        seen_outpoints: set[tuple[str, int]] = set()
        for position, tx_input in enumerate(tx.inputs):
            if tx_input.outpoint in seen_outpoints:
                return ValidationResult(False, ValidationError.DOUBLE_SPEND, cost)
            seen_outpoints.add(tx_input.outpoint)
            entry = utxo.get(tx_input.outpoint)
            if entry is None:
                return ValidationResult(False, ValidationError.MISSING_INPUT, cost)
            derived_address, signature_ok = tx.witness_checks[position]
            if derived_address != entry.address:
                return ValidationResult(False, ValidationError.WRONG_OWNER, cost)
            if not signature_ok:
                return ValidationResult(False, ValidationError.BAD_SIGNATURE, cost)
            total_in += entry.value

        if tx.total_output_value > total_in:
            return ValidationResult(False, ValidationError.VALUE_OVERSPEND, cost)
        return ValidationResult(True, None, cost)

    def apply_block(self, block: Block, parent: Block, utxo: UtxoSet) -> ValidationResult:
        """Check a block against ``parent`` and apply it to ``utxo`` in place.

        ``utxo`` must be the ledger as of ``parent``.  Each transaction is
        applied as soon as it passes, so later ones can spend its outputs.
        On an invalid block ``utxo`` is left as it was: the transactions
        applied before the first invalid one are undone, newest first.
        """
        total_cost = 0.0
        if block.previous_hash != parent.block_hash or block.height != parent.height + 1:
            return ValidationResult(False, ValidationError.BAD_PREVIOUS_BLOCK, total_cost)
        if block.header.merkle_root != merkle_root(block.transactions):
            return ValidationResult(False, ValidationError.BAD_MERKLE_ROOT, total_cost)
        applied = []
        for tx in block.transactions:
            result = self.validate_transaction(tx, utxo)
            total_cost += result.verification_cost_s
            if not result.valid:
                for done, spent in reversed(applied):
                    utxo.undo_transaction(done, spent)
                return ValidationResult(False, result.error, total_cost)
            applied.append((tx, utxo.apply_transaction(tx, block_hash=block.block_hash)))
        return ValidationResult(True, None, total_cost)

    def validate_block(self, block: Block, parent: Block, utxo: UtxoSet) -> ValidationResult:
        """:meth:`apply_block` on a copy: ``utxo`` itself is not modified."""
        return self.apply_block(block, parent, utxo.copy())
