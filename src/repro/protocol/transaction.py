"""Transactions: inputs, outputs, identifiers and signing.

Section III of the paper: a transaction claims Bitcoins from previous
transaction outputs (its *inputs*) and reassigns them to destination addresses
(its *outputs*); the sum of outputs must not exceed the sum of inputs, and the
transaction is signed by the owner of the spent outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.protocol.crypto import (
    KeyPair,
    address_of_public_key,
    double_sha256_hex,
    sign,
    verify_signature,
)

#: Rough serialized byte cost of transaction parts; used for wire sizing.
TX_BASE_BYTES = 10
TX_INPUT_BYTES = 148
TX_OUTPUT_BYTES = 34


@dataclass(frozen=True)
class TxOutput:
    """A transaction output assigning ``value`` satoshi to ``address``."""

    value: int
    address: str

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"output value cannot be negative, got {self.value}")
        if not self.address:
            raise ValueError("output address cannot be empty")


@dataclass(frozen=True)
class TxInput:
    """A reference to a previous output being spent.

    Attributes:
        prev_txid: id of the transaction holding the output being spent.
        prev_index: index of that output within its transaction.
        public_key: public key of the spender (must hash to the output's
            address).
        signature: witness signature over the spending transaction body.
        private_key_hint: simulation-only witness material; see
            :mod:`repro.protocol.crypto`.
    """

    prev_txid: str
    prev_index: int
    public_key: str = ""
    signature: str = ""
    private_key_hint: str = ""

    def __post_init__(self) -> None:
        if self.prev_index < 0:
            raise ValueError(f"prev_index cannot be negative, got {self.prev_index}")
        if not self.prev_txid:
            raise ValueError("prev_txid cannot be empty")

    @property
    def outpoint(self) -> tuple[str, int]:
        """The ``(txid, index)`` pair identifying the spent output."""
        return (self.prev_txid, self.prev_index)


@dataclass(frozen=True)
class Transaction:
    """A Bitcoin transaction.

    The transaction id is the double SHA-256 of its canonical body (inputs'
    outpoints plus outputs), which means two transactions spending the same
    outputs to different destinations — a double-spend pair — get different
    ids, exactly the situation the paper's motivation section describes.
    """

    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    created_at: float = 0.0
    is_coinbase: bool = False
    #: Transaction id (double SHA-256 of the canonical body), set once by
    #: ``__post_init__``: a plain attribute, read on every relay step.
    txid: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ValueError("a transaction must have at least one output")
        if not self.is_coinbase and not self.inputs:
            raise ValueError("a non-coinbase transaction must have at least one input")
        # Inputs/outputs are immutable, so the body and id can be computed once.
        input_part = "|".join(f"{i.prev_txid}:{i.prev_index}" for i in self.inputs)
        output_part = "|".join(f"{o.address}:{o.value}" for o in self.outputs)
        coinbase_part = "coinbase" if self.is_coinbase else "normal"
        body = f"{coinbase_part}#{input_part}#{output_part}"
        object.__setattr__(self, "_body", body)
        object.__setattr__(self, "txid", double_sha256_hex(body))

    # ------------------------------------------------------------------- ids
    def body(self) -> str:
        """Canonical serialisation of the signed portion of the transaction."""
        return self._body  # type: ignore[attr-defined]

    @cached_property
    def witness_checks(self) -> tuple[tuple[str, bool], ...]:
        """Per input: the address its public key derives, and whether its
        signature verifies over :meth:`body`.

        Both depend only on the transaction's frozen fields, so they are
        computed once per object however many nodes (and blocks) validate
        it; only the comparison with the ledger's owner is per validation.
        """
        body = self.body()
        return tuple(
            (
                address_of_public_key(i.public_key),
                verify_signature(i.public_key, i.private_key_hint, body, i.signature),
            )
            for i in self.inputs
        )

    # ----------------------------------------------------------------- sizes
    @property
    def size_bytes(self) -> int:
        """Approximate serialized size used for wire-delay accounting."""
        return TX_BASE_BYTES + TX_INPUT_BYTES * len(self.inputs) + TX_OUTPUT_BYTES * len(self.outputs)

    # ---------------------------------------------------------------- values
    @property
    def total_output_value(self) -> int:
        """Sum of all output values in satoshi."""
        return sum(o.value for o in self.outputs)

    def spends(self, outpoint: tuple[str, int]) -> bool:
        """Whether this transaction spends the given ``(txid, index)``."""
        return any(i.outpoint == outpoint for i in self.inputs)

    def conflicts_with(self, other: "Transaction") -> bool:
        """True if the two transactions spend at least one common output."""
        mine = {i.outpoint for i in self.inputs}
        theirs = {i.outpoint for i in other.inputs}
        return bool(mine & theirs)

    # --------------------------------------------------------------- signing
    @staticmethod
    def create_signed(
        keypair: KeyPair,
        spendable: Sequence[tuple[str, int, int]],
        destinations: Sequence[tuple[str, int]],
        *,
        created_at: float = 0.0,
        fee: int = 0,
    ) -> "Transaction":
        """Build and sign a transaction.

        Args:
            keypair: key owning every spent output.
            spendable: ``(prev_txid, prev_index, value)`` triples to spend.
            destinations: ``(address, value)`` pairs to pay.
            created_at: simulated creation time.
            fee: satoshi left unclaimed by the outputs (a miner fee, as in
                real Bitcoin: fee = inputs - outputs).  The fee comes out of
                the change output, which pays any excess input value back to
                the sender's own address, so ``fee=0`` produces a
                byte-identical transaction to the pre-fee code path.

        Raises:
            ValueError: if the destinations plus fee exceed the spendable value.
        """
        if not spendable:
            raise ValueError("cannot create a transaction with no spendable outputs")
        if fee < 0:
            raise ValueError(f"fee cannot be negative, got {fee}")
        total_in = sum(value for _, _, value in spendable)
        total_out = sum(value for _, value in destinations)
        if total_out + fee > total_in:
            raise ValueError(
                f"outputs ({total_out}) plus fee ({fee}) exceed spendable inputs ({total_in})"
            )
        outputs = [TxOutput(value=value, address=address) for address, value in destinations]
        change = total_in - total_out - fee
        if change > 0:
            outputs.append(TxOutput(value=change, address=keypair.address))
        unsigned_inputs = tuple(
            TxInput(prev_txid=txid, prev_index=index) for txid, index, _ in spendable
        )
        draft = Transaction(
            inputs=unsigned_inputs,
            outputs=tuple(outputs),
            created_at=created_at,
        )
        signature = sign(keypair.private_key, draft.body())
        signed_inputs = tuple(
            TxInput(
                prev_txid=txid,
                prev_index=index,
                public_key=keypair.public_key,
                signature=signature,
                private_key_hint=keypair.private_key,
            )
            for txid, index, _ in spendable
        )
        return Transaction(
            inputs=signed_inputs,
            outputs=tuple(outputs),
            created_at=created_at,
        )

    @staticmethod
    def coinbase(address: str, value: int, *, created_at: float = 0.0, tag: str = "") -> "Transaction":
        """Create a coinbase transaction minting ``value`` satoshi to ``address``.

        The ``tag`` disambiguates coinbases paying the same address and value
        (like the real protocol's extra-nonce); it is folded into a synthetic
        input reference so the txid differs.
        """
        synthetic_input = TxInput(prev_txid=f"coinbase:{tag or address}", prev_index=0)
        return Transaction(
            inputs=(synthetic_input,),
            outputs=(TxOutput(value=value, address=address),),
            created_at=created_at,
            is_coinbase=True,
        )
