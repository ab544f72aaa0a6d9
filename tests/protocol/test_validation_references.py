"""In-place block apply and memoized witness checks against their references.

``TransactionValidator.apply_block`` validates a block on the ledger it will
advance and undoes what it applied when a transaction fails; the reference
is the copy-then-validate algorithm written out here.  ``validate_transaction``
reads the witness half of its checks from ``Transaction.witness_checks``; the
reference calls :func:`address_of_public_key` and :func:`verify_signature`
directly on every validation.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import transaction as transaction_module
from repro.protocol.block import Block, BlockHeader, merkle_root
from repro.protocol.crypto import KeyPair, address_of_public_key, sign, verify_signature
from repro.protocol.transaction import Transaction, TxInput, TxOutput
from repro.protocol.utxo import UtxoEntry, UtxoSet
from repro.protocol.validation import (
    TransactionValidator,
    ValidationError,
    ValidationResult,
)
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network

OWNER = KeyPair.generate("references-owner")
THIEF = KeyPair.generate("references-thief")
GENESIS = Block.genesis()
FUNDING = tuple(
    Transaction.coinbase(OWNER.address, 1_000, tag=f"references-{i}") for i in range(6)
)
#: Funding output no valid spend in a drawn block touches: invalid
#: transactions that need an unspent input use it.
SPARE = (FUNDING[5].txid, 0)
#: A ledger of 40 other owners' outputs, so ledger-size costs are non-trivial.
BACKGROUND = tuple(
    Transaction.coinbase(f"bystander-{i}", 10 + i, tag=f"references-bg-{i}") for i in range(40)
)


def fresh_ledger():
    """The ledger as of the parent block: a new set with no other owner."""
    return UtxoSet.from_transactions(FUNDING + BACKGROUND)


def ledger_state(utxo):
    """What a ledger answers through its public API, as comparable values.

    Every entry ``entries()`` yields must be found by ``in`` and ``get`` and
    counted once by ``len``.  ``spendable_by`` and ``balance`` are read for
    every owner it yields and for the two key holders, so an owner whose last
    output was spent is checked too.
    """
    entries = list(utxo.entries())
    by_outpoint = {entry.outpoint: entry for entry in entries}
    assert len(by_outpoint) == len(entries) == len(utxo)
    for outpoint, entry in by_outpoint.items():
        assert outpoint in utxo and utxo.get(outpoint) == entry
    owners = {entry.address for entry in entries} | {OWNER.address, THIEF.address}
    return by_outpoint, {a: (utxo.spendable_by(a), utxo.balance(a)) for a in sorted(owners)}


def sign_spend(keypair, outpoints, outputs):
    """Spend ``outpoints`` to ``(address, value)`` outputs, signed by
    ``keypair``, with no check that the inputs cover the outputs."""
    draft = Transaction(
        inputs=tuple(TxInput(txid, index) for txid, index in outpoints),
        outputs=tuple(TxOutput(value, address) for address, value in outputs),
    )
    signature = sign(keypair.private_key, draft.body())
    return Transaction(
        inputs=tuple(
            TxInput(txid, index, keypair.public_key, signature, keypair.private_key)
            for txid, index in outpoints
        ),
        outputs=draft.outputs,
    )


def with_input(tx, position, **changes):
    """``tx`` with the input at ``position`` rebuilt with some fields changed."""
    fields = vars(tx.inputs[position]) | changes
    inputs = list(tx.inputs)
    inputs[position] = TxInput(**fields)
    return Transaction(inputs=tuple(inputs), outputs=tx.outputs)


def reference_validate_transaction(validator, tx, utxo):
    """``validate_transaction`` with the witness computed afresh each call."""
    cost = validator.cost_model.transaction_cost_s(tx, len(utxo))
    if tx.is_coinbase:
        return ValidationResult(True, None, cost)
    total_in = 0
    seen = set()
    for tx_input in tx.inputs:
        if tx_input.outpoint in seen:
            return ValidationResult(False, ValidationError.DOUBLE_SPEND, cost)
        seen.add(tx_input.outpoint)
        entry = utxo.get(tx_input.outpoint)
        if entry is None:
            return ValidationResult(False, ValidationError.MISSING_INPUT, cost)
        if address_of_public_key(tx_input.public_key) != entry.address:
            return ValidationResult(False, ValidationError.WRONG_OWNER, cost)
        if not verify_signature(
            tx_input.public_key, tx_input.private_key_hint, tx.body(), tx_input.signature
        ):
            return ValidationResult(False, ValidationError.BAD_SIGNATURE, cost)
        total_in += entry.value
    if tx.total_output_value > total_in:
        return ValidationResult(False, ValidationError.VALUE_OVERSPEND, cost)
    return ValidationResult(True, None, cost)


def reference_validate_block(validator, block, parent, utxo):
    """The copy-then-validate algorithm, on an eagerly rebuilt working copy."""
    if block.previous_hash != parent.block_hash or block.height != parent.height + 1:
        return ValidationResult(False, ValidationError.BAD_PREVIOUS_BLOCK, 0.0)
    if block.header.merkle_root != merkle_root(block.transactions):
        return ValidationResult(False, ValidationError.BAD_MERKLE_ROOT, 0.0)
    working = UtxoSet()
    for entry in utxo.entries():
        working.add(entry)
    total_cost = 0.0
    for tx in block.transactions:
        result = reference_validate_transaction(validator, tx, working)
        total_cost += result.verification_cost_s
        if not result.valid:
            return ValidationResult(False, result.error, total_cost)
        working.apply_transaction(tx, block_hash=block.block_hash)
    return ValidationResult(True, None, total_cost)


#: The error each way of being invalid is reported as.  Re-spending an
#: output an earlier transaction of the block spent finds it missing.
INVALID_KINDS = {
    "missing": {ValidationError.MISSING_INPUT},
    "double-spend": {ValidationError.MISSING_INPUT, ValidationError.DOUBLE_SPEND},
    "wrong-owner": {ValidationError.WRONG_OWNER},
    "bad-signature": {ValidationError.BAD_SIGNATURE},
    "overspend": {ValidationError.VALUE_OVERSPEND},
}


def invalid_transaction(kind, earlier_spends):
    """One transaction that fails validation in the way ``kind`` names."""
    if kind == "missing":
        return sign_spend(OWNER, [("f" * 64, 0)], [("dest", 1)])
    if kind == "double-spend":
        if earlier_spends:  # re-spend an input an earlier transaction spent
            return sign_spend(OWNER, [earlier_spends[0].inputs[0].outpoint], [("dest", 1)])
        return sign_spend(OWNER, [SPARE, SPARE], [("dest", 1)])
    if kind == "wrong-owner":
        return sign_spend(THIEF, [SPARE], [("dest", 1)])
    if kind == "bad-signature":
        return with_input(sign_spend(OWNER, [SPARE], [("dest", 1)]), 0, signature="0" * 64)
    return sign_spend(OWNER, [SPARE], [("dest", 5_000)])  # overspend


def build_block(spend_count, chained, bad_kind=None, bad_position=0, *, height=None):
    """A coinbase, ``spend_count`` valid spends (each of a funding output,
    or of the previous spend's first output when ``chained``), and an
    invalid transaction of ``bad_kind`` after ``bad_position`` of them."""
    spends = []
    for j in range(spend_count):
        if chained and spends:
            outpoint, value = (spends[-1].txid, 0), spends[-1].outputs[0].value
        else:
            outpoint, value = (FUNDING[j].txid, 0), 1_000
        spends.append(
            sign_spend(OWNER, [outpoint], [(OWNER.address, value // 2), (f"dest-{j}", value // 4)])
        )
    body = list(spends)
    if bad_kind is not None:
        body.insert(bad_position, invalid_transaction(bad_kind, spends[:bad_position]))
    transactions = [Transaction.coinbase(OWNER.address, 50, tag="references-reward")] + body
    block = Block.create(GENESIS, transactions, timestamp=1.0, nonce=0, miner_id=0)
    if height is not None:
        block = Block(header=block.header, transactions=block.transactions, height=height)
    return block


blocks = st.tuples(
    st.integers(min_value=0, max_value=4), st.booleans(), st.sampled_from(sorted(INVALID_KINDS))
).flatmap(
    lambda drawn: st.tuples(
        st.just(drawn[0]),
        st.just(drawn[1]),
        st.just(drawn[2]),
        st.integers(min_value=0, max_value=drawn[0]),
    )
)


class TestApplyBlock:
    @given(drawn=blocks)
    @settings(max_examples=120, deadline=None)
    def test_invalid_block_matches_reference_and_leaves_ledger(self, drawn):
        """Whichever transaction fails and however, ``apply_block`` returns
        the reference's verdict, error and cost, and leaves both ledger
        tables as they were — in the same table objects, copying nothing."""
        spend_count, chained, kind, position = drawn
        block = build_block(spend_count, chained, kind, position)
        validator = TransactionValidator()
        expected = reference_validate_block(validator, block, GENESIS, fresh_ledger())
        assert not expected.valid and expected.error in INVALID_KINDS[kind]
        assert validator.validate_block(block, GENESIS, fresh_ledger()) == expected
        ledger = fresh_ledger()
        before, tables = ledger_state(ledger), ledger._entries
        assert validator.apply_block(block, GENESIS, ledger) == expected
        assert ledger_state(ledger) == before
        assert ledger._entries is tables

    @given(spend_count=st.integers(min_value=0, max_value=4), chained=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_valid_block_applies_like_validate_then_apply(self, spend_count, chained):
        block = build_block(spend_count, chained)
        validator = TransactionValidator()
        reference = fresh_ledger()
        expected = validator.validate_block(block, GENESIS, reference)
        assert expected == reference_validate_block(validator, block, GENESIS, fresh_ledger())
        assert expected.valid
        for tx in block.transactions:
            reference.apply_transaction(tx, block_hash=block.block_hash)
        ledger = fresh_ledger()
        tables = ledger._entries
        assert validator.apply_block(block, GENESIS, ledger) == expected
        assert ledger_state(ledger) == ledger_state(reference)
        assert ledger._entries is tables

    def test_wrong_height_rejected_and_ledger_unchanged(self):
        validator = TransactionValidator()
        for height in (GENESIS.height, GENESIS.height + 2):
            block = build_block(2, True, height=height)
            ledger = fresh_ledger()
            before = ledger_state(ledger)
            result = validator.apply_block(block, GENESIS, ledger)
            assert result == ValidationResult(False, ValidationError.BAD_PREVIOUS_BLOCK, 0.0)
            assert validator.validate_block(block, GENESIS, fresh_ledger()) == result
            assert ledger_state(ledger) == before

    def test_undo_reverses_apply(self):
        ledger = fresh_ledger()
        before = ledger_state(ledger)
        spend = sign_spend(OWNER, [SPARE], [(OWNER.address, 400), ("dest", 500)])
        spent = ledger.apply_transaction(spend, block_hash="b")
        assert spent == [UtxoEntry(SPARE[0], 0, 1_000, OWNER.address)]
        ledger.undo_transaction(spend, spent)
        assert ledger_state(ledger) == before

    def test_node_refuses_wrong_height_tip_extension(self):
        """Such a block used to pass validation and then make the chain
        raise; applied in place it would have advanced the ledger too."""
        simulated = build_network(NetworkParameters(node_count=4, seed=2))
        fund_nodes(list(simulated.nodes.values()), outputs_per_node=2)
        node = simulated.node(0)
        tip = node.blockchain.tip
        reward = Transaction.coinbase(node.keypair.address, 50, tag="wrong-height")
        header = BlockHeader(
            previous_hash=tip.block_hash,
            merkle_root=merkle_root([reward]),
            timestamp=1.0,
            nonce=0,
            miner_id=0,
        )
        block = Block(header=header, transactions=(reward,), height=tip.height + 2)
        before = ledger_state(node.utxo)
        assert not node.accept_block(block, origin_peer=None)
        assert node.blockchain.tip is tip
        assert ledger_state(node.utxo) == before


#: How a drawn input is tampered with (None: left as signed).
TAMPERINGS = (None, "hint", "signature", "public-key")


def tampered(tx, position, how):
    if how == "hint":
        return with_input(tx, position, private_key_hint=THIEF.private_key)
    if how == "signature":
        return with_input(tx, position, signature="0" * 64)
    if how == "public-key":
        return with_input(tx, position, public_key=THIEF.public_key)
    return tx


class TestWitnessMemo:
    @given(
        input_count=st.integers(min_value=1, max_value=3),
        position=st.integers(min_value=0, max_value=2),
        how=st.sampled_from(TAMPERINGS),
    )
    @settings(max_examples=60, deadline=None)
    def test_validation_matches_direct_crypto_reference(self, input_count, position, how):
        outpoints = [(funding.txid, 0) for funding in FUNDING[:input_count]]
        signed = sign_spend(OWNER, outpoints, [("dest", 100 * input_count)])
        tx = tampered(signed, position % input_count, how)
        validator = TransactionValidator()
        expected = reference_validate_transaction(validator, tx, fresh_ledger())
        assert expected.valid == (how is None)
        for _ in range(2):  # the second call reads the memo
            assert validator.validate_transaction(tx, fresh_ledger()) == expected

    def test_one_object_against_ledgers_that_disagree_about_its_owner(self):
        """The derived address is memoized; the owner verdict is not."""
        tx = sign_spend(OWNER, [SPARE], [("dest", 100)])
        owned, stolen = UtxoSet(), UtxoSet()
        owned.add(UtxoEntry(SPARE[0], 0, 1_000, OWNER.address))
        stolen.add(UtxoEntry(SPARE[0], 0, 1_000, THIEF.address))
        validator = TransactionValidator()
        for ledger, error in ((owned, None), (stolen, ValidationError.WRONG_OWNER), (owned, None)):
            result = validator.validate_transaction(tx, ledger)
            assert result == reference_validate_transaction(validator, tx, ledger)
            assert result.error is error

    def test_crypto_runs_once_per_transaction_object(self, monkeypatch):
        calls = []

        def counting_verify(*args):
            calls.append(args)
            return verify_signature(*args)

        monkeypatch.setattr(transaction_module, "verify_signature", counting_verify)
        outpoints = [(funding.txid, 0) for funding in FUNDING[:3]]
        tx = sign_spend(OWNER, outpoints, [("dest", 100)])
        validator = TransactionValidator()
        for _ in range(3):
            assert validator.validate_transaction(tx, fresh_ledger()).valid
        assert len(calls) == 3  # one per input, not per validation
        copy = pickle.loads(pickle.dumps(tx))
        assert copy == tx and copy.witness_checks == tx.witness_checks
        assert len(calls) == 3
