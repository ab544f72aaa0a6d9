"""Tests for the crypto stand-in and the transaction model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.crypto import (
    KeyPair,
    address_of_public_key,
    double_sha256_hex,
    sha256_hex,
    sign,
    verify_signature,
)
from repro.protocol.transaction import Transaction, TxInput, TxOutput


class TestCrypto:
    def test_sha256_is_deterministic(self):
        assert sha256_hex("hello") == sha256_hex("hello")

    def test_sha256_accepts_bytes_and_str(self):
        assert sha256_hex("abc") == sha256_hex(b"abc")

    def test_double_sha256_differs_from_single(self):
        assert double_sha256_hex("abc") != sha256_hex("abc")

    def test_keypair_generation_deterministic(self):
        assert KeyPair.generate("seed-1") == KeyPair.generate("seed-1")

    def test_different_seeds_give_different_keys(self):
        assert KeyPair.generate("seed-1") != KeyPair.generate("seed-2")

    def test_address_derives_from_public_key(self):
        keypair = KeyPair.generate("wallet")
        assert address_of_public_key(keypair.public_key) == keypair.address

    def test_valid_signature_verifies(self):
        keypair = KeyPair.generate("wallet")
        signature = sign(keypair.private_key, "message")
        assert verify_signature(keypair.public_key, keypair.private_key, "message", signature)

    def test_signature_fails_for_wrong_message(self):
        keypair = KeyPair.generate("wallet")
        signature = sign(keypair.private_key, "message")
        assert not verify_signature(keypair.public_key, keypair.private_key, "other", signature)

    def test_signature_fails_for_wrong_key(self):
        owner = KeyPair.generate("owner")
        thief = KeyPair.generate("thief")
        forged = sign(thief.private_key, "message")
        assert not verify_signature(owner.public_key, thief.private_key, "message", forged)

    @given(seed=st.text(min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_keypair_components_distinct_property(self, seed):
        keypair = KeyPair.generate(seed)
        assert keypair.private_key != keypair.public_key
        assert keypair.address != keypair.public_key


class TestTxOutputsInputs:
    def test_negative_output_rejected(self):
        with pytest.raises(ValueError):
            TxOutput(value=-1, address="a")

    def test_empty_address_rejected(self):
        with pytest.raises(ValueError):
            TxOutput(value=1, address="")

    def test_input_outpoint(self):
        tx_input = TxInput(prev_txid="abc", prev_index=2)
        assert tx_input.outpoint == ("abc", 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            TxInput(prev_txid="abc", prev_index=-1)

    def test_empty_prev_txid_rejected(self):
        with pytest.raises(ValueError):
            TxInput(prev_txid="", prev_index=0)


class TestTransaction:
    def _funded_keypair(self):
        keypair = KeyPair.generate("wallet")
        coinbase = Transaction.coinbase(keypair.address, 1_000)
        return keypair, coinbase

    def test_requires_outputs(self):
        with pytest.raises(ValueError):
            Transaction(inputs=(TxInput("a", 0),), outputs=())

    def test_non_coinbase_requires_inputs(self):
        with pytest.raises(ValueError):
            Transaction(inputs=(), outputs=(TxOutput(1, "a"),))

    def test_coinbase_needs_no_real_inputs(self):
        coinbase = Transaction.coinbase("addr", 500)
        assert coinbase.is_coinbase
        assert coinbase.total_output_value == 500

    def test_coinbase_tags_produce_distinct_ids(self):
        a = Transaction.coinbase("addr", 500, tag="1")
        b = Transaction.coinbase("addr", 500, tag="2")
        assert a.txid != b.txid

    def test_txid_stable_and_content_addressed(self):
        keypair, coinbase = self._funded_keypair()
        tx1 = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest", 400)])
        tx2 = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest", 400)])
        assert tx1.txid == tx2.txid

    def test_different_destination_changes_txid(self):
        keypair, coinbase = self._funded_keypair()
        tx1 = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest-a", 400)])
        tx2 = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest-b", 400)])
        assert tx1.txid != tx2.txid

    def test_change_output_returns_excess(self):
        keypair, coinbase = self._funded_keypair()
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest", 400)])
        assert tx.total_output_value == 1000
        change = [o for o in tx.outputs if o.address == keypair.address]
        assert change and change[0].value == 600

    def test_fee_comes_out_of_the_change_to_the_sender(self):
        keypair, coinbase = self._funded_keypair()
        tx = Transaction.create_signed(
            keypair, [(coinbase.txid, 0, 1000)], [("dest", 400)], fee=100
        )
        assert [(o.address, o.value) for o in tx.outputs] == [
            ("dest", 400),
            (keypair.address, 500),
        ]
        assert tx.total_output_value == 900

    def test_exact_spend_has_no_change(self):
        keypair, coinbase = self._funded_keypair()
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest", 1000)])
        assert len(tx.outputs) == 1

    def test_overspend_rejected(self):
        keypair, coinbase = self._funded_keypair()
        with pytest.raises(ValueError):
            Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest", 2000)])

    def test_empty_spendable_rejected(self):
        keypair = KeyPair.generate("wallet")
        with pytest.raises(ValueError):
            Transaction.create_signed(keypair, [], [("dest", 1)])

    def test_conflict_detection(self):
        keypair, coinbase = self._funded_keypair()
        tx1 = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("merchant", 900)])
        tx2 = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("attacker", 900)])
        assert tx1.conflicts_with(tx2)
        assert tx2.conflicts_with(tx1)

    def test_non_conflicting_transactions(self):
        keypair = KeyPair.generate("wallet")
        c1 = Transaction.coinbase(keypair.address, 1000, tag="1")
        c2 = Transaction.coinbase(keypair.address, 1000, tag="2")
        tx1 = Transaction.create_signed(keypair, [(c1.txid, 0, 1000)], [("x", 500)])
        tx2 = Transaction.create_signed(keypair, [(c2.txid, 0, 1000)], [("y", 500)])
        assert not tx1.conflicts_with(tx2)

    def test_spends_lookup(self):
        keypair, coinbase = self._funded_keypair()
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest", 100)])
        assert tx.spends((coinbase.txid, 0))
        assert not tx.spends((coinbase.txid, 1))

    def test_size_scales_with_inputs_and_outputs(self):
        keypair = KeyPair.generate("wallet")
        c1 = Transaction.coinbase(keypair.address, 1000, tag="1")
        c2 = Transaction.coinbase(keypair.address, 1000, tag="2")
        small = Transaction.create_signed(keypair, [(c1.txid, 0, 1000)], [("x", 1000)])
        large = Transaction.create_signed(
            keypair, [(c1.txid, 0, 1000), (c2.txid, 0, 1000)], [("x", 500), ("y", 700)]
        )
        assert large.size_bytes > small.size_bytes

    @given(value=st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_value_conservation_property(self, value):
        """Outputs (payment + change) always sum to the spent inputs."""
        keypair = KeyPair.generate("wallet")
        coinbase = Transaction.coinbase(keypair.address, value)
        pay = value // 2 if value > 1 else 1
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, value)], [("dest", pay)])
        assert tx.total_output_value == value
