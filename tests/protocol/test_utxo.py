"""Tests for the UTXO ledger."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.block import Block
from repro.protocol.crypto import KeyPair
from repro.protocol.transaction import Transaction
from repro.protocol.utxo import UtxoEntry, UtxoSet
from repro.protocol.validation import TransactionValidator
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network


def entry(txid="t1", index=0, value=100, address="addr"):
    return UtxoEntry(txid=txid, index=index, value=value, address=address)


class TestUtxoSet:
    def test_add_and_lookup(self):
        utxo = UtxoSet()
        utxo.add(entry())
        assert ("t1", 0) in utxo
        assert utxo.get(("t1", 0)).value == 100
        assert len(utxo) == 1

    def test_duplicate_add_rejected(self):
        utxo = UtxoSet()
        utxo.add(entry())
        with pytest.raises(ValueError):
            utxo.add(entry())

    def test_remove_spends_entry(self):
        utxo = UtxoSet()
        utxo.add(entry())
        removed = utxo.remove(("t1", 0))
        assert removed.value == 100
        assert ("t1", 0) not in utxo

    def test_remove_missing_rejected(self):
        with pytest.raises(KeyError):
            UtxoSet().remove(("nope", 0))

    def test_balance_by_address(self):
        utxo = UtxoSet()
        utxo.add(entry(txid="a", value=100, address="alice"))
        utxo.add(entry(txid="b", value=250, address="alice"))
        utxo.add(entry(txid="c", value=999, address="bob"))
        assert utxo.balance("alice") == 350
        assert utxo.balance("bob") == 999
        assert utxo.balance("carol") == 0

    def test_spendable_by_sorted(self):
        utxo = UtxoSet()
        utxo.add(entry(txid="z", value=1, address="alice"))
        utxo.add(entry(txid="a", value=2, address="alice"))
        outpoints = [e.outpoint for e in utxo.spendable_by("alice")]
        assert outpoints == sorted(outpoints)

    def test_total_value(self):
        utxo = UtxoSet()
        utxo.add(entry(txid="a", value=10))
        utxo.add(entry(txid="b", value=20))
        assert utxo.total_value() == 30

    def test_balance_updates_after_removal(self):
        utxo = UtxoSet()
        utxo.add(entry(address="alice"))
        utxo.remove(("t1", 0))
        assert utxo.balance("alice") == 0


class TestApplyTransaction:
    def _setup(self):
        keypair = KeyPair.generate("wallet")
        coinbase = Transaction.coinbase(keypair.address, 1_000)
        utxo = UtxoSet()
        utxo.apply_transaction(coinbase)
        return keypair, coinbase, utxo

    def test_coinbase_creates_outputs(self):
        keypair, coinbase, utxo = self._setup()
        assert utxo.balance(keypair.address) == 1_000

    def test_spend_moves_value(self):
        keypair, coinbase, utxo = self._setup()
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("merchant", 400)])
        utxo.apply_transaction(tx)
        assert utxo.balance("merchant") == 400
        assert utxo.balance(keypair.address) == 600
        assert (coinbase.txid, 0) not in utxo

    def test_apply_missing_input_rejected(self):
        keypair, coinbase, utxo = self._setup()
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("merchant", 400)])
        utxo.apply_transaction(tx)
        with pytest.raises(KeyError):
            utxo.apply_transaction(tx)

    def test_can_apply_checks_inputs(self):
        keypair, coinbase, utxo = self._setup()
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("merchant", 400)])
        assert utxo.can_apply(tx)
        utxo.apply_transaction(tx)
        assert not utxo.can_apply(tx)

    def test_copy_is_independent(self):
        keypair, coinbase, utxo = self._setup()
        clone = utxo.copy()
        clone.remove((coinbase.txid, 0))
        assert (coinbase.txid, 0) in utxo
        assert (coinbase.txid, 0) not in clone

    def test_from_transactions_builder(self):
        keypair = KeyPair.generate("wallet")
        coinbase = Transaction.coinbase(keypair.address, 1_000)
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1000)], [("dest", 250)])
        utxo = UtxoSet.from_transactions([coinbase, tx])
        assert utxo.balance("dest") == 250
        assert utxo.balance(keypair.address) == 750

    @given(values=st.lists(st.integers(1, 10_000), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_total_value_conserved_by_spends_property(self, values):
        """Applying any chain of valid spends never changes total ledger value."""
        keypair = KeyPair.generate("wallet")
        utxo = UtxoSet()
        coinbases = [
            Transaction.coinbase(keypair.address, value, tag=str(i))
            for i, value in enumerate(values)
        ]
        for coinbase in coinbases:
            utxo.apply_transaction(coinbase)
        total_before = utxo.total_value()
        spend = Transaction.create_signed(
            keypair,
            [(coinbases[0].txid, 0, values[0])],
            [("merchant", max(1, values[0] // 2))],
        )
        utxo.apply_transaction(spend)
        assert utxo.total_value() == total_before


ADDRESSES = ("alice", "bob", "carol")
COW_KEYPAIR = KeyPair.generate("copy-on-write")

#: Operations on the ``index``-th live set (modulo the live count).
OPERATIONS = st.one_of(
    st.tuples(st.just("copy"), st.integers(0, 7)),
    st.tuples(st.just("drop"), st.integers(0, 7)),
    st.tuples(st.just("add"), st.integers(0, 7), st.sampled_from(ADDRESSES), st.integers(1, 999)),
    st.tuples(st.just("remove"), st.integers(0, 7), st.integers(0, 63)),
    st.tuples(st.just("spend"), st.integers(0, 7), st.integers(0, 63), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("mint"), st.integers(0, 7), st.sampled_from(ADDRESSES), st.integers(1, 999)),
)


def assert_matches(utxo, reference):
    """``utxo`` reads exactly like the eagerly copied ``reference`` dict."""
    assert len(utxo) == len(reference)
    assert sorted(entry.outpoint for entry in utxo.entries()) == sorted(reference)
    for outpoint, entry in reference.items():
        assert utxo.get(outpoint) == entry
    for address in ADDRESSES:
        owned = sorted(
            (e for e in reference.values() if e.address == address), key=lambda e: e.outpoint
        )
        assert utxo.spendable_by(address) == owned
        assert utxo.balance(address) == sum(e.value for e in owned)


class TestCopyOnWrite:
    @given(operations=st.lists(OPERATIONS, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_writes_match_eager_copies(self, operations):
        """Random apply/remove interleavings on a source and its clones leave
        every set equal to an eagerly copied reference, and no more tables
        are copied than ``copy()`` was called."""
        sets = [UtxoSet()]
        references: list = [{}]
        tags = itertools.count()
        copies = table_copies = 0
        for operation in operations:
            kind = operation[0]
            live = [i for i, utxo in enumerate(sets) if utxo is not None]
            index = live[operation[1] % len(live)]
            utxo, reference = sets[index], references[index]
            tables_before = utxo._entries
            if kind == "copy":
                sets.append(utxo.copy())
                references.append(dict(reference))
                copies += 1
            elif kind == "drop":
                if len(live) > 1:
                    sets[index] = references[index] = None
                    del utxo
                continue
            elif kind == "add":
                entry = UtxoEntry(
                    txid=f"t{next(tags)}", index=0, value=operation[3], address=operation[2]
                )
                utxo.add(entry)
                reference[entry.outpoint] = entry
            elif kind in ("remove", "spend"):
                if not reference:
                    continue
                outpoint = sorted(reference)[operation[2] % len(reference)]
                spent = reference[outpoint]
                if kind == "remove":
                    assert utxo.remove(outpoint) == reference.pop(outpoint)
                else:
                    tx = Transaction.create_signed(
                        COW_KEYPAIR,
                        [(spent.txid, spent.index, spent.value)],
                        [(operation[3], spent.value)],
                        created_at=float(next(tags)),
                    )
                    utxo.apply_transaction(tx, block_hash="b")
                    del reference[outpoint]
                    output = UtxoEntry(tx.txid, 0, spent.value, operation[3], "b")
                    reference[output.outpoint] = output
            else:  # mint
                tx = Transaction.coinbase(operation[2], operation[3], tag=str(next(tags)))
                utxo.apply_transaction(tx)
                reference[(tx.txid, 0)] = UtxoEntry(tx.txid, 0, operation[3], operation[2])
            if utxo._entries is not tables_before:
                table_copies += 1
            for each, expected in zip(sets, references):
                if each is not None:
                    assert_matches(each, expected)
        assert table_copies <= copies

    def test_scratch_copy_written_first_leaves_source_sole_owner(self):
        """``validate_block``'s scratch copy followed by the node's own tip
        apply costs one table copy, as the eager copy did."""
        keypair = KeyPair.generate("miner")
        genesis = Block.genesis()
        ledger = UtxoSet.from_transactions(genesis.transactions)
        block = Block.create(
            genesis,
            [Transaction.coinbase(keypair.address, 50, tag="reward")],
            timestamp=1.0,
            nonce=0,
            miner_id=0,
        )
        tables = ledger._entries
        assert TransactionValidator().validate_block(block, genesis, ledger).valid
        assert ledger._shares == [1]
        for tx in block.transactions:
            ledger.apply_transaction(tx, block_hash=block.block_hash)
        assert ledger._entries is tables
        assert ledger.balance(keypair.address) == 50

    def test_funding_shares_one_ledger_until_a_node_writes(self):
        simulated = build_network(NetworkParameters(node_count=12, seed=2))
        nodes = list(simulated.nodes.values())
        fund_nodes(nodes, outputs_per_node=2)
        assert len({id(node.utxo._entries) for node in nodes}) == 1
        assert nodes[0].utxo._shares[0] == len(nodes)
        writer, *others = nodes
        spent = writer.utxo.spendable_by(writer.keypair.address)[0]
        writer.utxo.remove(spent.outpoint)
        assert spent.outpoint not in writer.utxo
        assert all(spent.outpoint in node.utxo for node in others)
        assert others[0].utxo._shares[0] == len(others)
