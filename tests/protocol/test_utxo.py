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
from repro.workloads.network_gen import (
    NetworkParameters,
    build_network,
    load_network,
    save_network,
)


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

    def test_a_view_cannot_be_a_base(self):
        view = UtxoSet(UtxoSet())
        with pytest.raises(ValueError):
            UtxoSet(view)


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

#: Where a property run starts: None for a flat, empty set, else a view over
#: a flat base holding one output per ``(address, value)``.
BASES = st.one_of(
    st.none(),
    st.lists(st.tuples(st.sampled_from(ADDRESSES), st.integers(1, 999)), max_size=12),
)

#: Operations on the ``index``-th live set (modulo the live count).
OPERATIONS = st.one_of(
    st.tuples(st.just("copy"), st.integers(0, 7)),
    st.tuples(st.just("drop"), st.integers(0, 7)),
    st.tuples(st.just("add"), st.integers(0, 7), st.sampled_from(ADDRESSES), st.integers(1, 999)),
    st.tuples(st.just("remove"), st.integers(0, 7), st.integers(0, 63)),
    st.tuples(st.just("spend"), st.integers(0, 7), st.integers(0, 63), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("mint"), st.integers(0, 7), st.sampled_from(ADDRESSES), st.integers(1, 999)),
    st.tuples(st.just("undo"), st.integers(0, 7)),
    st.tuples(st.just("refuse"), st.integers(0, 7), st.integers(0, 63)),
)


def assert_matches(utxo, reference, gone=()):
    """``utxo`` reads exactly like the eagerly copied ``reference`` dict, and
    holds none of the ``gone`` outpoints the reference lacks."""
    assert len(utxo) == len(reference)
    assert sorted(entry.outpoint for entry in utxo.entries()) == sorted(reference)
    for outpoint, entry in reference.items():
        assert outpoint in utxo
        assert utxo.get(outpoint) == entry
    for outpoint in gone:
        if outpoint not in reference:
            assert outpoint not in utxo
            assert utxo.get(outpoint) is None
    for address in ADDRESSES:
        owned = sorted(
            (e for e in reference.values() if e.address == address), key=lambda e: e.outpoint
        )
        assert utxo.spendable_by(address) == owned
        assert utxo.balance(address) == sum(e.value for e in owned)


class TestCopyOnWrite:
    @given(base=BASES, operations=st.lists(OPERATIONS, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_interleaved_writes_match_eager_copies(self, base, operations):
        """Random add/remove/spend/mint/undo interleavings on a flat set or a
        view over a random base, and on their clones, leave every set equal
        to an eagerly copied reference; the base never changes, an outpoint a
        set holds cannot be added again nor one it lacks removed, and no more
        tables are copied than ``copy()`` was called."""
        tags = itertools.count()
        ledger = None
        if base is not None:
            ledger = UtxoSet()
            for address, value in base:
                ledger.add(UtxoEntry(f"base{next(tags)}", 0, value, address))
        base_reference = {} if ledger is None else {e.outpoint: e for e in ledger.entries()}
        sets = [UtxoSet(ledger)]
        references: list = [dict(base_reference)]
        #: Per set, the applied ``(transaction, spent entries)``, newest last.
        undo_logs: list = [[]]
        seen = set(base_reference)
        copies = table_copies = 0
        for operation in operations:
            kind = operation[0]
            live = [i for i, utxo in enumerate(sets) if utxo is not None]
            index = live[operation[1] % len(live)]
            utxo, reference, undo_log = sets[index], references[index], undo_logs[index]
            tables_before = utxo._entries
            if kind == "copy":
                sets.append(utxo.copy())
                references.append(dict(reference))
                undo_logs.append(list(undo_log))
                copies += 1
            elif kind == "drop":
                if len(live) > 1:
                    sets[index] = references[index] = undo_logs[index] = None
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
                    assert utxo.apply_transaction(tx, block_hash="b") == [spent]
                    undo_log.append((tx, [spent]))
                    del reference[outpoint]
                    output = UtxoEntry(tx.txid, 0, spent.value, operation[3], "b")
                    reference[output.outpoint] = output
            elif kind == "mint":
                tx = Transaction.coinbase(operation[2], operation[3], tag=str(next(tags)))
                assert utxo.apply_transaction(tx) == []
                undo_log.append((tx, []))
                reference[(tx.txid, 0)] = UtxoEntry(tx.txid, 0, operation[3], operation[2])
            elif kind == "undo":
                if not undo_log:
                    continue
                tx, spent = undo_log.pop()
                outputs = [(tx.txid, i) for i in range(len(tx.outputs))]
                if not all(op in reference for op in outputs):
                    continue  # a later write spent an output: no longer undoable
                utxo.undo_transaction(tx, spent)
                for outpoint in outputs:
                    del reference[outpoint]
                reference.update((entry.outpoint, entry) for entry in spent)
            else:  # refuse
                if not seen:
                    continue
                outpoint = sorted(seen)[operation[2] % len(seen)]
                if outpoint in reference:
                    with pytest.raises(ValueError):
                        utxo.add(reference[outpoint])
                else:
                    with pytest.raises(KeyError):
                        utxo.remove(outpoint)
            if utxo._entries is not tables_before:
                table_copies += 1
            seen.update(reference)
            for each, expected in zip(sets, references):
                if each is not None:
                    assert_matches(each, expected, seen)
            if ledger is not None:
                assert_matches(ledger, base_reference)
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
        # A flat ledger carries no spent-outpoint table.
        assert all(node.utxo._base is None and node.utxo._spent is None for node in nodes)
        funding = fund_nodes(nodes, outputs_per_node=2)
        # The funding block's registered ledger is the one other sharer.
        registered = nodes[0].blockchain.index.ledger(funding)
        assert len({id(node.utxo._entries) for node in nodes} | {id(registered._entries)}) == 1
        assert nodes[0].utxo._shares[0] == len(nodes) + 1
        writer, *others = nodes
        spent = writer.utxo.spendable_by(writer.keypair.address)[0]
        writer.utxo.remove(spent.outpoint)
        assert spent.outpoint not in writer.utxo
        assert all(spent.outpoint in node.utxo for node in others)
        assert spent.outpoint in registered
        assert others[0].utxo._shares[0] == len(others) + 1


class TestVerdictMemo:
    """A verdict remembered on a ledger serves every set sharing its tables,
    for the same transaction object and key, until a write."""

    def ledger_and_payment(self):
        keypair = KeyPair.generate("memo")
        coinbase = Transaction.coinbase(keypair.address, 1_000, tag="memo")
        ledger = UtxoSet.from_transactions([coinbase])
        tx = Transaction.create_signed(keypair, [(coinbase.txid, 0, 1_000)], [("payee", 900)])
        return ledger, tx

    def test_recall_needs_the_same_object_and_key(self):
        ledger, tx = self.ledger_and_payment()
        key, verdict = object(), ("valid", 100)
        assert ledger.recall(tx, key) is None
        ledger.remember(tx, key, verdict)
        assert ledger.recall(tx, key) is verdict
        assert ledger.recall(tx, object()) is None
        twin = Transaction(inputs=tx.inputs, outputs=tx.outputs, created_at=tx.created_at)
        assert twin.txid == tx.txid and twin == tx
        assert ledger.recall(twin, key) is None

    def test_a_write_ends_the_memo_for_the_writer_only(self):
        ledger, tx = self.ledger_and_payment()
        key = object()
        ledger.remember(tx, key, "verdict")
        reader, writer = ledger.copy(), ledger.copy()
        assert reader.recall(tx, key) == writer.recall(tx, key) == "verdict"
        writer.add(entry(txid="other"))
        assert writer.recall(tx, key) is None
        assert ledger.recall(tx, key) == reader.recall(tx, key) == "verdict"
        # A sole owner's write clears the memo it kept.
        alone, _ = self.ledger_and_payment()
        alone.remember(tx, key, "verdict")
        assert alone._shares == [1]
        alone.add(entry(txid="other"))
        assert alone.recall(tx, key) is None

    def test_undoing_a_write_does_not_bring_the_memo_back(self):
        ledger, tx = self.ledger_and_payment()
        key = object()
        ledger.remember(tx, key, "verdict")
        spent = ledger.apply_transaction(tx)
        ledger.undo_transaction(tx, spent)
        assert ledger.recall(tx, key) is None


def genesis_replay(blocks):
    """The flat ledger implied by ``blocks`` (genesis first): the reference."""
    utxo = UtxoSet()
    for block in blocks:
        for tx in block.transactions:
            utxo.apply_transaction(tx, block_hash=block.block_hash)
    return utxo


def ledger_dict(utxo):
    """A ledger's entries by outpoint."""
    return {entry.outpoint: entry for entry in utxo.entries()}


def spend_funding(node, output, to_address, value, created_at):
    """A transaction from ``node``'s wallet paying ``value`` of ``output``."""
    return Transaction.create_signed(
        node.keypair,
        [(output.txid, output.index, output.value)],
        [(to_address, value)],
        created_at=created_at,
    )


def funding_checkpoint(node, funding):
    """The flat funding ledger: the base of the view ``fund_nodes`` registers
    as the ledger of (the node's own object for) the funding block."""
    block = node.blockchain.get_block(funding.block_hash)
    registered = node.blockchain.index.ledger(block)
    assert registered is not None and registered._base is not None
    return registered._base


class TestFundingCheckpoint:
    """``fund_nodes`` registers a view over one flat funding ledger per
    network as the funding block's ledger; every node's ledger views the flat
    ledger, and replays of a funded chain start from it."""

    def funded(self, node_count=6, outputs_per_node=3):
        simulated = build_network(NetworkParameters(node_count=node_count, seed=2))
        nodes = [simulated.node(node_id) for node_id in simulated.node_ids()]
        funding = fund_nodes(nodes, outputs_per_node=outputs_per_node)
        return simulated, nodes, funding

    def test_replays_of_a_funded_chain_start_from_the_checkpoint(self, monkeypatch):
        _, nodes, funding = self.funded()
        chain = nodes[0].blockchain
        checkpoint = funding_checkpoint(nodes[0], funding)
        before = ledger_dict(checkpoint)
        assert before == ledger_dict(genesis_replay(chain.best_chain()))
        first, second = nodes[0], nodes[1]
        paid = first.utxo.spendable_by(first.keypair.address)
        b1 = Block.create(
            funding,
            [
                Transaction.coinbase(first.keypair.address, 50, tag="b1"),
                spend_funding(first, paid[0], second.keypair.address, 400, 1.0),
            ],
            timestamp=1.0,
            nonce=1,
            miner_id=0,
        )
        b2 = Block.create(
            b1,
            [spend_funding(first, paid[1], second.keypair.address, 300, 2.0)],
            timestamp=2.0,
            nonce=2,
            miner_id=0,
        )
        side = Block.create(
            funding,
            [spend_funding(first, paid[0], first.keypair.address, 900, 3.0)],
            timestamp=3.0,
            nonce=3,
            miner_id=1,
        )
        for block in (b1, b2, side):
            chain.add_block(block)
        applied = []
        original = UtxoSet.apply_transaction

        def recording(self, tx, *, block_hash=None):
            applied.append(tx.txid)
            return original(self, tx, block_hash=block_hash)

        monkeypatch.setattr(UtxoSet, "apply_transaction", recording)
        replays = [(chain.utxo_set(), b2)] + [
            (chain.utxo_as_of(block.block_hash), block) for block in (funding, b1, b2, side)
        ]
        monkeypatch.undo()
        # Only the blocks above the checkpoint are applied: not the funding
        # block, not genesis.
        above = {funding: [], b1: [b1], b2: [b1, b2], side: [side]}
        assert applied == [
            tx.txid
            for _, block in replays
            for applied_block in above[block]
            for tx in applied_block.transactions
        ]
        gone = set(ledger_dict(checkpoint))
        for utxo, block in replays:
            expected = genesis_replay(chain.chain_to(block.block_hash))
            assert_matches(utxo, ledger_dict(expected), gone)
            for address in (first.keypair.address, second.keypair.address):
                assert utxo.spendable_by(address) == expected.spendable_by(address)
                assert utxo.balance(address) == expected.balance(address)
        assert ledger_dict(checkpoint) == before

    def test_blocks_and_reorgs_never_write_the_checkpoint(self):
        _, nodes, funding = self.funded(node_count=4, outputs_per_node=2)
        checkpoint = funding_checkpoint(nodes[0], funding)
        before = ledger_dict(checkpoint)
        owner = nodes[0]
        paid = owner.utxo.spendable_by(owner.keypair.address)
        tip = Block.create(
            funding,
            [spend_funding(owner, paid[0], nodes[1].keypair.address, 10, 1.0)],
            timestamp=1.0,
            nonce=1,
            miner_id=0,
        )
        branch = [
            Block.create(
                funding,
                [spend_funding(owner, paid[0], nodes[2].keypair.address, 20, 2.0)],
                timestamp=2.0,
                nonce=2,
                miner_id=1,
            )
        ]
        branch.append(
            Block.create(
                branch[0],
                [Transaction.coinbase(nodes[3].keypair.address, 50, tag="branch-2")],
                timestamp=3.0,
                nonce=3,
                miner_id=1,
            )
        )
        for node in nodes:
            for block in (tip, *branch):
                assert node.accept_block(block, origin_peer=None)
            assert node.blockchain.tip is branch[-1]
            expected = genesis_replay(node.blockchain.best_chain())
            assert ledger_dict(node.utxo) == ledger_dict(expected)
        assert ledger_dict(checkpoint) == before
        assert all(node.utxo._base is checkpoint for node in nodes)

    def test_funded_network_survives_a_snapshot_round_trip(self, tmp_path):
        simulated, _, funding = self.funded(node_count=5, outputs_per_node=2)
        loaded = load_network(save_network(simulated, tmp_path / "funded.pkl"))
        nodes = [loaded.node(node_id) for node_id in loaded.node_ids()]
        checkpoint = funding_checkpoint(nodes[0], funding)
        for node in nodes:
            assert funding_checkpoint(node, funding) is checkpoint
            assert node.utxo._base is checkpoint
        # The views still share one set of empty tables; each spend below
        # writes a node's own copy of them, never the checkpoint.
        assert len({id(node.utxo._spent) for node in nodes}) == 1
        payer, payee = nodes[0], nodes[1]
        paid = payer.utxo.spendable_by(payer.keypair.address)[0]
        payee_balance = payee.balance()
        block = Block.create(
            payer.blockchain.tip,
            [spend_funding(payer, paid, payee.keypair.address, paid.value, 1.0)],
            timestamp=1.0,
            nonce=1,
            miner_id=0,
        )
        for node in nodes:
            assert node.accept_block(block, origin_peer=None)
            assert paid.outpoint not in node.utxo
            expected = genesis_replay(node.blockchain.best_chain())
            assert ledger_dict(node.utxo) == ledger_dict(expected)
        assert payee.balance() == payee_balance + paid.value
        assert paid.outpoint in checkpoint
