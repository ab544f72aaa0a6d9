"""Property and regression tests for fee-priority mempool economics.

The fee-priority :class:`~repro.protocol.mempool.Mempool` promises:

* a full pool only ever trades *up* — nothing that was dropped (rejected at
  capacity or fee-evicted) ever out-bids anything that was kept;
* capacity is a hard invariant, never exceeded mid-add;
* eviction order is a pure function of the add sequence (deterministic
  across identical replays — the worker-count-invariance prerequisite);
* the sorted eviction index evicts exactly what a ``min`` over every pending
  transaction would, through any interleaving of mutations;
* the PR-7 re-offer contract extends to fee evictions: a node that evicts a
  transaction forgets its txid, so a later INV can re-offer it.

Hypothesis drives the first four over arbitrary fee/size sequences; the
re-offer path is an end-to-end node test mirroring the capacity-drop one.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.crypto import KeyPair
from repro.protocol.mempool import Mempool
from repro.protocol.messages import InvMessage, InventoryType, TxMessage
from repro.protocol.mining import MiningProcess, equal_hash_power
from repro.protocol.node import NodeConfig
from repro.protocol.transaction import Transaction
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network

#: One add: (fee in satoshi, extra outputs beyond the change output).
add_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5_000), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=12,
)
capacities = st.integers(min_value=1, max_value=5)

_WALLET = KeyPair.generate("fee-props-wallet")


def make_transactions(specs):
    """One independent (conflict-free) signed tx per spec, plus its fee."""
    txs = []
    for index, (fee, extra_outputs) in enumerate(specs):
        coinbase = Transaction.coinbase(
            _WALLET.address, 1_000_000, tag=f"fees-{index}"
        )
        destinations = [(f"dest-{j}", 100) for j in range(extra_outputs)]
        tx = Transaction.create_signed(
            _WALLET, [(coinbase.txid, 0, 1_000_000)], destinations, fee=fee
        )
        txs.append((tx, fee))
    return txs


def replay(pool, txs):
    """Feed every tx through ``add`` and log what happened, in order."""
    events = []
    for arrival, (tx, fee) in enumerate(txs):
        added = pool.add(tx, arrival_time=float(arrival), fee=fee)
        events.append((tx.txid, added, tuple(t.txid for t in pool.last_evicted)))
    return events


class TestFeePriorityProperties:
    @given(capacity=capacities, specs=add_specs)
    @settings(max_examples=60, deadline=None)
    def test_dropped_never_outbids_kept(self, capacity, specs):
        """Whatever the pool dropped has a feerate no higher than anything it
        kept — the pool only ever trades up."""
        txs = make_transactions(specs)
        pool = Mempool(max_size=capacity)
        events = replay(pool, txs)
        feerate = {tx.txid: fee / tx.size_bytes for tx, fee in txs}
        dropped = [txid for txid, added, _ in events if not added]
        dropped += [txid for _, _, evicted in events for txid in evicted]
        kept = [tx.txid for tx, _ in txs if tx.txid in pool]
        for dropped_txid in dropped:
            for kept_txid in kept:
                assert feerate[dropped_txid] <= feerate[kept_txid] + 1e-12

    @given(capacity=capacities, specs=add_specs)
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, capacity, specs):
        pool = Mempool(max_size=capacity)
        for arrival, (tx, fee) in enumerate(make_transactions(specs)):
            pool.add(tx, arrival_time=float(arrival), fee=fee)
            assert len(pool) <= capacity
            assert pool.is_full() == (len(pool) >= capacity)

    @given(capacity=capacities, specs=add_specs)
    @settings(max_examples=60, deadline=None)
    def test_replay_is_deterministic(self, capacity, specs):
        """Identical add sequences produce identical admissions and identical
        eviction order — no dict-order or set-order nondeterminism."""
        txs = make_transactions(specs)
        first = replay(Mempool(max_size=capacity), txs)
        second = replay(Mempool(max_size=capacity), txs)
        assert first == second

    @given(capacity=capacities, specs=add_specs)
    @settings(max_examples=60, deadline=None)
    def test_selection_order_is_feerate_then_arrival(self, capacity, specs):
        """``select_for_block`` returns non-increasing feerates, ties oldest
        first — the order ``BlockTemplate`` packs."""
        pool = Mempool(max_size=capacity)
        replay(pool, make_transactions(specs))
        selected = pool.select_for_block(capacity)
        keys = [
            (-pool.feerate(tx.txid), pool.arrival_time(tx.txid)) for tx in selected
        ]
        assert keys == sorted(keys)

    @given(specs=add_specs)
    @settings(max_examples=40, deadline=None)
    def test_zero_fee_pool_keeps_legacy_reject_at_capacity(self, specs):
        """All-zero fees reproduce the pre-fee behaviour exactly: first-come
        stays, later arrivals are rejected without eviction."""
        capacity = 2
        txs = make_transactions([(0, extra) for _, extra in specs])
        pool = Mempool(max_size=capacity)
        events = replay(pool, txs)
        for index, (txid, added, evicted) in enumerate(events):
            assert added == (index < capacity)
            assert evicted == ()


class ReferencePool:
    """Brute-force model of the fee-priority pool: a dict of pending
    transactions, with every eviction found by ``min`` over all of them."""

    def __init__(self, max_size):
        self.max_size = max_size
        self.entries = {}  # txid -> (tx, arrival_time, fee)
        self.last_evicted = ()

    def key(self, txid):
        tx, arrival, fee = self.entries[txid]
        return (fee / tx.size_bytes, -arrival, txid)

    def spender(self, outpoint):
        for txid, (tx, _, _) in self.entries.items():
            if any(i.outpoint == outpoint for i in tx.inputs):
                return txid
        return None

    def min_feerate(self):
        if not self.entries:
            return None
        return self.key(min(self.entries, key=self.key))[0]

    def add(self, tx, arrival, fee):
        self.last_evicted = ()
        if tx.txid in self.entries:
            return False
        if any(self.spender(i.outpoint) not in (None, tx.txid) for i in tx.inputs):
            return False
        if len(self.entries) >= self.max_size:
            if fee / tx.size_bytes <= self.min_feerate():
                return False
            evicted = []
            while len(self.entries) >= self.max_size:
                victim = min(self.entries, key=self.key)
                evicted.append(victim)
                del self.entries[victim]
            self.last_evicted = tuple(evicted)
        self.entries[tx.txid] = (tx, arrival, int(fee))
        return True

    def remove(self, txid):
        return self.entries.pop(txid, (None,))[0]

    def clear(self):
        self.entries.clear()
        self.last_evicted = ()


_FUNDING = [
    Transaction.coinbase(_WALLET.address, 1_000_000, tag=f"index-{i}") for i in range(5)
]
#: Five independent spends of different sizes, plus two that double-spend
#: the first two: the universe every interleaving draws from.
_UNIVERSE = [
    Transaction.create_signed(
        _WALLET,
        [(funding.txid, 0, 1_000_000)],
        [(f"dest-{j}", 100) for j in range(1 + i % 3)],
    )
    for i, funding in enumerate(_FUNDING)
] + [
    Transaction.create_signed(_WALLET, [(funding.txid, 0, 1_000_000)], [("rival", 100)])
    for funding in _FUNDING[:2]
]

_pick = st.integers(min_value=0, max_value=len(_UNIVERSE) - 1)
#: Few arrival times and few per-byte rates, so ties on both are common
#: (``fee = rate × size`` gives equal feerates across different sizes).
_arrivals = st.sampled_from([0.0, 1.0, 2.5])
_rates = st.sampled_from([0, 1, 2, 5])
#: Mostly adds, so full pools and evictions are common.
_kinds = st.sampled_from(
    ("add",) * 6 + ("readd", "remove", "remove_confirmed", "remove_conflicts", "clear")
)
#: One step: (kind, transaction index, arrival time, rate, index set); each
#: kind reads the fields it needs.
_operations = st.lists(
    st.tuples(_kinds, _pick, _arrivals, _rates, st.sets(_pick, max_size=3)),
    min_size=6,
    max_size=40,
)


class TestEvictionIndex:
    @given(capacity=st.integers(min_value=1, max_value=3), operations=_operations)
    @settings(max_examples=150, deadline=None)
    def test_index_evicts_exactly_what_min_evicted(self, capacity, operations):
        """Through any interleaving of adds, removals, confirmed and
        conflict evictions, clears and re-adds of dropped transactions, the
        pool's sorted index agrees with a ``min`` over every pending entry:
        same admissions, same evictions, same lowest feerate, same members."""
        pool = Mempool(max_size=capacity)
        reference = ReferencePool(capacity)
        dropped = []
        for kind, pick, arrival, rate, picks in operations:
            if kind in ("add", "readd"):
                if kind == "readd":
                    if not dropped:
                        continue
                    tx = dropped[pick % len(dropped)]
                else:
                    tx = _UNIVERSE[pick]
                fee = rate * tx.size_bytes
                added = pool.add(tx, arrival_time=arrival, fee=fee)
                assert added == reference.add(tx, arrival, fee)
                dropped.extend(pool.last_evicted)
            elif kind == "remove":
                tx = _UNIVERSE[pick]
                assert pool.remove(tx.txid) is reference.remove(tx.txid)
                dropped.append(tx)
            elif kind == "remove_confirmed":
                txids = {_UNIVERSE[i].txid for i in picks}
                expected = [txid for txid in reference.entries if txid in txids]
                assert pool.remove_confirmed(txids) == len(expected)
                for txid in expected:
                    dropped.append(reference.remove(txid))
            elif kind == "remove_conflicts":
                outpoints = [(_FUNDING[i % len(_FUNDING)].txid, 0) for i in sorted(picks)]
                removed = pool.remove_conflicts(outpoints)
                expected = []
                for outpoint in outpoints:
                    spender = reference.spender(outpoint)
                    if spender is not None:
                        expected.append(reference.remove(spender))
                assert removed == expected
                dropped.extend(removed)
            else:
                dropped.extend(pool.transactions())
                pool.clear()
                reference.clear()
            assert tuple(t.txid for t in pool.last_evicted) == reference.last_evicted
            assert pool.min_feerate() == reference.min_feerate()
            assert {tx.txid for tx in _UNIVERSE if tx.txid in pool} == set(reference.entries)
            assert len(pool) == len(reference.entries)
            for funding in _FUNDING:
                outpoint = (funding.txid, 0)
                assert pool.spends(outpoint) == (reference.spender(outpoint) is not None)


class TestAddRejectsIllDefinedKeys:
    """A NaN arrival time compares False with everything, and a negative fee
    is not a fee: either would make the eviction order ill-defined, so
    ``add`` refuses both before touching any state."""

    def _full_pool_after_an_eviction(self):
        cheap, rich = _UNIVERSE[0], _UNIVERSE[1]
        pool = Mempool(max_size=1)
        assert pool.add(cheap, arrival_time=0.0, fee=10)
        assert pool.add(rich, arrival_time=1.0, fee=5_000)
        assert pool.last_evicted == (cheap,)
        return pool, rich

    def _assert_untouched(self, pool, rich, newcomer):
        assert pool.last_evicted == (_UNIVERSE[0],)
        assert newcomer.txid not in pool
        assert rich.txid in pool and len(pool) == 1
        assert pool.min_feerate() == 5_000 / rich.size_bytes
        assert not pool.spends(newcomer.inputs[0].outpoint)

    def test_nan_arrival_time_rejected(self):
        """Before the check, two equal-fee entries one of which arrived at
        NaN were evicted in insertion order, not by the eviction key."""
        pool, rich = self._full_pool_after_an_eviction()
        newcomer = _UNIVERSE[2]
        with pytest.raises(ValueError, match="NaN"):
            pool.add(newcomer, arrival_time=math.nan, fee=1_000_000)
        self._assert_untouched(pool, rich, newcomer)

    @pytest.mark.parametrize("fee", [-500, -1, math.nan])
    def test_negative_fee_rejected(self, fee):
        pool, rich = self._full_pool_after_an_eviction()
        newcomer = _UNIVERSE[2]
        with pytest.raises(ValueError, match="fee"):
            pool.add(newcomer, arrival_time=2.0, fee=fee)
        self._assert_untouched(pool, rich, newcomer)

    def test_zero_fee_and_infinite_arrival_still_admitted(self):
        pool = Mempool(max_size=2)
        assert pool.add(_UNIVERSE[0], arrival_time=math.inf, fee=0)
        assert pool.add(_UNIVERSE[1], arrival_time=-math.inf, fee=0)
        assert pool.min_feerate() == 0.0


def build_ring(node_count=10, seed=2, **config_kwargs):
    """A small funded network wired as a ring with chords."""
    params = NetworkParameters(
        node_count=node_count, seed=seed, node_config=NodeConfig(**config_kwargs)
    )
    simulated = build_network(params)
    ids = simulated.node_ids()
    for index, node_id in enumerate(ids):
        simulated.network.connect(node_id, ids[(index + 1) % len(ids)])
        simulated.network.connect(node_id, ids[(index + 3) % len(ids)])
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=3)
    return simulated


class TestFeeEvictionReoffer:
    def test_fee_evicted_tx_can_be_reoffered(self):
        """The PR-7 re-offer contract holds when the drop is a fee eviction:
        the evicting node forgets the victim's txid and counts the eviction,
        and a later INV re-admits the victim once the pool has room."""
        simulated = build_ring(mempool_max_size=1)
        network = simulated.network
        node = simulated.node(0)
        cheap = simulated.node(1).create_transaction(
            [("dest", 100)], broadcast=False, fee=10
        )
        rich = simulated.node(3).create_transaction(
            [("dest", 200)], broadcast=False, fee=50_000
        )
        network.send(1, 0, TxMessage(sender=1, transaction=cheap))
        simulated.simulator.run(until=5.0)
        assert cheap.txid in node.mempool
        network.send(3, 0, TxMessage(sender=3, transaction=rich))
        simulated.simulator.run(until=10.0)
        # Fee eviction: the richer tx takes the slot, the cheap one is
        # counted and deliberately forgotten.
        assert rich.txid in node.mempool
        assert cheap.txid not in node.mempool
        assert node.stats.mempool_fee_evictions == 1
        assert node.stats.mempool_capacity_drops == 0
        assert cheap.txid not in node.known_transactions
        # The pool drains (the rich tx confirms in a block mined at node 0)...
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("mining"),
        )
        assert mining.mine_one_block(winner_id=0) is not None
        simulated.simulator.run(until=simulated.simulator.now + 60.0)
        assert rich.txid not in node.mempool
        # The fee eviction also hit node 1 (every pool holds one tx), so
        # re-seed the serving peer's pool — it forgot the txid too, which is
        # itself the re-offer contract at work on the sender side.
        assert cheap.txid not in simulated.node(1).known_transactions
        assert simulated.node(1).accept_transaction(cheap, origin_peer=None).valid
        # ...and a late INV triggers a fresh GETDATA and admission.
        before = node.stats.getdata_sent
        network.send(
            1,
            0,
            InvMessage(
                sender=1,
                inventory_type=InventoryType.TRANSACTION,
                hashes=(cheap.txid,),
            ),
        )
        simulated.simulator.run(until=simulated.simulator.now + 30.0)
        assert node.stats.getdata_sent == before + 1
        assert cheap.txid in node.mempool

    def test_confirmed_double_spend_evicts_the_losing_arm(self):
        """A block confirming one arm of a double spend evicts the other arm
        from every pool that held it — left behind it would be packed into
        block templates (and invalidate them) forever.  Unlike fee evictions
        the dead txid stays remembered: it can never become valid again."""
        simulated = build_ring()
        node_a, node_b = simulated.node(0), simulated.node(5)
        wallet_node = simulated.node(2)
        funding = min(
            (
                entry
                for entry in wallet_node.utxo.entries()
                if entry.address == wallet_node.keypair.address
            ),
            key=lambda entry: entry.outpoint,
        )
        arm_one = Transaction.create_signed(
            wallet_node.keypair,
            [(funding.outpoint[0], funding.outpoint[1], funding.value)],
            [("dest-one", 100)],
            fee=20,
        )
        arm_two = Transaction.create_signed(
            wallet_node.keypair,
            [(funding.outpoint[0], funding.outpoint[1], funding.value)],
            [("dest-two", 100)],
            fee=10,
        )
        # Seed the two arms on opposite sides of the ring without announcing.
        assert node_a.accept_transaction(arm_one, origin_peer=None).valid
        assert node_b.accept_transaction(arm_two, origin_peer=None).valid
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("mining"),
        )
        block = mining.mine_one_block(winner_id=0)
        assert block is not None
        assert arm_one.txid in block.txids
        simulated.simulator.run(until=simulated.simulator.now + 60.0)
        # The losing arm is gone from node B's pool, counted, and remembered.
        assert arm_two.txid not in node_b.mempool
        assert node_b.stats.mempool_conflict_evictions == 1
        assert arm_two.txid in node_b.known_transactions
        # Node B's next template is valid again: it can mine on its own tip.
        follow_up = mining.mine_one_block(winner_id=5)
        assert follow_up is not None

    def test_zero_fee_arrival_still_counts_a_capacity_drop(self):
        """With no fee to bid, a full pool rejects exactly as before the fee
        market existed — the capacity-drop counter, not the eviction one."""
        simulated = build_ring(mempool_max_size=1)
        network = simulated.network
        node = simulated.node(0)
        first = simulated.node(1).create_transaction([("dest", 100)], broadcast=False)
        second = simulated.node(3).create_transaction([("dest", 200)], broadcast=False)
        network.send(1, 0, TxMessage(sender=1, transaction=first))
        simulated.simulator.run(until=5.0)
        network.send(3, 0, TxMessage(sender=3, transaction=second))
        simulated.simulator.run(until=10.0)
        assert first.txid in node.mempool
        assert second.txid not in node.mempool
        assert node.stats.mempool_capacity_drops == 1
        assert node.stats.mempool_fee_evictions == 0
