"""Double-spend race modelling.

The paper motivates BCBPT with the double-spend attack on fast payments
(Karame et al.): an attacker sends transaction ``TX_victim`` paying a merchant
and, at (almost) the same time, a conflicting ``TX_attacker`` returning the
same coins to itself, each injected at different points of the network.
Because nodes apply a first-seen rule, whichever transaction reaches a node
first is the one that node will relay and (if it mines) confirm.  Slow
propagation of the victim's transaction therefore increases the fraction of
the network — and of the hash power — that first sees the attacker's version.

:class:`DoubleSpendAttacker` builds the conflicting pair;
:class:`DoubleSpendExperimentResult` summarises the outcome of one race.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.protocol.crypto import KeyPair
from repro.protocol.node import BitcoinNode
from repro.protocol.transaction import Transaction


@dataclass(frozen=True)
class DoubleSpendPair:
    """The two mutually conflicting transactions of a double-spend attempt."""

    victim_tx: Transaction
    attacker_tx: Transaction

    def __post_init__(self) -> None:
        if not self.victim_tx.conflicts_with(self.attacker_tx):
            raise ValueError("the two transactions of a double-spend pair must conflict")


class DoubleSpendAttacker:
    """Creates conflicting transaction pairs from an attacker node's wallet."""

    def __init__(self, attacker_node: BitcoinNode, merchant_address: str) -> None:
        self.attacker = attacker_node
        self.merchant_address = merchant_address
        #: Separate key the attacker uses to pay itself back.
        self.payback_key = KeyPair.generate(f"attacker-payback-{attacker_node.node_id}")

    def build_pair(self, amount: int, *, created_at: float = 0.0) -> DoubleSpendPair:
        """Build the victim/attacker conflicting transactions.

        Both transactions spend the same wallet outputs; one pays the merchant,
        the other pays the attacker's secondary address.  Neither is announced
        here — the experiment injects them at chosen nodes and times.

        Raises:
            ValueError: if the attacker's wallet cannot fund ``amount``.
        """
        spendable = self.attacker.spendable_outputs()
        selected: list[tuple[str, int, int]] = []
        gathered = 0
        for candidate in spendable:
            selected.append(candidate)
            gathered += candidate[2]
            if gathered >= amount:
                break
        if gathered < amount:
            raise ValueError(
                f"attacker {self.attacker.node_id} cannot fund {amount} satoshi "
                f"(balance {gathered})"
            )
        victim_tx = Transaction.create_signed(
            self.attacker.keypair,
            selected,
            [(self.merchant_address, amount)],
            created_at=created_at,
        )
        attacker_tx = Transaction.create_signed(
            self.attacker.keypair,
            selected,
            [(self.payback_key.address, amount)],
            created_at=created_at,
        )
        return DoubleSpendPair(victim_tx=victim_tx, attacker_tx=attacker_tx)


@dataclass
class DoubleSpendOutcome:
    """Outcome of one double-spend race across the network.

    Attributes:
        victim_txid / attacker_txid: the competing transaction ids.
        nodes_first_saw_victim: nodes whose mempool admitted the victim tx.
        nodes_first_saw_attacker: nodes whose mempool admitted the attacker tx.
    """

    victim_txid: str
    attacker_txid: str
    nodes_first_saw_victim: int = 0
    nodes_first_saw_attacker: int = 0

    @property
    def total_deciding_nodes(self) -> int:
        """Nodes that admitted either transaction."""
        return self.nodes_first_saw_victim + self.nodes_first_saw_attacker

    @property
    def attacker_share(self) -> float:
        """Fraction of deciding nodes that first saw the attacker's version."""
        total = self.total_deciding_nodes
        if total == 0:
            return 0.0
        return self.nodes_first_saw_attacker / total


def merchant_detection(
    merchant: BitcoinNode,
    pair: DoubleSpendPair,
    *,
    start_time: float,
    horizon_s: float,
) -> tuple[bool, Optional[float]]:
    """Whether (and when) the merchant learnt of the conflicting transaction.

    The merchant holds the victim transaction; it *detects* the double-spend
    as soon as it hears of the attacker's conflicting transaction at all — an
    INV announcing it (including a relayed double-spend alert, see
    ``NodeConfig.relay_conflicts``) or the full TX.  Mempool admission is
    irrelevant: first-seen means the merchant's mempool will always reject the
    attacker's copy, which is precisely how the conflict becomes observable.

    Args:
        start_time: simulated time the race started (both copies injected).
        horizon_s: race observation window; a detection whose recorded time
            somehow precedes the race start (e.g. a txid re-used across races)
            clamps to 0, and one recorded after the horizon clamps to it.

    Returns:
        ``(detected, detection_time_s)`` with the detection time relative to
        ``start_time``; ``(False, None)`` when the merchant never heard of the
        attacker's transaction.
    """
    txid = pair.attacker_tx.txid
    first_seen = merchant.transaction_first_seen_times.get(txid)
    if first_seen is None:
        if txid not in merchant.known_transactions:
            return (False, None)
        # Known but with no recorded reception time — count the detection at
        # the conservative end of the window.
        return (True, horizon_s)
    return (True, min(max(first_seen - start_time, 0.0), horizon_s))


def tally_first_seen(nodes: list[BitcoinNode], pair: DoubleSpendPair) -> DoubleSpendOutcome:
    """Count, across ``nodes``, which conflicting transaction each admitted first.

    A node's mempool can contain at most one of the two (they conflict), so the
    mempool content tells us which version won the race at that node.
    """
    outcome = DoubleSpendOutcome(
        victim_txid=pair.victim_tx.txid, attacker_txid=pair.attacker_tx.txid
    )
    for node in nodes:
        has_victim = pair.victim_tx.txid in node.mempool
        has_attacker = pair.attacker_tx.txid in node.mempool
        if has_victim and not has_attacker:
            outcome.nodes_first_saw_victim += 1
        elif has_attacker and not has_victim:
            outcome.nodes_first_saw_attacker += 1
        elif not has_victim and not has_attacker:
            # Check confirmed history in case a block already swept one in.
            if node.blockchain.contains_transaction(pair.victim_tx.txid):
                outcome.nodes_first_saw_victim += 1
            elif node.blockchain.contains_transaction(pair.attacker_tx.txid):
                outcome.nodes_first_saw_attacker += 1
    return outcome
