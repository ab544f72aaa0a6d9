"""The measuring node *m* and measurement campaigns (Fig. 2 methodology).

"We implemented a measuring node m which is able to create a valid transaction
Tx and send to one node of its connected nodes, and then it tracks the
transaction in order to record the time by which each node of its connections
announces the transaction." (Section V.B)

:class:`MeasuringNode` wraps an ordinary :class:`~repro.protocol.node.BitcoinNode`
that already has connections established by whatever neighbour-selection
policy is under test.  One :meth:`measure_once` call performs a single
repetition; :func:`repro.experiments.runner.measure_propagation` repeats it
(the paper averages about 1000 runs) from several measuring nodes and
records the Δt_{m,n} samples.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.measurement.propagation import PropagationRun
from repro.protocol.messages import TxMessage
from repro.protocol.network import P2PNetwork
from repro.protocol.node import BitcoinNode
from repro.protocol.transaction import Transaction


class MeasuringNode:
    """Drives single propagation measurements from one network node.

    Args:
        node: the measuring node *m* (must be attached to a network and have
            funded, confirmed outputs to spend — see
            :func:`repro.workloads.generators.fund_nodes`).
        rng: random stream for choosing the first recipient and payment sizes.
        payment_satoshi: value of each measured transaction.
        run_timeout_s: how long to let one repetition run before declaring the
            missing connections timed out.
        exclude_long_links: when True, deliberate long-distance inter-cluster
            maintenance links are excluded from the measured connection set.
            The paper measures the client's "proximity based connections
            (1, 2, 3, ..., n)", i.e. the links the clustering protocol chose;
            the handful of random long links every node keeps for
            inter-cluster visibility are maintenance plumbing, not proximity
            connections.  A node that clustering left alone in its cluster
            has long links only; it then measures those, and each run says
            so (:attr:`PropagationRun.long_link_fallback`).  Has no effect
            under the vanilla Bitcoin policy, which creates no long links.
    """

    def __init__(
        self,
        node: BitcoinNode,
        rng: np.random.Generator,
        *,
        payment_satoshi: int = 10_000,
        run_timeout_s: float = 120.0,
        exclude_long_links: bool = False,
    ) -> None:
        if payment_satoshi <= 0:
            raise ValueError(f"payment_satoshi must be positive, got {payment_satoshi}")
        if run_timeout_s <= 0:
            raise ValueError(f"run_timeout_s must be positive, got {run_timeout_s}")
        self.node = node
        self.rng = rng
        self.payment_satoshi = payment_satoshi
        self.run_timeout_s = run_timeout_s
        self.exclude_long_links = exclude_long_links
        self.runs: list[PropagationRun] = []
        self._active_run: Optional[PropagationRun] = None
        self._listeners_installed: set[int] = set()

    # ------------------------------------------------------------- plumbing
    def _network(self) -> P2PNetwork:
        if self.node.network is None:
            raise RuntimeError("the measuring node is not attached to a network")
        return self.node.network

    def _install_listener(self, peer_id: int) -> None:
        """Observe transaction acceptance at a connected node."""
        if peer_id in self._listeners_installed:
            return
        peer = self._network().node(peer_id)
        peer.transaction_listeners.append(self._on_peer_accepted)
        self._listeners_installed.add(peer_id)

    def _on_peer_accepted(self, node_id: int, tx: Transaction, accepted_at: float) -> None:
        run = self._active_run
        if run is None or tx.txid != run.txid:
            return
        run.record_reception(node_id, accepted_at)

    def _measured_connections(self) -> list[int]:
        """The connections whose reception times this node measures."""
        neighbors = self.node.neighbors()
        if not self.exclude_long_links:
            return neighbors
        topology = self._network().topology
        return [
            peer
            for peer in neighbors
            if not topology.link(self.node.node_id, peer).is_long_link
        ]

    # ------------------------------------------------------------- measuring
    def measure_once(self, run_index: int = 0) -> PropagationRun:
        """Perform one Fig. 2 repetition and return its (completed) run record.

        The call advances the simulator until every connection has received the
        transaction or ``run_timeout_s`` of simulated time has passed.

        Raises:
            RuntimeError: if the measuring node has no connections.
            ValueError: if the wallet cannot fund the payment.
        """
        network = self._network()
        simulator = network.simulator
        connections = tuple(sorted(self._measured_connections()))
        long_link_fallback = not connections and self.exclude_long_links
        if long_link_fallback:
            # No proximity connection is left: measure the long links rather
            # than nothing, and mark the run.
            connections = tuple(sorted(self.node.neighbors()))
        if not connections:
            raise RuntimeError(
                f"measuring node {self.node.node_id} has no connections to measure against"
            )
        for peer_id in connections:
            self._install_listener(peer_id)

        destination = self.node.keypair.address  # pay ourselves; value is irrelevant
        tx = self.node.create_transaction(
            [(destination, self.payment_satoshi)], broadcast=False
        )
        first_recipient = int(connections[int(self.rng.integers(len(connections)))])
        sent_at = simulator.now
        run = PropagationRun(
            run_index=run_index,
            txid=tx.txid,
            sent_at=sent_at,
            first_recipient=first_recipient,
            connected_nodes=connections,
            long_link_fallback=long_link_fallback,
        )
        self._active_run = run
        # "The transaction is propagated from node m to one connected node only."
        network.send(self.node.node_id, first_recipient, TxMessage(sender=self.node.node_id, transaction=tx))
        deadline = sent_at + self.run_timeout_s
        while not run.complete and simulator.now < deadline:
            step_until = min(simulator.now + 1.0, deadline)
            simulator.run(until=step_until)
        timed_out = tuple(
            node_id
            for node_id in connections
            if run.delay_of(node_id) is None
        )
        run.timed_out_nodes = timed_out
        self._active_run = None
        self.runs.append(run)
        return run
