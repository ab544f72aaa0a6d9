"""The P2P network fabric: delivers messages between nodes with realistic delays.

:class:`P2PNetwork` is the glue between the simulation kernel, the network
substrate and the protocol nodes:

* it owns the :class:`~repro.net.topology.OverlayTopology` (who is connected
  to whom) and the node registry;
* ``send()`` computes the per-message delivery delay from the link model and
  schedules the receiver's handler on the event engine;
* ``connect()`` / ``disconnect()`` manage links, charging a handshake
  round-trip for new connections;
* it keeps global message counters (by command) that the overhead experiment
  reads.

Messages sent to offline or disconnected peers are silently dropped, the same
way a TCP connection reset would surface to the Bitcoin application layer.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional, TYPE_CHECKING

from repro.net.geo import GeoPosition
from repro.net.link import Link, LinkDelayCalculator
from repro.net.message import message_size_bytes
from repro.net.topology import OverlayTopology
from repro.protocol.messages import Message
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.protocol.adversary import ByzantineBehavior
    from repro.protocol.node import BitcoinNode


class P2PNetwork:
    """Message fabric connecting simulated Bitcoin nodes.

    Args:
        simulator: the discrete-event engine.
        delay_calculator: per-message delay model.
        topology: overlay connection graph; a fresh one is created if omitted.
    """

    def __init__(
        self,
        simulator: Simulator,
        delay_calculator: LinkDelayCalculator,
        topology: Optional[OverlayTopology] = None,
    ) -> None:
        self.simulator = simulator
        self.delays = delay_calculator
        self.topology = topology if topology is not None else OverlayTopology()
        self._nodes: dict[int, "BitcoinNode"] = {}
        self._positions: dict[int, GeoPosition] = {}
        self._online: dict[int, bool] = {}
        #: Cached :meth:`online_node_ids` and each online id's rank in it;
        #: None once a node registers or changes state, rebuilt when asked.
        self._roster: Optional[tuple[int, ...]] = None
        self._roster_ranks: Optional[dict[int, int]] = None
        self.messages_sent: Counter[str] = Counter()
        self.bytes_sent: Counter[str] = Counter()
        self.messages_dropped = 0
        #: Outbound messages a byzantine behaviour silently swallowed.  Kept
        #: separate from ``messages_dropped`` (delivery failures): suppressed
        #: messages were never sent, so they appear in no traffic counter.
        self.messages_suppressed = 0
        #: Per-node byzantine behaviours (adversary plane).  Empty on honest
        #: networks — the hot send path only pays a truthiness check then.
        self._behaviors: dict[int, "ByzantineBehavior"] = {}

    # ----------------------------------------------------------------- nodes
    def register_node(self, node: "BitcoinNode") -> None:
        """Add a node to the network (initially online, with no connections)."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} is already registered")
        self._nodes[node.node_id] = node
        self._positions[node.node_id] = node.position
        self._online[node.node_id] = True
        self._roster = self._roster_ranks = None
        self.topology.add_node(node.node_id)

    def node(self, node_id: int) -> "BitcoinNode":
        """Look up a registered node."""
        return self._nodes[node_id]

    def nodes(self) -> list["BitcoinNode"]:
        """All registered nodes (online or not)."""
        return list(self._nodes.values())

    def node_ids(self) -> list[int]:
        """Ids of all registered nodes."""
        return list(self._nodes.keys())

    def position(self, node_id: int) -> GeoPosition:
        """Geographic position of a node."""
        return self._positions[node_id]

    @property
    def node_count(self) -> int:
        """Number of registered nodes."""
        return len(self._nodes)

    # ---------------------------------------------------------------- online
    def is_online(self, node_id: int) -> bool:
        """Whether the node is currently online."""
        return self._online.get(node_id, False)

    def online_node_ids(self) -> tuple[int, ...]:
        """Ids of nodes currently online, in registration order.

        The tuple is cached until a node registers or changes state, so a
        caller may keep iterating one while nodes come and go.
        """
        if self._roster is None:
            self._roster = tuple(node_id for node_id, online in self._online.items() if online)
        return self._roster

    def online_rank(self, node_id: int) -> Optional[int]:
        """Position of ``node_id`` in :meth:`online_node_ids` (None when offline)."""
        if self._roster_ranks is None:
            self._roster_ranks = {peer: rank for rank, peer in enumerate(self.online_node_ids())}
        return self._roster_ranks.get(node_id)

    def set_online(self, node_id: int, online: bool) -> None:
        """Mark a node online/offline; going offline tears down its links.

        The node itself is told through its ``on_offline`` / ``on_online``
        lifecycle hooks (after teardown, so the node observes its final
        link-less state), letting it drop in-flight request state that died
        with the connections.  Repeated calls with the same state are no-ops.
        """
        if node_id not in self._nodes:
            raise KeyError(f"unknown node {node_id}")
        was_online = self._online.get(node_id, False)
        self._online[node_id] = online
        self._roster = self._roster_ranks = None
        if not online:
            for peer in list(self.topology.neighbors(node_id)):
                self.disconnect(node_id, peer)
            if was_online:
                self._nodes[node_id].on_offline(self.simulator.now)
        elif not was_online:
            self._nodes[node_id].on_online(self.simulator.now)

    # ----------------------------------------------------------- connections
    def connect(
        self,
        node_a: int,
        node_b: int,
        *,
        is_cluster_link: bool = False,
        is_long_link: bool = False,
    ) -> bool:
        """Establish a connection between two online nodes.

        Returns:
            True if a new link was created; False if the nodes were already
            connected, either is offline, or either is at its connection cap.
        """
        if node_a == node_b:
            return False
        if not (self.is_online(node_a) and self.is_online(node_b)):
            return False
        if self.topology.are_connected(node_a, node_b):
            return False
        if not (self.topology.can_accept(node_a) and self.topology.can_accept(node_b)):
            return False
        link = Link.make(
            node_a,
            node_b,
            established_at=self.simulator.now,
            is_cluster_link=is_cluster_link,
            is_long_link=is_long_link,
        )
        self.topology.connect(link)
        # Account for the VERSION/VERACK handshake traffic.
        self.messages_sent["version"] += 2
        self.messages_sent["verack"] += 2
        self.bytes_sent["version"] += 2 * message_size_bytes("version")
        self.bytes_sent["verack"] += 2 * message_size_bytes("verack")
        self._nodes[node_a].on_connected(node_b)
        self._nodes[node_b].on_connected(node_a)
        return True

    def disconnect(self, node_a: int, node_b: int) -> bool:
        """Tear down the connection between two nodes if it exists."""
        link = self.topology.disconnect(node_a, node_b)
        if link is None:
            return False
        if node_a in self._nodes:
            self._nodes[node_a].on_disconnected(node_b)
        if node_b in self._nodes:
            self._nodes[node_b].on_disconnected(node_a)
        return True

    def neighbors(self, node_id: int) -> list[int]:
        """Current connections of a node."""
        return self.topology.neighbors(node_id)

    # ------------------------------------------------------------- adversary
    def install_behavior(self, node_id: int, behavior: "ByzantineBehavior") -> None:
        """Attach a byzantine outbound-message filter to one node.

        Every message the node sends from now on is offered to
        ``behavior.filter_send`` before any delay is computed or traffic
        accounted.  One behaviour per node; installing a second replaces
        nothing and raises instead, so composed attacks are explicit.
        """
        if node_id not in self._nodes:
            raise KeyError(f"unknown node {node_id}")
        if node_id in self._behaviors:
            raise ValueError(f"node {node_id} already has a byzantine behavior")
        self._behaviors[node_id] = behavior

    def remove_behavior(self, node_id: int) -> Optional["ByzantineBehavior"]:
        """Detach and return a node's byzantine behaviour (None if honest)."""
        return self._behaviors.pop(node_id, None)

    def behavior_of(self, node_id: int) -> Optional["ByzantineBehavior"]:
        """The behaviour installed on a node, or None for an honest node."""
        return self._behaviors.get(node_id)

    @property
    def byzantine_node_ids(self) -> list[int]:
        """Ids of nodes with an installed behaviour, in installation order."""
        return list(self._behaviors)

    # -------------------------------------------------------------- messages
    def send(self, sender_id: int, receiver_id: int, message: Message) -> bool:
        """Send a protocol message over an existing connection.

        The message is delivered after the link-model delay, unless either
        endpoint goes offline or the link disappears in the meantime (the
        message is then dropped, mirroring a broken TCP connection).

        Returns:
            True if the message was scheduled, False if it was dropped
            immediately (no connection).
        """
        # No separate offline check: a live link implies both endpoints are
        # online (see :meth:`broadcast`), so "no connection" covers it.
        if not self.topology.are_connected(sender_id, receiver_id):
            self.messages_dropped += 1
            return False
        command = message.command
        size = message_size_bytes(command, message.wire_payload())
        self._send_prechecked(sender_id, receiver_id, message, command, size)
        return True

    def _send_prechecked(
        self,
        sender_id: int,
        receiver_id: int,
        message: Message,
        command: str,
        size: int,
        jitter_factor: Optional[float] = None,
    ) -> None:
        """Compute the delay, account the traffic and schedule the delivery.

        ``command`` and ``size`` are the message's, sized once by the caller
        for all its copies.  Connectivity/online checks are the caller's
        responsibility.  This is the single choke point every send funnels
        through (``send``, ``broadcast``/``multicast`` via ``_fanout``),
        which is where the adversary plane hooks in: a sender's installed
        :class:`~repro.protocol.adversary.ByzantineBehavior` may suppress the
        message (no accounting, no delivery) or stretch its delay.  Batched
        congestion-jitter factors are drawn by the *caller*, before this
        filter runs, so byzantine drops never shift an honest stream's draw
        sequence.
        """
        extra_delay_s = 0.0
        if self._behaviors:
            behavior = self._behaviors.get(sender_id)
            if behavior is not None:
                decision = behavior.filter_send(receiver_id, message, self.simulator.now)
                if decision.drop:
                    self.messages_suppressed += 1
                    return
                extra_delay_s = decision.extra_delay_s
        delay = extra_delay_s + self.delays.message_delay_s(
            sender_id,
            self._positions[sender_id],
            receiver_id,
            self._positions[receiver_id],
            command,
            size_bytes=size,
            jitter_factor=jitter_factor,
        )
        self.messages_sent[command] += 1
        self.bytes_sent[command] += size
        simulator = self.simulator
        simulator.schedule_at(
            simulator.now + delay,
            lambda: self._deliver(sender_id, receiver_id, message),
            label=f"deliver:{command}",
        )

    def broadcast(self, sender_id: int, message: Message, *, exclude: Optional[set[int]] = None) -> int:
        """Send ``message`` to every neighbour of ``sender_id``.

        When every destination pair's routing is already known, the congestion
        jitter for all copies is drawn in one batched call (bit-identical to
        the per-message draws — see :meth:`LatencyModel.jitter_factors`).

        Returns:
            Number of copies scheduled.
        """
        # Not delegated to multicast(): neighbours are connected by
        # construction, and this per-INV hot path must not pay multicast's
        # per-peer are_connected lookup.  A live link implies both endpoints
        # online (connect() refuses offline endpoints and set_online(False)
        # tears down every link first), so there is no drop branch here: an
        # offline sender has no neighbours and an offline peer is not a
        # neighbour.  Copies only drop later, in _deliver, if an endpoint
        # goes offline mid-flight.
        excluded = exclude or set()
        eligible = [
            peer for peer in self.neighbors(sender_id) if peer not in excluded
        ]
        return self._fanout(sender_id, eligible, message)

    def multicast(
        self,
        sender_id: int,
        peers: "list[int]",
        message: Message,
        *,
        exclude: Optional[set[int]] = None,
    ) -> int:
        """Send ``message`` to an explicit subset of peers.

        Like :meth:`broadcast` but over a caller-chosen peer list (e.g. a
        push-relay strategy targeting only cluster links), with the same
        batched congestion-jitter draws.  Peers that are not connected are
        dropped and counted, mirroring :meth:`send`; a connected peer is
        online by construction (see :meth:`broadcast`), so that is the only
        drop branch.

        Returns:
            Number of copies scheduled.
        """
        excluded = exclude or set()
        eligible: list[int] = []
        for peer in peers:
            if peer in excluded:
                continue
            if not self.topology.are_connected(sender_id, peer):
                self.messages_dropped += 1
                continue
            eligible.append(peer)
        return self._fanout(sender_id, eligible, message)

    def _fanout(self, sender_id: int, eligible: "list[int]", message: Message) -> int:
        """Schedule one copy per eligible peer, batching jitter draws.

        When every destination pair's routing is already known, the congestion
        jitter for all copies is drawn in one batched call (bit-identical to
        the per-message draws — see :meth:`LatencyModel.jitter_factors`).
        """
        if not eligible:
            return 0
        command = message.command
        size = message_size_bytes(command, message.wire_payload())
        send = self._send_prechecked
        factors = None
        if len(eligible) > 1 and self.delays.can_batch_jitter(sender_id, eligible):
            factors = self.delays.jitter_factors(len(eligible))
        if factors is None:
            for peer in eligible:
                send(sender_id, peer, message, command, size)
        else:
            # Python floats: the same values as the array's, cheaper arithmetic.
            for peer, factor in zip(eligible, factors.tolist()):
                send(sender_id, peer, message, command, size, factor)
        return len(eligible)

    def _deliver(self, sender_id: int, receiver_id: int, message: Message) -> None:
        if not self.is_online(receiver_id):
            self.messages_dropped += 1
            return
        if not self.topology.are_connected(sender_id, receiver_id):
            self.messages_dropped += 1
            return
        tracer = self.simulator.tracer
        if tracer.enabled:
            tracer.record(
                self.simulator.now, "message", message.command, (sender_id, receiver_id)
            )
        self._nodes[receiver_id].handle_message(sender_id, message)

    # ------------------------------------------------------------------ ping
    def measure_rtt(self, node_a: int, node_b: int) -> float:
        """One stochastic ping RTT sample between two nodes (no messages sent).

        Used by clustering policies during distance calculation; the message
        cost of pinging is accounted separately via ``record_ping_exchange``.
        """
        return self.delays.ping_rtt_s(
            node_a, self._positions[node_a], node_b, self._positions[node_b]
        )

    def measure_rtts(self, node_a: int, node_b: int, count: int) -> list[float]:
        """``count`` stochastic ping RTT samples between two nodes, batch-drawn.

        Bit-identical to ``count`` sequential :meth:`measure_rtt` calls (see
        :meth:`~repro.net.latency.LatencyModel.sample_rtts`) but resolves the
        pair's path once and draws the jitter factors as one array — the
        vectorised lookup clustering policies lean on during cluster formation.
        """
        return self.delays.ping_rtts_s(
            node_a, self._positions[node_a], node_b, self._positions[node_b], count
        )

    def base_rtt(self, node_a: int, node_b: int) -> float:
        """Deterministic (jitter-free) RTT between two nodes."""
        return self.delays.base_rtt_s(
            node_a, self._positions[node_a], node_b, self._positions[node_b]
        )

    def record_ping_exchange(self, count: int = 1) -> None:
        """Account for ``count`` ping/pong exchanges in the traffic counters."""
        if count < 0:
            raise ValueError(f"count cannot be negative, got {count}")
        self.messages_sent["ping"] += count
        self.messages_sent["pong"] += count
        self.bytes_sent["ping"] += count * message_size_bytes("ping")
        self.bytes_sent["pong"] += count * message_size_bytes("pong")

    # ------------------------------------------------------------ statistics
    def total_messages(self) -> int:
        """Total protocol messages sent so far."""
        return sum(self.messages_sent.values())

    def total_bytes(self) -> int:
        """Total bytes sent so far."""
        return sum(self.bytes_sent.values())
