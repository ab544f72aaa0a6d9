"""Neighbour-selection policy interface.

A policy answers one question: *which peers should each node connect to?*
The paper's three contenders (random/Bitcoin, LBC, BCBPT) are implemented as
subclasses of :class:`NeighbourPolicy`.  The protocol stack is identical under
every policy; only the topology differs, which is exactly the experimental
control the paper needs for its Fig. 3 comparison.

A policy is used in two phases, mirroring Section V.B:

1. **Topology build** (cluster generation): :meth:`build_topology` is invoked
   once, before "normal Bitcoin simulator events" are launched.  It creates
   connections via the network and returns a :class:`TopologyBuildReport`.
2. **Maintenance**: during the measurement phase, churn calls
   :meth:`on_node_leave` / :meth:`on_node_join` so the policy can repair the
   overlay, and experiments may drive :meth:`run_discovery_round` periodically
   (the paper lets every node discover new peers every 100 ms).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.cluster import ClusterRegistry
from repro.protocol.discovery import DnsSeedService
from repro.protocol.network import P2PNetwork


@dataclass
class PolicyStatistics:
    """Counters a policy accumulates while building and maintaining the overlay."""

    connections_created: int = 0
    connections_rejected: int = 0
    long_links_created: int = 0
    join_requests_sent: int = 0
    clusters_formed: int = 0
    discovery_rounds: int = 0
    repairs_performed: int = 0


@dataclass(frozen=True)
class TopologyBuildReport:
    """Summary of one topology build, returned by :meth:`NeighbourPolicy.build_topology`.

    Attributes:
        policy_name: name of the policy that built the overlay.
        node_count: nodes that were online during the build.
        link_count: live links after the build.
        average_degree: mean connections per node.
        cluster_summary: cluster statistics (empty for the random policy).
        ping_exchanges: ping/pong message pairs used for distance measurement.
        control_messages: non-ping control messages attributed to the build
            (JOIN, CLUSTER_MEMBERS, GETADDR/ADDR, ...).
    """

    policy_name: str
    node_count: int
    link_count: int
    average_degree: float
    cluster_summary: dict[str, float]
    ping_exchanges: int
    control_messages: int


class NeighbourPolicy(abc.ABC):
    """Base class for neighbour-selection policies.

    Args:
        network: the P2P fabric whose topology the policy manages.
        seed_service: DNS seed used for bootstrap discovery.
        rng: random stream owned by the policy.
        max_outbound: outbound connections each node aims to maintain.
    """

    #: Short human-readable policy name, overridden by subclasses.
    name = "abstract"

    def __init__(
        self,
        network: P2PNetwork,
        seed_service: DnsSeedService,
        rng: np.random.Generator,
        *,
        max_outbound: int = 8,
    ) -> None:
        if max_outbound <= 0:
            raise ValueError(f"max_outbound must be positive, got {max_outbound}")
        self.network = network
        self.seed_service = seed_service
        self.rng = rng
        self.max_outbound = max_outbound
        self.stats = PolicyStatistics()
        self.clusters = ClusterRegistry()

    # ------------------------------------------------------------- interface
    @abc.abstractmethod
    def build_topology(self) -> TopologyBuildReport:
        """Create the initial overlay for all currently-online nodes."""

    @abc.abstractmethod
    def select_peers(self, node_id: int) -> list[int]:
        """Choose the peers ``node_id`` should connect to right now.

        Used both during the initial build and when a node (re)joins under
        churn; returns candidate peer ids, best first, possibly more than
        ``max_outbound`` (the caller connects until the quota is filled).
        """

    # ------------------------------------------------------------ churn hooks
    def on_node_leave(self, node_id: int) -> None:
        """Maintenance when a node goes offline.

        The network has already torn down its links; the default implementation
        removes it from any cluster bookkeeping.
        """
        self.clusters.remove_node(node_id)

    def on_node_join(self, node_id: int) -> None:
        """Maintenance when a node (re)joins: reconnect it using the policy."""
        self.connect_node(node_id)
        self.stats.repairs_performed += 1

    def run_discovery_round(self, node_id: int) -> int:
        """One periodic discovery round for a node (paper: every 100 ms).

        The default implementation tops up the node's connections if it has
        fallen below the outbound quota.  Returns the number of new links.
        """
        self.stats.discovery_rounds += 1
        current = self.network.topology.degree(node_id)
        if current >= self.max_outbound:
            return 0
        return self.connect_node(node_id, limit=self.max_outbound - current)

    # --------------------------------------------------------------- helpers
    def connect_node(self, node_id: int, *, limit: Optional[int] = None) -> int:
        """Connect ``node_id`` to peers chosen by :meth:`select_peers`.

        Returns:
            Number of new connections created.
        """
        if not self.network.is_online(node_id):
            return 0
        quota = self.max_outbound if limit is None else limit
        created = 0
        for peer in self.select_peers(node_id):
            if created >= quota:
                break
            if self.network.topology.are_connected(node_id, peer):
                continue
            if self.network.connect(node_id, peer, is_cluster_link=self._is_cluster_link(node_id, peer)):
                created += 1
                self.stats.connections_created += 1
            else:
                self.stats.connections_rejected += 1
        return created

    def _is_cluster_link(self, node_a: int, node_b: int) -> bool:
        """Whether a new link would be an intra-cluster link."""
        return self.clusters.are_same_cluster(node_a, node_b)

    def _sample_online(self, excluded: set[int], count: int) -> list[int]:
        """Up to ``count`` online peers outside ``excluded``, drawn without replacement.

        Draws exactly what ``rng.choice`` over the online roster with
        ``excluded`` filtered out would draw, without building that list:
        the draw depends only on the list's length, and the i-th remaining
        peer is found by stepping over the excluded ranks at or below it.
        """
        if count <= 0:
            return []
        roster = self.network.online_node_ids()
        skipped = sorted(
            rank for rank in map(self.network.online_rank, excluded) if rank is not None
        )
        available = len(roster) - len(skipped)
        if available <= 0:
            return []
        picked = self.rng.choice(available, size=min(count, available), replace=False)
        peers = []
        for index in picked.tolist():
            for rank in skipped:
                if rank > index:
                    break
                index += 1
            peers.append(roster[index])
        return peers

    def _add_long_links(self, node_id: int, count: int) -> None:
        """Connect to ``count`` random online peers outside the node's cluster.

        These are the paper's "few long distance links to the outside
        cluster", which keep the other clusters' information visible.
        """
        excluded = set(self.network.neighbors(node_id))
        excluded.add(node_id)
        cluster = self.clusters.cluster_of(node_id)
        if cluster is not None:
            excluded |= cluster.members
        for peer in self._sample_online(excluded, count):
            if self.network.connect(node_id, peer, is_long_link=True):
                self.stats.long_links_created += 1

    def _control_message_count(self) -> int:
        """Control messages sent so far that a topology build is charged for."""
        counters = self.network.messages_sent
        return sum(
            counters.get(command, 0)
            for command in ("getaddr", "addr", "join", "join_accept", "cluster_members")
        )

    def ensure_connected_overlay(self) -> int:
        """Bridge disconnected components with random links.

        Clustering can fragment the overlay (especially with small latency
        thresholds); the paper's protocol keeps "a few long distance links to
        the outside cluster" for exactly this reason.  This helper guarantees a
        single connected component so transactions can reach every node.

        Returns:
            Number of bridge links created.
        """
        created = 0
        components = self.network.topology.connected_components()
        online = set(self.network.online_node_ids())
        components = [sorted(c & online) for c in components if c & online]
        if len(components) <= 1:
            return 0
        components.sort(key=len, reverse=True)
        main_component = list(components[0])
        for component in components[1:]:
            # Connect a few bridge links per stranded component for resilience.
            bridges = min(2, len(component))
            for i in range(bridges):
                source = component[int(self.rng.integers(len(component)))]
                target = main_component[int(self.rng.integers(len(main_component)))]
                if self.network.connect(source, target, is_long_link=True):
                    created += 1
                    self.stats.long_links_created += 1
            main_component.extend(component)
        return created

    def _build_report(self, *, ping_exchanges: int, control_messages: int) -> TopologyBuildReport:
        """Assemble the standard build report from current network state."""
        online = self.network.online_node_ids()
        return TopologyBuildReport(
            policy_name=self.name,
            node_count=len(online),
            link_count=self.network.topology.link_count,
            average_degree=self.network.topology.average_degree(),
            cluster_summary=self.clusters.summary(),
            ping_exchanges=ping_exchanges,
            control_messages=control_messages,
        )
