"""BCBPT: Bitcoin Clustering Based Ping Time (the paper's contribution).

Section IV: each node gathers proximity knowledge about discovered peers by
measuring round-trip ping latency (the Eq. 2-4 utility function, realised here
by actual ping sampling through :class:`~repro.core.distance.DistanceCalculator`),
declares a peer *close* when the measured distance is below the latency
threshold ``d_t`` (Eq. 1, 25 ms in the paper's main experiment), and

* **cluster generation** (Section IV.B): a joining node learns candidate peers
  from the DNS seed (ranked geographically, since that is all the seed knows),
  measures its distance to each, sends a ``JOIN`` request to the closest one,
  receives the list of that node's cluster members, and connects only to
  members of that cluster — preferring the lowest-latency ones;
* **cluster maintenance**: every node periodically (the paper uses 100 ms)
  discovers new peers through the normal Bitcoin mechanism and applies the
  same distance rule to decide whether to connect;
* each node additionally keeps "a few long distance links to the outside
  cluster" so information from other clusters remains visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.cluster import Cluster
from repro.core.distance import DistanceCalculator
from repro.core.policy import NeighbourPolicy, TopologyBuildReport
from repro.protocol.discovery import DnsSeedService
from repro.protocol.messages import (
    ClusterMembersMessage,
    JoinAcceptMessage,
    JoinMessage,
)
from repro.protocol.network import P2PNetwork
from repro.protocol.node import BitcoinNode


@dataclass(frozen=True)
class BcbptConfig:
    """Configuration of the BCBPT policy.

    Attributes:
        latency_threshold_s: ``d_t`` of Eq. (1); the paper evaluates 25 ms in
            Fig. 3 and {30, 50, 100} ms in Fig. 4.
        max_outbound: intra-cluster outbound connections per node.
        ping_samples: ping exchanges per distance estimate ("multiple messages
            ... repeatedly over the time").
        candidates_per_round: how many discovered peers a node measures per
            discovery round.
        long_links_per_node: deliberate links to peers outside the cluster.
        discovery_interval_s: period of the maintenance discovery round
            (100 ms in the paper's experiment setup).
    """

    latency_threshold_s: float = 0.025
    max_outbound: int = 8
    ping_samples: int = 3
    candidates_per_round: int = 25
    long_links_per_node: int = 2
    discovery_interval_s: float = 0.1

    def __post_init__(self) -> None:
        if self.latency_threshold_s <= 0:
            raise ValueError("latency_threshold_s must be positive")
        if self.max_outbound <= 0:
            raise ValueError("max_outbound must be positive")
        if self.ping_samples <= 0:
            raise ValueError("ping_samples must be positive")
        if self.candidates_per_round <= 0:
            raise ValueError("candidates_per_round must be positive")
        if self.long_links_per_node < 0:
            raise ValueError("long_links_per_node cannot be negative")
        if self.discovery_interval_s <= 0:
            raise ValueError("discovery_interval_s must be positive")


class BcbptPolicy(NeighbourPolicy):
    """Ping-latency clustering (BCBPT)."""

    name = "bcbpt"

    def __init__(
        self,
        network: P2PNetwork,
        seed_service: DnsSeedService,
        rng: np.random.Generator,
        config: BcbptConfig | None = None,
    ) -> None:
        self.config = config if config is not None else BcbptConfig()
        super().__init__(network, seed_service, rng, max_outbound=self.config.max_outbound)
        self.distances = DistanceCalculator(
            network, samples_per_pair=self.config.ping_samples
        )

    # --------------------------------------------------------------- metrics
    @property
    def latency_threshold_s(self) -> float:
        """The active distance threshold ``d_t`` in seconds."""
        return self.config.latency_threshold_s

    # ----------------------------------------------------------- peer choice
    def select_peers(self, node_id: int) -> list[int]:
        """Peers that pass the Eq. (1) threshold, in random order, cluster members first.

        Peers whose measured distance exceeds ``d_t`` are never selected —
        "these two nodes would have a very little chance to get directly
        connected and stay in the same cluster if they are so far away from
        each other" (Section IV.A).  Among the peers that *do* qualify, the
        choice is uniform: the threshold is the protocol's membership
        criterion, and within a cluster nodes connect the same way ordinary
        Bitcoin peers do.  (This is what makes the threshold value matter —
        the paper's Fig. 4 — a larger ``d_t`` admits slower links.)  Nodes
        with few close peers rely on their long-distance links for
        connectivity instead of opening latency-far cluster links.
        """
        cluster = self.clusters.cluster_of(node_id)
        current = set(self.network.neighbors(node_id))
        is_online = self.network.is_online

        def usable(peer: int) -> bool:
            return peer != node_id and peer not in current and is_online(peer)

        def close_subset(candidates: list[int]) -> list[int]:
            estimates = self.distances.rank_by_distance(node_id, candidates)
            qualifying = [
                e.node_b if e.node_a == node_id else e.node_a
                for e in estimates
                if e.is_close(self.config.latency_threshold_s)
            ]
            if len(qualifying) > 1:
                order = self.rng.permutation(len(qualifying))
                qualifying = [qualifying[int(i)] for i in order]
            return qualifying

        ranked: list[int] = []
        if cluster is not None:
            ranked.extend(close_subset([m for m in cluster.member_list() if usable(m)]))
        if len(ranked) < self.max_outbound:
            # Not enough close cluster members: measure the geographically
            # nearest outsiders and keep only those under the threshold.
            outsiders = [
                peer
                for peer in self.seed_service.query_proximity_ranked(node_id)
                if usable(peer) and peer not in set(ranked)
            ]
            ranked.extend(close_subset(outsiders[: self.config.candidates_per_round]))
        return ranked

    # ------------------------------------------------------------ clustering
    def assign_to_cluster(self, node_id: int) -> Optional[Cluster]:
        """Run the Section IV.B join procedure for one node.

        Returns the cluster the node ended up in (a new one if no discovered
        peer was within the latency threshold).
        """
        candidates = self.seed_service.query_proximity_ranked(node_id)
        candidates = candidates[: self.config.candidates_per_round]
        assigned_candidates = [
            peer for peer in candidates if self.clusters.cluster_of(peer) is not None
        ]
        estimates = self.distances.rank_by_distance(node_id, assigned_candidates)
        for estimate in estimates:
            if not estimate.is_close(self.config.latency_threshold_s):
                # Candidates are sorted by distance; the first miss ends the search.
                break
            closest = estimate.node_b if estimate.node_a == node_id else estimate.node_a
            cluster = self.clusters.cluster_of(closest)
            if cluster is None:
                continue
            # JOIN handshake: one JOIN, one JOIN_ACCEPT, one CLUSTER_MEMBERS
            # listing the cluster, all charged to the traffic counters.
            self._charge_join_traffic(cluster)
            self.stats.join_requests_sent += 1
            return self.clusters.assign(node_id, cluster.cluster_id)
        cluster = self.clusters.create_cluster(node_id, created_at=self.network.simulator.now)
        self.stats.clusters_formed += 1
        return cluster

    def _charge_join_traffic(self, cluster: Cluster) -> None:
        from repro.net.message import message_size_bytes

        counters = self.network.messages_sent
        sizes = self.network.bytes_sent
        counters["join"] += 1
        sizes["join"] += message_size_bytes("join")
        counters["join_accept"] += 1
        sizes["join_accept"] += message_size_bytes("join_accept")
        counters["cluster_members"] += 1
        sizes["cluster_members"] += message_size_bytes("cluster_members", cluster.size)

    # ----------------------------------------------------------------- build
    def build_topology(self) -> TopologyBuildReport:
        """Cluster generation phase: assign every online node, then connect."""
        pings_before = self.network.messages_sent.get("ping", 0)
        control_before = self._control_message_count()
        online = sorted(self.network.online_node_ids())
        for node_id in online:
            self.assign_to_cluster(node_id)
        for node_id in online:
            self.connect_node(node_id)
            self._add_long_links(node_id, self.config.long_links_per_node)
        self.ensure_connected_overlay()
        return self._build_report(
            ping_exchanges=self.network.messages_sent.get("ping", 0) - pings_before,
            control_messages=self._control_message_count() - control_before,
        )

    # ----------------------------------------------------------------- churn
    def on_node_join(self, node_id: int) -> None:
        """Re-run the join procedure for a node coming back online."""
        self.assign_to_cluster(node_id)
        self.connect_node(node_id)
        self._add_long_links(node_id, self.config.long_links_per_node)
        self.stats.repairs_performed += 1

    def run_discovery_round(self, node_id: int) -> int:
        """Periodic discovery (paper: every 100 ms): measure new peers, connect if close."""
        self.stats.discovery_rounds += 1
        if not self.network.is_online(node_id):
            return 0
        degree = self.network.topology.degree(node_id)
        if degree >= self.max_outbound:
            return 0
        return self.connect_node(node_id, limit=self.max_outbound - degree)

    # ---------------------------------------------- message-driven join path
    # These three methods implement the ClusterMessageListener protocol so the
    # join handshake can also be exercised as real JOIN / JOIN_ACCEPT /
    # CLUSTER_MEMBERS messages flowing through the network (used by the
    # event-driven example and its tests).
    def on_join_request(self, node: BitcoinNode, sender: int, message: JoinMessage) -> None:
        """A peer asked ``node`` to admit it to ``node``'s cluster."""
        cluster = self.clusters.cluster_of(node.node_id)
        if cluster is None:
            cluster = self.clusters.create_cluster(
                node.node_id, created_at=self.network.simulator.now
            )
            self.stats.clusters_formed += 1
        self.clusters.assign(sender, cluster.cluster_id)
        self.network.send(
            node.node_id,
            sender,
            JoinAcceptMessage(sender=node.node_id, cluster_id=cluster.cluster_id),
        )
        self.network.send(
            node.node_id,
            sender,
            ClusterMembersMessage(
                sender=node.node_id,
                cluster_id=cluster.cluster_id,
                members=tuple(cluster.member_list()),
            ),
        )

    def on_join_accept(self, node: BitcoinNode, sender: int, message: JoinAcceptMessage) -> None:
        """The admitting node confirmed membership; nothing further to do."""

    def on_cluster_members(
        self, node: BitcoinNode, sender: int, message: ClusterMembersMessage
    ) -> None:
        """Received the member list: connect to the closest members under the threshold."""
        created = 0
        candidates = [m for m in message.members if m != node.node_id]
        estimates = self.distances.rank_by_distance(node.node_id, candidates)
        for estimate in estimates:
            if created >= self.max_outbound:
                break
            if not estimate.is_close(self.config.latency_threshold_s):
                break
            peer = estimate.node_b if estimate.node_a == node.node_id else estimate.node_a
            if self.network.connect(node.node_id, peer, is_cluster_link=True):
                created += 1
                self.stats.connections_created += 1
