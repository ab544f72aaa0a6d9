"""LBC: Locality Based Clustering (the authors' earlier protocol, the paper's
second baseline).

LBC "aims to convert the Bitcoin network topology from normal randomised
neighbour selection to location based neighbour selection.  Clusters in LBC
are formulated by referring an extra function to each node ... each node is
responsible for recommending proximity nodes to its neighbours.  The proximity
is defined based on the physical geographical location" (Section V.C).

Here each node joins the cluster of the geographically closest discovered node
(within a great-circle distance threshold), connects preferentially to the
geographically nearest members of its cluster, and keeps a small number of
long-distance links for inter-cluster visibility.  Crucially, LBC never
measures latency — which is why node pairs that are geographically close but
latency-far (routing detours) end up as LBC neighbours, the effect the paper
identifies as the reason BCBPT beats LBC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import NeighbourPolicy, TopologyBuildReport
from repro.protocol.discovery import DnsSeedService
from repro.protocol.network import P2PNetwork


@dataclass(frozen=True)
class LbcConfig:
    """Configuration of the LBC policy.

    Attributes:
        max_outbound: intra-cluster outbound connections per node.
        geographic_threshold_km: two nodes are considered geographically close
            when their great-circle distance is below this value.
        long_links_per_node: deliberate links to peers outside the node's
            cluster, keeping the overlay globally connected.
        recommendation_size: how many close peers a node recommends when asked
            (the "extra function" of the LBC description).
    """

    max_outbound: int = 8
    geographic_threshold_km: float = 1500.0
    long_links_per_node: int = 2
    recommendation_size: int = 20

    def __post_init__(self) -> None:
        if self.max_outbound <= 0:
            raise ValueError("max_outbound must be positive")
        if self.geographic_threshold_km <= 0:
            raise ValueError("geographic_threshold_km must be positive")
        if self.long_links_per_node < 0:
            raise ValueError("long_links_per_node cannot be negative")
        if self.recommendation_size <= 0:
            raise ValueError("recommendation_size must be positive")


class LbcPolicy(NeighbourPolicy):
    """Geography-based clustering (LBC)."""

    name = "lbc"

    def __init__(
        self,
        network: P2PNetwork,
        seed_service: DnsSeedService,
        rng: np.random.Generator,
        config: LbcConfig | None = None,
    ) -> None:
        self.config = config if config is not None else LbcConfig()
        super().__init__(network, seed_service, rng, max_outbound=self.config.max_outbound)
        self._roster: tuple[int, ...] = ()
        self._roster_rows = np.empty(0, dtype=np.intp)

    # -------------------------------------------------------------- geometry
    def geographic_distance_km(self, node_a: int, node_b: int) -> float:
        """Great-circle distance between two nodes in kilometres."""
        return self.network.position(node_a).distance_km(self.network.position(node_b))

    def recommend_peers(self, recommender: int, target: int) -> list[int]:
        """The LBC 'extra function': peers near ``target`` known to ``recommender``.

        A node recommends, from its own cluster, the peers geographically
        closest to the asking node.
        """
        cluster = self.clusters.cluster_of(recommender)
        if cluster is None:
            return []
        candidates = [m for m in cluster.member_list() if m != target]
        candidates.sort(key=lambda peer: (self.geographic_distance_km(target, peer), peer))
        return candidates[: self.config.recommendation_size]

    # ----------------------------------------------------------- peer choice
    def select_peers(self, node_id: int) -> list[int]:
        """Geographically-close cluster members (random order), then close outsiders.

        Symmetrically to BCBPT, the geographic threshold is the membership
        criterion and the choice among qualifying peers is uniform; LBC never
        measures latency, so a geographically-close pair that happens to be
        latency-far (a routing detour) is as likely to be picked as any other
        — the weakness the paper attributes to LBC in its Fig. 3 discussion.
        """
        cluster = self.clusters.cluster_of(node_id)
        current = set(self.network.neighbors(node_id))
        is_online = self.network.is_online

        def usable(peer: int) -> bool:
            return peer != node_id and peer not in current and is_online(peer)

        def close_subset(candidates: list[int]) -> list[int]:
            qualifying = [
                peer
                for peer in candidates
                if self.geographic_distance_km(node_id, peer) < self.config.geographic_threshold_km
            ]
            if len(qualifying) > 1:
                order = self.rng.permutation(len(qualifying))
                qualifying = [qualifying[int(i)] for i in order]
            return qualifying

        ranked: list[int] = []
        if cluster is not None:
            ranked.extend(close_subset([m for m in cluster.member_list() if usable(m)]))
        if len(ranked) < self.max_outbound:
            # Not enough close cluster members: consider the geographically
            # nearest non-members that still qualify under the threshold.
            ranked.extend(close_subset(self.nearest_outsiders(node_id, current.union(ranked))))
        return ranked

    def nearest_outsiders(self, node_id: int, excluded: set[int]) -> list[int]:
        """The ``recommendation_size`` online peers nearest ``node_id``, by (distance, id).

        Neither ``node_id`` nor a peer in ``excluded`` is returned.  They take
        at most ``len(excluded) + 1`` places of the online roster's ordering,
        so the result lies within the seed's nearest that many more.  The
        seed's rows of the roster are kept until the roster changes; holding
        the roster tuple stops a new one from reusing its identity.
        """
        roster = self.network.online_node_ids()
        if roster is not self._roster:
            self._roster, self._roster_rows = roster, self.seed_service.rows_of(roster)
        size = self.config.recommendation_size
        nearest = self.seed_service.nearest(node_id, self._roster_rows, size + len(excluded) + 1)
        return [peer for peer in nearest if peer != node_id and peer not in excluded][:size]

    # ------------------------------------------------------------ clustering
    def assign_to_cluster(self, node_id: int) -> None:
        """Join the cluster of the geographically closest assigned node, or found one."""
        candidates = self.seed_service.query_proximity_ranked(node_id)
        best_peer = None
        best_distance = float("inf")
        for peer in candidates:
            if self.clusters.cluster_of(peer) is None:
                continue
            distance = self.geographic_distance_km(node_id, peer)
            if distance < best_distance:
                best_peer, best_distance = peer, distance
        if best_peer is not None and best_distance < self.config.geographic_threshold_km:
            cluster = self.clusters.cluster_of(best_peer)
            assert cluster is not None  # guarded by the candidate filter above
            self.clusters.assign(node_id, cluster.cluster_id)
        else:
            self.clusters.create_cluster(node_id, created_at=self.network.simulator.now)
            self.stats.clusters_formed += 1

    # ----------------------------------------------------------------- build
    def build_topology(self) -> TopologyBuildReport:
        """Cluster every online node geographically, then wire up the overlay."""
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

    # -------------------------------------------------------------- churn
    def on_node_join(self, node_id: int) -> None:
        """Re-cluster and reconnect a node that has come back online."""
        self.assign_to_cluster(node_id)
        self.connect_node(node_id)
        self._add_long_links(node_id, self.config.long_links_per_node)
        self.stats.repairs_performed += 1
