"""Vanilla Bitcoin neighbour selection: uniform random peers.

"Currently in the Bitcoin network, a node connects with nodes regardless of
any proximity criteria" (Section I).  Each node asks the DNS seed for
addresses and opens outbound connections to a uniform random subset of
reachable peers, up to the outbound quota (8 in Bitcoin Core).  This policy is
the paper's baseline in Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import NeighbourPolicy, TopologyBuildReport
from repro.protocol.discovery import DnsSeedService
from repro.protocol.network import P2PNetwork


@dataclass(frozen=True)
class RandomPolicyConfig:
    """Configuration of the random (vanilla Bitcoin) policy.

    Attributes:
        max_outbound: outbound connections per node (Bitcoin Core default 8).
        candidate_pool_size: how many addresses a node considers per
            connection round (a DNS seed answer plus some ADDR gossip).
    """

    max_outbound: int = 8
    candidate_pool_size: int = 40

    def __post_init__(self) -> None:
        if self.max_outbound <= 0:
            raise ValueError("max_outbound must be positive")
        if self.candidate_pool_size < self.max_outbound:
            raise ValueError("candidate_pool_size must be at least max_outbound")


class RandomNeighbourPolicy(NeighbourPolicy):
    """Uniform random outbound peer selection (the unmodified Bitcoin protocol)."""

    name = "bitcoin-random"

    def __init__(
        self,
        network: P2PNetwork,
        seed_service: DnsSeedService,
        rng: np.random.Generator,
        config: RandomPolicyConfig | None = None,
    ) -> None:
        self.config = config if config is not None else RandomPolicyConfig()
        super().__init__(network, seed_service, rng, max_outbound=self.config.max_outbound)

    def select_peers(self, node_id: int) -> list[int]:
        """A random sample of reachable peers (excluding current neighbours)."""
        excluded = set(self.network.neighbors(node_id))
        excluded.add(node_id)
        return self._sample_online(excluded, self.config.candidate_pool_size)

    def build_topology(self) -> TopologyBuildReport:
        """Connect every online node to ``max_outbound`` random peers."""
        pings_before = self.network.messages_sent.get("ping", 0)
        control_before = self._control_message_count()
        online = sorted(self.network.online_node_ids())
        for node_id in online:
            # One DNS query per node during bootstrap (counted, result unused:
            # the random policy treats every reachable peer equally).
            self.seed_service.query(node_id)
            self.connect_node(node_id)
        self.ensure_connected_overlay()
        return self._build_report(
            ping_exchanges=self.network.messages_sent.get("ping", 0) - pings_before,
            control_messages=self._control_message_count() - control_before,
        )
