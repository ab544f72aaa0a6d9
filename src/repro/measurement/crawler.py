"""A network crawler that samples ping/pong round-trip times.

The authors parameterised and validated their simulator with a crawler that
connected to roughly 5000 reachable peers and observed about 20,000 ping/pong
messages (Section V.A).  :class:`NetworkCrawler` performs the equivalent
measurement inside the simulation: it connects (logically) to every reachable
node, sends a configurable number of pings to random peers, and reports the
resulting RTT distribution.  The validation experiment compares that
distribution's shape against published real-network figures, and the latency
substrate tests use it to confirm that intra-region RTTs are small while
inter-continental RTTs are large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.protocol.network import P2PNetwork


@dataclass(frozen=True)
class CrawlerReport:
    """Outcome of one crawl.

    Attributes:
        reachable_nodes: how many nodes the crawler could see.
        ping_samples: number of ping/pong RTT observations.
        rtt_samples: the observed RTTs (seconds), in observation order.
        per_region_median_s: median RTT towards nodes of each region.
        intra_region_median_s: median RTT between nodes in the same region.
        inter_region_median_s: median RTT between nodes in different regions.
    """

    reachable_nodes: int
    ping_samples: int
    rtt_samples: tuple[float, ...]
    per_region_median_s: dict[str, float]
    intra_region_median_s: float
    inter_region_median_s: float


class NetworkCrawler:
    """Samples pairwise RTTs across the simulated network.

    Args:
        network: the P2P fabric to crawl.
        rng: random stream for pair selection.
    """

    def __init__(self, network: P2PNetwork, rng: np.random.Generator) -> None:
        self._network = network
        self._rng = rng

    def crawl(self, ping_samples: int = 20_000) -> CrawlerReport:
        """Measure ``ping_samples`` RTTs between random pairs of online nodes.

        Raises:
            ValueError: if fewer than two nodes are online.
        """
        if ping_samples <= 0:
            raise ValueError(f"ping_samples must be positive, got {ping_samples}")
        online = self._network.online_node_ids()
        if len(online) < 2:
            raise ValueError("crawling requires at least two online nodes")
        rtts: list[float] = []
        per_region: dict[str, list[float]] = {}
        intra: list[float] = []
        inter: list[float] = []
        for _ in range(ping_samples):
            a, b = self._rng.choice(len(online), size=2, replace=False)
            node_a, node_b = int(online[int(a)]), int(online[int(b)])
            rtt = self._network.measure_rtt(node_a, node_b)
            self._network.record_ping_exchange(1)
            rtts.append(float(rtt))
            region_a = self._network.position(node_a).region
            region_b = self._network.position(node_b).region
            per_region.setdefault(region_b, []).append(rtt)
            if region_a == region_b:
                intra.append(rtt)
            else:
                inter.append(rtt)
        per_region_median = {
            region: float(np.median(values)) for region, values in sorted(per_region.items())
        }
        return CrawlerReport(
            reachable_nodes=len(online),
            ping_samples=ping_samples,
            rtt_samples=tuple(rtts),
            per_region_median_s=per_region_median,
            intra_region_median_s=float(np.median(intra)) if intra else float("nan"),
            inter_region_median_s=float(np.median(inter)) if inter else float("nan"),
        )
