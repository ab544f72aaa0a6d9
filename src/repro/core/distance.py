"""Distance calculation between Bitcoin nodes (Section IV.A).

The paper defines proximity between two nodes as the round-trip ping latency
predicted by the utility function of Eq. (2)-(4) and declares two nodes close
when that distance falls below a threshold (Eq. 1):

    D_ij < D_th

Because "distances measurements are subject to network congestion and
therefore dynamic, within some variance, multiple messages between pairs of
nodes are repeatedly sent over the time in order to determine variance" — the
:class:`DistanceCalculator` therefore takes several ping samples per pair,
averages them, and reports the observed variance.  Every sample costs one
ping/pong exchange, which the overhead experiment (Ext-2 in DESIGN.md) counts.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.protocol.network import P2PNetwork


class DistanceEstimate(NamedTuple):
    """Result of measuring the distance between a pair of nodes.

    An immutable record without per-field ``object.__setattr__`` calls:
    every ping-distance miss builds one.

    Attributes:
        node_a / node_b: the measured pair.
        mean_rtt_s: average of the ping RTT samples.
        std_rtt_s: sample standard deviation of the RTT samples.
        samples: number of ping exchanges used.
    """

    node_a: int
    node_b: int
    mean_rtt_s: float
    std_rtt_s: float
    samples: int

    def is_close(self, threshold_s: float) -> bool:
        """Eq. (1): whether the pair is considered close under ``threshold_s``."""
        if threshold_s <= 0:
            raise ValueError(f"distance threshold must be positive, got {threshold_s}")
        return self.mean_rtt_s < threshold_s


class DistanceCalculator:
    """Measures pairwise node distance by repeated ping sampling.

    Args:
        network: the P2P fabric (provides the latency model and traffic
            accounting).
        samples_per_pair: ping exchanges per distance estimate; the paper
            sends "multiple messages ... repeatedly over the time".
        cache: whether to memoise estimates per pair.  During one cluster
            generation phase the underlying base RTT is stable, so caching
            avoids re-measuring a pair both ends already measured; the cache
            can be disabled to study measurement overhead without reuse.
    """

    def __init__(
        self,
        network: "P2PNetwork",
        *,
        samples_per_pair: int = 3,
        cache: bool = True,
    ) -> None:
        if samples_per_pair <= 0:
            raise ValueError(f"samples_per_pair must be positive, got {samples_per_pair}")
        self._network = network
        self.samples_per_pair = samples_per_pair
        self._use_cache = cache
        #: low id -> {high id: estimate}: no per-pair key tuple.
        self._cache: dict[int, dict[int, DistanceEstimate]] = {}
        self.measurements_taken = 0
        self.ping_exchanges = 0

    def measure(self, node_a: int, node_b: int) -> DistanceEstimate:
        """Estimate the distance between two nodes by pinging.

        Each call charges ``samples_per_pair`` ping/pong exchanges to the
        network's traffic counters (unless served from the cache).
        """
        if node_a == node_b:
            raise ValueError("cannot measure the distance from a node to itself")
        low, high = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        if self._use_cache:
            estimate = self._cache.get(low, {}).get(high)
            if estimate is not None:
                return estimate
        # One batched call instead of samples_per_pair scalar pings: the pair's
        # routed path resolves once and the jitter factors are drawn as one
        # array, bit-identical to the sequential loop (see LatencyModel.sample_rtts).
        samples = self._network.measure_rtts(node_a, node_b, self.samples_per_pair)
        self._network.record_ping_exchange(self.samples_per_pair)
        self.ping_exchanges += self.samples_per_pair
        self.measurements_taken += 1
        mean = sum(samples) / len(samples)
        if len(samples) > 1:
            variance = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        else:
            variance = 0.0
        estimate = DistanceEstimate(
            node_a=low,
            node_b=high,
            mean_rtt_s=mean,
            std_rtt_s=math.sqrt(variance),
            samples=len(samples),
        )
        if self._use_cache:
            self._cache.setdefault(low, {})[high] = estimate
        return estimate

    def rank_by_distance(self, origin: int, candidates: list[int]) -> list[DistanceEstimate]:
        """Measure ``origin`` against every candidate, closest first."""
        estimates = [self.measure(origin, candidate) for candidate in candidates if candidate != origin]
        return sorted(estimates, key=lambda e: (e.mean_rtt_s, e.node_a, e.node_b))

    def clear_cache(self) -> None:
        """Forget every memoised estimate (e.g. between experiment repetitions)."""
        self._cache.clear()
