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
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple, Optional

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


#: (mean RTT, low id, high id): the order :meth:`DistanceCalculator.rank_by_distance` returns.
_RANK_KEY = itemgetter(2, 0, 1)


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
        #: Ping exchanges the running :meth:`rank_by_distance` charges when
        #: it returns; None outside one, where each miss charges its own.
        self._unbilled: Optional[int] = None

    def measure(self, node_a: int, node_b: int) -> DistanceEstimate:
        """Estimate the distance between two nodes by pinging.

        Each call not served from the cache takes ``samples_per_pair``
        ping/pong exchanges.  A direct call charges them to the network's
        traffic counters at once; a call made by :meth:`rank_by_distance`
        leaves them to that ranking, which charges all of its calls' pings
        when it returns.
        """
        if node_a < node_b:
            low, high = node_a, node_b
        elif node_a > node_b:
            low, high = node_b, node_a
        else:
            raise ValueError("cannot measure the distance from a node to itself")
        row = self._cache.get(low)
        if row is not None:
            estimate = row.get(high)
            if estimate is not None:
                return estimate
        # One batched call instead of samples_per_pair scalar pings: the pair's
        # routed path resolves once and the jitter factors are drawn as one
        # array, bit-identical to the sequential loop (see LatencyModel.sample_rtts).
        count = self.samples_per_pair
        samples = self._network.measure_rtts(node_a, node_b, count)
        self.measurements_taken += 1
        self.ping_exchanges += count
        if self._unbilled is None:
            self._network.record_ping_exchange(count)
        else:
            self._unbilled += count
        mean = sum(samples) / count
        variance = sum([(s - mean) ** 2 for s in samples]) / (count - 1) if count > 1 else 0.0
        estimate = DistanceEstimate(low, high, mean, math.sqrt(variance), count)
        if self._use_cache:
            if row is None:
                row = self._cache[low] = {}
            row[high] = estimate
        return estimate

    def rank_by_distance(self, origin: int, candidates: list[int]) -> list[DistanceEstimate]:
        """Measure ``origin`` against every candidate, closest first.

        The pings of every miss are charged to the network in one
        :meth:`~repro.protocol.network.P2PNetwork.record_ping_exchange` call
        when the ranking is done.
        """
        measure = self.measure
        self._unbilled = 0
        try:
            estimates = [measure(origin, candidate) for candidate in candidates if candidate != origin]
        finally:
            unbilled, self._unbilled = self._unbilled, None
            if unbilled:
                self._network.record_ping_exchange(unbilled)
        return sorted(estimates, key=_RANK_KEY)

    def clear_cache(self) -> None:
        """Forget every memoised estimate (e.g. between experiment repetitions)."""
        self._cache.clear()
