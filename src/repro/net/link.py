"""Link layer: turns latency + bandwidth models into per-message delays.

A :class:`Link` represents an established TCP connection between two peers in
the overlay.  The :class:`LinkDelayCalculator` computes the simulated delivery
delay of each copy of a protocol message, one fan-out per call, combining:

* transmission delay at the bottleneck of the two endpoints' access rates
  (for small control messages this is negligible; for TX and BLOCK payloads it
  matters);
* one-way propagation over the pair's detour-adjusted physical distance;
* receiver queuing (Eq. 4);
* log-normal congestion jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.net.bandwidth import BandwidthModel
from repro.net.geo import GeoPosition
from repro.net.latency import LatencyModel


@dataclass(frozen=True, slots=True)
class Link:
    """A live connection between two overlay nodes.

    Attributes:
        node_a: lower node id of the pair.
        node_b: higher node id of the pair.
        established_at: simulated time the connection completed its handshake.
        is_cluster_link: True when the connection was created by a clustering
            policy as an intra-cluster link (used by the overhead and attack
            experiments to distinguish link types).
        is_long_link: True for deliberate long-distance inter-cluster links
            (BCBPT keeps "a few long distance links to the outside cluster").
    """

    node_a: int
    node_b: int
    established_at: float
    is_cluster_link: bool = False
    is_long_link: bool = False

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError(f"a node cannot link to itself (node {self.node_a})")
        if self.node_a > self.node_b:
            raise ValueError("Link endpoints must be ordered: node_a < node_b")

    @staticmethod
    def make(node_x: int, node_y: int, established_at: float, **kwargs: bool) -> "Link":
        """Create a link with endpoints in canonical order."""
        low, high = (node_x, node_y) if node_x < node_y else (node_y, node_x)
        return Link(low, high, established_at, **kwargs)

    @property
    def key(self) -> tuple[int, int]:
        """Canonical (low, high) endpoint pair."""
        return (self.node_a, self.node_b)

    def other(self, node_id: int) -> int:
        """The endpoint that is not ``node_id``."""
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise ValueError(f"node {node_id} is not an endpoint of {self.key}")


class LinkDelayCalculator:
    """Computes message delivery delays across links.

    A message's delay is :meth:`LatencyModel.one_way_delay_s` with the
    flat-rate transmission term swapped for the bottleneck rate.  A directed
    pair's propagation and bottleneck rate are resolved on its first message
    (drawing routing and access classes where that call would) and kept.

    Args:
        latency_model: pairwise latency model (Eq. 2-4 + jitter + detours).
        bandwidth_model: optional per-node bandwidth model; when provided, the
            transmission component uses the endpoints' bottleneck rate instead
            of the link-wide rate from the latency parameters.
    """

    def __init__(
        self,
        latency_model: LatencyModel,
        bandwidth_model: Optional[BandwidthModel] = None,
    ) -> None:
        self._latency = latency_model
        self._bandwidth = bandwidth_model
        # Latency parameters are frozen, so these never go stale.
        parameters = latency_model.parameters
        self._rate_bps = parameters.transmission_rate_bps
        self._queuing_s = latency_model.queuing_delay_s()
        self._floor_s = parameters.minimum_rtt_s / 2.0
        self._has_jitter = parameters.congestion_jitter_sigma > 0
        #: sender -> {receiver: one-way propagation s}.  Plain floats in
        #: per-sender dicts: no per-pair tuple for the collector to track.
        self._propagation_s: dict[int, dict[int, float]] = {}
        #: sender -> {receiver: bottleneck rate in bytes/s} (bandwidth model only).
        self._bottleneck_bps: dict[int, dict[int, float]] = {}

    def message_delay_s(
        self,
        sender_id: int,
        receiver_ids: Sequence[int],
        positions: Mapping[int, GeoPosition],
        size_bytes: int,
        jitter_factors: Optional[Sequence[float]] = None,
        *,
        jittered: bool = True,
    ) -> list[float]:
        """Delivery delays in seconds of one message's copies, one per receiver.

        Args:
            receiver_ids: the fan-out's receivers, in send order.
            positions: node id -> position, read for the sender and for a
                receiver whose pair constants are not kept yet.
            size_bytes: the message's wire size.
            jitter_factors: pre-drawn congestion jitter multipliers, one per
                receiver, for a batched fan-out; None draws one per copy, in
                receiver order, after resolving that copy's pair.
        """
        if size_bytes < 0:
            raise ValueError(f"message size cannot be negative, got {size_bytes}")
        known = self._propagation_s.setdefault(sender_id, {})
        rates = None
        if self._bandwidth is not None:
            rates = self._bottleneck_bps.setdefault(sender_id, {})
        draw = self._latency.jitter_factor if jittered and self._has_jitter else None
        flat = size_bytes / self._rate_bps
        queuing = self._queuing_s
        floor = self._floor_s
        delays = []
        for index, receiver_id in enumerate(receiver_ids):
            propagation = known.get(receiver_id)
            if propagation is None:
                propagation = self._resolve(
                    sender_id, positions[sender_id], receiver_id, positions[receiver_id]
                )
            # one_way_delay_s's operations in its order, then the bandwidth
            # substitution's: bit-identical to computing both from scratch.
            delay = flat + propagation + queuing
            if draw is not None:
                delay *= draw() if jitter_factors is None else jitter_factors[index]
            if not delay > floor:  # max(floor, delay)
                delay = floor
            if rates is not None:
                delay = delay - flat + size_bytes / rates[receiver_id]
                if not delay > floor:
                    delay = floor
            delays.append(delay)
        return delays

    def _resolve(
        self,
        sender_id: int,
        sender_position: GeoPosition,
        receiver_id: int,
        receiver_position: GeoPosition,
    ) -> float:
        """Resolve and keep a pair's constants, both directions; returns the propagation.

        The reverse direction costs no draw: the routing is per pair, and
        both endpoints' access classes were just assigned.
        """
        propagation = self._latency.one_way_propagation_s(
            sender_id, sender_position, receiver_id, receiver_position
        )
        for source, target in ((sender_id, receiver_id), (receiver_id, sender_id)):
            self._propagation_s.setdefault(source, {})[target] = propagation
            if self._bandwidth is not None:
                rate = self._bandwidth.effective_rate_bps(source, target)
                self._bottleneck_bps.setdefault(source, {})[target] = rate
        return propagation

    def can_batch_jitter(self, sender_id: int, receiver_ids: list[int]) -> bool:
        """Whether jitter for sends to all ``receiver_ids`` may be batch-drawn.

        True only when every pair's persistent routing is already cached, so
        the batched draw consumes the latency stream exactly like sequential
        per-message draws would (see :meth:`LatencyModel.jitter_factors`).
        A pair with kept constants has its routing cached.
        """
        known = self._propagation_s.get(sender_id, ())
        routing_cached = self._latency.routing_cached
        for receiver_id in receiver_ids:
            if receiver_id not in known and not routing_cached(sender_id, receiver_id):
                return False
        return True

    def jitter_factors(self, count: int):
        """Batch-draw ``count`` congestion jitter factors (None if disabled)."""
        return self._latency.jitter_factors(count)

    def ping_rtt_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
    ) -> float:
        """One stochastic ping RTT measurement between two connected nodes."""
        return self._latency.sample_rtt(node_a, position_a, node_b, position_b).rtt_s

    def ping_rtts_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
        count: int,
    ) -> list[float]:
        """``count`` stochastic ping RTTs in one batched (stream-exact) call."""
        return self._latency.sample_rtts(node_a, position_a, node_b, position_b, count)

    def base_rtt_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
    ) -> float:
        """Deterministic base RTT (no jitter) between two nodes."""
        return self._latency.base_rtt_s(node_a, position_a, node_b, position_b)
