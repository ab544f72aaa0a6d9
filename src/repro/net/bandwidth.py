"""Per-node bandwidth model.

The latency model charges a transmission delay derived from a link-wide
transmission rate (Eq. 2).  Real peers are heterogeneous — a home DSL node and
a datacentre node serialise a 500 KB block very differently — so the bandwidth
model assigns each node an uplink/downlink rate drawn from a small set of
access classes.  The link layer uses the slower of the sender's uplink and the
receiver's downlink when computing transmission delay for large messages.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.sim.rng import choice_cdf


@dataclass(frozen=True)
class AccessClass:
    """A class of internet access with typical up/down rates in bytes/second."""

    name: str
    uplink_bps: float
    downlink_bps: float
    weight: float

    def __post_init__(self) -> None:
        if self.uplink_bps <= 0 or self.downlink_bps <= 0:
            raise ValueError(f"access class {self.name!r} must have positive rates")
        if self.weight < 0:
            raise ValueError(f"access class {self.name!r} weight cannot be negative")


#: Access-class mix roughly matching the 2016 reachable-node population:
#: most reachable peers run on reasonably provisioned links, with a tail of
#: slow residential nodes and a head of datacentre relays.
DEFAULT_ACCESS_CLASSES: tuple[AccessClass, ...] = (
    AccessClass("residential-slow", uplink_bps=125_000, downlink_bps=1_000_000, weight=0.20),
    AccessClass("residential-fast", uplink_bps=625_000, downlink_bps=5_000_000, weight=0.40),
    AccessClass("business", uplink_bps=2_500_000, downlink_bps=12_500_000, weight=0.25),
    AccessClass("datacenter", uplink_bps=12_500_000, downlink_bps=12_500_000, weight=0.15),
)


@dataclass(frozen=True)
class NodeBandwidth:
    """Up/down rates assigned to one node."""

    access_class: str
    uplink_bps: float
    downlink_bps: float


class BandwidthModel:
    """Assigns access classes to nodes and computes effective link rates."""

    def __init__(
        self,
        rng: np.random.Generator,
        classes: Optional[Sequence[AccessClass]] = None,
    ) -> None:
        self._rng = rng
        self._classes = tuple(classes) if classes is not None else DEFAULT_ACCESS_CLASSES
        if not self._classes:
            raise ValueError("at least one access class is required")
        total = sum(c.weight for c in self._classes)
        if total <= 0:
            raise ValueError("access class weights must sum to a positive value")
        self._cdf = choice_cdf([c.weight / total for c in self._classes])
        self._assignments: dict[int, NodeBandwidth] = {}

    def assign(self, node_id: int) -> NodeBandwidth:
        """Assign (or return the existing) bandwidth class for a node."""
        bandwidth = self._assignments.get(node_id)
        if bandwidth is None:
            cls = self._classes[bisect.bisect_right(self._cdf, self._rng.random())]
            bandwidth = NodeBandwidth(cls.name, cls.uplink_bps, cls.downlink_bps)
            self._assignments[node_id] = bandwidth
        return bandwidth

    def effective_rate_bps(self, sender_id: int, receiver_id: int) -> float:
        """Bottleneck rate for a transfer from sender to receiver."""
        sender = self.assign(sender_id)
        receiver = self.assign(receiver_id)
        return min(sender.uplink_bps, receiver.downlink_bps)

    def transmission_delay_s(self, sender_id: int, receiver_id: int, size_bytes: float) -> float:
        """Time to serialise ``size_bytes`` over the bottleneck rate."""
        if size_bytes < 0:
            raise ValueError(f"message size cannot be negative, got {size_bytes}")
        return size_bytes / self.effective_rate_bps(sender_id, receiver_id)
