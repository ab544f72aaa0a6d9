"""Network substrate: geography, latency, links, overlay topology and churn.

This package stands in for the Internet underneath the Bitcoin overlay.  The
paper parameterised its simulator with crawler measurements of the real
network (link latencies from ~5000 reachable peers and peer session lengths);
here the same quantities are produced synthetically:

* :mod:`repro.net.geo` places nodes in weighted world regions and computes
  great-circle distances;
* :mod:`repro.net.latency` implements the paper's distance utility function,
  Eq. (2)-(4): transmission + 2x propagation + queuing, plus congestion
  jitter and routing-detour noise;
* :mod:`repro.net.link` turns a latency model into per-message delivery
  delays for arbitrary message sizes;
* :mod:`repro.net.topology` tracks the overlay connection graph;
* :mod:`repro.net.churn` generates join/leave events from a heavy-tailed
  session-length distribution.

Public entry points: :class:`~repro.net.latency.LatencyModel` (Eq. 2-4 link
delays), :class:`~repro.net.topology.OverlayTopology` (the connection
graph), :class:`~repro.net.geo.GeoModel`, :class:`~repro.net.churn.ChurnModel`
and :func:`~repro.net.message.message_size_bytes` (wire sizes per command).
"""

from repro.net.bandwidth import BandwidthModel
from repro.net.churn import ChurnModel, SessionLengthModel
from repro.net.geo import GeoModel, GeoPosition, Region, WORLD_REGIONS, haversine_km
from repro.net.latency import LatencyModel, LatencyParameters, LatencySample
from repro.net.link import Link, LinkDelayCalculator
from repro.net.message import message_size_bytes
from repro.net.topology import OverlayTopology

__all__ = [
    "BandwidthModel",
    "ChurnModel",
    "GeoModel",
    "GeoPosition",
    "LatencyModel",
    "LatencyParameters",
    "LatencySample",
    "Link",
    "LinkDelayCalculator",
    "OverlayTopology",
    "Region",
    "SessionLengthModel",
    "WORLD_REGIONS",
    "haversine_km",
    "message_size_bytes",
]
