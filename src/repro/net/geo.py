"""Geographic model of the Bitcoin node population.

The paper's DNS-seed recommendation step and the LBC baseline both reason
about *geographic* proximity, while BCBPT reasons about *latency* proximity.
The gap between the two — geographically-close nodes that are far apart in the
physical internet — is the effect the paper's headline result rests on, so the
geographic model matters here.

Nodes are placed in a set of world regions whose weights roughly follow the
distribution of reachable Bitcoin nodes reported by public crawlers around
2016 (North America and Europe dominate, followed by East Asia).  Each region
is an anchor city with latitude/longitude plus a dispersion radius; a node's
position is the anchor plus Gaussian noise, so intra-region distances are a
few hundred kilometres and inter-region distances are thousands.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.sim.rng import choice_cdf

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class Region:
    """A world region that hosts a share of the Bitcoin node population.

    Attributes:
        name: short identifier (e.g. ``"eu-west"``).
        country: representative country code used by LBC-style grouping.
        latitude: anchor latitude in degrees.
        longitude: anchor longitude in degrees.
        weight: relative share of nodes hosted in the region.
        spread_km: standard deviation of node placement around the anchor.
    """

    name: str
    country: str
    latitude: float
    longitude: float
    weight: float
    spread_km: float = 300.0


#: Default world regions with weights approximating the 2016 reachable-node
#: distribution (US + EU host the majority of reachable peers, then East Asia).
WORLD_REGIONS: tuple[Region, ...] = (
    Region("us-east", "US", 40.71, -74.01, weight=0.17, spread_km=450.0),
    Region("us-central", "US", 41.88, -87.63, weight=0.08, spread_km=500.0),
    Region("us-west", "US", 37.77, -122.42, weight=0.10, spread_km=400.0),
    Region("canada", "CA", 43.65, -79.38, weight=0.03, spread_km=500.0),
    Region("eu-west", "DE", 50.11, 8.68, weight=0.16, spread_km=350.0),
    Region("eu-north", "NL", 52.37, 4.90, weight=0.08, spread_km=250.0),
    Region("eu-east", "RU", 55.76, 37.62, weight=0.05, spread_km=600.0),
    Region("uk", "GB", 51.51, -0.13, weight=0.06, spread_km=200.0),
    Region("france", "FR", 48.86, 2.35, weight=0.05, spread_km=250.0),
    Region("east-asia", "CN", 31.23, 121.47, weight=0.07, spread_km=600.0),
    Region("japan", "JP", 35.68, 139.69, weight=0.04, spread_km=250.0),
    Region("southeast-asia", "SG", 1.35, 103.82, weight=0.03, spread_km=400.0),
    Region("oceania", "AU", -33.87, 151.21, weight=0.02, spread_km=500.0),
    Region("south-america", "BR", -23.55, -46.63, weight=0.03, spread_km=700.0),
    Region("africa", "ZA", -26.20, 28.05, weight=0.01, spread_km=700.0),
    Region("india", "IN", 19.08, 72.88, weight=0.02, spread_km=600.0),
)


@dataclass(frozen=True)
class GeoPosition:
    """A node's physical location."""

    latitude: float
    longitude: float
    region: str
    country: str

    def distance_km(self, other: "GeoPosition") -> float:
        """Great-circle distance to another position in kilometres."""
        return haversine_km(self.latitude, self.longitude, other.latitude, other.longitude)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon points in kilometres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    a = min(1.0, a)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


class GeoModel:
    """Samples node positions from a weighted set of world regions.

    Args:
        rng: random stream used for region choice and intra-region placement.
        regions: region definitions; defaults to :data:`WORLD_REGIONS`.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        regions: Optional[Sequence[Region]] = None,
    ) -> None:
        self._rng = rng
        self._regions = tuple(regions) if regions is not None else WORLD_REGIONS
        if not self._regions:
            raise ValueError("at least one region is required")
        if any(r.weight < 0 for r in self._regions):
            raise ValueError("region weights cannot be negative")
        total = sum(r.weight for r in self._regions)
        if total <= 0:
            raise ValueError("region weights must sum to a positive value")
        self._cdf = choice_cdf([r.weight / total for r in self._regions])

    @property
    def regions(self) -> tuple[Region, ...]:
        """The configured regions."""
        return self._regions

    def sample_position(self) -> GeoPosition:
        """Draw one node position."""
        region = self._regions[bisect.bisect_right(self._cdf, self._rng.random())]
        # Convert the km spread to approximate degrees of latitude/longitude.
        lat_noise = self._rng.normal(0.0, region.spread_km / 111.0)
        lon_scale = max(0.2, math.cos(math.radians(region.latitude)))
        lon_noise = self._rng.normal(0.0, region.spread_km / (111.0 * lon_scale))
        latitude = float(np.clip(region.latitude + lat_noise, -89.0, 89.0))
        longitude = float((region.longitude + lon_noise + 180.0) % 360.0 - 180.0)
        return GeoPosition(latitude, longitude, region.name, region.country)

    def sample_positions(self, count: int) -> list[GeoPosition]:
        """Draw ``count`` node positions."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.sample_position() for _ in range(count)]

    def region_of(self, name: str) -> Region:
        """Look up a region by name."""
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(f"unknown region {name!r}")
