"""Link latency model implementing the paper's distance utility function.

Section IV.A of the paper defines the distance between two nodes *i* and *j*
as the round-trip ping time predicted by

    D_ij = M_ping / rate(r)  +  2 * P  +  q'          (Eq. 2)
    P    = D(m) / S                                    (Eq. 3)
    q'   = M_ping / (r - lambda * M_ping)              (Eq. 4)

where ``M_ping`` is the ping message length in bytes, ``rate(r)`` the link
transmission rate, ``P`` the one-way propagation time over the physical
distance ``D(m)`` at signal speed ``S`` (2/3 c in fibre/copper, c for
wireless), and ``q'`` the average M/M/1-style queuing delay at the receiver
given a ping arrival rate ``lambda``.

Two effects the paper calls out are added on top of the deterministic formula:

* **congestion jitter** — "distances measurements are subject to network
  congestion and therefore dynamic, within some variance"; every sample is
  multiplied by a log-normal factor;
* **routing detour** — the physical internet does not route along great
  circles, and BGP policy routing means geographically-close node pairs can be
  latency-far.  Each node pair gets a persistent detour factor >= 1 drawn once,
  with a configurable probability of a large detour.  This is precisely the
  phenomenon that separates BCBPT (latency clustering) from LBC (geographic
  clustering) in the paper's Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.net.geo import GeoPosition

#: Speed of light in vacuum, metres per second (used for wireless links).
SIGNAL_SPEED_WIRELESS_M_S = 3.0e8
#: Effective signal speed in copper / fibre, ~2/3 c (used for wired links).
SIGNAL_SPEED_WIRED_M_S = 2.0e8

#: Flag bits of the array-backed pair store (see :class:`LatencyModel`).
_PAIR_FILLED = 1
_PAIR_DETOUR = 2


@dataclass(frozen=True)
class LatencyParameters:
    """Parameters of the Eq. (2)-(4) model plus stochastic extensions.

    Attributes:
        ping_message_bytes: ``M_ping``, length of a ping message.  Bitcoin's
            ping payload is 8 bytes plus a 24-byte header; 32 bytes total.
        transmission_rate_bps: ``rate(r)``, link transmission rate in bytes
            per second.  Defaults to 1 MB/s, a conservative 2016 broadband
            uplink.  (The paper quotes "~100 KB/hour", which is a typo — at
            that rate a single 32-byte ping would take more than a second to
            serialise; we keep the parameter configurable and document the
            substitution in DESIGN.md.)
        signal_speed_m_s: ``S`` in Eq. (3); defaults to wired 2/3 c.
        ping_arrival_rate_per_s: ``lambda`` in Eq. (4), how many pings per
            second arrive at the receiving node.
        queue_service_rate_bps: ``r`` in Eq. (4), the service rate of the
            receiver's queue in bytes per second.
        congestion_jitter_sigma: sigma of the log-normal congestion factor
            applied to every latency sample (0 disables jitter).
        detour_probability: probability that a node pair's traffic takes a
            significant routing detour (BGP policy routing via a distant
            exchange point), making a geographically-close pair latency-far.
        detour_extra_km_range: (low, high) additional path length, in km,
            travelled by detoured pairs on top of their direct path.
        base_detour_range: (low, high) multiplier applied to *all* pairs,
            reflecting that real paths always exceed great-circle distance.
        minimum_rtt_s: floor applied to every RTT sample (kernel/NIC overhead).
    """

    ping_message_bytes: float = 32.0
    transmission_rate_bps: float = 1_000_000.0
    signal_speed_m_s: float = SIGNAL_SPEED_WIRED_M_S
    ping_arrival_rate_per_s: float = 2.0
    queue_service_rate_bps: float = 500_000.0
    congestion_jitter_sigma: float = 0.15
    detour_probability: float = 0.18
    detour_extra_km_range: tuple[float, float] = (2_000.0, 12_000.0)
    base_detour_range: tuple[float, float] = (1.2, 2.0)
    minimum_rtt_s: float = 0.0005

    def __post_init__(self) -> None:
        if self.ping_message_bytes <= 0:
            raise ValueError("ping_message_bytes must be positive")
        if self.transmission_rate_bps <= 0:
            raise ValueError("transmission_rate_bps must be positive")
        if self.signal_speed_m_s <= 0:
            raise ValueError("signal_speed_m_s must be positive")
        if self.queue_service_rate_bps <= self.ping_arrival_rate_per_s * self.ping_message_bytes:
            raise ValueError(
                "queue_service_rate_bps must exceed lambda * M_ping for a stable queue "
                f"(got r={self.queue_service_rate_bps}, "
                f"lambda*M={self.ping_arrival_rate_per_s * self.ping_message_bytes})"
            )
        if not 0.0 <= self.detour_probability <= 1.0:
            raise ValueError("detour_probability must be in [0, 1]")
        if self.detour_extra_km_range[0] > self.detour_extra_km_range[1]:
            raise ValueError("detour_extra_km_range must be (low, high) with low <= high")
        if self.detour_extra_km_range[0] < 0:
            raise ValueError("detour extra distance cannot be negative")
        if self.base_detour_range[0] > self.base_detour_range[1]:
            raise ValueError("base_detour_range must be (low, high) with low <= high")
        if self.base_detour_range[0] < 1.0:
            raise ValueError("base detour factors cannot shorten the great-circle path")
        if self.congestion_jitter_sigma < 0:
            raise ValueError("congestion_jitter_sigma cannot be negative")
        if self.minimum_rtt_s < 0:
            raise ValueError("minimum_rtt_s cannot be negative")

    def with_overrides(self, **kwargs: object) -> "LatencyParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class LatencySample:
    """One measured ping RTT and its decomposition."""

    rtt_s: float
    transmission_s: float
    propagation_s: float
    queuing_s: float
    jitter_factor: float


class LatencyModel:
    """Pairwise latency model over a set of geographic positions.

    The model has two layers:

    * a **deterministic base RTT** per node pair from Eq. (2)-(4) applied to
      the detour-adjusted physical distance — this is the pair's "true"
      topological proximity, stable over a run;
    * a **stochastic sample** layer that multiplies the base RTT by a
      congestion jitter factor each time a ping is measured.

    Per-pair state is stored in one of two backends:

    * **dict mode** (``node_count=None``, the default for standalone use):
      routing tuples and routed path lengths live in per-pair dicts, exactly
      as before — repeated :meth:`path_km` calls with different great-circle
      distances recompute from the persistent stretch/extra draw.
    * **array mode** (``node_count=n``): per-pair state lives in flat
      triangular numpy arrays — 8 bytes of routed-path km plus one flag byte
      per pair instead of ~500 bytes of dict/tuple overhead, which is what
      makes 10k-node networks (~50M pairs) fit in memory.  The arrays are
      lazily filled (``np.zeros`` never touches untouched pages) and keyed by
      the same canonical (low, high) pair ordering, and each pair's routing is
      drawn from the stream in exactly the same order as dict mode, so the
      two backends are byte-identical in every delay they produce.  Because
      node positions are immutable for a run, a pair's routed path is
      resolved once; array mode does not retain the raw stretch factor.

    Args:
        rng: random stream for detour assignment and jitter.
        parameters: model parameters; defaults are sensible for a wired node.
        node_count: when given, enables array mode for node ids in
            ``range(node_count)``; None keeps the dict backend.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        parameters: Optional[LatencyParameters] = None,
        node_count: Optional[int] = None,
    ) -> None:
        self._rng = rng
        self.parameters = parameters if parameters is not None else LatencyParameters()
        if node_count is not None and node_count < 2:
            raise ValueError(f"node_count must be at least 2, got {node_count}")
        self._node_count = node_count
        if node_count is None:
            #: Per-pair persistent routing: (path-stretch factor, extra detour km).
            self._routing: Optional[dict[tuple[int, int], tuple[float, float]]] = {}
            #: Per-pair routed path length cache (positions are immutable for a
            #: run, so the haversine + detour computation is done once per pair).
            self._path_km_cache: Optional[dict[tuple[int, int], float]] = {}
            self._pair_path_km: Optional[np.ndarray] = None
            self._pair_flags: Optional[np.ndarray] = None
            self._deferred_routing: Optional[dict[tuple[int, int], tuple[float, float]]] = None
        else:
            self._routing = None
            self._path_km_cache = None
            pair_count = node_count * (node_count - 1) // 2
            self._pair_path_km = np.zeros(pair_count, dtype=np.float64)
            self._pair_flags = np.zeros(pair_count, dtype=np.uint8)
            #: Routing drawn through the public API (``pair_has_detour`` on an
            #: unresolved pair) before the pair's path is resolved; consumed by
            #: the first resolution so the stream order matches dict mode.
            self._deferred_routing = {}
        # Hot-path constant (parameters are frozen, so this never goes stale).
        # Computed with the exact Eq. (4) expression so cached and uncached
        # code paths agree to the last bit.
        self._queuing_s = self.parameters.ping_message_bytes / (
            self.parameters.queue_service_rate_bps
            - self.parameters.ping_arrival_rate_per_s * self.parameters.ping_message_bytes
        )

    # --------------------------------------------------------------- helpers
    @property
    def array_backed(self) -> bool:
        """Whether per-pair state lives in flat numpy arrays (array mode)."""
        return self._pair_path_km is not None

    @staticmethod
    def _pair_key(node_a: int, node_b: int) -> tuple[int, int]:
        return (node_a, node_b) if node_a <= node_b else (node_b, node_a)

    def _pair_index(self, node_a: int, node_b: int) -> int:
        """Flat triangular index of a pair in the array backend."""
        a, b = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        n = self._node_count
        if a == b:
            raise ValueError(f"a node has no latency to itself (node {a})")
        if a < 0 or b >= n:  # type: ignore[operator]
            raise ValueError(
                f"pair ({node_a}, {node_b}) outside the declared node range [0, {n})"
            )
        return a * n - (a * (a + 3)) // 2 + b - 1  # type: ignore[operator]

    def _draw_routing(self) -> tuple[float, float]:
        """Draw a pair's persistent (stretch factor, extra km) from the stream.

        The single consumption point of the routing draws: both backends call
        this in the same per-pair order, which is what keeps them bit-exact.
        """
        low, high = self.parameters.base_detour_range
        factor = float(self._rng.uniform(low, high))
        extra_km = 0.0
        if self._rng.random() < self.parameters.detour_probability:
            dlow, dhigh = self.parameters.detour_extra_km_range
            extra_km = float(self._rng.uniform(dlow, dhigh))
        return factor, extra_km

    def _routing_of(self, node_a: int, node_b: int) -> tuple[float, float]:
        """Persistent routing characteristics (stretch factor, extra km) of a pair.

        Dict mode only — array mode persists the resolved path, not the raw
        stretch factor.
        """
        key = self._pair_key(node_a, node_b)
        routing = self._routing.get(key)
        if routing is None:
            routing = self._draw_routing()
            self._routing[key] = routing
        return routing

    def _resolve_pair(self, node_a: int, node_b: int, great_circle_km: float) -> float:
        """Array mode: routed path of a pair, drawing its routing on first touch."""
        index = self._pair_index(node_a, node_b)
        if self._pair_flags[index] & _PAIR_FILLED:
            return float(self._pair_path_km[index])
        routing = self._deferred_routing.pop(self._pair_key(node_a, node_b), None)
        if routing is None:
            routing = self._draw_routing()
        factor, extra_km = routing
        path = great_circle_km * factor + extra_km
        self._pair_path_km[index] = path
        self._pair_flags[index] = (
            _PAIR_FILLED | _PAIR_DETOUR if extra_km > 0.0 else _PAIR_FILLED
        )
        return path

    def path_km(self, node_a: int, node_b: int, great_circle_km: float) -> float:
        """Effective routed path length for a pair, given its great-circle distance.

        In array mode a pair's path is resolved once (positions are immutable
        for a run); subsequent calls return the resolved path regardless of
        the distance passed.
        """
        if self._pair_path_km is not None:
            return self._resolve_pair(node_a, node_b, great_circle_km)
        factor, extra_km = self._routing_of(node_a, node_b)
        return great_circle_km * factor + extra_km

    def routing_cached(self, node_a: int, node_b: int) -> bool:
        """Whether the pair's persistent routing has already been drawn.

        The batched jitter path (see :meth:`jitter_factors`) is only
        stream-exact when no routing draws interleave with the jitter draws,
        so callers check this before batching.
        """
        if self._pair_flags is not None:
            return bool(self._pair_flags[self._pair_index(node_a, node_b)] & _PAIR_FILLED)
        return self._pair_key(node_a, node_b) in self._routing

    def _path_km_for(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
    ) -> float:
        """Cached routed path length between two positioned nodes."""
        if self._pair_path_km is not None:
            index = self._pair_index(node_a, node_b)
            if self._pair_flags[index] & _PAIR_FILLED:
                return float(self._pair_path_km[index])
            return self._resolve_pair(
                node_a, node_b, position_a.distance_km(position_b)
            )
        key = self._pair_key(node_a, node_b)
        cached = self._path_km_cache.get(key)
        if cached is None:
            cached = self.path_km(node_a, node_b, position_a.distance_km(position_b))
            self._path_km_cache[key] = cached
        return cached

    # ------------------------------------------------------------ components
    def transmission_delay_s(self, message_bytes: Optional[float] = None) -> float:
        """``M / rate`` term of Eq. (2) for a message of ``message_bytes``."""
        size = self.parameters.ping_message_bytes if message_bytes is None else message_bytes
        return size / self.parameters.transmission_rate_bps

    def propagation_delay_s(self, distance_km: float) -> float:
        """One-way propagation delay ``P = D(m) / S`` (Eq. 3)."""
        if distance_km < 0:
            raise ValueError(f"distance cannot be negative, got {distance_km}")
        return (distance_km * 1000.0) / self.parameters.signal_speed_m_s

    def queuing_delay_s(self) -> float:
        """Average queuing delay ``q' = M / (r - lambda * M)`` (Eq. 4)."""
        return self._queuing_s

    def one_way_propagation_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
    ) -> float:
        """Propagation over the pair's routed path: the leg :meth:`one_way_delay_s` charges.

        Resolves the pair's routing on first touch, drawing it from the stream
        exactly where :meth:`one_way_delay_s` would (before any jitter draw).
        """
        return self.propagation_delay_s(
            self._path_km_for(node_a, position_a, node_b, position_b)
        )

    # ---------------------------------------------------------------- public
    def base_rtt_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
    ) -> float:
        """Deterministic Eq. (2) round-trip time for a node pair in seconds."""
        distance_km = self._path_km_for(node_a, position_a, node_b, position_b)
        rtt = (
            self.transmission_delay_s()
            + 2.0 * self.propagation_delay_s(distance_km)
            + self.queuing_delay_s()
        )
        return max(self.parameters.minimum_rtt_s, rtt)

    def sample_rtt(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
    ) -> LatencySample:
        """One stochastic ping measurement between two nodes."""
        distance_km = self._path_km_for(node_a, position_a, node_b, position_b)
        transmission = self.transmission_delay_s()
        propagation = self.propagation_delay_s(distance_km)
        queuing = self.queuing_delay_s()
        if self.parameters.congestion_jitter_sigma > 0:
            jitter = float(
                self._rng.lognormal(mean=0.0, sigma=self.parameters.congestion_jitter_sigma)
            )
        else:
            jitter = 1.0
        rtt = max(
            self.parameters.minimum_rtt_s,
            (transmission + 2.0 * propagation + queuing) * jitter,
        )
        return LatencySample(
            rtt_s=rtt,
            transmission_s=transmission,
            propagation_s=propagation,
            queuing_s=queuing,
            jitter_factor=jitter,
        )

    def sample_rtts(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
        count: int,
    ) -> list[float]:
        """``count`` stochastic RTT samples for one pair in one batched call.

        Bit-identical to ``count`` sequential :meth:`sample_rtt` calls: the
        pair's routing is resolved first (consuming the stream exactly like
        the first sequential call would), then the jitter factors are drawn as
        one array — numpy ``Generator`` array draws consume the bit stream
        exactly like the same number of scalar draws.  This is the clustering
        hot path: :class:`~repro.core.distance.DistanceCalculator` hammers it
        during cluster formation.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        distance_km = self._path_km_for(node_a, position_a, node_b, position_b)
        base = (
            self.transmission_delay_s()
            + 2.0 * self.propagation_delay_s(distance_km)
            + self.queuing_delay_s()
        )
        minimum = self.parameters.minimum_rtt_s
        sigma = self.parameters.congestion_jitter_sigma
        if sigma <= 0:
            return [max(minimum, base)] * count
        factors = self._rng.lognormal(mean=0.0, sigma=sigma, size=count)
        return [max(minimum, base * float(factor)) for factor in factors]

    def one_way_delay_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
        message_bytes: float,
        *,
        jittered: bool = True,
        jitter_factor: Optional[float] = None,
    ) -> float:
        """Delivery delay for a single message of ``message_bytes`` from a to b.

        Used by the link layer for every protocol message (INV, GETDATA, TX,
        ...): transmission for the actual message size, one propagation leg,
        one queuing term, and optional congestion jitter.

        Args:
            jitter_factor: pre-drawn congestion jitter multiplier (from
                :meth:`jitter_factors`); when None, one factor is drawn from
                the model's stream here.
        """
        distance_km = self._path_km_for(node_a, position_a, node_b, position_b)
        delay = (
            self.transmission_delay_s(message_bytes)
            + self.propagation_delay_s(distance_km)
            + self._queuing_s
        )
        if jittered and self.parameters.congestion_jitter_sigma > 0:
            if jitter_factor is None:
                jitter_factor = float(
                    self._rng.lognormal(mean=0.0, sigma=self.parameters.congestion_jitter_sigma)
                )
            delay *= jitter_factor
        return max(self.parameters.minimum_rtt_s / 2.0, delay)

    def jitter_factor(self) -> float:
        """Draw one congestion jitter factor, as :meth:`one_way_delay_s` does.

        Callers check that ``congestion_jitter_sigma`` is positive first.
        """
        return float(
            self._rng.lognormal(mean=0.0, sigma=self.parameters.congestion_jitter_sigma)
        )

    def jitter_factors(self, count: int) -> Optional[np.ndarray]:
        """Draw ``count`` congestion jitter factors in one batched call.

        numpy ``Generator`` array draws consume the underlying bit stream
        exactly like the same number of scalar draws, so — provided no other
        draw on this stream interleaves (callers guarantee that by checking
        :meth:`routing_cached` for every pair first) — the batch is
        bit-identical to ``count`` sequential per-message draws.

        Returns:
            The factors, or None when jitter is disabled (no draws consumed).
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        sigma = self.parameters.congestion_jitter_sigma
        if sigma <= 0:
            return None
        return self._rng.lognormal(mean=0.0, sigma=sigma, size=count)

    def pair_has_detour(self, node_a: int, node_b: int) -> bool:
        """Whether the pair's persistent routing includes a significant detour."""
        if self._pair_flags is not None:
            index = self._pair_index(node_a, node_b)
            flags = self._pair_flags[index]
            if flags & _PAIR_FILLED:
                return bool(flags & _PAIR_DETOUR)
            # Unresolved pair: draw its routing now (same stream position as
            # dict mode) and park it until the path is first resolved.
            key = self._pair_key(node_a, node_b)
            routing = self._deferred_routing.get(key)
            if routing is None:
                routing = self._deferred_routing[key] = self._draw_routing()
            return routing[1] > 0.0
        _, extra_km = self._routing_of(node_a, node_b)
        return extra_km > 0.0
