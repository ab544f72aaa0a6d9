"""Peer discovery: the DNS seed service.

Section IV.B of the paper: a node joining for the first time learns about
available peers from DNS seed services.  Under BCBPT the seed additionally
ranks the returned peers by geographic proximity to the requester ("DNS
service nodes should recommend available nodes to the node N based on the
proximity in the physical geographical location"), because geographic distance
is usually a decent first approximation of topological distance.  After
joining, nodes keep discovering peers through the normal ADDR-gossip
mechanism, modelled here by sampling from the set of currently-online peers.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.net.geo import EARTH_RADIUS_KM, GeoPosition


class DnsSeedService:
    """The DNS seed used during bootstrap.

    Args:
        positions: geographic position of every node in the population.
        rng: random stream used for the vanilla (unranked) seed behaviour.
        seed_sample_size: how many addresses one DNS query returns.
    """

    def __init__(
        self,
        positions: dict[int, GeoPosition],
        rng: np.random.Generator,
        *,
        seed_sample_size: int = 25,
    ) -> None:
        if seed_sample_size <= 0:
            raise ValueError(f"seed_sample_size must be positive, got {seed_sample_size}")
        self._positions = positions
        self._rng = rng
        self.seed_sample_size = seed_sample_size
        self.queries_served = 0
        # One row per node, in ascending id order: latitude/longitude columns
        # for the vectorised proximity prefilter, and the online mask the
        # queries read their candidates from.  Positions are immutable, so
        # only the mask ever changes.
        self._ids = sorted(positions)
        self._row_of = {node_id: row for row, node_id in enumerate(self._ids)}
        self._latitudes = np.array([positions[i].latitude for i in self._ids], dtype=np.float64)
        self._longitudes = np.array([positions[i].longitude for i in self._ids], dtype=np.float64)
        self._online_rows = np.zeros(len(self._ids), dtype=bool)
        #: requester -> the rows of every other node by (distance, id), kept
        #: only while the whole population fits under the prefilter's size:
        #: one ranking per requester is quadratic in nodes.
        self._rankings: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------- liveness
    def set_online(self, node_id: int, online: bool) -> None:
        """Track which nodes the seed may return (only reachable ones).

        Raises:
            KeyError: for a node the seed has no position for, which it could
                never rank.
        """
        row = self._row_of.get(node_id)
        if row is None:
            raise KeyError(f"the DNS seed has no position for node {node_id}")
        self._online_rows[row] = online

    def online_count(self) -> int:
        """Number of nodes the seed currently considers reachable."""
        return int(np.count_nonzero(self._online_rows))

    # -------------------------------------------------------------- queries
    def query(self, requester_id: int) -> list[int]:
        """Vanilla Bitcoin behaviour: a random sample of reachable peers."""
        self.queries_served += 1
        rows = self._candidate_rows(requester_id)
        if len(rows) > self.seed_sample_size:
            rows = rows[self._rng.choice(len(rows), size=self.seed_sample_size, replace=False)]
        return [self._ids[row] for row in rows.tolist()]

    def query_proximity_ranked(self, requester_id: int) -> list[int]:
        """BCBPT bootstrap behaviour (Section IV.B): peers ranked by geographic distance.

        The ranking uses *geographic* distance because that is all a DNS seed
        can know; the requesting node then refines the ordering with actual
        ping measurements.
        """
        self.queries_served += 1
        origin = self._positions.get(requester_id)
        if origin is None:
            rows = self._candidate_rows(requester_id)
            return [self._ids[row] for row in rows[: self.seed_sample_size].tolist()]
        prefilter_above = max(4 * self.seed_sample_size, 64)
        if len(self._ids) <= prefilter_above:
            # A small population: rank everyone once per requester, then keep
            # the online rows of that total order, which is the exact sort of
            # the online candidates.
            ranking = self._rankings.get(requester_id)
            if ranking is None:
                peers = self._by_distance(origin, (i for i in self._ids if i != requester_id))
                ranking = self._rankings[requester_id] = np.array(
                    [self._row_of[peer] for peer in peers], dtype=np.intp
                )
            rows = ranking[self._online_rows[ranking]][: self.seed_sample_size]
            return [self._ids[row] for row in rows.tolist()]
        rows = self._candidate_rows(requester_id)
        if len(rows) > prefilter_above:
            rows = self._prefilter_by_distance(origin, rows)
        ranked = self._by_distance(origin, (self._ids[row] for row in rows.tolist()))
        return ranked[: self.seed_sample_size]

    def _by_distance(self, origin: GeoPosition, peers: Iterable[int]) -> list[int]:
        """``peers`` by exact great-circle distance from ``origin``, ties by id."""
        return sorted(peers, key=lambda peer: (origin.distance_km(self._positions[peer]), peer))

    def _candidate_rows(self, requester_id: int) -> np.ndarray:
        """Rows of the reachable nodes other than the requester, by ascending id."""
        online = self._online_rows
        row = self._row_of.get(requester_id)
        if row is not None and online[row]:
            online = online.copy()
            online[row] = False
        return np.flatnonzero(online)

    def _prefilter_by_distance(self, origin: GeoPosition, rows: np.ndarray) -> np.ndarray:
        """Shrink candidate ``rows`` to a superset of the ``k`` closest peers.

        One vectorised haversine pass picks the cut.  numpy transcendentals
        and ``math``'s can differ in the last ulp, so the approximate
        distances are *never* used for the final ordering — the caller's
        exact scalar sort still decides that — and the cut keeps everything
        within a 1-metre margin of the k-th approximate distance, far wider
        than the sub-micrometre float discrepancy.  The ranking is therefore
        byte-identical to sorting the full candidate list, at O(n) vector
        work instead of O(n) scalar haversines per query.
        """
        k = self.seed_sample_size
        latitudes = self._latitudes[rows]
        phi1 = math.radians(origin.latitude)
        phi2 = np.radians(latitudes)
        dphi = np.radians(latitudes - origin.latitude)
        dlambda = np.radians(self._longitudes[rows] - origin.longitude)
        a = np.sin(dphi / 2.0) ** 2 + math.cos(phi1) * np.cos(phi2) * np.sin(dlambda / 2.0) ** 2
        distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(1.0, a)))
        cutoff = np.partition(distance, k - 1)[k - 1] + 1e-3
        return rows[distance <= cutoff]
