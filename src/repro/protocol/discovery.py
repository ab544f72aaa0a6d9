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

from typing import Iterable, Sequence

import numpy as np

from repro.net.geo import GeoPosition

#: How far below the ``count``-th largest cosine :meth:`DnsSeedService.nearest`
#: still keeps a row, and how close two adjacent cosines must lie for their
#: rows to need the exact distance.  Since 1 - cos θ ≈ θ²/2, that is under
#: ten metres of great-circle distance even next to the origin.
_COSINE_MARGIN = 1e-12


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
        # One row per node, in ascending id order: the unit vector of its
        # position for the proximity prefilter, and the online mask the
        # queries read their candidates from.  Positions are immutable, so
        # only the mask ever changes.
        self._ids = sorted(positions)
        self._row_of = {node_id: row for row, node_id in enumerate(self._ids)}
        latitudes = np.radians([positions[i].latitude for i in self._ids])
        longitudes = np.radians([positions[i].longitude for i in self._ids])
        cos_latitudes = np.cos(latitudes)
        self._xyz = np.column_stack(
            (cos_latitudes * np.cos(longitudes), cos_latitudes * np.sin(longitudes), np.sin(latitudes))
        )
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
        return self.nearest(requester_id, self._candidate_rows(requester_id), self.seed_sample_size)

    def nearest(self, origin_id: int, rows: np.ndarray, count: int) -> list[int]:
        """Ids of the ``count`` nodes at ``rows`` nearest ``origin_id``, by (distance, id).

        The dot product of two rows' unit vectors is the cosine of their
        central angle, which falls as the great-circle distance grows: one
        matrix-vector product and an ``np.partition`` cut keep the rows whose
        cosine is at most :data:`_COSINE_MARGIN` below the ``count``-th
        largest.  The cosines and the haversine each round by a few ulp of 1
        in cosine terms, so a row the exact sort places at or before the
        ``count``-th lies at most ~1e-14 below the cut, a hundredth of the
        margin, and two rows whose cosines differ by more than the margin
        have their exact distances in the same order.  The survivors are
        therefore ordered by cosine, and exact
        :meth:`~repro.net.geo.GeoPosition.distance_km` and id order only the
        near-tie runs, where adjacent cosines differ by at most the margin.
        The result is the first ``count`` of the exact (distance, id) sort
        of every row, at O(n) vector work and a haversine only for the
        members of near-tie runs.  ``rows`` no longer than ``count`` are
        sorted exactly, with no vector work.

        Raises:
            KeyError: for an origin the seed has no position for.
        """
        origin = self._positions[origin_id]
        ids = self._ids
        if len(rows) <= count:
            return self._by_distance(origin, (ids[row] for row in rows.tolist()))
        cosines = (self._xyz @ self._xyz[self._row_of[origin_id]])[rows]
        keep = cosines >= np.partition(cosines, -count)[-count] - _COSINE_MARGIN
        runs: list[list[int]] = []
        previous = float("inf")
        for cosine, row in sorted(zip(cosines[keep].tolist(), rows[keep].tolist()), reverse=True):
            if previous - cosine > _COSINE_MARGIN:
                runs.append([ids[row]])
            else:
                runs[-1].append(ids[row])
            previous = cosine
        peers: list[int] = []
        for run in runs:
            if len(peers) >= count:
                break
            peers.extend(run if len(run) == 1 else self._by_distance(origin, run))
        return peers[:count]

    def rows_of(self, node_ids: Sequence[int]) -> np.ndarray:
        """The seed's rows of ``node_ids``, the input :meth:`nearest` ranks.

        Raises:
            KeyError: for an id the seed has no position for.
        """
        row_of = self._row_of
        return np.fromiter((row_of[i] for i in node_ids), dtype=np.intp, count=len(node_ids))

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
