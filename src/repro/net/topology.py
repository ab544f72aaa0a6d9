"""Overlay topology: the graph of live peer connections.

The topology is the ground truth of "who is connected to whom" at any instant.
It keeps an insertion-ordered adjacency — nodes in registration order, each
node's neighbours in link-creation order — beside a creation-ordered link
table, and exposes the small mutating API the protocol layer needs (add/remove
links, enumerate a node's neighbours, enforce connection limits).  The few
graph questions experiments ask (connected components, connectivity, average
hop distance) are breadth-first searches over that adjacency.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from repro.net.link import Link


def _hop_distances(adjacency: Mapping[int, Iterable[int]], source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every node it reaches."""
    distances = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for node in frontier:
            for peer in adjacency[node]:
                if peer not in distances:
                    distances[peer] = depth
                    reached.append(peer)
        frontier = reached
    return distances


def connected_components(adjacency: Mapping[int, Iterable[int]]) -> list[set[int]]:
    """Connected components of an adjacency mapping, as sets of node ids.

    Components come in the order of their first node in ``adjacency``.
    """
    components: list[set[int]] = []
    seen: set[int] = set()
    for node in adjacency:
        if node not in seen:
            component = set(_hop_distances(adjacency, node))
            seen |= component
            components.append(component)
    return components


class OverlayTopology:
    """Mutable undirected connection graph of the Bitcoin overlay.

    Args:
        max_connections: per-node cap on total connections (Bitcoin Core's
            default is 125).  ``None`` disables the cap.
    """

    def __init__(self, max_connections: Optional[int] = 125) -> None:
        if max_connections is not None and max_connections <= 0:
            raise ValueError(f"max_connections must be positive or None, got {max_connections}")
        self.max_connections = max_connections
        # node -> neighbours (dict keys keep link-creation order).
        self._adjacency: dict[int, dict[int, None]] = {}
        self._links: dict[tuple[int, int], Link] = {}

    # ----------------------------------------------------------------- nodes
    def add_node(self, node_id: int) -> None:
        """Register a node (idempotent)."""
        self._adjacency.setdefault(node_id, {})

    def remove_node(self, node_id: int) -> list[Link]:
        """Remove a node and all its links; returns the removed links."""
        peers = self._adjacency.pop(node_id, None)
        if peers is None:
            return []
        for peer in peers:
            del self._adjacency[peer][node_id]
        return [self._links.pop(self._link_key(node_id, peer)) for peer in peers]

    def has_node(self, node_id: int) -> bool:
        """Whether the node is currently part of the overlay."""
        return node_id in self._adjacency

    @property
    def node_count(self) -> int:
        """Number of nodes currently registered."""
        return len(self._adjacency)

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(self._adjacency)

    # ----------------------------------------------------------------- links
    @staticmethod
    def _link_key(node_x: int, node_y: int) -> tuple[int, int]:
        return (node_x, node_y) if node_x < node_y else (node_y, node_x)

    def connect(self, link: Link) -> None:
        """Add a connection (registering either endpoint not yet known).

        Raises:
            ValueError: if either endpoint would exceed ``max_connections`` or
                the link already exists.
        """
        if self.are_connected(link.node_a, link.node_b):
            raise ValueError(f"nodes {link.node_a} and {link.node_b} are already connected")
        for endpoint in (link.node_a, link.node_b):
            if (
                self.max_connections is not None
                and self.degree(endpoint) >= self.max_connections
            ):
                raise ValueError(
                    f"node {endpoint} is at its connection limit ({self.max_connections})"
                )
        self._adjacency.setdefault(link.node_a, {})[link.node_b] = None
        self._adjacency.setdefault(link.node_b, {})[link.node_a] = None
        self._links[link.key] = link

    def disconnect(self, node_x: int, node_y: int) -> Optional[Link]:
        """Remove the connection between two nodes if it exists."""
        link = self._links.pop(self._link_key(node_x, node_y), None)
        if link is not None:
            del self._adjacency[node_x][node_y]
            del self._adjacency[node_y][node_x]
        return link

    def are_connected(self, node_x: int, node_y: int) -> bool:
        """Whether a live connection exists between the two nodes."""
        return node_y in self._adjacency.get(node_x, ())

    def link(self, node_x: int, node_y: int) -> Link:
        """The :class:`Link` between two nodes.

        Raises:
            KeyError: if they are not connected.
        """
        key = self._link_key(node_x, node_y)
        if key not in self._links:
            raise KeyError(f"nodes {node_x} and {node_y} are not connected")
        return self._links[key]

    def links(self) -> Iterator[Link]:
        """Iterate over all live links, in creation order."""
        return iter(self._links.values())

    @property
    def link_count(self) -> int:
        """Number of live links."""
        return len(self._links)

    def neighbors(self, node_id: int) -> list[int]:
        """Neighbours of ``node_id`` in link-creation order (empty if unknown)."""
        return list(self._adjacency.get(node_id, ()))

    def degree(self, node_id: int) -> int:
        """Number of live connections of a node."""
        return len(self._adjacency.get(node_id, ()))

    def can_accept(self, node_id: int) -> bool:
        """Whether the node has room for one more connection."""
        if self.max_connections is None:
            return True
        return self.degree(node_id) < self.max_connections

    # -------------------------------------------------------------- analysis
    def snapshot(self) -> dict[int, set[int]]:
        """A copy of the current adjacency (node -> neighbour set) for offline analysis."""
        return {node: set(peers) for node, peers in self._adjacency.items()}

    def is_connected(self) -> bool:
        """Whether the overlay forms a single connected component."""
        if not self._adjacency:
            return True
        first = next(iter(self._adjacency))
        return len(_hop_distances(self._adjacency, first)) == len(self._adjacency)

    def connected_components(self) -> list[set[int]]:
        """Connected components as sets of node ids, in order of first node."""
        return connected_components(self._adjacency)

    def average_degree(self) -> float:
        """Mean connection count per node (0 for an empty overlay)."""
        n = len(self._adjacency)
        if n == 0:
            return 0.0
        return 2.0 * len(self._links) / n

    def average_shortest_path_length(self) -> float:
        """Average hop distance on the largest connected component.

        Ties between equally large components go to the first one; the
        result is the integer sum of distances over ordered pairs divided by
        ``n * (n - 1)``.
        """
        if len(self._adjacency) < 2:
            return 0.0
        giant = max(connected_components(self._adjacency), key=len)
        n = len(giant)
        if n < 2:
            return 0.0
        total = sum(sum(_hop_distances(self._adjacency, node).values()) for node in giant)
        return total / (n * (n - 1))

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._adjacency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayTopology(nodes={self.node_count}, links={self.link_count})"
