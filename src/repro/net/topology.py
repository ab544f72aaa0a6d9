"""Overlay topology: the graph of live peer connections.

The topology is the ground truth of "who is connected to whom" at any instant.
It wraps a :class:`networkx.Graph` so that experiments can run graph analytics
(diameter, clustering coefficient, connected components) on snapshots, while
exposing the small mutating API the protocol layer needs: add/remove links,
enumerate a node's neighbours, enforce connection limits.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import networkx as nx

from repro.net.link import Link


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
        self._graph = nx.Graph()
        self._links: dict[tuple[int, int], Link] = {}

    # ----------------------------------------------------------------- nodes
    def add_node(self, node_id: int) -> None:
        """Register a node (idempotent)."""
        self._graph.add_node(node_id)

    def remove_node(self, node_id: int) -> list[Link]:
        """Remove a node and all its links; returns the removed links."""
        if node_id not in self._graph:
            return []
        removed = [self._links.pop(self._link_key(node_id, peer)) for peer in self.neighbors(node_id)]
        self._graph.remove_node(node_id)
        return removed

    def has_node(self, node_id: int) -> bool:
        """Whether the node is currently part of the overlay."""
        return node_id in self._graph

    @property
    def node_count(self) -> int:
        """Number of nodes currently registered."""
        return self._graph.number_of_nodes()

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(self._graph.nodes)

    # ----------------------------------------------------------------- links
    @staticmethod
    def _link_key(node_x: int, node_y: int) -> tuple[int, int]:
        return (node_x, node_y) if node_x < node_y else (node_y, node_x)

    def connect(self, link: Link) -> None:
        """Add a connection.

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
        self._graph.add_edge(link.node_a, link.node_b)
        self._links[link.key] = link

    def disconnect(self, node_x: int, node_y: int) -> Optional[Link]:
        """Remove the connection between two nodes if it exists."""
        key = self._link_key(node_x, node_y)
        link = self._links.pop(key, None)
        if link is not None:
            self._graph.remove_edge(*key)
        return link

    def are_connected(self, node_x: int, node_y: int) -> bool:
        """Whether a live connection exists between the two nodes."""
        # The link table mirrors the graph's edges; a dict probe is cheaper
        # than networkx's has_edge, and this runs once per delivered message.
        return self._link_key(node_x, node_y) in self._links

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
        """Iterate over all live links."""
        return iter(self._links.values())

    @property
    def link_count(self) -> int:
        """Number of live links."""
        return len(self._links)

    def neighbors(self, node_id: int) -> list[int]:
        """Node ids directly connected to ``node_id`` (empty if unknown)."""
        if node_id not in self._graph:
            return []
        return list(self._graph.neighbors(node_id))

    def degree(self, node_id: int) -> int:
        """Number of live connections of a node."""
        if node_id not in self._graph:
            return 0
        return int(self._graph.degree(node_id))

    def can_accept(self, node_id: int) -> bool:
        """Whether the node has room for one more connection."""
        if self.max_connections is None:
            return True
        return self.degree(node_id) < self.max_connections

    # -------------------------------------------------------------- analysis
    def snapshot(self) -> nx.Graph:
        """A copy of the current connection graph for offline analysis."""
        return self._graph.copy()

    def is_connected(self) -> bool:
        """Whether the overlay forms a single connected component."""
        if self._graph.number_of_nodes() == 0:
            return True
        return nx.is_connected(self._graph)

    def connected_components(self) -> list[set[int]]:
        """Connected components as sets of node ids."""
        return [set(c) for c in nx.connected_components(self._graph)]

    def average_degree(self) -> float:
        """Mean connection count per node (0 for an empty overlay)."""
        n = self._graph.number_of_nodes()
        if n == 0:
            return 0.0
        return 2.0 * self._graph.number_of_edges() / n

    def average_shortest_path_length(self) -> float:
        """Average hop distance on the largest connected component."""
        if self._graph.number_of_nodes() < 2:
            return 0.0
        components = sorted(nx.connected_components(self._graph), key=len, reverse=True)
        giant = self._graph.subgraph(components[0])
        if giant.number_of_nodes() < 2:
            return 0.0
        return float(nx.average_shortest_path_length(giant))

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayTopology(nodes={self.node_count}, links={self.link_count})"
