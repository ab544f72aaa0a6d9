"""Tests for the overlay topology graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.topology import OverlayTopology


def make_topology(max_connections=None):
    topology = OverlayTopology(max_connections=max_connections)
    for node_id in range(6):
        topology.add_node(node_id)
    return topology


class TestNodes:
    def test_add_and_count_nodes(self):
        topology = make_topology()
        assert topology.node_count == 6
        assert topology.has_node(0)
        assert not topology.has_node(99)

    def test_add_node_idempotent(self):
        topology = make_topology()
        topology.add_node(0)
        assert topology.node_count == 6

    def test_remove_node_returns_links(self):
        topology = make_topology()
        topology.connect(Link.make(0, 1, 0.0))
        topology.connect(Link.make(0, 2, 0.0))
        removed = topology.remove_node(0)
        assert len(removed) == 2
        assert topology.link_count == 0
        assert not topology.has_node(0)

    def test_remove_unknown_node_is_noop(self):
        topology = make_topology()
        assert topology.remove_node(99) == []

    def test_contains_operator(self):
        topology = make_topology()
        assert 3 in topology
        assert 99 not in topology


class TestLinks:
    def test_connect_and_query(self):
        topology = make_topology()
        topology.connect(Link.make(0, 1, 0.0))
        assert topology.are_connected(0, 1)
        assert topology.are_connected(1, 0)
        assert topology.link_count == 1
        assert topology.degree(0) == 1

    def test_duplicate_connection_rejected(self):
        topology = make_topology()
        topology.connect(Link.make(0, 1, 0.0))
        with pytest.raises(ValueError):
            topology.connect(Link.make(1, 0, 1.0))

    def test_connection_limit_enforced(self):
        topology = make_topology(max_connections=2)
        topology.connect(Link.make(0, 1, 0.0))
        topology.connect(Link.make(0, 2, 0.0))
        with pytest.raises(ValueError):
            topology.connect(Link.make(0, 3, 0.0))
        assert not topology.can_accept(0)
        assert topology.can_accept(3)

    def test_invalid_connection_limit_rejected(self):
        with pytest.raises(ValueError):
            OverlayTopology(max_connections=0)

    def test_disconnect_returns_link(self):
        topology = make_topology()
        original = Link.make(0, 1, 0.0, is_long_link=True)
        topology.connect(original)
        removed = topology.disconnect(1, 0)
        assert removed is original
        assert not topology.are_connected(0, 1)

    def test_disconnect_missing_returns_none(self):
        topology = make_topology()
        assert topology.disconnect(0, 1) is None

    def test_link_lookup(self):
        topology = make_topology()
        topology.connect(Link.make(2, 4, 3.0, is_cluster_link=True))
        link = topology.link(4, 2)
        assert link.is_cluster_link
        with pytest.raises(KeyError):
            topology.link(0, 5)

    def test_neighbors_listing(self):
        topology = make_topology()
        topology.connect(Link.make(0, 1, 0.0))
        topology.connect(Link.make(0, 3, 0.0))
        assert sorted(topology.neighbors(0)) == [1, 3]
        assert topology.neighbors(99) == []

    def test_degree_of_unknown_node_is_zero(self):
        topology = make_topology()
        assert topology.degree(99) == 0


class TestAnalysis:
    def test_connectivity_detection(self):
        topology = make_topology()
        for i in range(5):
            topology.connect(Link.make(i, i + 1, 0.0))
        assert topology.is_connected()

    def test_disconnected_components(self):
        topology = make_topology()
        topology.connect(Link.make(0, 1, 0.0))
        topology.connect(Link.make(2, 3, 0.0))
        components = topology.connected_components()
        assert len(components) == 4  # {0,1}, {2,3}, {4}, {5}

    def test_empty_topology_is_connected(self):
        assert OverlayTopology().is_connected()

    def test_average_degree(self):
        topology = make_topology()
        topology.connect(Link.make(0, 1, 0.0))
        topology.connect(Link.make(2, 3, 0.0))
        assert topology.average_degree() == pytest.approx(4 / 6)

    def test_average_degree_empty(self):
        assert OverlayTopology().average_degree() == 0.0

    def test_average_shortest_path_on_chain(self):
        topology = make_topology()
        for i in range(5):
            topology.connect(Link.make(i, i + 1, 0.0))
        assert topology.average_shortest_path_length() > 1.0

    def test_snapshot_is_a_copy(self):
        topology = make_topology()
        topology.connect(Link.make(0, 1, 0.0))
        adjacency = topology.snapshot()
        assert adjacency[0] == {1} and adjacency[1] == {0}
        adjacency[0].discard(1)
        adjacency[1].discard(0)
        assert topology.are_connected(0, 1)
        assert topology.neighbors(0) == [1] and topology.neighbors(1) == [0]

    def test_reconnected_link_moves_to_the_end(self):
        topology = make_topology()
        for peer in (1, 2, 3):
            topology.connect(Link.make(0, peer, 0.0))
        topology.disconnect(0, 1)
        topology.connect(Link.make(1, 0, 0.0))
        assert topology.neighbors(0) == [2, 3, 1]

    def test_components_in_order_of_first_node(self):
        topology = make_topology()
        topology.connect(Link.make(4, 5, 0.0))
        topology.connect(Link.make(1, 3, 0.0))
        assert topology.connected_components() == [{0}, {1, 3}, {2}, {4, 5}]

    def test_average_shortest_path_takes_first_largest_component(self):
        topology = make_topology()
        topology.connect(Link.make(0, 1, 0.0))  # {0, 1, 2}: a path, mean 4/3
        topology.connect(Link.make(1, 2, 0.0))
        topology.connect(Link.make(3, 4, 0.0))  # {3, 4, 5}: a triangle, mean 1
        topology.connect(Link.make(4, 5, 0.0))
        topology.connect(Link.make(3, 5, 0.0))
        assert topology.average_shortest_path_length() == 8 / 6

    @given(edges=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_equals_twice_links_property(self, edges):
        topology = OverlayTopology(max_connections=None)
        for node in range(16):
            topology.add_node(node)
        for a, b in edges:
            if a != b and not topology.are_connected(a, b):
                topology.connect(Link.make(a, b, 0.0))
        total_degree = sum(topology.degree(n) for n in range(16))
        assert total_degree == 2 * topology.link_count


# --------------------------------------------------- networkx as the reference
# "connect" is listed twice so that links outnumber the other steps and
# components grow beyond single nodes.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), st.integers(0, 11)),
        st.tuples(st.just("remove_node"), st.integers(0, 11)),
        st.tuples(st.just("connect"), st.integers(0, 11), st.integers(0, 11)),
        st.tuples(st.just("connect"), st.integers(0, 11), st.integers(0, 11)),
        st.tuples(st.just("disconnect"), st.integers(0, 11), st.integers(0, 11)),
    ),
    max_size=50,
)


def _reference_average_shortest_path_length(nx, graph):
    """What the topology computed when it wrapped an ``nx.Graph``."""
    if graph.number_of_nodes() < 2:
        return 0.0
    components = sorted(nx.connected_components(graph), key=len, reverse=True)
    giant = graph.subgraph(components[0])
    if giant.number_of_nodes() < 2:
        return 0.0
    return float(nx.average_shortest_path_length(giant))


@given(steps=_STEPS)
@settings(max_examples=200, deadline=None)
def test_topology_matches_networkx_graph(steps):
    """Every order the digests depend on matches an ``nx.Graph`` driven alike."""
    nx = pytest.importorskip("networkx")
    topology = OverlayTopology(max_connections=4)
    graph = nx.Graph()
    for step in steps:
        op, node = step[0], step[1]
        if op == "add_node":
            topology.add_node(node)
            graph.add_node(node)
        elif op == "remove_node":
            peers = list(graph.neighbors(node)) if node in graph else []
            removed = topology.remove_node(node)
            assert [link.other(node) for link in removed] == peers
            if node in graph:
                graph.remove_node(node)
        elif op == "connect":
            peer = step[2]
            if node == peer:
                continue
            link = Link.make(node, peer, 0.0)
            try:
                topology.connect(link)
            except ValueError:
                at_cap = [graph.degree(n) == 4 for n in (node, peer) if n in graph]
                assert graph.has_edge(node, peer) or any(at_cap)
                continue
            graph.add_edge(link.node_a, link.node_b)
        else:
            peer = step[2]
            removed = topology.disconnect(node, peer)
            assert (removed is not None) == graph.has_edge(node, peer)
            if removed is not None:
                graph.remove_edge(node, peer)

        assert list(topology.nodes()) == list(graph.nodes)
        for node_id in graph.nodes:
            assert topology.neighbors(node_id) == list(graph.neighbors(node_id))
            assert topology.degree(node_id) == graph.degree(node_id)
        assert topology.link_count == graph.number_of_edges()
        assert {link.key for link in topology.links()} == {
            tuple(sorted(edge)) for edge in graph.edges
        }
        assert topology.connected_components() == [
            set(component) for component in nx.connected_components(graph)
        ]
        assert topology.is_connected() == (
            graph.number_of_nodes() == 0 or nx.is_connected(graph)
        )
        assert topology.average_shortest_path_length() == (
            _reference_average_shortest_path_length(nx, graph)
        )
