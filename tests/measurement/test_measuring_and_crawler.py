"""Tests for the measuring node (Fig. 2 methodology) and the crawler."""

import pytest

from repro.measurement.crawler import NetworkCrawler
from repro.measurement.measuring_node import MeasuringNode
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network
from repro.workloads.scenarios import build_scenario


@pytest.fixture(scope="module")
def measured_scenario():
    """A funded BCBPT scenario reused by the measurement tests (module scope
    keeps the suite fast; each test uses fresh transactions)."""
    scenario = build_scenario(
        "bcbpt", NetworkParameters(node_count=40, seed=5), latency_threshold_s=0.025
    )
    fund_nodes(list(scenario.network.nodes.values()), outputs_per_node=30)
    return scenario


class TestMeasuringNode:
    def test_single_run_records_all_connections(self, measured_scenario):
        scenario = measured_scenario
        node = scenario.network.node(0)
        measuring = MeasuringNode(node, scenario.simulator.random.stream("m1"))
        run = measuring.measure_once()
        assert run.connected_nodes == tuple(sorted(node.neighbors()))
        assert run.complete
        assert run.coverage == 1.0
        assert all(record.delta_t_s >= 0 for record in run.receptions)

    def test_first_recipient_is_a_connection(self, measured_scenario):
        scenario = measured_scenario
        node = scenario.network.node(0)
        measuring = MeasuringNode(node, scenario.simulator.random.stream("m2"))
        run = measuring.measure_once()
        assert run.first_recipient in run.connected_nodes

    def test_first_recipient_receives_before_most_others(self, measured_scenario):
        scenario = measured_scenario
        node = scenario.network.node(0)
        measuring = MeasuringNode(node, scenario.simulator.random.stream("m3"))
        run = measuring.measure_once()
        direct_delay = run.delay_of(run.first_recipient)
        later_delays = [r.delta_t_s for r in run.receptions if r.node_id != run.first_recipient]
        assert direct_delay is not None
        assert direct_delay <= sorted(later_delays)[len(later_delays) // 2]

    def test_exclude_long_links_shrinks_measured_set(self, measured_scenario):
        scenario = measured_scenario
        network = scenario.network.network
        node_id = next(
            n
            for n in scenario.network.node_ids()
            if any(network.topology.link(n, p).is_long_link for p in network.neighbors(n))
        )
        node = scenario.network.node(node_id)
        include = MeasuringNode(node, scenario.simulator.random.stream("m4"))
        exclude = MeasuringNode(
            node, scenario.simulator.random.stream("m5"), exclude_long_links=True
        )
        assert len(exclude._measured_connections()) < len(include._measured_connections())

    def test_successive_runs_use_fresh_transactions(self, measured_scenario):
        scenario = measured_scenario
        node = scenario.network.node(1)
        measuring = MeasuringNode(node, scenario.simulator.random.stream("m6"))
        first = measuring.measure_once(0)
        second = measuring.measure_once(1)
        assert first.txid != second.txid
        assert second.coverage == 1.0

    def test_invalid_parameters_rejected(self, measured_scenario):
        node = measured_scenario.network.node(2)
        rng = measured_scenario.simulator.random.stream("m7")
        with pytest.raises(ValueError):
            MeasuringNode(node, rng, payment_satoshi=0)
        with pytest.raises(ValueError):
            MeasuringNode(node, rng, run_timeout_s=0)

    def test_unconnected_node_rejected(self):
        simulated = build_network(NetworkParameters(node_count=10, seed=2))
        fund_nodes(list(simulated.nodes.values()))
        measuring = MeasuringNode(simulated.node(0), simulated.simulator.random.stream("m"))
        with pytest.raises(RuntimeError):
            measuring.measure_once()

    def test_unconnected_node_rejected_without_long_links_either(self):
        simulated = build_network(NetworkParameters(node_count=10, seed=2))
        fund_nodes(list(simulated.nodes.values()))
        measuring = MeasuringNode(
            simulated.node(0), simulated.simulator.random.stream("m"), exclude_long_links=True
        )
        with pytest.raises(RuntimeError, match="no connections"):
            measuring.measure_once()


class TestCrawler:
    def test_crawl_reports_rtt_distribution(self, small_network):
        crawler = NetworkCrawler(small_network.network, small_network.simulator.random.stream("c"))
        report = crawler.crawl(ping_samples=500)
        assert report.reachable_nodes == 30
        assert report.ping_samples == 500
        assert len(report.rtt_samples) == 500
        assert min(report.rtt_samples) > 0

    def test_intra_region_faster_than_inter_region(self, small_network):
        crawler = NetworkCrawler(small_network.network, small_network.simulator.random.stream("c"))
        report = crawler.crawl(ping_samples=2000)
        assert report.intra_region_median_s < report.inter_region_median_s

    def test_crawl_charges_ping_traffic(self, small_network):
        network = small_network.network
        before = network.messages_sent.get("ping", 0)
        NetworkCrawler(network, small_network.simulator.random.stream("c")).crawl(100)
        assert network.messages_sent["ping"] == before + 100

    def test_invalid_sample_count_rejected(self, small_network):
        crawler = NetworkCrawler(small_network.network, small_network.simulator.random.stream("c"))
        with pytest.raises(ValueError):
            crawler.crawl(0)

    def test_needs_two_online_nodes(self):
        simulated = build_network(NetworkParameters(node_count=2, seed=1))
        simulated.network.set_online(1, False)
        crawler = NetworkCrawler(simulated.network, simulated.simulator.random.stream("c"))
        with pytest.raises(ValueError):
            crawler.crawl(10)
