"""Tests for the experiment runner and the per-figure drivers.

These use deliberately small configurations (tens of nodes, a handful of
runs) so the whole module executes in well under a minute; the full-scale
reproduction lives in ``benchmarks/``.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.experiments.api import run_experiment
from repro.experiments import attacks
from repro.experiments.attacks import ATTACK_PROTOCOLS, run_attacks
from repro.experiments.churn_resilience import CHURN_LEVELS
from repro.experiments.config import ExperimentConfig
from repro.experiments import doublespend
from repro.experiments.doublespend import DoubleSpendJobResult, run_doublespend
from repro.experiments.fig3 import FIG3_PROTOCOLS, run_fig3
from repro.experiments.fig4 import run_fig4, threshold_labels, variance_is_monotone
from repro.experiments.overhead import run_overhead
from repro.experiments.runner import (
    BlockSchedule,
    Campaign,
    PropagationResult,
    collect_propagation_samples,
    measure_blocks,
    measure_propagation,
    run_protocol_comparison,
    select_measuring_nodes,
    summarize_propagation,
)
from repro.experiments.threshold_sweep import run_threshold_sweep
from repro.experiments.validation import run_validation
from repro.protocol.adversary import SelfishMiner
from repro.protocol.mining import MinerProfile, MiningProcess, equal_hash_power
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario


SMALL = ExperimentConfig(
    node_count=40, runs=2, seeds=(5,), measuring_nodes=2, run_timeout_s=30.0
)


class TestMeasurePropagation:
    #: One measuring node, so cutting it off starves the whole campaign.
    CUT_OFF = SMALL.with_overrides(runs=3, measuring_nodes=1)

    def _scenario(self, policy="bcbpt", *, seed=5, churn=None):
        return build_scenario(
            policy,
            NetworkParameters(node_count=40, seed=seed),
            latency_threshold_s=0.025,
            churn=churn,
        )

    def test_campaign_records_plain_values(self):
        campaign = measure_propagation(self._scenario(), SMALL)
        assert campaign.seed == 5
        assert len(campaign.delays) > 0
        assert len(campaign.ranks) == len(campaign.delays)
        assert 1 in campaign.ranks
        assert campaign.clusters["cluster_count"] >= 1
        assert (campaign.failed_runs, campaign.long_link_fallbacks) == (0, 0)
        # A pickled grid cell carries no simulator objects.
        data = pickle.dumps(campaign)
        assert b"repro.protocol" not in data and b"repro.sim" not in data
        assert pickle.loads(data) == campaign

    def test_measuring_nodes_spread(self):
        scenario = self._scenario("bitcoin")
        ids = select_measuring_nodes(scenario.network.node_ids(), SMALL.measuring_nodes)
        assert len(ids) == 2
        assert len(set(ids)) == 2

    def test_every_run_of_every_measuring_node_is_recorded(self):
        campaign = measure_propagation(self._scenario(), SMALL.with_overrides(runs=3))
        assert len(campaign.coverages) == 3 * SMALL.measuring_nodes
        assert all(coverage == pytest.approx(1.0) for coverage in campaign.coverages)
        # One reception per rank per run: each run restarts at rank 1.
        assert campaign.ranks.count(1) == 3 * SMALL.measuring_nodes
        by_rank: dict[int, list[float]] = {}
        for rank, delay in zip(campaign.ranks, campaign.delays):
            by_rank.setdefault(rank, []).append(delay)
        first, last = by_rank[min(by_rank)], by_rank[max(by_rank)]
        # Later ranks receive later on average.
        assert sum(last) / len(last) >= sum(first) / len(first)

    @pytest.mark.parametrize("fund_measuring_only", [False, True])
    def test_funding_scope(self, fund_measuring_only):
        scenario = self._scenario("bitcoin")
        measure_propagation(scenario, SMALL, fund_measuring_only=fund_measuring_only)
        measuring = set(select_measuring_nodes(scenario.network.node_ids(), SMALL.measuring_nodes))
        funded = {
            node_id for node_id, node in scenario.network.nodes.items() if node.balance() > 0
        }
        expected = measuring if fund_measuring_only else set(scenario.network.node_ids())
        assert funded == expected

    def _cut_off_measuring_node(self, scenario):
        network = scenario.network.network
        (measuring_id,) = select_measuring_nodes(scenario.network.node_ids(), 1)
        for peer in list(network.neighbors(measuring_id)):
            network.disconnect(measuring_id, peer)

    def test_static_scenario_with_a_cut_off_measuring_node_raises(self):
        scenario = self._scenario(seed=3)
        self._cut_off_measuring_node(scenario)
        with pytest.raises(RuntimeError, match="no connections"):
            measure_propagation(scenario, self.CUT_OFF)

    def test_churned_scenario_counts_the_failed_run_and_measures(self):
        scenario = self._scenario(seed=3, churn=CHURN_LEVELS["heavy"])
        self._cut_off_measuring_node(scenario)
        campaign = measure_propagation(scenario, self.CUT_OFF)
        # The discovery sweep reconnects the node during the gap after the
        # failed run, so the later runs measure.
        assert campaign.failed_runs >= 1
        assert len(campaign.coverages) == self.CUT_OFF.runs - campaign.failed_runs
        assert len(campaign.delays) > 0


class TestMeasureBlocks:
    def _campaign_inputs(self, relay="flood"):
        scenario = build_scenario(
            "bitcoin", NetworkParameters(node_count=40, seed=5), relay=relay
        )
        simulated = scenario.network
        fund_nodes(list(simulated.nodes.values()), outputs_per_node=SMALL.funding_outputs)
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("test-mining"),
        )
        return scenario, mining

    def test_a_short_horizon_measures_partial_coverage(self):
        scenario, mining = self._campaign_inputs()
        campaign = measure_blocks(scenario, mining, SMALL, BlockSchedule(1, 2, 0.1))
        assert campaign.blocks_measured == 1
        assert 0.0 < campaign.coverage < 1.0
        # One Δt per receiver, the miner excluded.
        receivers = round(campaign.coverage * 40)
        assert len(campaign.delays) == receivers - 1
        assert all(0.0 <= delay <= 0.1 for delay in campaign.delays)

    def test_a_withheld_block_is_not_measured(self, monkeypatch):
        scenario, mining = self._campaign_inputs()
        simulated = scenario.network
        attacker, honest, observer = simulated.node_ids()[:3]
        selfish = SelfishMiner(
            simulated.simulator, simulated.network, simulated.node(attacker), mining
        )
        winners = iter((attacker, honest))
        monkeypatch.setattr(mining, "pick_winner", lambda: MinerProfile(next(winners), 0.5))
        campaign = measure_blocks(
            scenario, mining, SMALL, BlockSchedule(2, 1, 30.0),
            observer=observer, selfish=selfish,
        )
        assert selfish.blocks_withheld == 1
        # Only the honest block is measured, and it reached every node.
        assert campaign.blocks_measured == 1
        assert campaign.coverage == 1.0
        assert campaign.observer_coverage == 1.0
        assert len(campaign.delays) == 40 - 1

    @pytest.mark.parametrize("relay", ["flood", "compact"])
    def test_messages_and_bytes_are_the_fabrics_deltas(self, relay, monkeypatch):
        scenario, mining = self._campaign_inputs(relay)
        network = scenario.network.network
        # The measured window opens just before the block is mined and, for
        # the only block, closes when the campaign returns.
        opened = {}
        mine = mining.mine_one_block

        def mine_and_note_counters():
            opened["messages"] = Counter(network.messages_sent)
            opened["bytes"] = Counter(network.bytes_sent)
            return mine()

        monkeypatch.setattr(mining, "mine_one_block", mine_and_note_counters)
        campaign = measure_blocks(scenario, mining, SMALL, BlockSchedule(1, 2, 30.0))
        messages = Counter(network.messages_sent) - opened["messages"]
        sent_bytes = Counter(network.bytes_sent) - opened["bytes"]
        assert campaign.message_breakdown == dict(messages)
        assert campaign.messages == sum(messages.values()) > 0
        assert campaign.bytes == sum(sent_bytes.values())
        payload = ("block", "cmpctblock", "blocktxn")
        assert campaign.payload_bytes == sum(sent_bytes[command] for command in payload)
        assert 0 < campaign.payload_bytes
        if relay == "flood":
            assert campaign.payload_bytes == sent_bytes["block"] < campaign.bytes

    def test_campaign_records_plain_values(self):
        scenario, mining = self._campaign_inputs()
        campaign = measure_blocks(scenario, mining, SMALL, BlockSchedule(1, 2, 30.0))
        data = pickle.dumps(campaign)
        assert b"repro.protocol" not in data and b"repro.sim" not in data
        assert pickle.loads(data) == campaign


def _campaign(seed, delays, ranks, *, fallbacks=0, clusters=None):
    return Campaign(
        seed=seed,
        delays=tuple(delays),
        ranks=tuple(ranks),
        coverages=(1.0,),
        timed_out_receptions=0,
        failed_runs=0,
        long_link_fallbacks=fallbacks,
        clusters=clusters or {"cluster_count": 0, "mean_size": 0.0, "max_size": 0},
    )


class TestPropagationResult:
    """Pooling over hand-built campaigns, against plain reference loops."""

    CELLS = (
        _campaign(
            3,
            [0.1, 0.2, 0.4, 0.15, 0.3],
            [1, 2, 3, 1, 2],
            fallbacks=1,
            clusters={"cluster_count": 4, "mean_size": 10.0, "max_size": 15},
        ),
        _campaign(
            11,
            [0.05, 0.5],
            [1, 2],
            clusters={"cluster_count": 2, "mean_size": 20.0, "max_size": 25},
        ),
    )

    def test_pooled_delays_follow_seed_order(self):
        result = PropagationResult("bcbpt", self.CELLS)
        assert result.delays.samples == [0.1, 0.2, 0.4, 0.15, 0.3, 0.05, 0.5]
        assert result.long_link_fallbacks() == 1

    def test_rank_variance_curve_pools_each_rank_across_cells(self):
        result = PropagationResult("bcbpt", self.CELLS)
        # Rank 3 has a single sample, so it has no variance to plot.
        assert result.rank_variance_curve() == [
            (1, float(np.var([0.1, 0.15, 0.05], ddof=1))),
            (2, float(np.var([0.2, 0.3, 0.5], ddof=1))),
        ]

    def test_summaries_and_samples_read_the_cells(self):
        results = {
            "bcbpt": PropagationResult("bcbpt", self.CELLS),
            "bitcoin": PropagationResult("bitcoin", (_campaign(3, [0.2, 0.4], [1, 2]),)),
        }
        summaries = summarize_propagation(results)
        bcbpt = summaries["bcbpt"]
        assert bcbpt["long_link_fallbacks"] == 1.0
        assert (bcbpt["cluster_count"], bcbpt["mean_cluster_size"]) == (3.0, 15.0)
        assert bcbpt["max_cluster_size"] == 25.0
        # An unclustered protocol stores no cluster structure.
        assert "cluster_count" not in summaries["bitcoin"]
        log = collect_propagation_samples(results)
        assert log.per_seed("bcbpt", "delay_s") == {
            3: [0.1, 0.2, 0.4, 0.15, 0.3],
            11: [0.05, 0.5],
        }


class TestProtocolComparison:
    def test_labels_with_thresholds(self):
        results = run_protocol_comparison(
            ("bcbpt@40ms",), SMALL.with_overrides(measuring_nodes=1, runs=1)
        )
        assert "bcbpt@40ms" in results
        assert len(results["bcbpt@40ms"].delays) > 0

    def test_bad_threshold_label_rejected(self):
        with pytest.raises(ValueError):
            run_protocol_comparison(("bcbpt@40s",), SMALL)

    def test_rank_curves_available(self):
        results = run_protocol_comparison(("bitcoin",), SMALL.with_overrides(runs=2))
        curve = results["bitcoin"].rank_variance_curve()
        assert curve and curve[0][0] == 1


class TestFig3:
    def test_runs_and_reports(self, render_payload):
        results = run_fig3(SMALL)
        assert set(results) == set(FIG3_PROTOCOLS)
        text = render_payload("fig3", results)
        assert "Fig. 3" in text
        assert "| bitcoin |" in text and "| bcbpt |" in text
        # The cluster structure behind the clustered protocols' Δt.
        assert "`cluster_count`" in text and "`max_cluster_size`" in text

    @pytest.mark.parametrize("seed, lone", [(8, "lbc"), (27, "bcbpt")])
    def test_lone_measuring_node_measures_its_long_links(self, seed, lone):
        """Regression: at its defaults fig3 raised at seeds 8 and 27, where
        clustering left a measuring node alone in its cluster.  The node now
        measures its long links, and the envelope counts the campaign."""
        result = run_experiment("fig3", ExperimentConfig(runs=1, seeds=(seed,)))
        fallbacks = {label: s["long_link_fallbacks"] for label, s in result.summaries.items()}
        assert fallbacks == {**dict.fromkeys(FIG3_PROTOCOLS, 0.0), lone: 1.0}
        assert result.summaries[lone]["count"] > 0

    def test_bitcoin_is_slowest_even_at_small_scale(self):
        results = run_fig3(SMALL)
        assert (
            results["bitcoin"].summary()["mean_s"]
            > results["bcbpt"].summary()["mean_s"]
        )


class TestFig4:
    def test_threshold_labels(self):
        assert threshold_labels([0.03, 0.1]) == ["bcbpt@30ms", "bcbpt@100ms"]

    def test_runs_and_reports(self, render_payload):
        config = SMALL.with_overrides(fig4_thresholds_s=(0.030, 0.100))
        results = run_fig4(config)
        assert set(results) == {"bcbpt@30ms", "bcbpt@100ms"}
        text = render_payload("fig4", results)
        assert "Fig. 4" in text
        assert "`mean_cluster_size`" in text
        # Monotonicity check runs without error on two points.
        assert variance_is_monotone(results) in (True, False)


class TestThresholdSweep:
    def test_sweep_points_and_cluster_trend(self, render_payload):
        points = run_threshold_sweep(
            SMALL.with_overrides(runs=1, measuring_nodes=1), thresholds_s=(0.02, 0.15)
        )
        assert len(points) == 2
        assert points[0].threshold_s == pytest.approx(0.02)
        # Smaller threshold -> at least as many clusters.
        assert points[0].cluster_count >= points[1].cluster_count
        assert "Ext-1" in render_payload("threshold_sweep", points)

    def test_lone_measuring_node_fallback_is_stored(self):
        """Regression: at 200 nodes, seed 27 and 25 ms, BCBPT leaves the
        measuring node with long links only.  The sweep measured them and
        stored nothing that said so."""
        result = run_experiment(
            "threshold_sweep", ExperimentConfig(runs=1, seeds=(27,)), {"thresholds_ms": (25.0,)}
        )
        assert result.summaries["25ms"]["long_link_fallbacks"] == 1.0

    def test_empty_thresholds_rejected(self):
        # An empty sweep would return an envelope with no summaries at all.
        with pytest.raises(ValueError, match="at least one threshold"):
            run_threshold_sweep(SMALL, thresholds_s=())


class TestOverhead:
    def test_bcbpt_pays_ping_overhead_bitcoin_does_not(self, render_payload):
        points = run_overhead(SMALL.with_overrides(runs=1, measuring_nodes=1))
        by_name = {p.protocol: p for p in points}
        assert by_name["bitcoin"].ping_messages_per_node == 0
        assert by_name["bcbpt"].ping_messages_per_node > 0
        assert by_name["bcbpt"].control_messages_per_node > 0
        text = render_payload("overhead", points)
        assert "Ext-2" in text and "`ping_messages_per_node`" in text


#: One block per campaign: the surfaces are read before any block is mined.
TINY_ATTACKS = {"attack_blocks": 1, "attack_txs": 2}


class TestAttacks:
    @pytest.fixture(scope="class")
    def eclipse_outcome(self):
        return run_attacks(SMALL, adversary_fraction=0.2, attacks=("eclipse",), **TINY_ATTACKS)

    def test_eclipse_results(self, eclipse_outcome):
        results = eclipse_outcome.eclipse
        assert len(results) == 3
        for result in results:
            assert 0.0 <= result.eclipsed_fraction <= 1.0
        clustered = {r.protocol: r.eclipsed_fraction for r in results}
        # Proximity clustering concentrates the victim's connections among
        # nearby (adversarial) peers at least as much as random selection.
        assert clustered["bcbpt"] >= clustered["bitcoin"] * 0.5

    def test_partition_results(self, eclipse_outcome, render_payload):
        results = eclipse_outcome.partition
        by_name = {r.protocol: r for r in results}
        for result in results:
            assert result.boundary_links >= 0
            assert 0.0 < result.largest_component_fraction <= 1.0
        # Severing a cluster boundary is cheaper (fewer links) than severing a
        # comparable region boundary in the random topology.
        assert by_name["bcbpt"].boundary_fraction <= by_name["bitcoin"].boundary_fraction * 1.5
        text = render_payload("attacks", eclipse_outcome)
        assert "Ext-3" in text and "| partition/bcbpt |" in text

    def test_partition_is_stored_without_the_eclipse_campaign(self):
        result = run_experiment("attacks", SMALL, {"attacks": ("byzantine",), **TINY_ATTACKS})
        surfaces = sorted(label for label in result.summaries if not label.startswith("dynamic/"))
        assert surfaces == sorted(f"partition/{protocol}" for protocol in ATTACK_PROTOCOLS)

    def test_invalid_adversary_fraction(self, monkeypatch):
        """The fraction is refused before any cell runs."""
        ran = []
        monkeypatch.setattr(attacks, "run_attack_seed", ran.append)
        with pytest.raises(ValueError, match="fraction"):
            run_attacks(SMALL, adversary_fraction=1.5)
        assert ran == []


class TestDoubleSpend:
    def test_races_produce_outcomes(self, render_payload):
        points = run_doublespend(SMALL, races_per_seed=2, race_horizon_s=1.0)
        assert len(points) == 3
        for point in points:
            assert point.races == 2
            assert 0.0 <= point.mean_attacker_share <= 1.0
            assert 0.0 <= point.detection_rate <= 1.0
        text = render_payload("doublespend", points)
        assert "Ext-4" in text and "`mean_attacker_share`" in text

    def test_point_counts_races_and_detections_from_the_cell_tuples(self, monkeypatch):
        """A cell stores one share per race and one time per detection; the
        point's race count and detection rate come from those lengths."""
        cells = [
            DoubleSpendJobResult("bitcoin", 5, (0.25, 0.75), detection_times_s=(0.5,)),
            DoubleSpendJobResult("bitcoin", 6, (0.5,), detection_times_s=()),
        ]
        monkeypatch.setattr(
            doublespend, "run_seed_grid", lambda points, *args: [("bitcoin", cells)]
        )
        (point,) = run_doublespend(SMALL, protocols=("bitcoin",))
        assert point.races == 3
        assert point.mean_attacker_share == 0.5
        assert point.detection_rate == pytest.approx(1 / 3)
        assert point.mean_detection_time_s == 0.5

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_doublespend(SMALL, races_per_seed=0)
        with pytest.raises(ValueError):
            run_doublespend(SMALL, race_horizon_s=0.0)


class TestValidation:
    def test_validation_passes_on_default_substrate(self, render_payload):
        summary = run_validation(SMALL, crawler_samples=1_000)
        assert summary.rtt_shape_ok
        assert summary.delay_shape_ok
        assert summary.all_ok
        text = render_payload("validation", summary)
        assert "Val-1" in text and "`rtt_median_s`" in text

    def test_invalid_crawler_samples_rejected(self):
        with pytest.raises(ValueError):
            run_validation(SMALL, crawler_samples=0)


#: name -> options of a tiny run of every experiment that measures Δt.
DELTA_T_EXPERIMENTS = {
    "fig3": {},
    "fig4": {},
    "threshold_sweep": {"thresholds_ms": (25.0,)},
    "overhead": {"protocols": ("bcbpt",)},
    "ablation": {},
    "churn_resilience": {"protocols": ("bcbpt",), "levels": ("static", "heavy")},
    "scale": {"node_counts": (40,), "protocols": ("bcbpt",), "cell_runs": 1, "profile_memory": 0},
    "validation": {"crawler_samples": 200},
}


@pytest.mark.parametrize("name", sorted(DELTA_T_EXPERIMENTS))
def test_every_delta_t_experiment_records_its_campaign_counters(name):
    """Every Δt experiment measures through ``measure_propagation``, so each
    stores the long-link fallbacks on every label (churn also its failed
    runs).  validation measures vanilla Bitcoin only, which has no long
    links, and stores neither."""
    config = SMALL.with_overrides(runs=1, measuring_nodes=1, seeds=(3,))
    result = run_experiment(name, config, dict(DELTA_T_EXPERIMENTS[name]))
    for label, summary in result.summaries.items():
        assert ("long_link_fallbacks" in summary) == (name != "validation"), label
        assert ("failed_runs" in summary) == (name == "churn_resilience"), label
