"""Tests for the experiment runner and the per-figure drivers.

These use deliberately small configurations (tens of nodes, a handful of
runs) so the whole module executes in well under a minute; the full-scale
reproduction lives in ``benchmarks/``.
"""

import pytest

from repro.experiments.attacks import run_eclipse, run_partition, build_report as attacks_report
from repro.experiments.config import ExperimentConfig
from repro.experiments.doublespend import build_report as ds_report, run_doublespend
from repro.experiments.fig3 import FIG3_PROTOCOLS, build_report as fig3_report, run_fig3
from repro.experiments.fig4 import (
    build_report as fig4_report,
    run_fig4,
    threshold_labels,
    variance_is_monotone,
)
from repro.experiments.overhead import build_report as overhead_report, run_overhead
from repro.experiments.runner import PropagationExperiment, run_protocol_comparison
from repro.experiments.threshold_sweep import build_report as sweep_report, run_threshold_sweep
from repro.experiments.validation import build_report as validation_report, run_validation
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario


SMALL = ExperimentConfig(
    node_count=40, runs=2, seeds=(5,), measuring_nodes=2, run_timeout_s=30.0
)


class TestPropagationExperiment:
    def test_run_produces_samples(self):
        scenario = build_scenario(
            "bcbpt", NetworkParameters(node_count=40, seed=5), latency_threshold_s=0.025
        )
        result = PropagationExperiment(scenario, SMALL).run()
        assert len(result.delays) > 0
        assert result.protocol == "bcbpt"
        assert 1 in result.per_rank
        assert 5 in result.per_seed
        assert result.cluster_summaries[5]["cluster_count"] >= 1

    def test_measuring_nodes_spread(self):
        scenario = build_scenario("bitcoin", NetworkParameters(node_count=40, seed=5))
        experiment = PropagationExperiment(scenario, SMALL)
        ids = experiment.measuring_node_ids()
        assert len(ids) == 2
        assert len(set(ids)) == 2

    def test_repetition_override(self):
        scenario = build_scenario("bitcoin", NetworkParameters(node_count=40, seed=5))
        result = PropagationExperiment(scenario, SMALL).run(repetitions=1)
        assert all(c.run_count == 1 for c in result.campaigns)


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
        curve = results["bitcoin"].rank_mean_curve()
        assert curve and curve[0][0] == 1


class TestFig3:
    def test_runs_and_reports(self):
        results = run_fig3(SMALL)
        assert set(results) == set(FIG3_PROTOCOLS)
        report = fig3_report(results)
        text = report.render()
        assert "Fig. 3" in text
        assert "bitcoin" in text and "bcbpt" in text

    def test_bitcoin_is_slowest_even_at_small_scale(self):
        results = run_fig3(SMALL)
        assert (
            results["bitcoin"].summary()["mean_s"]
            > results["bcbpt"].summary()["mean_s"]
        )


class TestFig4:
    def test_threshold_labels(self):
        assert threshold_labels([0.03, 0.1]) == ["bcbpt@30ms", "bcbpt@100ms"]

    def test_runs_and_reports(self):
        config = SMALL.with_overrides(fig4_thresholds_s=(0.030, 0.100))
        results = run_fig4(config)
        assert set(results) == {"bcbpt@30ms", "bcbpt@100ms"}
        report = fig4_report(results)
        assert "Fig. 4" in report.render()
        # Monotonicity check runs without error on two points.
        assert variance_is_monotone(results) in (True, False)


class TestThresholdSweep:
    def test_sweep_points_and_cluster_trend(self):
        points = run_threshold_sweep(
            SMALL.with_overrides(runs=1, measuring_nodes=1), thresholds_s=(0.02, 0.15)
        )
        assert len(points) == 2
        assert points[0].threshold_s == pytest.approx(0.02)
        # Smaller threshold -> at least as many clusters.
        assert points[0].cluster_count >= points[1].cluster_count
        report = sweep_report(points)
        assert "Ext-1" in report.render()


class TestOverhead:
    def test_bcbpt_pays_ping_overhead_bitcoin_does_not(self):
        points = run_overhead(SMALL.with_overrides(runs=1, measuring_nodes=1))
        by_name = {p.protocol: p for p in points}
        assert by_name["bitcoin"].ping_messages_per_node == 0
        assert by_name["bcbpt"].ping_messages_per_node > 0
        assert by_name["bcbpt"].control_messages_per_node > 0
        report = overhead_report(points)
        assert "Ext-2" in report.render()


class TestAttacks:
    def test_eclipse_results(self):
        results = run_eclipse(SMALL, adversary_fraction=0.2)
        assert len(results) == 3
        for result in results:
            assert 0.0 <= result.eclipsed_fraction <= 1.0
        clustered = {r.protocol: r.eclipsed_fraction for r in results}
        # Proximity clustering concentrates the victim's connections among
        # nearby (adversarial) peers at least as much as random selection.
        assert clustered["bcbpt"] >= clustered["bitcoin"] * 0.5

    def test_partition_results(self):
        results = run_partition(SMALL)
        by_name = {r.protocol: r for r in results}
        for result in results:
            assert result.boundary_links >= 0
            assert 0.0 < result.largest_component_fraction <= 1.0
        # Severing a cluster boundary is cheaper (fewer links) than severing a
        # comparable region boundary in the random topology.
        assert by_name["bcbpt"].boundary_fraction <= by_name["bitcoin"].boundary_fraction * 1.5
        report = attacks_report(run_eclipse(SMALL), results)
        assert "Ext-3" in report.render()

    def test_invalid_adversary_fraction(self):
        with pytest.raises(ValueError):
            run_eclipse(SMALL, adversary_fraction=1.5)


class TestDoubleSpend:
    def test_races_produce_outcomes(self):
        points = run_doublespend(SMALL, races_per_seed=2, race_horizon_s=1.0)
        assert len(points) == 3
        for point in points:
            assert point.races == 2
            assert 0.0 <= point.mean_attacker_share <= 1.0
            assert 0.0 <= point.detection_rate <= 1.0
        report = ds_report(points)
        assert "Ext-4" in report.render()

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_doublespend(SMALL, races_per_seed=0)
        with pytest.raises(ValueError):
            run_doublespend(SMALL, race_horizon_s=0.0)


class TestValidation:
    def test_validation_passes_on_default_substrate(self):
        summary = run_validation(SMALL, crawler_samples=1_000)
        assert summary.rtt_shape_ok
        assert summary.delay_shape_ok
        assert summary.all_ok
        report = validation_report(summary)
        assert "Val-1" in report.render()

    def test_invalid_crawler_samples_rejected(self):
        with pytest.raises(ValueError):
            run_validation(SMALL, crawler_samples=0)
