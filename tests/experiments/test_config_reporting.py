"""Tests for experiment configuration and reporting utilities."""

import argparse

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import ExperimentReport, format_delay_summaries, format_table
from repro.measurement.stats import DelayDistribution


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.funding_outputs == config.runs + 2

    def test_explicit_funding_outputs_win(self):
        config = ExperimentConfig(funding_outputs_per_node=50)
        assert config.funding_outputs == 50

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(node_count=5)
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(latency_threshold_s=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(fig4_thresholds_s=(0.03, -0.01))

    def test_repeated_seed_rejected(self):
        # A repeated seed would run its cells twice: the pooled summaries
        # would then count every sample twice while the per-seed series
        # (keyed by seed) held them once.
        with pytest.raises(ValueError, match="distinct"):
            ExperimentConfig(seeds=(3, 3))
        with pytest.raises(ValueError, match="distinct"):
            ExperimentConfig().with_overrides(seeds=(3, 11, 3))

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(node_count=500)
        assert config.node_count == 500

    def test_cli_round_trip(self):
        parser = argparse.ArgumentParser()
        ExperimentConfig.add_arguments(parser)
        args = parser.parse_args(
            ["--nodes", "300", "--runs", "7", "--seeds", "1", "2", "--threshold-ms", "40"]
        )
        config = ExperimentConfig.from_args(args)
        assert config.node_count == 300
        assert config.runs == 7
        assert config.seeds == (1, 2)
        assert config.latency_threshold_s == pytest.approx(0.040)

    def test_cli_defaults_keep_base(self):
        parser = argparse.ArgumentParser()
        ExperimentConfig.add_arguments(parser)
        args = parser.parse_args([])
        base = ExperimentConfig(node_count=123)
        assert ExperimentConfig.from_args(args, base) == base


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_float_formatting(self):
        text = format_table(["v"], [[0.123456789]])
        assert "0.123457" in text

    def test_delay_summary_table(self):
        summaries = {
            "bitcoin": DelayDistribution([0.2, 0.3, 0.4]).summary(),
            "bcbpt": DelayDistribution([0.02, 0.03]).summary(),
        }
        text = format_delay_summaries(summaries)
        assert "bitcoin" in text and "bcbpt" in text
        assert "mean_ms" in text


class TestExperimentReport:
    def test_sections_render_in_order(self):
        report = ExperimentReport("X", "desc")
        report.add_section("first", "body1")
        report.add_section("second", "body2")
        text = report.render()
        assert text.index("first") < text.index("second")
        assert "X: desc" in text

    def test_sections_are_heading_body_pairs(self):
        # The envelope stores `sections` as-is, so they stay plain pairs.
        report = ExperimentReport("X", "desc")
        report.add_section("heading", "body")
        assert report.sections == [("heading", "body")]

    def test_str_matches_render(self):
        report = ExperimentReport("X", "desc")
        assert str(report) == report.render()
