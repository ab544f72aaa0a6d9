"""Tests for experiment configuration and reporting utilities."""

import argparse

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_markdown_table


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

    def test_empty_fig4_thresholds_rejected(self):
        # With no threshold fig4 runs no cell, and its variance_monotone
        # verdict holds vacuously.
        with pytest.raises(ValueError, match="at least one fig4 threshold"):
            ExperimentConfig(fig4_thresholds_s=())

    def test_negative_funding_outputs_rejected(self):
        # funding_outputs would silently fund runs + 2 outputs instead.
        with pytest.raises(ValueError, match="funding_outputs_per_node"):
            ExperimentConfig(funding_outputs_per_node=-1)

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


class TestFormatMarkdownTable:
    def test_basic_rendering(self):
        text = format_markdown_table(["a", "b"], [[1, 2.5], ["x", "y"]])
        assert text.splitlines() == [
            "| a | b |",
            "|---|---|",
            "| 1 | 2.5 |",
            "| x | y |",
        ]

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_markdown_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_markdown_table([], [])

    def test_float_formatting(self):
        text = format_markdown_table(["v"], [[0.123456789]])
        assert "| 0.123457 |" in text
