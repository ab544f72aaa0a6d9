"""Tests for the ablation experiment drivers (small scale)."""

import pytest

from repro.experiments.ablation import (
    AblationOutcome,
    run_long_link_ablation,
    run_verification_ablation,
)
from repro.experiments.config import ExperimentConfig

SMALL = ExperimentConfig(
    node_count=40, runs=2, seeds=(5,), measuring_nodes=1, run_timeout_s=30.0
)


class TestVerificationAblation:
    def test_two_variants_returned(self):
        points = run_verification_ablation(SMALL)
        assert [p.variant for p in points] == ["verify-then-relay", "pipelined-relay"]
        for point in points:
            assert point.mean_delay_s > 0
            assert point.variance_s2 >= 0

    def test_pipelining_is_not_slower(self):
        points = {p.variant: p for p in run_verification_ablation(SMALL)}
        assert (
            points["pipelined-relay"].mean_delay_s
            <= points["verify-then-relay"].mean_delay_s * 1.05
        )


class TestLongLinkAblation:
    def test_requested_counts_returned(self):
        points = run_long_link_ablation(SMALL, counts=(0, 3))
        assert [p.variant for p in points] == ["long-links=0", "long-links=3"]

    def test_more_long_links_raise_degree(self):
        points = {p.variant: p for p in run_long_link_ablation(SMALL, counts=(0, 3))}
        assert points["long-links=3"].average_degree > points["long-links=0"].average_degree


class TestAblationReport:
    def test_report_renders_both_sections(self, render_payload):
        verification = run_verification_ablation(SMALL)
        long_links = run_long_link_ablation(SMALL, counts=(0, 2))
        outcome = AblationOutcome(verification=verification, long_links=long_links)
        text = render_payload("ablation", outcome)
        assert "Ext-5" in text
        assert "| verification/pipelined-relay |" in text
        assert "| long-links/long-links=2 |" in text
