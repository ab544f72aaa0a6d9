"""Tests for the ablation experiment driver (small scale)."""

import dataclasses

import pytest

from repro.experiments import ablation
from repro.experiments.ablation import run_ablation_job, run_ablations
from repro.experiments.config import ExperimentConfig

SMALL = ExperimentConfig(
    node_count=40, runs=2, seeds=(5,), measuring_nodes=1, run_timeout_s=30.0
)


@pytest.fixture(scope="module")
def outcome():
    return run_ablations(SMALL)


class TestVerificationAblation:
    def test_two_variants_returned(self, outcome):
        points = outcome.verification
        assert [p.variant for p in points] == ["verify-then-relay", "pipelined-relay"]
        for point in points:
            assert point.mean_delay_s > 0
            assert point.variance_s2 >= 0

    def test_pipelining_is_not_slower(self, outcome):
        points = {p.variant: p for p in outcome.verification}
        assert (
            points["pipelined-relay"].mean_delay_s
            <= points["verify-then-relay"].mean_delay_s * 1.05
        )


class TestLongLinkAblation:
    def test_requested_counts_returned(self, outcome):
        points = outcome.long_links
        assert [p.variant for p in points] == ["long-links=0", "long-links=2", "long-links=5"]

    def test_more_long_links_raise_degree(self, outcome):
        points = {p.variant: p for p in outcome.long_links}
        assert points["long-links=5"].average_degree > points["long-links=0"].average_degree


class TestAblationReport:
    def test_report_renders_both_sections(self, outcome, render_payload):
        text = render_payload("ablation", outcome)
        assert "Ext-5" in text
        assert "| verification/pipelined-relay |" in text
        assert "| long-links/long-links=2 |" in text


class TestAblationGrid:
    def test_shared_baseline_runs_once(self, monkeypatch):
        """verify-then-relay and long-links=2 are one cell under two labels."""
        knobs = []

        def counted(job):
            knobs.append((job.verification_enabled, job.long_links_per_node))
            return run_ablation_job(job)

        monkeypatch.setattr(ablation, "run_ablation_job", counted)
        outcome = run_ablations(SMALL)
        assert knobs == [(True, 2), (False, 2), (True, 0), (True, 5)]
        assert [p.variant for p in outcome.long_links] == [
            "long-links=0",
            "long-links=2",
            "long-links=5",
        ]
        shared = outcome.verification[0]
        assert dataclasses.replace(outcome.long_links[1], variant=shared.variant) == shared
