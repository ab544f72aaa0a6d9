"""Val-1 benchmark — substrate validation against published real-network shapes."""

from __future__ import annotations

import pytest
#: Full figure/extension regeneration; skipped in the quick CI lane.
pytestmark = pytest.mark.slow


from repro.analysis.report import render_report
from repro.experiments.api import run_experiment


@pytest.fixture(scope="module")
def validation_run(quick_config):
    return run_experiment("validation", quick_config, {"crawler_samples": 10_000})


@pytest.fixture(scope="module")
def validation_summary(validation_run):
    return validation_run.payload


def test_bench_validation(benchmark, quick_config, validation_run):
    """Time a reduced crawl and report the full validation outcome."""

    def reduced_crawl():
        return run_experiment(
            "validation",
            quick_config.with_overrides(seeds=quick_config.seeds[:1], runs=2),
            {"crawler_samples": 2_000},
        )

    benchmark.pedantic(reduced_crawl, rounds=1, iterations=1)
    print()
    print(render_report(validation_run))


def test_validation_rtt_shape(validation_run, validation_summary):
    """Intra-region RTTs of tens of ms, inter-region several times larger."""
    assert validation_run.verdicts["rtt_shape_ok"]
    assert validation_summary.intra_region_median_s < validation_summary.inter_region_median_s


def test_validation_delay_shape(validation_run):
    """Vanilla-Bitcoin Δt is right-skewed with a long tail."""
    assert validation_run.verdicts["delay_shape_ok"]


def test_validation_overall(validation_run):
    assert validation_run.verdicts["all_ok"]
