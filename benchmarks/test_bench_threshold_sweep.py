"""Ext-1 benchmark — fine-grained latency-threshold sweep (extends Fig. 4)."""

from __future__ import annotations

import pytest
#: Full figure/extension regeneration; skipped in the quick CI lane.
pytestmark = pytest.mark.slow


from repro.analysis.report import render_report
from repro.experiments.api import run_experiment

SWEEP_THRESHOLDS_MS = (15, 25, 50, 100, 200)


@pytest.fixture(scope="module")
def sweep_run(quick_config):
    return run_experiment(
        "threshold_sweep", quick_config, {"thresholds_ms": SWEEP_THRESHOLDS_MS}
    )


@pytest.fixture(scope="module")
def sweep_points(sweep_run):
    return sweep_run.payload


def test_bench_threshold_sweep(benchmark, quick_config, sweep_run):
    """Time a single-threshold evaluation and report the full sweep table."""

    def single_threshold():
        return run_experiment(
            "threshold_sweep",
            quick_config.with_overrides(seeds=quick_config.seeds[:1], runs=2),
            {"thresholds_ms": (25,)},
        )

    benchmark.pedantic(single_threshold, rounds=1, iterations=1)
    print()
    print(render_report(sweep_run))


def test_sweep_cluster_count_decreases_with_threshold(sweep_points):
    """Larger thresholds merge clusters: cluster count must not increase."""
    counts = [point.cluster_count for point in sweep_points]
    assert all(later <= earlier + 1e-9 for earlier, later in zip(counts, counts[1:]))


def test_sweep_cluster_size_increases_with_threshold(sweep_points):
    sizes = [point.mean_cluster_size for point in sweep_points]
    assert sizes[-1] >= sizes[0]


def test_sweep_delay_worsens_toward_large_thresholds(sweep_points):
    """The extremes tell the Fig. 4 story: 200 ms is clearly worse than 25 ms."""
    by_threshold = {round(p.threshold_s * 1000): p for p in sweep_points}
    assert by_threshold[200].variance_s2 > by_threshold[25].variance_s2
    assert by_threshold[200].mean_delay_s > by_threshold[25].mean_delay_s
