"""Fig. 4 benchmark — Δt distribution for BCBPT at d_t ∈ {30, 50, 100} ms.

Regenerates the paper's threshold study through the unified experiment API
and asserts its trend: a smaller latency threshold yields a lower variance of
the transaction propagation delay, because clusters stay smaller and their
links shorter.
"""

from __future__ import annotations

import pytest
#: Full figure/extension regeneration; skipped in the quick CI lane.
pytestmark = pytest.mark.slow


from repro.analysis.report import render_report
from repro.experiments.api import run_experiment


@pytest.fixture(scope="module")
def fig4_run(bench_config):
    return run_experiment("fig4", bench_config)


@pytest.fixture(scope="module")
def fig4_results(fig4_run):
    return fig4_run.payload


def test_bench_fig4_threshold_study(benchmark, bench_config, fig4_run):
    """Time one single-seed threshold sweep and report the full table."""

    def single_seed_sweep():
        quick = bench_config.with_overrides(seeds=bench_config.seeds[:1], runs=3)
        return run_experiment("fig4", quick)

    benchmark.pedantic(single_seed_sweep, rounds=1, iterations=1)
    print()
    print(render_report(fig4_run))
    # Assert the paper's trend here too so a ``--benchmark-only`` run checks it.
    assert fig4_run.verdicts["variance_monotone"]


def test_fig4_variance_monotone_in_threshold(fig4_run):
    """Reproduction criterion: Δt variance does not decrease as d_t grows."""
    assert fig4_run.verdicts["variance_monotone"]


def test_fig4_smallest_threshold_is_best(fig4_results):
    """The 30 ms threshold beats the 100 ms threshold in both mean and variance."""
    tight = fig4_results["bcbpt@30ms"].summary()
    loose = fig4_results["bcbpt@100ms"].summary()
    assert tight["mean_s"] < loose["mean_s"]
    assert tight["variance_s2"] < loose["variance_s2"]


def test_fig4_cluster_size_explains_trend(fig4_results):
    """The paper's explanation: a smaller threshold yields smaller clusters."""
    def mean_cluster_size(label):
        clusters = [cell.clusters for cell in fig4_results[label].cells]
        sizes = [s["mean_size"] for s in clusters if s.get("cluster_count")]
        return sum(sizes) / len(sizes)

    assert mean_cluster_size("bcbpt@30ms") <= mean_cluster_size("bcbpt@100ms")
