"""Ext-2 benchmark — measurement/control overhead vs propagation benefit."""

from __future__ import annotations

import pytest
#: Full figure/extension regeneration; skipped in the quick CI lane.
pytestmark = pytest.mark.slow


from repro.analysis.report import render_report
from repro.experiments.api import run_experiment


@pytest.fixture(scope="module")
def overhead_run(quick_config):
    return run_experiment("overhead", quick_config)


@pytest.fixture(scope="module")
def overhead_points(overhead_run):
    return overhead_run.payload


def test_bench_overhead(benchmark, quick_config, overhead_run):
    """Time a single-protocol overhead evaluation and report the comparison."""

    def bcbpt_only():
        return run_experiment(
            "overhead",
            quick_config.with_overrides(seeds=quick_config.seeds[:1], runs=2),
            {"protocols": ("bcbpt",)},
        )

    benchmark.pedantic(bcbpt_only, rounds=1, iterations=1)
    print()
    print(render_report(overhead_run))


def test_overhead_bcbpt_pays_for_measurement(overhead_points):
    """BCBPT's ping-measurement cost is real (the paper's deferred evaluation):
    it sends ping traffic the Bitcoin baseline does not."""
    by_name = {p.protocol: p for p in overhead_points}
    assert by_name["bitcoin"].ping_messages_per_node == 0
    assert by_name["lbc"].ping_messages_per_node == 0
    assert by_name["bcbpt"].ping_messages_per_node > 10


def test_overhead_buys_delay_improvement(overhead_points):
    """The overhead is worth it: BCBPT's delay is far below Bitcoin's."""
    by_name = {p.protocol: p for p in overhead_points}
    assert by_name["bcbpt"].mean_delay_s < by_name["bitcoin"].mean_delay_s / 2


def test_overhead_cluster_control_traffic_present(overhead_points):
    by_name = {p.protocol: p for p in overhead_points}
    assert by_name["bcbpt"].control_messages_per_node > 0
    assert by_name["bcbpt"].control_bytes_per_node > 0
