"""Ext-5 benchmark — ablations of BCBPT's design choices."""

from __future__ import annotations

import pytest
#: Full figure/extension regeneration; skipped in the quick CI lane.
pytestmark = pytest.mark.slow


from repro.analysis.report import render_report
from repro.experiments.api import run_experiment


@pytest.fixture(scope="module")
def ablation_run(quick_config):
    return run_experiment("ablation", quick_config)


@pytest.fixture(scope="module")
def verification_points(ablation_run):
    return ablation_run.payload.verification


@pytest.fixture(scope="module")
def long_link_points(ablation_run):
    return ablation_run.payload.long_links


def test_bench_ablation(benchmark, quick_config, ablation_run):
    """Time the pipelined-relay variant and report both ablation tables."""

    def pipelined_only():
        from repro.experiments.ablation import run_verification_ablation

        small = quick_config.with_overrides(seeds=quick_config.seeds[:1], runs=2)
        return run_verification_ablation(small)

    benchmark.pedantic(pipelined_only, rounds=1, iterations=1)
    print()
    print(render_report(ablation_run))


def test_ablation_verification_delay_costs_time(verification_points):
    """Charging the per-hop verification delay slows propagation; pipelining
    it away (Stathakopoulou'15) gives a strictly faster relay."""
    by_name = {p.variant: p for p in verification_points}
    assert by_name["pipelined-relay"].mean_delay_s < by_name["verify-then-relay"].mean_delay_s


def test_ablation_long_links_do_not_hurt_proximity_delay(long_link_points):
    """Adding long links leaves the proximity-connection delay roughly
    unchanged (they are excluded from the measured set) while increasing the
    overlay degree."""
    by_name = {p.variant: p for p in long_link_points}
    assert by_name["long-links=5"].average_degree > by_name["long-links=0"].average_degree
    assert by_name["long-links=5"].mean_delay_s < by_name["long-links=0"].mean_delay_s * 1.5


def test_ablation_long_links_shorten_paths(long_link_points):
    """More long links shrink (or at least do not grow) the overlay's average
    shortest-path length, which is what they exist for."""
    by_name = {p.variant: p for p in long_link_points}
    assert by_name["long-links=5"].average_path_length <= by_name["long-links=0"].average_path_length
