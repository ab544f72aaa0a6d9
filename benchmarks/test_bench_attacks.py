"""Ext-3 benchmark — attack susceptibility, dynamic outcomes and exposed surfaces.

The figure-scale benchmarks are marked ``slow``; the quick-lane guard at the
bottom runs in the ``-m "not slow"`` lane and pins the adversary plane's
cost: one tiny dynamic campaign must finish under a generous wall-clock
ceiling *and* produce the per-attack verdicts.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.analysis.report import render_report
from repro.experiments.api import run_experiment
from repro.experiments.attacks import degradation_ratio
from repro.experiments.config import ExperimentConfig

#: Marks only the figure-scale benchmarks below; the quick guard is unmarked.
slow = pytest.mark.slow


@pytest.fixture(scope="module")
def attacks_run(quick_config):
    # All five dynamic attacks, one block each: the sweep's breadth is the
    # point here, the per-campaign depth belongs to paper-scale runs.
    return run_experiment(
        "attacks",
        quick_config,
        {"adversary_fraction": 0.15, "attack_blocks": 1, "attack_txs": 2},
    )


@pytest.fixture(scope="module")
def eclipse_results(attacks_run):
    # Read by the eclipse cells, which the default sweep runs.
    return attacks_run.payload.eclipse


@pytest.fixture(scope="module")
def partition_results(attacks_run):
    # Read by the honest baseline cells.
    return attacks_run.payload.partition


@slow
def test_bench_attacks(benchmark, quick_config, attacks_run):
    """Time one bcbpt evaluation and report all attack analyses."""

    def bcbpt_only():
        return run_experiment(
            "attacks",
            quick_config.with_overrides(seeds=quick_config.seeds[:1]),
            {
                "adversary_fraction": 0.15,
                "protocols": ("bcbpt",),
                "attacks": ("byzantine",),
                "attack_blocks": 1,
                "attack_txs": 2,
            },
        )

    benchmark.pedantic(bcbpt_only, rounds=1, iterations=1)
    print()
    print(render_report(attacks_run))


@slow
def test_eclipse_proximity_clustering_raises_exposure(eclipse_results):
    """The paper's concern: an adversary that concentrates peers near the
    victim captures a larger share of its connections under proximity
    clustering than under random selection."""
    by_name = {r.protocol: r for r in eclipse_results}
    assert by_name["bcbpt"].eclipsed_fraction >= by_name["bitcoin"].eclipsed_fraction


@slow
def test_eclipse_fractions_in_range(eclipse_results):
    for result in eclipse_results:
        assert 0.0 <= result.eclipsed_fraction <= 1.0
        assert result.victim_connection_count > 0


@slow
def test_partition_clustered_topologies_have_thinner_boundaries(partition_results):
    """Isolating a cluster requires severing a smaller fraction of all links
    than isolating a comparable region of the random topology."""
    by_name = {r.protocol: r for r in partition_results}
    assert by_name["bcbpt"].boundary_fraction <= by_name["bitcoin"].boundary_fraction


@slow
def test_partition_reports_are_complete(partition_results):
    for result in partition_results:
        assert result.total_links > 0
        assert result.target_group_size > 0
        assert 0.0 < result.largest_component_fraction <= 1.0


@slow
def test_dynamic_outcomes_cover_the_default_sweep(attacks_run):
    """The default run measures every attack kind against every protocol."""
    dynamic = attacks_run.payload.dynamic
    attacks = {result.attack for result in dynamic.values()}
    protocols = {result.protocol for result in dynamic.values()}
    assert {"none", "byzantine", "representatives", "delay", "eclipse", "selfish"} <= attacks
    assert {"bitcoin", "lbc", "bcbpt"} <= protocols
    for protocol in ("bitcoin", "bcbpt"):
        assert not math.isnan(degradation_ratio(dynamic, "byzantine", protocol)), (
            f"byzantine/{protocol} must produce a measurable degradation ratio"
        )


# --------------------------------------------------------- quick-lane guard
#: Generous ceiling for the tiny campaign below: it completes in a fraction
#: of this on any recent machine, so only a structural slowdown in the
#: adversary plane (per-message filter overhead, runaway release loops)
#: trips it — not a loaded CI box.
QUICK_WALL_CLOCK_BOUND_S = 120.0

QUICK_CONFIG = ExperimentConfig(
    node_count=20, runs=1, seeds=(3,), measuring_nodes=1, run_timeout_s=30.0
)


def test_quick_dynamic_attack_cell_is_cheap_and_produces_verdicts():
    """Quick lane: one byzantine cell per overlay, bounded wall clock.

    Guards two properties at once: the adversary plane stays cheap enough
    for unit-test lanes (the per-send behaviour filter must be near-free),
    and even the smallest dynamic run yields the per-attack verdict set the
    experiment promises.
    """
    start = time.perf_counter()
    result = run_experiment(
        "attacks",
        QUICK_CONFIG,
        {
            "attacks": ("byzantine",),
            "protocols": ("bitcoin", "bcbpt"),
            "attack_blocks": 1,
            "attack_txs": 2,
        },
    )
    elapsed = time.perf_counter() - start
    assert elapsed < QUICK_WALL_CLOCK_BOUND_S, (
        f"tiny dynamic attack campaign took {elapsed:.1f}s "
        f"(bound {QUICK_WALL_CLOCK_BOUND_S}s)"
    )
    for verdict in (
        "clustering_contains_byzantine_degradation",
        "representative_capture_widens_surface",
        "clustering_widens_eclipse_surface",
        "delay_injection_degrades_propagation",
        "selfish_mining_pays_somewhere",
    ):
        assert verdict in result.verdicts
    dynamic = result.payload.dynamic
    assert set(dynamic) == {
        "none/bitcoin",
        "none/bcbpt",
        "byzantine/bitcoin",
        "byzantine/bcbpt",
    }
    # The attacked cells really ran against adversaries.
    assert dynamic["byzantine/bitcoin"].total("messages_suppressed") > 0
    assert dynamic["byzantine/bcbpt"].total("messages_suppressed") > 0
    assert not math.isnan(degradation_ratio(dynamic, "byzantine", "bcbpt"))
