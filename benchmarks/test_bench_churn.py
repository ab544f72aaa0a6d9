"""Ext-6 quick-lane guard — churn resilience end-to-end with process-pool fan-out.

Unlike the figure benchmarks (marked ``slow``), this module runs in the quick
``-m "not slow"`` lane: it drives the whole dynamic-membership stack — churn
schedule, session processes, connection teardown, policy repair, measurement
under churn, parallel fan-out and the seed-ordered pooling — through the unified
experiment API at a deliberately small scale, under a generous wall-clock
bound so a runtime regression in the churn path fails loudly without tying CI
to machine speed.
"""

from __future__ import annotations

import time

from repro.experiments.api import run_experiment

#: Generous upper bound (the run takes a few seconds on any recent machine).
WALL_CLOCK_BOUND_S = 30.0


def test_churn_resilience_end_to_end_quickly(bench_config):
    config = bench_config.with_overrides(
        node_count=60,
        runs=2,
        seeds=bench_config.seeds[:2],
        measuring_nodes=2,
        run_timeout_s=30.0,
    )
    start = time.perf_counter()
    run = run_experiment("churn_resilience", config, {"levels": ("static", "heavy")})
    elapsed = time.perf_counter() - start
    results = run.payload

    assert set(results) == {
        f"{protocol}/{level}"
        for protocol in ("bitcoin", "lbc", "bcbpt")
        for level in ("static", "heavy")
    }
    for key, result in results.items():
        assert len(result.delays) > 0, f"{key} produced no delay samples"
        assert 0.0 < result.mean_coverage() <= 1.0
        if result.level == "static":
            assert result.total("leave_events") == 0
        else:
            assert result.total("leave_events") > 0, f"{key} saw no churn"
    # The clustered protocols' maintenance actually ran under churn.
    assert results["bcbpt/heavy"].total("repair_sweeps") > 0
    assert results["lbc/heavy"].total("repair_sweeps") > 0
    assert run.verdicts["clustering_survives_churn"]

    print()
    print(run.render())
    assert elapsed < WALL_CLOCK_BOUND_S, (
        f"churn resilience run regressed: {elapsed:.1f}s (bound {WALL_CLOCK_BOUND_S}s)"
    )
