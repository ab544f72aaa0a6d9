"""Fig. 3 benchmark — Δt distribution: Bitcoin vs LBC vs BCBPT at d_t = 25 ms.

Regenerates the paper's headline comparison through the unified experiment
API (``run_experiment("fig3", ...)``) and asserts its shape: the BCBPT
protocol achieves lower mean propagation delay *and* lower delay variance than
both the LBC protocol and the unmodified Bitcoin protocol.
"""

from __future__ import annotations

import pytest
#: Full figure/extension regeneration; skipped in the quick CI lane.
pytestmark = pytest.mark.slow


from repro.analysis.report import render_report
from repro.experiments.api import run_experiment


@pytest.fixture(scope="module")
def fig3_run(bench_config):
    return run_experiment("fig3", bench_config)


@pytest.fixture(scope="module")
def fig3_results(fig3_run):
    return fig3_run.payload


def test_bench_fig3_comparison(benchmark, bench_config, fig3_run):
    """Time one full single-seed Fig. 3 style campaign and report the table."""

    def single_seed_campaign():
        quick = bench_config.with_overrides(seeds=bench_config.seeds[:1], runs=3)
        return run_experiment("fig3", quick)

    benchmark.pedantic(single_seed_campaign, rounds=1, iterations=1)
    print()
    print(render_report(fig3_run))
    # The headline reproduction criterion is asserted here too so that a
    # ``--benchmark-only`` run still verifies the paper's ordering.
    assert fig3_run.verdicts["paper_ordering"]


def test_fig3_paper_ordering_holds(fig3_run):
    """Reproduction criterion: BCBPT < LBC < Bitcoin in mean and variance."""
    assert fig3_run.verdicts["paper_ordering"]


def test_fig3_bcbpt_improvement_is_substantial(fig3_results):
    """BCBPT cuts the mean delay by well over 2x relative to vanilla Bitcoin
    (the paper's figure shows most BCBPT receptions arriving several times
    earlier than Bitcoin's)."""
    bitcoin = fig3_results["bitcoin"].summary()
    bcbpt = fig3_results["bcbpt"].summary()
    assert bitcoin["mean_s"] / bcbpt["mean_s"] > 2.0
    assert bitcoin["variance_s2"] / bcbpt["variance_s2"] > 5.0


def test_fig3_variance_rank_shape(fig3_results):
    """Bitcoin's Δt variance at late reception ranks dwarfs BCBPT's at the
    same ranks — the per-rank pattern the paper highlights."""
    bitcoin_curve = dict(fig3_results["bitcoin"].rank_variance_curve())
    bcbpt_curve = dict(fig3_results["bcbpt"].rank_variance_curve())
    shared = sorted(set(bitcoin_curve) & set(bcbpt_curve))
    assert shared, "the two curves must share reception ranks"
    late = shared[len(shared) // 2 :]
    assert all(bitcoin_curve[rank] > bcbpt_curve[rank] for rank in late)


def test_fig3_envelope_summaries_match_payload(fig3_run, fig3_results):
    """The persisted envelope's summaries mirror the in-memory aggregates."""
    for protocol, result in fig3_results.items():
        stored = fig3_run.summaries[protocol]
        assert {key: stored[key] for key in result.summary()} == result.summary()
        assert stored["long_link_fallbacks"] == result.long_link_fallbacks()
