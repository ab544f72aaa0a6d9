"""Fig. 3 — Δt distribution: simulated Bitcoin vs BCBPT vs LBC (d_t = 25 ms).

The paper's headline result: BCBPT offers lower propagation delay than both
the vanilla Bitcoin protocol and the geography-based LBC protocol, and keeps
the delay variance low regardless of the number of connected nodes, while
Bitcoin's variance grows with the connection count.

Run via the unified CLI (``python -m repro.experiments run fig3`` or the
``repro run fig3`` console script) or through ``benchmarks/test_bench_fig3.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.api import experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import ExperimentReport, format_delay_summaries, format_table
from repro.experiments.runner import (
    PropagationResult,
    collect_propagation_samples,
    run_protocol_comparison,
)

#: The protocols compared in Fig. 3, in the order the paper lists them.
FIG3_PROTOCOLS = ("bitcoin", "lbc", "bcbpt")


def build_report(results: dict[str, PropagationResult]) -> ExperimentReport:
    """Turn Fig. 3 results into a structured text report."""
    report = ExperimentReport(
        experiment_id="Fig. 3",
        description="Δt distribution, Bitcoin vs LBC vs BCBPT (d_t = 25 ms)",
    )
    summaries = {name: result.summary() for name, result in results.items()}
    report.add_section("Delay summary", format_delay_summaries(summaries))

    # The per-rank variance curve: the paper's observation that Bitcoin's
    # variance grows with the number of connected nodes while BCBPT's stays low.
    rank_rows = []
    ranks = sorted(
        {rank for result in results.values() for rank, _ in result.rank_variance_curve()}
    )
    curves = {name: dict(result.rank_variance_curve()) for name, result in results.items()}
    for rank in ranks:
        rank_rows.append(
            [rank]
            + [curves[name].get(rank, float("nan")) * 1e6 for name in results]
        )
    report.add_section(
        "Variance of Δt by connection rank (ms²)",
        format_table(["rank"] + [f"{name}" for name in results], rank_rows),
    )

    # Cluster structure context for the clustered protocols.
    cluster_rows = []
    for name, result in results.items():
        for seed, summary in sorted(result.cluster_summaries.items()):
            if summary.get("cluster_count", 0):
                cluster_rows.append(
                    [name, seed, int(summary["cluster_count"]), summary["mean_size"], int(summary["max_size"])]
                )
    if cluster_rows:
        report.add_section(
            "Cluster structure",
            format_table(["protocol", "seed", "clusters", "mean size", "max size"], cluster_rows),
        )
    return report


def expected_ordering_holds(results: dict[str, PropagationResult]) -> bool:
    """The reproduction criterion: BCBPT < LBC < Bitcoin in both mean and variance."""
    bitcoin = results["bitcoin"].summary()
    lbc = results["lbc"].summary()
    bcbpt = results["bcbpt"].summary()
    mean_ok = bcbpt["mean_s"] < lbc["mean_s"] < bitcoin["mean_s"]
    variance_ok = bcbpt["variance_s2"] < lbc["variance_s2"] < bitcoin["variance_s2"]
    return mean_ok and variance_ok


def summarize(results: dict[str, PropagationResult]) -> dict[str, dict[str, float]]:
    """Per-protocol scalar summaries for the result envelope."""
    return {name: result.summary() for name, result in results.items()}


@experiment(
    "fig3",
    experiment_id="Fig. 3",
    title="Δt distribution, Bitcoin vs LBC vs BCBPT (d_t = 25 ms)",
    description=__doc__,
    protocols=FIG3_PROTOCOLS,
    report=build_report,
    summarize=summarize,
    collect_samples=collect_propagation_samples,
    verdicts={"paper_ordering": expected_ordering_holds},
)
def run_fig3(config: Optional[ExperimentConfig] = None) -> dict[str, PropagationResult]:
    """Execute the Fig. 3 comparison and return per-protocol results."""
    cfg = config if config is not None else ExperimentConfig()
    return run_protocol_comparison(FIG3_PROTOCOLS, cfg)
