"""Fig. 4 — Δt distribution for BCBPT under thresholds d_t ∈ {30, 50, 100} ms.

"Results reveal that less distance threshold performs less variance of delays
... the number of nodes at each cluster is minimised due to the limited
coverage physical topology which is offered [by] d_t."  This driver sweeps the
same three thresholds, reports the Δt summary per threshold plus the cluster
structure that explains the trend, and checks the monotonicity criterion.

Run via ``python -m repro.experiments run fig4 [--thresholds-ms 30 50 100]``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import ExperimentReport, format_delay_summaries, format_table
from repro.experiments.runner import (
    PropagationResult,
    collect_propagation_samples,
    run_protocol_comparison,
)


def threshold_labels(thresholds_s: Sequence[float]) -> list[str]:
    """Protocol labels of the form ``"bcbpt@30ms"`` for a threshold sweep."""
    return [f"bcbpt@{round(t * 1000):g}ms" for t in thresholds_s]


def build_report(results: dict[str, PropagationResult]) -> ExperimentReport:
    """Turn Fig. 4 results into a structured text report."""
    report = ExperimentReport(
        experiment_id="Fig. 4",
        description="Δt distribution for BCBPT at d_t = 30, 50, 100 ms",
    )
    summaries = {name: result.summary() for name, result in results.items()}
    report.add_section("Delay summary by threshold", format_delay_summaries(summaries))

    cluster_rows = []
    for name, result in results.items():
        sizes = [s["mean_size"] for s in result.cluster_summaries.values() if s.get("cluster_count")]
        counts = [s["cluster_count"] for s in result.cluster_summaries.values() if s.get("cluster_count")]
        if sizes:
            cluster_rows.append(
                [
                    name,
                    sum(counts) / len(counts),
                    sum(sizes) / len(sizes),
                    summaries[name]["variance_s2"] * 1e6,
                ]
            )
    report.add_section(
        "Cluster structure vs delay variance",
        format_table(
            ["threshold", "mean cluster count", "mean cluster size", "variance (ms²)"],
            cluster_rows,
        ),
    )
    return report


def variance_is_monotone(results: dict[str, PropagationResult]) -> bool:
    """Reproduction criterion: Δt variance does not decrease as d_t grows."""
    ordered = sorted(results.items(), key=lambda item: _threshold_of(item[0]))
    variances = [result.summary()["variance_s2"] for _, result in ordered]
    return all(later >= earlier for earlier, later in zip(variances, variances[1:]))


def _threshold_of(label: str) -> float:
    if "@" not in label or not label.endswith("ms"):
        raise ValueError(f"not a threshold label: {label!r}")
    return float(label.split("@", 1)[1][:-2])


def summarize(results: dict[str, PropagationResult]) -> dict[str, dict[str, float]]:
    """Per-threshold scalar summaries for the result envelope."""
    return {name: result.summary() for name, result in results.items()}


@experiment(
    "fig4",
    experiment_id="Fig. 4",
    title="Δt distribution for BCBPT at d_t = 30, 50, 100 ms",
    description=__doc__,
    protocols=("bcbpt",),
    options=(
        ExperimentOption(
            flag="--thresholds-ms",
            dest="thresholds_ms",
            type=float,
            nargs="+",
            help="thresholds to sweep, in milliseconds (default: 30 50 100)",
            config_field="fig4_thresholds_s",
            convert=lambda values: tuple(t / 1000.0 for t in values),
        ),
    ),
    report=build_report,
    summarize=summarize,
    collect_samples=collect_propagation_samples,
    verdicts={"variance_monotone": variance_is_monotone},
)
def run_fig4(config: Optional[ExperimentConfig] = None) -> dict[str, PropagationResult]:
    """Execute the Fig. 4 threshold sweep and return per-threshold results."""
    cfg = config if config is not None else ExperimentConfig()
    labels = threshold_labels(cfg.fig4_thresholds_s)
    return run_protocol_comparison(labels, cfg)
