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
from repro.experiments.runner import (
    PropagationResult,
    collect_propagation_samples,
    run_protocol_comparison,
    summarize_propagation,
)


def threshold_labels(thresholds_s: Sequence[float]) -> list[str]:
    """Protocol labels of the form ``"bcbpt@30ms"`` for a threshold sweep."""
    return [f"bcbpt@{round(t * 1000):g}ms" for t in thresholds_s]


def variance_is_monotone(results: dict[str, PropagationResult]) -> bool:
    """Reproduction criterion: Δt variance does not decrease as d_t grows."""
    ordered = sorted(results.items(), key=lambda item: _threshold_of(item[0]))
    variances = [result.summary()["variance_s2"] for _, result in ordered]
    return all(later >= earlier for earlier, later in zip(variances, variances[1:]))


def _threshold_of(label: str) -> float:
    if "@" not in label or not label.endswith("ms"):
        raise ValueError(f"not a threshold label: {label!r}")
    return float(label.split("@", 1)[1][:-2])


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
    summarize=summarize_propagation,
    collect_samples=collect_propagation_samples,
    verdicts={"variance_monotone": variance_is_monotone},
)
def run_fig4(config: Optional[ExperimentConfig] = None) -> dict[str, PropagationResult]:
    """Execute the Fig. 4 threshold sweep and return per-threshold results."""
    cfg = config if config is not None else ExperimentConfig()
    labels = threshold_labels(cfg.fig4_thresholds_s)
    return run_protocol_comparison(labels, cfg)
