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
from repro.experiments.runner import (
    PropagationResult,
    collect_propagation_samples,
    run_protocol_comparison,
    summarize_propagation,
)

#: The protocols compared in Fig. 3, in the order the paper lists them.
FIG3_PROTOCOLS = ("bitcoin", "lbc", "bcbpt")


def expected_ordering_holds(results: dict[str, PropagationResult]) -> bool:
    """The reproduction criterion: BCBPT < LBC < Bitcoin in both mean and variance."""
    bitcoin = results["bitcoin"].summary()
    lbc = results["lbc"].summary()
    bcbpt = results["bcbpt"].summary()
    mean_ok = bcbpt["mean_s"] < lbc["mean_s"] < bitcoin["mean_s"]
    variance_ok = bcbpt["variance_s2"] < lbc["variance_s2"] < bitcoin["variance_s2"]
    return mean_ok and variance_ok


@experiment(
    "fig3",
    experiment_id="Fig. 3",
    title="Δt distribution, Bitcoin vs LBC vs BCBPT (d_t = 25 ms)",
    description=__doc__,
    protocols=FIG3_PROTOCOLS,
    summarize=summarize_propagation,
    collect_samples=collect_propagation_samples,
    verdicts={"paper_ordering": expected_ordering_holds},
)
def run_fig3(config: Optional[ExperimentConfig] = None) -> dict[str, PropagationResult]:
    """Execute the Fig. 3 comparison and return per-protocol results."""
    cfg = config if config is not None else ExperimentConfig()
    return run_protocol_comparison(FIG3_PROTOCOLS, cfg)
