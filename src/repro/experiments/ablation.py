"""Ext-5 — ablations of the design choices DESIGN.md calls out.

Two ablations on the BCBPT configuration, run with the same measuring-node
methodology as the main figures:

* **Verification-delay ablation** — the paper (after Decker & Wattenhofer)
  blames part of the propagation delay on per-hop transaction verification;
  Stathakopoulou's "faster Bitcoin network" pipelines relay ahead of
  verification.  Comparing BCBPT with the verification delay charged vs
  skipped isolates how much of the remaining delay is CPU versus links.
* **Long-link ablation** — BCBPT keeps "a few long distance links to the
  outside cluster".  Varying that count (0, 2, 5 per node) shows the
  trade-off between intra-cluster delay (unaffected) and the overlay's
  inter-cluster connectivity (hop count / partition resilience).

:func:`run_ablations` runs both as one grid: verify-then-relay is BCBPT
with two long links per node, so four (verification, long-link count) cells
per seed carry the five labels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.analysis.stats import summarize_values
from repro.core.bcbpt import BcbptConfig, BcbptPolicy
from repro.experiments.api import experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.experiments.runner import Campaign, measure_propagation
from repro.protocol.node import NodeConfig
from repro.workloads.network_gen import NetworkParameters, build_network
from repro.workloads.scenarios import Scenario


@dataclass(frozen=True)
class AblationPoint:
    """Result of one ablation variant."""

    variant: str
    mean_delay_s: float
    variance_s2: float
    p90_delay_s: float
    average_degree: float
    average_path_length: float
    long_link_fallbacks: float


def build_ablation_scenario(
    cfg: ExperimentConfig,
    seed: int,
    *,
    verification_enabled: bool = True,
    long_links_per_node: int = 2,
) -> Scenario:
    """Build a BCBPT scenario with explicit ablation knobs."""
    parameters = NetworkParameters(
        node_count=cfg.node_count,
        seed=seed,
        node_config=NodeConfig(verification_enabled=verification_enabled),
    )
    simulated = build_network(parameters)
    policy = BcbptPolicy(
        simulated.network,
        simulated.seed_service,
        simulated.simulator.random.stream("policy-bcbpt"),
        BcbptConfig(
            latency_threshold_s=cfg.latency_threshold_s,
            max_outbound=cfg.max_outbound,
            long_links_per_node=long_links_per_node,
        ),
    )
    report = policy.build_topology()
    return Scenario(name="bcbpt", network=simulated, policy=policy, build_report=report)


@dataclass(frozen=True)
class AblationJob:
    """One (verification, long-link count, seed) BCBPT ablation measurement."""

    seed: int
    verification_enabled: bool
    long_links_per_node: int
    config: ExperimentConfig


@dataclass(frozen=True)
class AblationJobResult:
    """Per-(knobs, seed) measurements merged by the ablation driver."""

    seed: int
    campaign: Campaign
    average_degree: float
    average_path_length: float


def run_ablation_job(job: AblationJob) -> AblationJobResult:
    """Execute one ablation point — the process-pool entry point."""
    scenario = build_ablation_scenario(
        job.config,
        job.seed,
        verification_enabled=job.verification_enabled,
        long_links_per_node=job.long_links_per_node,
    )
    topology = scenario.network.network.topology
    average_degree = topology.average_degree()
    average_path_length = topology.average_shortest_path_length()
    campaign = measure_propagation(scenario, job.config)
    return AblationJobResult(
        seed=job.seed,
        campaign=campaign,
        average_degree=average_degree,
        average_path_length=average_path_length,
    )


#: A labelled variant: (label, verification_enabled, long_links_per_node).
Variant = tuple[str, bool, int]

#: BCBPT with per-hop verification delay charged vs pipelined (skipped).
VERIFICATION_VARIANTS: tuple[Variant, ...] = (
    ("verify-then-relay", True, 2),
    ("pipelined-relay", False, 2),
)

#: BCBPT with 0, 2 and 5 long-distance links per node.
LONG_LINK_VARIANTS: tuple[Variant, ...] = tuple(
    (f"long-links={count}", True, count) for count in (0, 2, 5)
)


def _measure_variants(cfg: ExperimentConfig, variants: Sequence[Variant]) -> list[AblationPoint]:
    """Measure labelled variants, fanning (knobs, seed) jobs out.

    Variants with the same knobs share one grid point, so each distinct
    (verification, long-link count) pair runs once per seed.  The shared
    seed-grid executor regroups in submission order, so results are
    identical for every worker count.
    """
    knobs = list(dict.fromkeys((verify, links) for _, verify, links in variants))

    def make_job(point: tuple[bool, int], seed: int) -> AblationJob:
        verification_enabled, long_links_per_node = point
        return AblationJob(
            seed=seed,
            verification_enabled=verification_enabled,
            long_links_per_node=long_links_per_node,
            config=cfg,
        )

    measured = dict(run_seed_grid(knobs, make_job, run_ablation_job, cfg))

    points: list[AblationPoint] = []
    for variant, verify, links in variants:
        seed_results = measured[(verify, links)]
        stats = summarize_values(
            [delay for r in seed_results for delay in r.campaign.delays]
        )
        degrees = [r.average_degree for r in seed_results]
        path_lengths = [r.average_path_length for r in seed_results]
        points.append(
            AblationPoint(
                variant=variant,
                mean_delay_s=stats["mean_s"],
                variance_s2=stats["variance_s2"],
                p90_delay_s=stats["p90_s"],
                average_degree=sum(degrees) / len(degrees),
                average_path_length=sum(path_lengths) / len(path_lengths),
                long_link_fallbacks=float(
                    sum(r.campaign.long_link_fallbacks for r in seed_results)
                ),
            )
        )
    return points


@dataclass(frozen=True)
class AblationOutcome:
    """The combined payload of the registered ``ablation`` experiment."""

    verification: list[AblationPoint]
    long_links: list[AblationPoint]


def summarize(outcome: AblationOutcome) -> dict[str, dict[str, float]]:
    """Per-variant scalar summaries for the result envelope."""
    summaries: dict[str, dict[str, float]] = {}
    for group, points in (
        ("verification", outcome.verification),
        ("long-links", outcome.long_links),
    ):
        for point in points:
            summaries[f"{group}/{point.variant}"] = asdict(point)
    return summaries


@experiment(
    "ablation",
    experiment_id="Ext-5",
    title="Ablations: verification delay and long-distance links",
    description=__doc__,
    protocols=("bcbpt",),
    summarize=summarize,
)
def run_ablations(config: Optional[ExperimentConfig] = None) -> AblationOutcome:
    """Run both ablations as one grid and return the combined outcome.

    ``verification/verify-then-relay`` and ``long-links/long-links=2`` name
    the same knobs, so the grid holds four cells per seed for five labels.
    """
    cfg = config if config is not None else ExperimentConfig()
    verification = len(VERIFICATION_VARIANTS)
    points = _measure_variants(cfg, VERIFICATION_VARIANTS + LONG_LINK_VARIANTS)
    return AblationOutcome(verification=points[:verification], long_links=points[verification:])
