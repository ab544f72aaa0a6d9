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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.core.bcbpt import BcbptConfig, BcbptPolicy
from repro.experiments.api import experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.experiments.runner import PropagationExperiment
from repro.measurement.stats import DelayDistribution
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
    """One (variant, seed) BCBPT ablation measurement."""

    variant: str
    seed: int
    verification_enabled: bool
    long_links_per_node: int
    config: ExperimentConfig


@dataclass(frozen=True)
class AblationJobResult:
    """Per-(variant, seed) measurements merged by the ablation driver."""

    variant: str
    seed: int
    delay_samples: tuple[float, ...]
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
    result = PropagationExperiment(scenario, job.config).run()
    return AblationJobResult(
        variant=job.variant,
        seed=job.seed,
        delay_samples=tuple(result.delays.samples),
        average_degree=average_degree,
        average_path_length=average_path_length,
    )


def _measure_variants(
    cfg: ExperimentConfig, variants: Sequence[tuple[str, dict[str, object]]]
) -> list[AblationPoint]:
    """Measure several ablation variants, fanning (variant, seed) jobs out.

    The shared seed-grid executor regroups in submission order, so results
    are identical for every worker count.
    """

    def make_job(variant_knobs: tuple[str, dict[str, object]], seed: int) -> AblationJob:
        variant, knobs = variant_knobs
        return AblationJob(
            variant=variant,
            seed=seed,
            verification_enabled=bool(knobs.get("verification_enabled", True)),
            long_links_per_node=int(knobs.get("long_links_per_node", 2)),
            config=cfg,
        )

    grid = run_seed_grid(variants, make_job, run_ablation_job, cfg)

    points: list[AblationPoint] = []
    for (variant, _), seed_results in grid:
        delays = DelayDistribution()
        degrees: list[float] = []
        path_lengths: list[float] = []
        for seed_result in seed_results:
            delays.extend(seed_result.delay_samples)
            degrees.append(seed_result.average_degree)
            path_lengths.append(seed_result.average_path_length)
        stats = delays.summary()
        points.append(
            AblationPoint(
                variant=variant,
                mean_delay_s=stats["mean_s"],
                variance_s2=stats["variance_s2"],
                p90_delay_s=stats["p90_s"],
                average_degree=sum(degrees) / len(degrees),
                average_path_length=sum(path_lengths) / len(path_lengths),
            )
        )
    return points


@dataclass(frozen=True)
class AblationOutcome:
    """The combined payload of the registered ``ablation`` experiment."""

    verification: list[AblationPoint]
    long_links: list[AblationPoint]


def run_verification_ablation(config: Optional[ExperimentConfig] = None) -> list[AblationPoint]:
    """BCBPT with per-hop verification delay charged vs pipelined (skipped)."""
    cfg = config if config is not None else ExperimentConfig()
    return _measure_variants(
        cfg,
        [
            ("verify-then-relay", {"verification_enabled": True}),
            ("pipelined-relay", {"verification_enabled": False}),
        ],
    )


def run_long_link_ablation(
    config: Optional[ExperimentConfig] = None,
    counts: Sequence[int] = (0, 2, 5),
) -> list[AblationPoint]:
    """BCBPT with different numbers of long-distance links per node."""
    cfg = config if config is not None else ExperimentConfig()
    return _measure_variants(
        cfg,
        [(f"long-links={count}", {"long_links_per_node": count}) for count in counts],
    )


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
    """Run both ablations and return the combined outcome."""
    return AblationOutcome(
        verification=run_verification_ablation(config),
        long_links=run_long_link_ablation(config),
    )
