"""Ext-1 — fine-grained latency-threshold sweep (extends Fig. 4).

The paper asks "the optimal latency distance threshold that can speed up
information propagation" but only evaluates three values.  This extension
sweeps a wider range (including the Fig. 3 value of 25 ms), and reports, for
every threshold, the Δt summary alongside the cluster structure and average
link RTT — making explicit the mechanism the paper proposes (smaller
threshold ⇒ smaller clusters with shorter links ⇒ lower delay variance) and
exposing the connectivity cost of very small thresholds.

Run via ``python -m repro.experiments run threshold_sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.experiments.reporting import ExperimentReport, format_table
from repro.experiments.runner import PropagationExperiment
from repro.measurement.stats import DelayDistribution
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario

#: Default sweep, in seconds (10 ms .. 200 ms, including the paper's values).
DEFAULT_THRESHOLDS_S = (0.010, 0.025, 0.030, 0.050, 0.075, 0.100, 0.150, 0.200)


@dataclass(frozen=True)
class ThresholdPoint:
    """Measurements for one threshold value."""

    threshold_s: float
    mean_delay_s: float
    median_delay_s: float
    variance_s2: float
    p90_delay_s: float
    cluster_count: float
    mean_cluster_size: float
    mean_link_rtt_s: float
    long_link_fraction: float


@dataclass(frozen=True)
class ThresholdJob:
    """One (threshold, seed) BCBPT campaign for the fine-grained sweep."""

    threshold_s: float
    seed: int
    config: ExperimentConfig


@dataclass(frozen=True)
class ThresholdJobResult:
    """Per-(threshold, seed) measurements merged by the sweep driver."""

    threshold_s: float
    seed: int
    delay_samples: tuple[float, ...]
    cluster_count: float
    mean_cluster_size: float
    mean_link_rtt_s: Optional[float]
    long_link_fraction: Optional[float]


def run_threshold_job(job: ThresholdJob) -> ThresholdJobResult:
    """Execute one sweep point — the process-pool entry point."""
    scenario = build_scenario(
        "bcbpt",
        NetworkParameters(node_count=job.config.node_count, seed=job.seed),
        latency_threshold_s=job.threshold_s,
        max_outbound=job.config.max_outbound,
    )
    experiment = PropagationExperiment(scenario, job.config)
    result = experiment.run()
    summary = scenario.policy.clusters.summary()
    network = scenario.network.network
    links = list(network.topology.links())
    mean_link_rtt_s: Optional[float] = None
    long_link_fraction: Optional[float] = None
    if links:
        mean_link_rtt_s = sum(
            network.base_rtt(link.node_a, link.node_b) for link in links
        ) / len(links)
        long_link_fraction = sum(1 for link in links if link.is_long_link) / len(links)
    return ThresholdJobResult(
        threshold_s=job.threshold_s,
        seed=job.seed,
        delay_samples=tuple(result.delays.samples),
        cluster_count=summary["cluster_count"],
        mean_cluster_size=summary["mean_size"],
        mean_link_rtt_s=mean_link_rtt_s,
        long_link_fraction=long_link_fraction,
    )


def build_report(points: list[ThresholdPoint]) -> ExperimentReport:
    """Render the sweep as a report table."""
    report = ExperimentReport(
        experiment_id="Ext-1",
        description="Fine-grained BCBPT latency-threshold sweep",
    )
    rows = [
        [
            f"{point.threshold_s * 1000:.0f} ms",
            point.mean_delay_s * 1e3,
            point.median_delay_s * 1e3,
            point.variance_s2 * 1e6,
            point.p90_delay_s * 1e3,
            point.cluster_count,
            point.mean_cluster_size,
            point.mean_link_rtt_s * 1e3,
            point.long_link_fraction,
        ]
        for point in points
    ]
    report.add_section(
        "Threshold sweep",
        format_table(
            [
                "d_t",
                "mean_ms",
                "median_ms",
                "var_ms2",
                "p90_ms",
                "clusters",
                "mean size",
                "link RTT ms",
                "long-link frac",
            ],
            rows,
        ),
    )
    return report


def summarize(points: list[ThresholdPoint]) -> dict[str, dict[str, float]]:
    """Per-threshold scalar summaries for the result envelope."""
    from dataclasses import asdict

    return {f"{point.threshold_s * 1000:g}ms": asdict(point) for point in points}


@experiment(
    "threshold_sweep",
    experiment_id="Ext-1",
    title="Fine-grained BCBPT latency-threshold sweep",
    description=__doc__,
    protocols=("bcbpt",),
    options=(
        ExperimentOption(
            flag="--thresholds-ms",
            dest="thresholds_ms",
            type=float,
            nargs="+",
            help="thresholds to sweep, in milliseconds "
            "(default: 10 25 30 50 75 100 150 200)",
            convert=lambda values: tuple(t / 1000.0 for t in values),
            kwarg="thresholds_s",
        ),
    ),
    report=build_report,
    summarize=summarize,
)
def run_threshold_sweep(
    config: Optional[ExperimentConfig] = None,
    thresholds_s: Sequence[float] = DEFAULT_THRESHOLDS_S,
) -> list[ThresholdPoint]:
    """Measure BCBPT across a range of latency thresholds.

    Each (threshold, seed) point is an independent simulation; the shared
    seed-grid executor fans them out over ``cfg.workers`` processes and
    regroups in submission order, so the sweep result is identical for every
    worker count.
    """
    cfg = config if config is not None else ExperimentConfig()

    def make_job(threshold: float, seed: int) -> ThresholdJob:
        return ThresholdJob(threshold_s=threshold, seed=seed, config=cfg)

    grid = run_seed_grid(thresholds_s, make_job, run_threshold_job, cfg)

    points: list[ThresholdPoint] = []
    for threshold, seed_results in grid:
        delays = DelayDistribution()
        cluster_counts: list[float] = []
        cluster_sizes: list[float] = []
        link_rtts: list[float] = []
        long_fractions: list[float] = []
        for seed_result in seed_results:
            delays.extend(seed_result.delay_samples)
            cluster_counts.append(seed_result.cluster_count)
            cluster_sizes.append(seed_result.mean_cluster_size)
            if seed_result.mean_link_rtt_s is not None:
                link_rtts.append(seed_result.mean_link_rtt_s)
            if seed_result.long_link_fraction is not None:
                long_fractions.append(seed_result.long_link_fraction)
        stats = delays.summary()
        points.append(
            ThresholdPoint(
                threshold_s=threshold,
                mean_delay_s=stats["mean_s"],
                median_delay_s=stats["median_s"],
                variance_s2=stats["variance_s2"],
                p90_delay_s=stats["p90_s"],
                cluster_count=sum(cluster_counts) / len(cluster_counts),
                mean_cluster_size=sum(cluster_sizes) / len(cluster_sizes),
                mean_link_rtt_s=sum(link_rtts) / len(link_rtts) if link_rtts else float("nan"),
                long_link_fraction=(
                    sum(long_fractions) / len(long_fractions) if long_fractions else float("nan")
                ),
            )
        )
    return points
