"""Val-1 — simulator validation against published real-network behaviour.

The authors validated their simulator against real-network propagation-delay
measurements (Section V.A).  Those traces are not public, so this experiment
validates the simulated substrate against the *published shape* of the real
network instead:

* the crawler-observed RTT distribution must be realistic: intra-region
  medians of a few tens of milliseconds, inter-region medians several times
  larger, and a long right tail (the same qualitative shape the authors'
  20,000-ping crawl and Decker & Wattenhofer's measurements show);
* the vanilla-Bitcoin Δt distribution must be right-skewed (mean above the
  median) with a long tail — the signature of store-and-forward INV/GETDATA
  relay over heterogeneous links.

Run via ``python -m repro.experiments run validation [--crawler-samples N]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import summarize_values
from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import measure_propagation
from repro.measurement.crawler import CrawlerReport, NetworkCrawler
from repro.workloads.network_gen import NetworkParameters, build_network
from repro.workloads.scenarios import build_scenario


@dataclass(frozen=True)
class ValidationResultSummary:
    """The validation checks and their outcomes."""

    crawler: CrawlerReport
    rtt_median_s: float
    rtt_p90_s: float
    intra_region_median_s: float
    inter_region_median_s: float
    bitcoin_delay_mean_s: float
    bitcoin_delay_median_s: float
    bitcoin_delay_p95_s: float

    @property
    def rtt_shape_ok(self) -> bool:
        """Intra-region fast, inter-region several times slower, long tail."""
        return (
            0.001 <= self.intra_region_median_s <= 0.080
            and self.inter_region_median_s >= 2.0 * self.intra_region_median_s
            and self.rtt_p90_s > self.rtt_median_s
        )

    @property
    def delay_shape_ok(self) -> bool:
        """Right-skewed Δt with a long tail, as in real-network measurements."""
        return (
            self.bitcoin_delay_mean_s >= self.bitcoin_delay_median_s * 0.9
            and self.bitcoin_delay_p95_s >= 1.5 * self.bitcoin_delay_median_s
        )

    @property
    def all_ok(self) -> bool:
        """Whether every validation criterion passes."""
        return self.rtt_shape_ok and self.delay_shape_ok


def summarize(summary: ValidationResultSummary) -> dict[str, dict[str, float]]:
    """Scalar validation metrics for the result envelope."""
    return {
        "validation": {
            "rtt_median_s": summary.rtt_median_s,
            "rtt_p90_s": summary.rtt_p90_s,
            "intra_region_median_s": summary.intra_region_median_s,
            "inter_region_median_s": summary.inter_region_median_s,
            "bitcoin_delay_mean_s": summary.bitcoin_delay_mean_s,
            "bitcoin_delay_median_s": summary.bitcoin_delay_median_s,
            "bitcoin_delay_p95_s": summary.bitcoin_delay_p95_s,
            "reachable_nodes": float(summary.crawler.reachable_nodes),
            "ping_samples": float(summary.crawler.ping_samples),
        }
    }


@experiment(
    "validation",
    experiment_id="Val-1",
    title="Simulator validation against published real-network shapes",
    description=__doc__,
    protocols=("bitcoin",),
    options=(
        ExperimentOption(
            flag="--crawler-samples",
            dest="crawler_samples",
            type=int,
            help="ping samples for the substrate crawl (default: 5000)",
        ),
    ),
    summarize=summarize,
    verdicts={
        "rtt_shape_ok": lambda summary: summary.rtt_shape_ok,
        "delay_shape_ok": lambda summary: summary.delay_shape_ok,
        "all_ok": lambda summary: summary.all_ok,
    },
    exit_verdict="all_ok",
)
def run_validation(
    config: Optional[ExperimentConfig] = None,
    *,
    crawler_samples: int = 5_000,
) -> ValidationResultSummary:
    """Crawl the substrate and measure the vanilla-Bitcoin delay shape."""
    if crawler_samples <= 0:
        raise ValueError("crawler_samples must be positive")
    cfg = config if config is not None else ExperimentConfig()
    seed = cfg.seeds[0]

    # Substrate RTT shape, measured the way the authors' crawler measured it.
    simulated = build_network(NetworkParameters(node_count=cfg.node_count, seed=seed))
    crawler = NetworkCrawler(simulated.network, simulated.simulator.random.stream("crawler"))
    crawl = crawler.crawl(crawler_samples)

    # Vanilla Bitcoin propagation-delay shape.
    scenario = build_scenario(
        "bitcoin",
        NetworkParameters(node_count=cfg.node_count, seed=seed),
        max_outbound=cfg.max_outbound,
    )
    delays = summarize_values(measure_propagation(scenario, cfg).delays)

    return ValidationResultSummary(
        crawler=crawl,
        rtt_median_s=crawl.rtt_distribution.median(),
        rtt_p90_s=crawl.rtt_distribution.percentile(90),
        intra_region_median_s=crawl.intra_region_median_s,
        inter_region_median_s=crawl.inter_region_median_s,
        bitcoin_delay_mean_s=delays["mean_s"],
        bitcoin_delay_median_s=delays["median_s"],
        bitcoin_delay_p95_s=delays["p95_s"],
    )

