"""Ext-8 — scale ladder: wall time, throughput and memory up to 10k nodes.

The paper's measured Bitcoin network is roughly 5000 reachable nodes; the
figure experiments here default to a few hundred for tractable runtimes.
This experiment measures what happens on the way up: for a ladder of network
sizes it runs a deliberately small propagation campaign per (protocol, seed)
cell and records

* wall time, split into network build (network and overlay) and campaign
  phases,
* simulation throughput (events executed per wall second),
* the cell's peak traced Python allocation (``tracemalloc``) and, when the
  cell raised the process RSS high-water mark (``resource.getrusage``), that
  mark, and
* how much stale inventory state the in-run pruner
  (:attr:`~repro.protocol.node.NodeConfig.prune_depth`) reclaimed.

Cells ride the two scale-plane mechanisms this repo grew for 10k-node runs:
latency state kept only for the node pairs a run touches (automatic via
``build_network``), and block-acceptance-driven state pruning (enabled here
by default with ``--prune-depth 6``; the figure experiments keep it off).
Every cell builds its own network, so nothing runs in the driver before the
first cell and the first cell's RSS mark is its own.

Run from the command line::

    PYTHONPATH=src python -m repro.experiments run scale --nodes 10000 \
        --seeds 3 --protocols bitcoin bcbpt --workers 1
"""

from __future__ import annotations

import resource
import time
import tracemalloc
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.samples import SampleLog
from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.experiments.runner import measure_propagation
from repro.protocol.node import NodeConfig
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario, validate_policy_name

#: Policies measured by default: the vanilla baseline and the paper's overlay.
SCALE_PROTOCOLS = ("bitcoin", "bcbpt")

#: Default in-run pruning depth for scale cells (Bitcoin's classic
#: six-confirmation burial rule).
DEFAULT_PRUNE_DEPTH = 6

#: Smallest ladder point: campaigns need enough nodes for funding, measuring
#: and clustering to be meaningful.
MIN_LADDER_NODES = 20


def scale_parameters(
    node_count: int, seed: int, prune_depth: Optional[int]
) -> NetworkParameters:
    """The network parameters of one scale cell."""
    return NetworkParameters(
        node_count=node_count,
        seed=seed,
        node_config=NodeConfig(prune_depth=prune_depth),
    )


def default_ladder(node_count: int) -> tuple[int, ...]:
    """The default size ladder up to ``node_count``: quarter, half, full."""
    rungs = {
        max(MIN_LADDER_NODES, node_count // 4),
        max(MIN_LADDER_NODES, node_count // 2),
        node_count,
    }
    return tuple(sorted(rungs))


@dataclass(frozen=True)
class ScaleJob:
    """One (node count, protocol, seed) scale-measurement cell.

    Attributes:
        node_count: network size of this ladder point.
        protocol: neighbour-selection policy under test.
        seed: master seed for the cell's network and simulator.
        prune_depth: ``NodeConfig.prune_depth`` applied to every node (None
            disables in-run pruning).
        cell_runs: measurement runs per cell (kept small — the cell measures
            resource scaling, not delay statistics).
        profile_memory: trace the cell's Python allocations with
            ``tracemalloc`` (accurate per-cell peaks, roughly 2x slower).
        config: shared experiment configuration (BCBPT's ``d_t`` is its
            ``latency_threshold_s``).
    """

    node_count: int
    protocol: str
    seed: int
    prune_depth: Optional[int]
    cell_runs: int
    profile_memory: bool
    config: ExperimentConfig


@dataclass(frozen=True)
class ScaleJobResult:
    """Per-cell resource measurements merged by the scale driver."""

    node_count: int
    protocol: str
    seed: int
    build_s: float
    run_s: float
    events: int
    delay_samples: int
    peak_traced_mb: Optional[float]
    rss_mb: Optional[float]
    state_prunes: int
    pruned_inventory_entries: int
    long_link_fallbacks: int

    @property
    def wall_s(self) -> float:
        """Total cell wall time (network build + campaign)."""
        return self.build_s + self.run_s

    @property
    def events_per_s(self) -> float:
        """Simulation throughput over the campaign phase."""
        if self.run_s <= 0:
            return float("nan")
        return self.events / self.run_s


def run_scale_job(job: ScaleJob) -> ScaleJobResult:
    """Execute one scale cell — the process-pool entry point."""
    cfg = job.config.with_overrides(
        node_count=job.node_count,
        runs=job.cell_runs,
        measuring_nodes=1,
        seeds=(job.seed,),
    )
    # ru_maxrss is the process-lifetime RSS high-water mark (KB on Linux).  A
    # cell that raised it peaked at the new mark; a cell that did not peaked
    # somewhere below an earlier cell's peak, which a shared process (serial
    # cells, a reused pool worker) cannot see, so it records None.
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job.profile_memory:
        tracemalloc.start()
    try:
        start = time.perf_counter()
        scenario = build_scenario(
            job.protocol,
            scale_parameters(job.node_count, job.seed, job.prune_depth),
            latency_threshold_s=cfg.latency_threshold_s,
            max_outbound=cfg.max_outbound,
        )
        built = time.perf_counter()
        campaign = measure_propagation(scenario, cfg, fund_measuring_only=True)
        finished = time.perf_counter()
        peak_traced_mb: Optional[float] = None
        if job.profile_memory:
            peak_traced_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        if job.profile_memory:
            tracemalloc.stop()
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    nodes = scenario.network.nodes.values()
    return ScaleJobResult(
        node_count=job.node_count,
        protocol=job.protocol,
        seed=job.seed,
        build_s=built - start,
        run_s=finished - built,
        events=scenario.simulator.events_executed,
        delay_samples=len(campaign.delays),
        peak_traced_mb=peak_traced_mb,
        rss_mb=rss_after / 1024.0 if rss_after > rss_before else None,
        state_prunes=sum(node.stats.state_prunes for node in nodes),
        pruned_inventory_entries=sum(
            node.stats.pruned_inventory_entries for node in nodes
        ),
        long_link_fallbacks=campaign.long_link_fallbacks,
    )


@dataclass(frozen=True)
class ScaleResult:
    """Pooled scale measurements for one (protocol, node count) pair.

    ``cells`` holds the pair's per-seed records, in seed order.
    """

    protocol: str
    node_count: int
    cells: tuple[ScaleJobResult, ...]

    @property
    def label(self) -> str:
        """The combined ``protocol@N`` result key."""
        return f"{self.protocol}@{self.node_count}"

    def mean(self, values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else float("nan")

    def summary(self) -> dict[str, float]:
        """Scalar summary for the result envelope."""
        peaks = [c.peak_traced_mb for c in self.cells if c.peak_traced_mb is not None]
        rss = [c.rss_mb for c in self.cells if c.rss_mb is not None]
        return {
            "cells": float(len(self.cells)),
            "mean_build_s": self.mean([c.build_s for c in self.cells]),
            "mean_run_s": self.mean([c.run_s for c in self.cells]),
            "mean_wall_s": self.mean([c.wall_s for c in self.cells]),
            "total_events": float(sum(c.events for c in self.cells)),
            "mean_events_per_s": self.mean([c.events_per_s for c in self.cells]),
            "max_peak_traced_mb": max(peaks) if peaks else float("nan"),
            "max_rss_mb": max(rss) if rss else float("nan"),
            "state_prunes": float(sum(c.state_prunes for c in self.cells)),
            "pruned_inventory_entries": float(
                sum(c.pruned_inventory_entries for c in self.cells)
            ),
            "long_link_fallbacks": float(sum(c.long_link_fallbacks for c in self.cells)),
        }


def all_cells_completed(results: dict[str, ScaleResult]) -> bool:
    """Every cell ran its campaign: events executed and Δt samples captured."""
    cells = [cell for result in results.values() for cell in result.cells]
    if not cells:
        return False
    return all(cell.events > 0 and cell.delay_samples > 0 for cell in cells)


def collect_samples(results: dict[str, ScaleResult]) -> SampleLog:
    """Nodes-vs-resource curves for the envelope's ``samples`` field."""
    log = SampleLog()
    for result in results.values():
        x = float(result.node_count)
        for cell in result.cells:
            log.add_point(result.protocol, "wall_s", x, cell.wall_s, unit="s")
            log.add_point(result.protocol, "build_s", x, cell.build_s, unit="s")
            log.add_point(
                result.protocol, "events_per_s", x, cell.events_per_s, unit="1/s"
            )
            if cell.rss_mb is not None:
                log.add_point(result.protocol, "rss_mb", x, cell.rss_mb, unit="MB")
            if cell.peak_traced_mb is not None:
                log.add_point(
                    result.protocol,
                    "peak_traced_mb",
                    x,
                    cell.peak_traced_mb,
                    unit="MB",
                )
    return log


@experiment(
    "scale",
    experiment_id="Ext-8",
    title="Scale ladder: wall time, throughput and memory up to 10k nodes",
    description=__doc__,
    protocols=SCALE_PROTOCOLS,
    options=(
        ExperimentOption(
            flag="--node-counts",
            dest="node_counts",
            type=int,
            nargs="+",
            help="explicit ladder of network sizes (default: nodes/4 nodes/2 nodes)",
            convert=tuple,
        ),
        ExperimentOption(
            flag="--protocols",
            dest="protocols",
            type=str,
            nargs="+",
            help="policies to measure (default: bitcoin bcbpt)",
            convert=tuple,
            is_protocols=True,
        ),
        ExperimentOption(
            flag="--prune-depth",
            dest="prune_depth",
            type=int,
            help="in-run pruning depth; 0 disables pruning (default: 6)",
        ),
        ExperimentOption(
            flag="--cell-runs",
            dest="cell_runs",
            type=int,
            help="measurement runs per cell (default: 2)",
        ),
        ExperimentOption(
            flag="--profile-memory",
            dest="profile_memory",
            type=int,
            help="1 traces per-cell peak allocations with tracemalloc, 0 skips it (default: 1)",
            convert=bool,
        ),
    ),
    summarize=lambda results: {key: r.summary() for key, r in results.items()},
    collect_samples=collect_samples,
    verdicts={"all_cells_completed": all_cells_completed},
    exit_verdict="all_cells_completed",
)
def run_scale(
    config: Optional[ExperimentConfig] = None,
    *,
    node_counts: Optional[Sequence[int]] = None,
    protocols: Sequence[str] = SCALE_PROTOCOLS,
    prune_depth: int = DEFAULT_PRUNE_DEPTH,
    cell_runs: int = 2,
    profile_memory: bool = True,
) -> dict[str, ScaleResult]:
    """Measure the resource-scaling ladder and pool results per cell.

    Args:
        config: shared experiment configuration; ``config.node_count`` is the
            ladder's top rung when ``node_counts`` is not given.
        node_counts: explicit ladder of network sizes.
        protocols: policy names to measure at every rung.
        prune_depth: in-run pruning depth applied to every node (0 disables).
        cell_runs: measurement runs per cell.
        profile_memory: trace per-cell allocation peaks with ``tracemalloc``.

    Returns:
        ``"protocol@nodes"`` -> :class:`ScaleResult`.
    """
    cfg = config if config is not None else ExperimentConfig()
    ladder = (
        tuple(node_counts) if node_counts is not None else default_ladder(cfg.node_count)
    )
    if not ladder:
        raise ValueError("node_counts cannot be empty")
    for rung in ladder:
        if rung < MIN_LADDER_NODES:
            raise ValueError(
                f"every ladder point needs at least {MIN_LADDER_NODES} nodes, got {rung}"
            )
    if cell_runs <= 0:
        raise ValueError("cell_runs must be positive")
    if prune_depth < 0:
        raise ValueError("prune_depth cannot be negative (0 disables pruning)")
    for protocol in protocols:
        validate_policy_name(protocol)
    depth = prune_depth if prune_depth > 0 else None

    points = [(rung, protocol) for rung in ladder for protocol in protocols]

    def make_job(point: tuple[int, str], seed: int) -> ScaleJob:
        rung, protocol = point
        return ScaleJob(
            node_count=rung,
            protocol=protocol,
            seed=seed,
            prune_depth=depth,
            cell_runs=cell_runs,
            profile_memory=profile_memory,
            config=cfg,
        )

    grid = run_seed_grid(points, make_job, run_scale_job, cfg)
    return {
        f"{protocol}@{rung}": ScaleResult(protocol, rung, tuple(cells))
        for (rung, protocol), cells in grid
    }
