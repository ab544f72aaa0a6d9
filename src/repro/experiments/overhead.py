"""Ext-2 — measurement and control-plane overhead of each protocol.

Section IV.A: "to measure the distance between nodes in 'ping latency'
requires every pair of nodes to interact, which added an extra overhead to the
network.  This overhead will be evaluated in our future work."  This extension
performs that evaluation: for each protocol it counts the ping/pong exchanges,
cluster-control messages (JOIN, JOIN_ACCEPT, CLUSTER_MEMBERS) and bytes spent
building the topology, normalised per node, and relates them to the
propagation-delay improvement the protocol buys.

Run via ``python -m repro.experiments run overhead``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.analysis.stats import summarize_values
from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.experiments.runner import Campaign, measure_propagation
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario

OVERHEAD_PROTOCOLS = ("bitcoin", "lbc", "bcbpt")

#: Message commands attributed to topology construction / clustering control.
CONTROL_COMMANDS = ("join", "join_accept", "cluster_members", "getaddr", "addr")


@dataclass(frozen=True)
class OverheadPoint:
    """Control-plane cost and resulting delay for one protocol."""

    protocol: str
    ping_messages_per_node: float
    control_messages_per_node: float
    control_bytes_per_node: float
    handshake_messages_per_node: float
    total_build_bytes_per_node: float
    mean_delay_s: float
    delay_variance_s2: float
    long_link_fallbacks: float


@dataclass(frozen=True)
class OverheadJob:
    """One (protocol, seed) topology-build + campaign overhead measurement."""

    protocol: str
    seed: int
    config: ExperimentConfig


@dataclass(frozen=True)
class OverheadJobResult:
    """Per-(protocol, seed) overhead counters merged by the overhead driver."""

    protocol: str
    seed: int
    ping_messages_per_node: float
    control_messages_per_node: float
    control_bytes_per_node: float
    handshake_messages_per_node: float
    total_build_bytes_per_node: float
    campaign: Campaign


def run_overhead_seed(job: OverheadJob) -> OverheadJobResult:
    """Measure one (protocol, seed) build's overhead — the process-pool entry point."""
    cfg = job.config
    scenario = build_scenario(
        job.protocol,
        NetworkParameters(node_count=cfg.node_count, seed=job.seed),
        latency_threshold_s=cfg.latency_threshold_s,
        max_outbound=cfg.max_outbound,
    )
    network = scenario.network.network
    nodes = max(1, cfg.node_count)
    # Counters at this point reflect only the topology build (no measurement
    # traffic has been generated yet).
    ping = (
        network.messages_sent.get("ping", 0) + network.messages_sent.get("pong", 0)
    ) / nodes
    control = sum(network.messages_sent.get(cmd, 0) for cmd in CONTROL_COMMANDS) / nodes
    control_bytes = sum(network.bytes_sent.get(cmd, 0) for cmd in CONTROL_COMMANDS) / nodes
    handshake = (
        network.messages_sent.get("version", 0) + network.messages_sent.get("verack", 0)
    ) / nodes
    total_bytes = network.total_bytes() / nodes
    campaign = measure_propagation(scenario, cfg)
    return OverheadJobResult(
        protocol=job.protocol,
        seed=job.seed,
        ping_messages_per_node=ping,
        control_messages_per_node=control,
        control_bytes_per_node=control_bytes,
        handshake_messages_per_node=handshake,
        total_build_bytes_per_node=total_bytes,
        campaign=campaign,
    )


def summarize(points: list[OverheadPoint]) -> dict[str, dict[str, float]]:
    """Per-protocol scalar summaries for the result envelope."""
    return {point.protocol: asdict(point) for point in points}


@experiment(
    "overhead",
    experiment_id="Ext-2",
    title="Topology-construction overhead vs propagation-delay benefit",
    description=__doc__,
    protocols=OVERHEAD_PROTOCOLS,
    options=(
        ExperimentOption(
            flag="--protocols",
            dest="protocols",
            type=str,
            nargs="+",
            help="protocols to evaluate (default: bitcoin lbc bcbpt)",
            convert=tuple,
            is_protocols=True,
        ),
    ),
    summarize=summarize,
)
def run_overhead(
    config: Optional[ExperimentConfig] = None,
    protocols: Sequence[str] = OVERHEAD_PROTOCOLS,
) -> list[OverheadPoint]:
    """Measure topology-construction overhead and delay for each protocol.

    (protocol, seed) builds are independent simulations; the shared seed-grid
    executor fans them out over ``cfg.workers`` processes and regroups in
    submission order, so results are identical for every worker count.
    """
    cfg = config if config is not None else ExperimentConfig()

    def make_job(protocol: str, seed: int) -> OverheadJob:
        return OverheadJob(protocol=protocol, seed=seed, config=cfg)

    grid = run_seed_grid(protocols, make_job, run_overhead_seed, cfg)

    points: list[OverheadPoint] = []
    for protocol, seed_results in grid:
        stats = summarize_values(
            [delay for r in seed_results for delay in r.campaign.delays]
        )
        count = len(seed_results)
        points.append(
            OverheadPoint(
                protocol=protocol,
                ping_messages_per_node=sum(r.ping_messages_per_node for r in seed_results) / count,
                control_messages_per_node=sum(r.control_messages_per_node for r in seed_results)
                / count,
                control_bytes_per_node=sum(r.control_bytes_per_node for r in seed_results) / count,
                handshake_messages_per_node=sum(
                    r.handshake_messages_per_node for r in seed_results
                )
                / count,
                total_build_bytes_per_node=sum(r.total_build_bytes_per_node for r in seed_results)
                / count,
                mean_delay_s=stats["mean_s"],
                delay_variance_s2=stats["variance_s2"],
                long_link_fallbacks=float(
                    sum(r.campaign.long_link_fallbacks for r in seed_results)
                ),
            )
        )
    return points
