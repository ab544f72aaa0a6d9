"""Ext-4 — double-spend race outcomes under each protocol.

The paper motivates BCBPT with the fast-payment double-spend attack: slow
transaction propagation lets an attacker show a merchant one transaction while
the rest of the network (and its hash power) first sees a conflicting one.
This extension stages that race directly:

1. an attacker node builds a conflicting pair (pay-the-merchant vs
   pay-itself-back);
2. the merchant's copy is handed to the merchant's node and the attacker's
   copy is injected at a distant node at the same instant;
3. both propagate under the protocol's first-seen rule;
4. we record (a) how long the merchant needs to *detect* the conflict (hear
   about the attacker's transaction at all) and (b) what fraction of nodes —
   a proxy for hash power — first saw the attacker's version.

Faster propagation shortens the detection time and shrinks the attacker's
first-seen share, which is exactly the mechanism by which the paper argues
BCBPT reduces double-spend risk.

Run via ``python -m repro.experiments run doublespend [--races N --horizon S]``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.protocol.doublespend import DoubleSpendAttacker, merchant_detection, tally_first_seen
from repro.protocol.messages import TxMessage
from repro.protocol.node import NodeConfig
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario

DOUBLESPEND_PROTOCOLS = ("bitcoin", "lbc", "bcbpt")


def mean_detection_time_s(detection_times_s: Sequence[float]) -> float:
    """Mean merchant detection time; NaN when no race was detected.

    NaN (rather than 0.0 or an exception) keeps "never detected" visibly
    distinct from "detected instantly" in reports and comparisons.
    """
    if not detection_times_s:
        return float("nan")
    return sum(detection_times_s) / len(detection_times_s)


@dataclass(frozen=True)
class DoubleSpendJob:
    """One (protocol, seed) batch of double-spend races."""

    protocol: str
    seed: int
    races_per_seed: int
    race_horizon_s: float
    config: ExperimentConfig


@dataclass(frozen=True)
class DoubleSpendJobResult:
    """Per-(protocol, seed) race tallies, merged by the driver."""

    protocol: str
    seed: int
    races: int
    attacker_shares: tuple[float, ...]
    detections: int
    detection_times_s: tuple[float, ...]


@dataclass(frozen=True)
class DoubleSpendPoint:
    """Aggregated race outcomes for one protocol."""

    protocol: str
    races: int
    mean_attacker_share: float
    mean_detection_time_s: float
    detection_rate: float

    def __post_init__(self) -> None:
        if self.races <= 0:
            raise ValueError("a double-spend point needs at least one race")


@experiment(
    "doublespend",
    experiment_id="Ext-4",
    title="Double-spend race outcomes (first-seen shares and detection)",
    description=__doc__,
    protocols=DOUBLESPEND_PROTOCOLS,
    options=(
        ExperimentOption(
            flag="--races",
            dest="races_per_seed",
            type=int,
            help="races per seed (default: 5)",
        ),
        ExperimentOption(
            flag="--horizon",
            dest="race_horizon_s",
            type=float,
            help="race horizon in simulated seconds (default: 2.0)",
        ),
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
    summarize=lambda points: {p.protocol: asdict(p) for p in points},
)
def run_doublespend(
    config: Optional[ExperimentConfig] = None,
    *,
    races_per_seed: int = 5,
    race_horizon_s: float = 2.0,
    protocols: Sequence[str] = DOUBLESPEND_PROTOCOLS,
) -> list[DoubleSpendPoint]:
    """Stage repeated double-spend races under each protocol.

    (protocol, seed) race batches are independent simulations; the shared
    seed-grid executor fans them out over ``cfg.workers`` processes and
    regroups in submission order, so the outcome is identical for every
    worker count.
    """
    if races_per_seed <= 0:
        raise ValueError("races_per_seed must be positive")
    if race_horizon_s <= 0:
        raise ValueError("race_horizon_s must be positive")
    cfg = config if config is not None else ExperimentConfig()

    def make_job(protocol: str, seed: int) -> DoubleSpendJob:
        return DoubleSpendJob(
            protocol=protocol,
            seed=seed,
            races_per_seed=races_per_seed,
            race_horizon_s=race_horizon_s,
            config=cfg,
        )

    grid = run_seed_grid(protocols, make_job, run_doublespend_seed, cfg)

    points: list[DoubleSpendPoint] = []
    for protocol, seed_results in grid:
        shares = [share for r in seed_results for share in r.attacker_shares]
        detection_times = [t for r in seed_results for t in r.detection_times_s]
        detections = sum(r.detections for r in seed_results)
        races = sum(r.races for r in seed_results)
        points.append(
            DoubleSpendPoint(
                protocol=protocol,
                races=races,
                mean_attacker_share=sum(shares) / len(shares) if shares else 0.0,
                mean_detection_time_s=mean_detection_time_s(detection_times),
                detection_rate=detections / races if races else 0.0,
            )
        )
    return points


def run_doublespend_seed(job: DoubleSpendJob) -> DoubleSpendJobResult:
    """Stage one seed's races under one protocol — the process-pool entry point."""
    cfg = job.config
    scenario = build_scenario(
        job.protocol,
        NetworkParameters(
            node_count=cfg.node_count,
            seed=job.seed,
            # Detection requires double-spend alerts: without them the
            # conflicting transaction halts at the first-seen frontier and
            # the merchant never hears of it (the old detection_rate=0 bug).
            node_config=NodeConfig(relay_conflicts=True),
        ),
        latency_threshold_s=cfg.latency_threshold_s,
        max_outbound=cfg.max_outbound,
    )
    simulated = scenario.network
    network = simulated.network
    simulator = simulated.simulator
    nodes = list(simulated.nodes.values())
    fund_nodes(nodes, outputs_per_node=job.races_per_seed + 1)
    node_ids = simulated.node_ids()
    attacker_id = node_ids[0]
    merchant_id = node_ids[len(node_ids) // 2]
    remote_id = node_ids[-1]
    attacker_node = simulated.node(attacker_id)
    merchant_node = simulated.node(merchant_id)
    attacker = DoubleSpendAttacker(attacker_node, merchant_node.keypair.address)
    shares: list[float] = []
    detection_times: list[float] = []
    detections = 0
    races = 0
    for _ in range(job.races_per_seed):
        pair = attacker.build_pair(cfg.payment_satoshi, created_at=simulator.now)
        start = simulator.now
        # Victim copy straight to the merchant, attacker copy to a distant
        # node, at the same instant.
        merchant_node.accept_transaction(pair.victim_tx, origin_peer=None)
        merchant_node.announce_transaction(pair.victim_tx.txid)
        network.send(
            attacker_id,
            remote_peer_for(network, attacker_id, remote_id),
            TxMessage(sender=attacker_id, transaction=pair.attacker_tx),
        )
        simulator.run(until=start + job.race_horizon_s)
        races += 1
        outcome = tally_first_seen(nodes, pair)
        shares.append(outcome.attacker_share)
        detected, detection_time = merchant_detection(
            merchant_node, pair, start_time=start, horizon_s=job.race_horizon_s
        )
        if detected:
            detections += 1
            detection_times.append(detection_time)
    return DoubleSpendJobResult(
        protocol=job.protocol,
        seed=job.seed,
        races=races,
        attacker_shares=tuple(shares),
        detections=detections,
        detection_times_s=tuple(detection_times),
    )


def remote_peer_for(network, attacker_id: int, preferred: int) -> int:
    """A peer of the attacker to inject the conflicting transaction through.

    The attacker pushes its self-paying transaction to one of its own
    neighbours (ideally one far from the merchant); if the preferred remote
    node is not a neighbour, the farthest current neighbour is used.
    """
    neighbors = network.neighbors(attacker_id)
    if not neighbors:
        raise RuntimeError(f"attacker {attacker_id} has no connections")
    if preferred in neighbors:
        return preferred
    return max(neighbors, key=lambda peer: network.base_rtt(attacker_id, peer))

