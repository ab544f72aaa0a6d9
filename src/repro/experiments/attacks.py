"""Ext-3 — attack susceptibility: static surfaces and dynamic adversary outcomes.

Section V.C: "it would seem possible for an attacker to more easily launch
eclipse attacks by concentrating its bad peers within a small cluster ...
Similarly, partition attacks seem to have a great potential.  So our future
work will include evaluation of partition attacks as well as eclipse attacks."

Two *static* surface measurements (the original Ext-3 analyses):

* **Eclipse**: an adversary controls a fraction of the node population and
  places its nodes in the victim's region (so they are both geographically and
  latency close to the victim).  After the topology is built we measure what
  fraction of the victim's connections are adversarial — the quantity that
  determines whether the victim's view of the network can be controlled.
* **Partition**: the adversary aims to split a target cluster from the rest of
  the network by severing inter-cluster links.  We count the links crossing
  the target cluster's boundary (the attack cost) and check whether removing
  them actually disconnects the cluster (the attack effect).  For the
  non-clustered Bitcoin baseline, the "cluster" is the victim's geographic
  region.

Plus the *dynamic* adversary plane: every attack in
:data:`DYNAMIC_ATTACKS` is actually run as a full mining/propagation campaign
against every protocol, next to an honest ``"none"`` baseline cell, and the
outcome is measured rather than inferred from topology:

* ``byzantine`` — a random fraction of nodes accept-and-never-relay
  (:class:`~repro.protocol.adversary.SilentByzantine`); measured as block-Δt
  degradation and coverage loss versus the honest baseline.
* ``representatives`` — the same silent behaviour, but concentrated on the
  cluster representatives (PR-2's ``representative_of()`` role); the vanilla
  overlay gets an equal-size random capture as the fair control.  This is the
  "are clustered hubs a high-value target?" cell.
* ``delay`` — adversaries forward relay traffic late
  (:class:`~repro.protocol.adversary.DelayByzantine`), degrading every path
  through them without ever being provably malicious.
* ``eclipse`` — the latency-nearest fraction of nodes starves one victim of
  all relay traffic (:class:`~repro.protocol.adversary.SelectiveByzantine`),
  composed with membership churn so the victim keeps re-connecting into the
  adversarial ring; measured as the victim's block coverage.
* ``selfish`` — Eyal–Sirer block withholding
  (:class:`~repro.protocol.adversary.SelfishMiner`) on a miner with hash-power
  share α; measured as the attacker's revenue share of the honest best chain
  versus α.

Each (attack, protocol, seed) cell is one independent simulation fanned out
over :func:`~repro.experiments.grid.run_seed_grid`, so the dynamic plane
inherits ``--workers`` fan-out, checkpoint/resume and sharding, and all
aggregates are worker-count invariant.  Adversary randomness lives on the
named streams ``"adversary-selection"`` / ``"adversary-behavior"`` /
``"attack-mining"``, so adversary-off runs never perturb the fig3 golden
fingerprints.

The verdicts ask the paper's future-work question directly — does proximity
clustering widen or narrow each attack surface?

Run via ``python -m repro.experiments run attacks [--attacks ...]``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.analysis.samples import BlockArrivalRecorder, SampleLog
from repro.analysis.stats import mean
from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.net.topology import connected_components
from repro.protocol.adversary import SelfishMiner
from repro.protocol.mining import MinerProfile, MiningProcess, equal_hash_power
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import (
    AttackSpec,
    ChurnSchedule,
    Scenario,
    build_scenario,
    install_attack,
    validate_attack_kind,
)

ATTACK_PROTOCOLS = ("bitcoin", "lbc", "bcbpt")

#: Dynamic campaigns run by default (the honest ``"none"`` baseline cell is
#: always added in front — the degradation metrics divide by it).
DYNAMIC_ATTACKS = ("byzantine", "representatives", "delay", "eclipse", "selfish")


@dataclass(frozen=True)
class EclipseResult:
    """Outcome of one eclipse scenario."""

    protocol: str
    adversary_fraction: float
    victim_connection_count: int
    adversarial_connection_count: int

    @property
    def eclipsed_fraction(self) -> float:
        """Share of the victim's connections controlled by the adversary."""
        if self.victim_connection_count == 0:
            return 0.0
        return self.adversarial_connection_count / self.victim_connection_count


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of one partition scenario."""

    protocol: str
    target_group_size: int
    boundary_links: int
    total_links: int
    partition_achieved: bool
    largest_component_fraction: float

    @property
    def boundary_fraction(self) -> float:
        """Share of all links the adversary must sever."""
        if self.total_links == 0:
            return 0.0
        return self.boundary_links / self.total_links


@dataclass(frozen=True)
class EclipseJob:
    """One (protocol, seed) eclipse-exposure measurement."""

    protocol: str
    seed: int
    adversary_fraction: float
    config: ExperimentConfig


@dataclass(frozen=True)
class EclipseJobResult:
    """Per-(protocol, seed) eclipse counters merged by the attacks driver."""

    protocol: str
    seed: int
    victim_connection_count: int
    adversarial_connection_count: int


@dataclass(frozen=True)
class PartitionJob:
    """One (protocol, seed) partition-cost measurement."""

    protocol: str
    seed: int
    config: ExperimentConfig


@dataclass(frozen=True)
class PartitionJobResult:
    """Per-(protocol, seed) partition counters merged by the attacks driver."""

    protocol: str
    seed: int
    target_group_size: int
    boundary_links: int
    total_links: int
    partition_achieved: bool
    largest_component_fraction: float


@dataclass(frozen=True)
class AttackJob:
    """One (attack, protocol, seed) dynamic-adversary campaign.

    Attributes:
        attack: attack kind (one of
            :data:`repro.workloads.scenarios.ATTACK_KINDS`; ``"none"`` is the
            honest baseline cell the degradation metrics divide by).
        protocol: neighbour-selection policy under test.
        seed: master seed for the cell's network, adversary and mining
            streams.
        spec: the full adversary composition (picklable).
        blocks: blocks mined (and measured) in the campaign.
        txs_per_block: fresh transactions injected before each block.
        block_horizon_s: simulated seconds allowed per block to spread.
        config: shared experiment configuration (BCBPT's ``d_t`` is its
            ``latency_threshold_s``).
    """

    attack: str
    protocol: str
    seed: int
    spec: AttackSpec
    blocks: int
    txs_per_block: int
    block_horizon_s: float
    config: ExperimentConfig


@dataclass(frozen=True)
class AttackJobResult:
    """Per-(attack, protocol, seed) dynamic outcomes of one campaign.

    Plain values only (tuples, never live distributions; ``None`` — not NaN,
    which breaks ``==`` across a pickle round trip — for unmeasured revenue),
    so the pooled payload compares field-by-field across worker counts.

    Attributes:
        block_delay_samples: block Δt samples of the publicly propagated
            blocks, in event order.
        blocks_measured: publicly propagated blocks tracked.
        coverage: mean fraction of nodes reached per block.
        victim_coverage: fraction of measured blocks that reached the
            observation victim within the horizon.
        byzantine_nodes: the corrupted nodes.
        messages_suppressed: messages silently dropped by behaviours.
        attacker_id: the selfish miner (-1 for other attacks).
        attacker_hashpower: the selfish miner's α (0.0 for other attacks).
        blocks_withheld / blocks_released / races_started: selfish-mining
            state-machine counters.
        revenue_share: attacker revenue share (None when the cell has no
            selfish miner or no mined blocks landed).
    """

    attack: str
    protocol: str
    seed: int
    block_delay_samples: tuple[float, ...]
    blocks_measured: int
    coverage: float
    victim_coverage: float
    byzantine_nodes: tuple[int, ...]
    messages_suppressed: int
    attacker_id: int
    attacker_hashpower: float
    blocks_withheld: int
    blocks_released: int
    races_started: int
    revenue_share: Optional[float]


@dataclass(frozen=True)
class DynamicAttackResult:
    """Pooled dynamic outcomes for one (attack, protocol) cell.

    Its per-seed records are plain values, so two payloads produced at
    different worker counts compare equal field-by-field — the invariance
    the registry tests assert.

    Attributes:
        attack: attack kind (``"none"`` is the honest baseline).
        protocol: neighbour-selection policy under test.
        cells: the cell's per-seed campaign records, in seed order; every
            aggregate below is computed from them.
    """

    attack: str
    protocol: str
    cells: tuple[AttackJobResult, ...]

    @property
    def label(self) -> str:
        """The combined ``attack/protocol`` result key."""
        return f"{self.attack}/{self.protocol}"

    def total(self, name: str) -> int:
        """One per-seed counter summed across the cells."""
        return sum(getattr(cell, name) for cell in self.cells)

    @property
    def delay_samples(self) -> list[float]:
        """Block Δt samples pooled across seeds, in seed order."""
        return [sample for cell in self.cells for sample in cell.block_delay_samples]

    @property
    def attacker_hashpower(self) -> float:
        """The selfish miner's α (0.0 for other attacks)."""
        return self.cells[-1].attacker_hashpower if self.cells else 0.0

    def mean_delay(self) -> float:
        """Mean block Δt across the pooled samples (NaN when unmeasured)."""
        samples = self.delay_samples
        if not samples:
            return float("nan")
        return mean(samples)

    def mean_coverage(self) -> float:
        """Mean per-block node coverage across seeds."""
        if not self.cells:
            return 0.0
        return mean([cell.coverage for cell in self.cells])

    def mean_victim_coverage(self) -> float:
        """Mean fraction of blocks that reached the victim across seeds."""
        if not self.cells:
            return 0.0
        return mean([cell.victim_coverage for cell in self.cells])

    def mean_revenue_share(self) -> float:
        """Mean attacker revenue share across seeds (unmeasured seeds skipped)."""
        shares = [cell.revenue_share for cell in self.cells if cell.revenue_share is not None]
        if not shares:
            return float("nan")
        return mean(shares)

    def summary(self) -> dict[str, float]:
        """Scalar summary for the result envelope.

        NaN entries (an unmeasured cell's mean Δt, a non-selfish cell's
        revenue) are omitted rather than serialised: NaN survives JSON but
        not equality, so it would break the envelope round-trip contract.
        """
        summary = {
            "count": float(len(self.delay_samples)),
            "mean_delay_s": self.mean_delay(),
            "blocks_measured": float(self.total("blocks_measured")),
            "mean_coverage": self.mean_coverage(),
            "mean_victim_coverage": self.mean_victim_coverage(),
            "byzantine_count": float(sum(len(cell.byzantine_nodes) for cell in self.cells)),
            "messages_suppressed": float(self.total("messages_suppressed")),
            "blocks_withheld": float(self.total("blocks_withheld")),
            "blocks_released": float(self.total("blocks_released")),
            "races_started": float(self.total("races_started")),
            "revenue_share": self.mean_revenue_share(),
            "attacker_hashpower": self.attacker_hashpower,
        }
        return {key: value for key, value in summary.items() if not math.isnan(value)}


@dataclass(frozen=True)
class AttackOutcome:
    """The combined payload of the registered ``attacks`` experiment."""

    eclipse: list[EclipseResult]
    partition: list[PartitionResult]
    dynamic: dict[str, DynamicAttackResult] = field(default_factory=dict)


def _pick_victim(scenario: Scenario) -> int:
    """A deterministic victim: the first node of the most common region."""
    simulated = scenario.network
    by_region: dict[str, list[int]] = {}
    for node_id in simulated.node_ids():
        by_region.setdefault(simulated.node(node_id).position.region, []).append(node_id)
    region = max(by_region, key=lambda r: len(by_region[r]))
    return min(by_region[region])


def run_eclipse_seed(job: EclipseJob) -> EclipseJobResult:
    """Measure one (protocol, seed) eclipse exposure — the process-pool entry point."""
    cfg = job.config
    scenario = build_scenario(
        job.protocol,
        NetworkParameters(node_count=cfg.node_count, seed=job.seed),
        latency_threshold_s=cfg.latency_threshold_s,
        max_outbound=cfg.max_outbound,
    )
    network = scenario.network.network
    victim = _pick_victim(scenario)
    others = [n for n in scenario.network.node_ids() if n != victim]
    others.sort(key=lambda peer: network.base_rtt(victim, peer))
    adversary_count = max(1, int(job.adversary_fraction * cfg.node_count))
    adversary_nodes = set(others[:adversary_count])
    neighbors = network.neighbors(victim)
    return EclipseJobResult(
        protocol=job.protocol,
        seed=job.seed,
        victim_connection_count=len(neighbors),
        adversarial_connection_count=sum(1 for peer in neighbors if peer in adversary_nodes),
    )


def run_eclipse(
    config: Optional[ExperimentConfig] = None,
    *,
    adversary_fraction: float = 0.15,
    protocols: Sequence[str] = ATTACK_PROTOCOLS,
) -> list[EclipseResult]:
    """Measure the adversarial share of the victim's connections per protocol.

    The adversary's nodes are the ``adversary_fraction`` of nodes nearest (in
    latency) to the victim, modelling an attacker that deliberately provisions
    peers close to its target — the strategy the paper warns about.  Each
    (protocol, seed) build fans out over the shared seed-grid executor.
    """
    if not 0 < adversary_fraction < 1:
        raise ValueError("adversary_fraction must be in (0, 1)")
    cfg = config if config is not None else ExperimentConfig()

    def make_job(protocol: str, seed: int) -> EclipseJob:
        return EclipseJob(
            protocol=protocol,
            seed=seed,
            adversary_fraction=adversary_fraction,
            config=cfg,
        )

    grid = run_seed_grid(protocols, make_job, run_eclipse_seed, cfg)
    return [
        EclipseResult(
            protocol=protocol,
            adversary_fraction=adversary_fraction,
            victim_connection_count=sum(r.victim_connection_count for r in seed_results),
            adversarial_connection_count=sum(
                r.adversarial_connection_count for r in seed_results
            ),
        )
        for protocol, seed_results in grid
    ]


def run_partition_seed(job: PartitionJob) -> PartitionJobResult:
    """Measure one (protocol, seed) partition cost — the process-pool entry point."""
    cfg = job.config
    scenario = build_scenario(
        job.protocol,
        NetworkParameters(node_count=cfg.node_count, seed=job.seed),
        latency_threshold_s=cfg.latency_threshold_s,
        max_outbound=cfg.max_outbound,
    )
    topology = scenario.network.network.topology
    target_group = _target_group(scenario)
    boundary = [
        link
        for link in topology.links()
        if (link.node_a in target_group) != (link.node_b in target_group)
    ]
    attacked = topology.snapshot()
    for link in boundary:
        attacked[link.node_a].discard(link.node_b)
        attacked[link.node_b].discard(link.node_a)
    components = connected_components(attacked)
    achieved = any(c == target_group for c in components) or len(components) > 1
    largest = max((len(c) for c in components), default=0)
    return PartitionJobResult(
        protocol=job.protocol,
        seed=job.seed,
        target_group_size=len(target_group),
        boundary_links=len(boundary),
        total_links=topology.link_count,
        partition_achieved=achieved,
        largest_component_fraction=largest / max(1, len(attacked)),
    )


def run_partition(
    config: Optional[ExperimentConfig] = None,
    *,
    protocols: Sequence[str] = ATTACK_PROTOCOLS,
) -> list[PartitionResult]:
    """Measure how cheaply an adversary can cut a target group off the network.

    Each (protocol, seed) build fans out over the shared seed-grid executor.
    """
    cfg = config if config is not None else ExperimentConfig()

    def make_job(protocol: str, seed: int) -> PartitionJob:
        return PartitionJob(protocol=protocol, seed=seed, config=cfg)

    grid = run_seed_grid(protocols, make_job, run_partition_seed, cfg)
    results: list[PartitionResult] = []
    for protocol, seed_results in grid:
        count = len(seed_results)
        results.append(
            PartitionResult(
                protocol=protocol,
                target_group_size=sum(r.target_group_size for r in seed_results) // count,
                boundary_links=sum(r.boundary_links for r in seed_results) // count,
                total_links=sum(r.total_links for r in seed_results) // count,
                partition_achieved=any(r.partition_achieved for r in seed_results),
                largest_component_fraction=sum(
                    r.largest_component_fraction for r in seed_results
                )
                / count,
            )
        )
    return results


def _target_group(scenario: Scenario) -> set[int]:
    """The group the partition adversary tries to isolate.

    For clustered protocols this is the largest cluster; for vanilla Bitcoin
    (no clusters) it is the node population of the most common region.
    """
    clusters = list(scenario.policy.clusters.clusters())
    if clusters:
        largest = max(clusters, key=lambda c: c.size)
        return set(largest.members)
    simulated = scenario.network
    by_region: dict[str, set[int]] = {}
    for node_id in simulated.node_ids():
        by_region.setdefault(simulated.node(node_id).position.region, set()).add(node_id)
    return max(by_region.values(), key=len)


# -------------------------------------------------- dynamic adversary plane
def run_attack_seed(job: AttackJob) -> AttackJobResult:
    """Execute one (attack, protocol, seed) campaign — process-pool entry point.

    Builds the scenario (with churn for attacks whose spec demands it),
    installs the spec's byzantine behaviours, wires the selfish miner when
    asked, then mines ``job.blocks`` blocks and measures how each publicly
    propagated block actually spreads through the corrupted network.
    """
    cfg = job.config
    spec = job.spec
    # Eclipse composes with membership churn: ordinary nodes cycle sessions
    # while the adversarial ring (spared below) is always on, so the victim's
    # replacement connections keep landing on attackers.
    churn = (
        ChurnSchedule(median_session_s=45.0, mean_downtime_s=15.0, start_delay_s=5.0)
        if spec.needs_churn
        else None
    )
    scenario = build_scenario(
        job.protocol,
        NetworkParameters(node_count=cfg.node_count, seed=job.seed),
        latency_threshold_s=cfg.latency_threshold_s,
        max_outbound=cfg.max_outbound,
        churn=churn,
    )
    simulated = scenario.network
    network = simulated.network
    simulator = simulated.simulator
    nodes = list(simulated.nodes.values())
    fund_nodes(nodes, outputs_per_node=cfg.funding_outputs)

    # The focal node: eclipse victim, selfish attacker, and (when honest) the
    # observation point the victim-coverage metric watches.
    focal = _pick_victim(scenario)
    byzantine = install_attack(
        scenario,
        spec,
        victim=focal if spec.kind == "eclipse" else None,
        protected=(focal,),
    )
    corrupted = set(byzantine)
    ids = simulated.node_ids()

    # Every node mines.  The baseline and all byzantine cells then consume
    # the "attack-mining" stream identically (same miner count, same uniform
    # weights), so each block is a *paired* comparison: same winner, same
    # template slot, only the relay plane differs.  A silent winner strands
    # its own block — that is the attack's damage, measured as coverage loss,
    # not an artefact to design away.
    if spec.mines_selfishly:
        others = [n for n in ids if n != focal]
        share = (1.0 - spec.hashpower) / len(others)
        miners = [MinerProfile(focal, spec.hashpower)]
        miners.extend(MinerProfile(n, share) for n in others)
        attacker_id = focal
        observer = min(others)
    else:
        miners = equal_hash_power(ids)
        attacker_id = -1
        observer = focal

    recorder = BlockArrivalRecorder()
    recorder.attach(nodes)
    mining = MiningProcess(
        simulator,
        simulated.nodes,
        miners,
        simulator.random.stream("attack-mining"),
    )
    selfish = (
        SelfishMiner(simulator, network, simulated.node(focal), mining)
        if spec.mines_selfishly
        else None
    )
    if churn is not None:
        scenario.start_churn(spare=corrupted | {focal, observer})

    delays: list[float] = []
    coverages: list[float] = []
    observer_hits = 0
    blocks_measured = 0
    creator_cursor = 0

    for _ in range(job.blocks):
        # Refill mempools (same creator rotation as the baseline cell, so the
        # injected transactions pair up too), then let the flood drain.
        for _ in range(job.txs_per_block):
            creator = simulated.node(ids[creator_cursor % len(ids)])
            creator_cursor += 1
            creator.create_transaction([(creator.keypair.address, cfg.payment_satoshi)])
        simulator.run(until=simulator.now + 10.0)

        block = mining.mine_one_block()
        if block is None:  # pragma: no cover - miners are spared from churn
            continue
        mined_at = simulator.now
        if selfish is not None and block.block_hash in selfish.withheld_hashes:
            # Withheld: nothing to measure yet — the release policy reacts to
            # later honest blocks (or the end-of-campaign flush).
            continue
        deadline = mined_at + job.block_horizon_s
        while simulator.now < deadline:
            if all(node.blockchain.has_block(block.block_hash) for node in nodes):
                break
            simulator.run(until=min(simulator.now + 0.5, deadline))

        blocks_measured += 1
        delays.extend(
            recorder.delays(block.block_hash, mined_at, exclude=(block.header.miner_id,))
        )
        receivers = recorder.receivers(block.block_hash)
        coverages.append(len(receivers) / len(nodes))
        if observer in receivers:
            observer_hits += 1

    if selfish is not None:
        # Cash out: publish the remaining private lead and let it compete.
        selfish.release_all()
        simulator.run(until=simulator.now + job.block_horizon_s)
        share = selfish.revenue_share(simulated.node(observer))
        # None, not NaN: NaN loses its identity across the worker-pool pickle
        # round trip and would break the payload's equality contract.
        revenue = None if math.isnan(share) else share
        blocks_withheld = selfish.blocks_withheld
        blocks_released = selfish.blocks_released
        races_started = selfish.races_started
    else:
        revenue = None
        blocks_withheld = blocks_released = races_started = 0

    return AttackJobResult(
        attack=job.attack,
        protocol=job.protocol,
        seed=job.seed,
        block_delay_samples=tuple(delays),
        blocks_measured=blocks_measured,
        coverage=mean(coverages) if coverages else 0.0,
        victim_coverage=observer_hits / blocks_measured if blocks_measured else 0.0,
        byzantine_nodes=tuple(byzantine),
        messages_suppressed=network.messages_suppressed,
        attacker_id=attacker_id,
        attacker_hashpower=spec.hashpower if spec.mines_selfishly else 0.0,
        blocks_withheld=blocks_withheld,
        blocks_released=blocks_released,
        races_started=races_started,
        revenue_share=revenue,
    )


def run_dynamic_attacks(
    config: Optional[ExperimentConfig] = None,
    *,
    attacks: Sequence[str] = DYNAMIC_ATTACKS,
    protocols: Sequence[str] = ATTACK_PROTOCOLS,
    adversary_fraction: float = 0.15,
    blocks: int = 2,
    txs_per_block: int = 4,
    block_horizon_s: float = 30.0,
    extra_delay_s: float = 0.25,
    selfish_hashpower: float = 0.35,
) -> dict[str, DynamicAttackResult]:
    """Run every (attack, protocol, seed) campaign and pool per cell.

    The honest ``"none"`` baseline is always run first for every protocol —
    the degradation metrics (:func:`degradation_ratio`,
    :func:`coverage_loss`) divide attacked cells by it.

    Returns:
        ``"attack/protocol"`` -> pooled :class:`DynamicAttackResult`, in
        sweep order (baseline first).
    """
    cfg = config if config is not None else ExperimentConfig()
    if blocks <= 0:
        raise ValueError("blocks must be positive")
    if txs_per_block < 0:
        raise ValueError("txs_per_block cannot be negative")
    if block_horizon_s <= 0:
        raise ValueError("block_horizon_s must be positive")
    for attack in attacks:
        validate_attack_kind(attack)

    kinds = ["none"]
    kinds.extend(a for a in dict.fromkeys(attacks) if a != "none")
    points = [(attack, protocol) for attack in kinds for protocol in protocols]

    def make_job(point: tuple[str, str], seed: int) -> AttackJob:
        attack, protocol = point
        return AttackJob(
            attack=attack,
            protocol=protocol,
            seed=seed,
            spec=AttackSpec(
                kind=attack,
                fraction=adversary_fraction,
                extra_delay_s=extra_delay_s,
                hashpower=selfish_hashpower,
            ),
            blocks=blocks,
            txs_per_block=txs_per_block,
            block_horizon_s=block_horizon_s,
            config=cfg,
        )

    grid = run_seed_grid(points, make_job, run_attack_seed, cfg)
    return {
        f"{attack}/{protocol}": DynamicAttackResult(attack, protocol, tuple(cells))
        for (attack, protocol), cells in grid
    }


def _cell_mean_delay(dynamic: dict[str, DynamicAttackResult], key: str) -> float:
    """Mean block Δt of one ``attack/protocol`` cell, NaN when unmeasured."""
    result = dynamic.get(key)
    if result is None:
        return float("nan")
    return result.mean_delay()


def degradation_ratio(
    dynamic: dict[str, DynamicAttackResult], attack: str, protocol: str
) -> float:
    """Attacked mean Δt over the protocol's own honest-baseline mean Δt.

    > 1 means the attack slowed propagation; NaN when either cell is missing
    or unmeasured.  Each protocol is normalised by *its own* baseline, so the
    ratio isolates what the adversary added from how fast the overlay is.
    """
    attacked = _cell_mean_delay(dynamic, f"{attack}/{protocol}")
    baseline = _cell_mean_delay(dynamic, f"none/{protocol}")
    if math.isnan(attacked) or math.isnan(baseline) or baseline <= 0:
        return float("nan")
    return attacked / baseline


def coverage_loss(
    dynamic: dict[str, DynamicAttackResult], attack: str, protocol: str
) -> float:
    """Baseline mean coverage minus attacked mean coverage (NaN if missing)."""
    attacked = dynamic.get(f"{attack}/{protocol}")
    baseline = dynamic.get(f"none/{protocol}")
    if attacked is None or baseline is None:
        return float("nan")
    return baseline.mean_coverage() - attacked.mean_coverage()


# ------------------------------------------------------------------ verdicts
def clustering_contains_byzantine_degradation(
    dynamic: dict[str, DynamicAttackResult],
) -> bool:
    """Does BCBPT degrade no worse than vanilla under random silent nodes?

    Both protocols are normalised by their own honest baselines, so this
    compares the *relative* slowdown random byzantine relays inflict.  True
    means the clustered overlay's redundancy contains the damage at least as
    well as the random overlay — the surface did not widen.
    """
    bcbpt = degradation_ratio(dynamic, "byzantine", "bcbpt")
    vanilla = degradation_ratio(dynamic, "byzantine", "bitcoin")
    if math.isnan(bcbpt) or math.isnan(vanilla):
        return False
    return bcbpt <= vanilla


def representative_capture_widens_surface(
    dynamic: dict[str, DynamicAttackResult],
) -> bool:
    """Is capturing BCBPT's cluster representatives worse than random capture?

    On the vanilla overlay the ``representatives`` cell falls back to an
    equal-size random capture, so comparing the two degradation ratios asks
    whether clustering created a high-value target set the paper's design
    should worry about.
    """
    targeted = degradation_ratio(dynamic, "representatives", "bcbpt")
    control = degradation_ratio(dynamic, "representatives", "bitcoin")
    if math.isnan(targeted) or math.isnan(control):
        return False
    return targeted >= control


def clustering_widens_eclipse_surface(
    dynamic: dict[str, DynamicAttackResult],
) -> bool:
    """Is the eclipse victim starved harder on the clustered overlay?

    The paper's own warning: proximity selection concentrates the victim's
    candidate set, so latency-near adversaries capture more of its view.
    Measured directly as the victim's block coverage under attack.
    """
    bcbpt = dynamic.get("eclipse/bcbpt")
    vanilla = dynamic.get("eclipse/bitcoin")
    if bcbpt is None or vanilla is None:
        return False
    if not bcbpt.total("blocks_measured") or not vanilla.total("blocks_measured"):
        return False
    return bcbpt.mean_victim_coverage() <= vanilla.mean_victim_coverage()


def delay_injection_degrades_propagation(
    dynamic: dict[str, DynamicAttackResult],
) -> bool:
    """Do delay-injecting adversaries slow every measured protocol down?"""
    ratios = [
        degradation_ratio(dynamic, "delay", result.protocol)
        for key, result in dynamic.items()
        if result.attack == "delay"
    ]
    ratios = [r for r in ratios if not math.isnan(r)]
    if not ratios:
        return False
    return all(r > 1.0 for r in ratios)


def selfish_mining_pays_somewhere(
    dynamic: dict[str, DynamicAttackResult],
) -> bool:
    """Does withholding beat honest mining (revenue share > α) anywhere?

    Eyal–Sirer profitability depends on the attacker's effective γ, which
    here emerges from propagation racing; fast overlays can push it below
    the profitability threshold, so a False verdict is itself a finding.
    """
    for result in dynamic.values():
        if result.attack != "selfish":
            continue
        share = result.mean_revenue_share()
        if not math.isnan(share) and share > result.attacker_hashpower:
            return True
    return False


def summarize(outcome: AttackOutcome) -> dict[str, dict[str, float]]:
    """Per-protocol scalar summaries for the result envelope."""
    summaries: dict[str, dict[str, float]] = {}
    for result in outcome.eclipse:
        summaries[f"eclipse/{result.protocol}"] = {
            **asdict(result),
            "eclipsed_fraction": result.eclipsed_fraction,
        }
    for result in outcome.partition:
        summaries[f"partition/{result.protocol}"] = {
            **asdict(result),
            "boundary_fraction": result.boundary_fraction,
        }
    for key, dynamic_result in outcome.dynamic.items():
        cell = dynamic_result.summary()
        degradation = degradation_ratio(
            outcome.dynamic, dynamic_result.attack, dynamic_result.protocol
        )
        loss = coverage_loss(
            outcome.dynamic, dynamic_result.attack, dynamic_result.protocol
        )
        if not math.isnan(degradation):
            cell["degradation_ratio"] = degradation
        if not math.isnan(loss):
            cell["coverage_loss"] = loss
        summaries[f"dynamic/{key}"] = cell
    return summaries


def collect_samples(outcome: AttackOutcome) -> SampleLog:
    """Raw block-Δt samples per dynamic cell for the envelope.

    One ``block_delay_s`` series per (attack/protocol, seed) in seed order,
    plus the per-seed coverage curve — worker-count invariant like every
    other sample capture built on the seed grid.
    """
    log = SampleLog()
    for key, result in outcome.dynamic.items():
        log.add_per_seed(
            key,
            "block_delay_s",
            {cell.seed: cell.block_delay_samples for cell in result.cells},
            unit="s",
        )
        for index, cell in enumerate(result.cells):
            log.add_point(key, "coverage", float(index), cell.coverage, unit="fraction")
    return log


@experiment(
    "attacks",
    experiment_id="Ext-3",
    title="Attack susceptibility: static surfaces and dynamic adversary outcomes",
    description=__doc__,
    protocols=ATTACK_PROTOCOLS,
    options=(
        ExperimentOption(
            flag="--adversary-fraction",
            dest="adversary_fraction",
            type=float,
            help="fraction of the node population the adversary controls "
            "(default: 0.15)",
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
        ExperimentOption(
            flag="--attacks",
            dest="attacks",
            type=str,
            nargs="+",
            help="dynamic attack campaigns to run next to the honest baseline "
            "(default: byzantine representatives delay eclipse selfish)",
            convert=tuple,
        ),
        ExperimentOption(
            flag="--attack-blocks",
            dest="attack_blocks",
            type=int,
            help="blocks mined per dynamic (attack, protocol, seed) campaign "
            "(default: 2)",
        ),
        ExperimentOption(
            flag="--attack-txs",
            dest="attack_txs",
            type=int,
            help="fresh transactions injected before each dynamic block "
            "(default: 4)",
        ),
        ExperimentOption(
            flag="--attack-horizon",
            dest="attack_horizon_s",
            type=float,
            help="simulated seconds allowed per dynamic block to spread "
            "(default: 30)",
        ),
        ExperimentOption(
            flag="--attack-delay",
            dest="attack_delay_s",
            type=float,
            help="fixed extra forwarding delay of the delay adversary in "
            "seconds (default: 0.25)",
        ),
        ExperimentOption(
            flag="--selfish-hashpower",
            dest="selfish_hashpower",
            type=float,
            help="the selfish miner's hash-power share α (default: 0.35)",
        ),
    ),
    summarize=summarize,
    collect_samples=collect_samples,
    verdicts={
        "clustering_contains_byzantine_degradation": lambda o: (
            clustering_contains_byzantine_degradation(o.dynamic)
        ),
        "representative_capture_widens_surface": lambda o: (
            representative_capture_widens_surface(o.dynamic)
        ),
        "clustering_widens_eclipse_surface": lambda o: (
            clustering_widens_eclipse_surface(o.dynamic)
        ),
        "delay_injection_degrades_propagation": lambda o: (
            delay_injection_degrades_propagation(o.dynamic)
        ),
        "selfish_mining_pays_somewhere": lambda o: (
            selfish_mining_pays_somewhere(o.dynamic)
        ),
    },
)
def run_attacks(
    config: Optional[ExperimentConfig] = None,
    adversary_fraction: float = 0.15,
    protocols: Sequence[str] = ATTACK_PROTOCOLS,
    attacks: Sequence[str] = DYNAMIC_ATTACKS,
    attack_blocks: int = 2,
    attack_txs: int = 4,
    attack_horizon_s: float = 30.0,
    attack_delay_s: float = 0.25,
    selfish_hashpower: float = 0.35,
) -> AttackOutcome:
    """Run the static analyses and the dynamic campaigns; combine the outcome."""
    return AttackOutcome(
        eclipse=run_eclipse(
            config, adversary_fraction=adversary_fraction, protocols=protocols
        ),
        partition=run_partition(config, protocols=protocols),
        dynamic=run_dynamic_attacks(
            config,
            attacks=attacks,
            protocols=protocols,
            adversary_fraction=adversary_fraction,
            blocks=attack_blocks,
            txs_per_block=attack_txs,
            block_horizon_s=attack_horizon_s,
            extra_delay_s=attack_delay_s,
            selfish_hashpower=selfish_hashpower,
        ),
    )
