"""Ext-3 — attack susceptibility: dynamic adversary outcomes and exposed surfaces.

Section V.C: "it would seem possible for an attacker to more easily launch
eclipse attacks by concentrating its bad peers within a small cluster ...
Similarly, partition attacks seem to have a great potential.  So our future
work will include evaluation of partition attacks as well as eclipse attacks."

Every attack in :data:`DYNAMIC_ATTACKS` is run as a full mining/propagation
campaign against every protocol, next to an honest ``"none"`` baseline cell,
and the outcome is measured rather than inferred from topology:

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

Two kinds of cell also read the surface the paper names off the network they
built, before anything in it moves:

* **Eclipse exposure** (``eclipse/<protocol>``): each eclipse cell, right
  after its adversaries are installed and before churn starts, counts the
  victim's connections and how many of them the adversary holds — the
  quantity that decides whether the victim's view of the network can be
  controlled.  Stored whenever the eclipse campaign runs.
* **Partition cost** (``partition/<protocol>``): each honest baseline cell,
  right after its build, counts the links crossing the target group's
  boundary (the attack cost) and checks whether removing them disconnects
  the group (the attack effect).  The group is the largest cluster, or for
  the non-clustered Bitcoin baseline the most common geographic region.

Each (attack, protocol, seed) cell is one independent simulation fanned out
over one :func:`~repro.experiments.grid.run_seed_grid`, so the experiment
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
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.analysis.samples import SampleLog
from repro.analysis.stats import mean
from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.experiments.runner import (
    BlockCampaign,
    BlockSchedule,
    add_block_samples,
    measure_blocks,
)
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
    """The victim's connections and how many of them the adversary holds.

    An eclipse cell records one for its seed; a protocol's result sums the
    counts of its cells.
    """

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
    """What cutting the target group off the overlay costs, and whether it works.

    An honest baseline cell records one for its seed; a protocol's result
    floor-divides the summed counts by the seed count, averages the largest
    component's share, and counts the partition achieved if any seed
    achieved it.
    """

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
        schedule: the blocks the campaign mines and measures.
        config: shared experiment configuration (BCBPT's ``d_t`` is its
            ``latency_threshold_s``).
    """

    attack: str
    protocol: str
    seed: int
    spec: AttackSpec
    schedule: BlockSchedule
    config: ExperimentConfig


@dataclass(frozen=True)
class AttackJobResult:
    """Per-(attack, protocol, seed) dynamic outcomes of one campaign.

    Plain values only (tuples, never live distributions; ``None`` — not NaN,
    which breaks ``==`` across a pickle round trip — for unmeasured revenue),
    so the pooled payload compares field-by-field across worker counts.

    Attributes:
        blocks: the block campaign over the publicly propagated blocks; its
            ``observer_coverage`` is the fraction that reached the observation
            victim within the horizon.
        byzantine_nodes: the corrupted nodes.
        messages_suppressed: messages silently dropped by behaviours.
        attacker_id: the selfish miner (-1 for other attacks).
        attacker_hashpower: the selfish miner's α (0.0 for other attacks).
        blocks_withheld / blocks_released / races_started: selfish-mining
            state-machine counters.
        revenue_share: attacker revenue share (None when the cell has no
            selfish miner or no mined blocks landed).
        eclipse_exposure: an eclipse cell's victim connections, read after
            the adversary is installed and before churn starts (None in
            other cells).
        partition_cost: an honest baseline cell's partition cost, read right
            after its build (None in other cells).
    """

    attack: str
    protocol: str
    seed: int
    blocks: BlockCampaign
    byzantine_nodes: tuple[int, ...]
    messages_suppressed: int
    attacker_id: int
    attacker_hashpower: float
    blocks_withheld: int
    blocks_released: int
    races_started: int
    revenue_share: Optional[float]
    eclipse_exposure: Optional[EclipseResult]
    partition_cost: Optional[PartitionResult]


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

    def blocks_measured(self) -> int:
        """Publicly propagated blocks measured across the cells."""
        return sum(cell.blocks.blocks_measured for cell in self.cells)

    @property
    def delay_samples(self) -> list[float]:
        """Block Δt samples pooled across seeds, in seed order."""
        return [sample for cell in self.cells for sample in cell.blocks.delays]

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
        return mean([cell.blocks.coverage for cell in self.cells])

    def mean_victim_coverage(self) -> float:
        """Mean fraction of blocks that reached the victim across seeds."""
        if not self.cells:
            return 0.0
        return mean([cell.blocks.observer_coverage for cell in self.cells])

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
            "blocks_measured": float(self.blocks_measured()),
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

    def eclipse_exposure(self) -> EclipseResult:
        """An eclipse cell's exposure, its counts summed across seeds."""
        records = [cell.eclipse_exposure for cell in self.cells]
        return EclipseResult(
            protocol=self.protocol,
            adversary_fraction=records[0].adversary_fraction,
            victim_connection_count=sum(r.victim_connection_count for r in records),
            adversarial_connection_count=sum(r.adversarial_connection_count for r in records),
        )

    def partition_cost(self) -> PartitionResult:
        """A baseline cell's partition cost, averaged across seeds."""
        records = [cell.partition_cost for cell in self.cells]
        count = len(records)
        return PartitionResult(
            protocol=self.protocol,
            target_group_size=sum(r.target_group_size for r in records) // count,
            boundary_links=sum(r.boundary_links for r in records) // count,
            total_links=sum(r.total_links for r in records) // count,
            partition_achieved=any(r.partition_achieved for r in records),
            largest_component_fraction=sum(r.largest_component_fraction for r in records)
            / count,
        )


@dataclass(frozen=True)
class AttackOutcome:
    """The payload of the registered ``attacks`` experiment: its one grid.

    The eclipse and partition surfaces are read off the cells that built
    the networks they describe, in protocol order.
    """

    dynamic: dict[str, DynamicAttackResult]

    @property
    def eclipse(self) -> list[EclipseResult]:
        """Eclipse exposure per protocol (empty unless the eclipse campaign ran)."""
        return [r.eclipse_exposure() for r in self.dynamic.values() if r.attack == "eclipse"]

    @property
    def partition(self) -> list[PartitionResult]:
        """Partition cost per protocol, from the honest baseline cells."""
        return [r.partition_cost() for r in self.dynamic.values() if r.attack == "none"]


def _pick_victim(scenario: Scenario) -> int:
    """A deterministic victim: the first node of the most common region."""
    simulated = scenario.network
    by_region: dict[str, list[int]] = {}
    for node_id in simulated.node_ids():
        by_region.setdefault(simulated.node(node_id).position.region, []).append(node_id)
    region = max(by_region, key=lambda r: len(by_region[r]))
    return min(by_region[region])


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


def _partition_cost(scenario: Scenario, protocol: str) -> PartitionResult:
    """Sever every link crossing the target group's boundary and look."""
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
    return PartitionResult(
        protocol=protocol,
        target_group_size=len(target_group),
        boundary_links=len(boundary),
        total_links=topology.link_count,
        partition_achieved=achieved,
        largest_component_fraction=largest / max(1, len(attacked)),
    )


def run_attack_seed(job: AttackJob) -> AttackJobResult:
    """Execute one (attack, protocol, seed) campaign — process-pool entry point.

    Builds the scenario (with churn for attacks whose spec demands it),
    installs the spec's byzantine behaviours, wires the selfish miner when
    asked, then measures through :func:`~repro.experiments.runner.measure_blocks`
    how each publicly propagated block actually spreads through the corrupted
    network.  A baseline cell first records the partition cost of the
    network it built, and an eclipse cell the victim's exposure once its
    adversaries are in place; both only read the topology.
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
    partition = _partition_cost(scenario, job.protocol) if spec.kind == "none" else None
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
    eclipse = None
    if spec.kind == "eclipse":
        # Read before churn moves any of the victim's connections.
        neighbors = network.neighbors(focal)
        eclipse = EclipseResult(
            protocol=job.protocol,
            adversary_fraction=spec.fraction,
            victim_connection_count=len(neighbors),
            adversarial_connection_count=sum(1 for peer in neighbors if peer in corrupted),
        )
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

    mining = MiningProcess(
        simulator, simulated.nodes, miners, simulator.random.stream("attack-mining")
    )
    selfish = (
        SelfishMiner(simulator, network, simulated.node(focal), mining)
        if spec.mines_selfishly
        else None
    )
    if churn is not None:
        scenario.start_churn(spare=corrupted | {focal, observer})
    blocks = measure_blocks(
        scenario, mining, cfg, job.schedule, observer=observer, selfish=selfish
    )

    if selfish is not None:
        # Cash out: publish the remaining private lead and let it compete.
        selfish.release_all()
        simulator.run(until=simulator.now + job.schedule.horizon_s)
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
        blocks=blocks,
        byzantine_nodes=tuple(byzantine),
        messages_suppressed=network.messages_suppressed,
        attacker_id=attacker_id,
        attacker_hashpower=spec.hashpower if spec.mines_selfishly else 0.0,
        blocks_withheld=blocks_withheld,
        blocks_released=blocks_released,
        races_started=races_started,
        revenue_share=revenue,
        eclipse_exposure=eclipse,
        partition_cost=partition,
    )


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
    if not bcbpt.blocks_measured() or not vanilla.blocks_measured():
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
    other sample capture built on the seed grid.  Each is labelled like the
    cell's summary, ``dynamic/<attack>/<protocol>``: the eclipse exposure's
    summary already holds ``eclipse/<protocol>``.
    """
    log = SampleLog()
    for key, result in outcome.dynamic.items():
        add_block_samples(log, f"dynamic/{key}", {cell.seed: cell.blocks for cell in result.cells})
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
            help="dynamic attack campaigns to run next to the honest baseline; "
            "eclipse cells also store the victim's exposure as eclipse/<protocol> "
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
    """Run every (attack, protocol, seed) campaign as one grid and pool per cell.

    The honest ``"none"`` baseline is always run first for every protocol —
    the degradation metrics (:func:`degradation_ratio`,
    :func:`coverage_loss`) divide attacked cells by it.  The eclipse and
    partition surfaces come from the same cells.

    Returns:
        The outcome whose ``dynamic`` maps ``"attack/protocol"`` to a pooled
        :class:`DynamicAttackResult`, in sweep order (baseline first).
    """
    cfg = config if config is not None else ExperimentConfig()
    schedule = BlockSchedule(attack_blocks, attack_txs, attack_horizon_s)
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
                extra_delay_s=attack_delay_s,
                hashpower=selfish_hashpower,
            ),
            schedule=schedule,
            config=cfg,
        )

    grid = run_seed_grid(points, make_job, run_attack_seed, cfg)
    return AttackOutcome(
        dynamic={
            f"{attack}/{protocol}": DynamicAttackResult(attack, protocol, tuple(cells))
            for (attack, protocol), cells in grid
        },
    )
