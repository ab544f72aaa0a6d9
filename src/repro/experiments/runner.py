"""The propagation experiment runner.

:func:`measure_propagation` executes the paper's measurement methodology
(Section V.B, Fig. 2) on one built
:class:`~repro.workloads.scenarios.Scenario`:

1. pick a set of measuring nodes spread across the id space;
2. fund the nodes so wallets can emit payments;
3. run the measuring-node campaign from each of them;
4. return every Δt_{m,n} sample as one plain :class:`Campaign` record.

Every experiment that measures Δt (fig3, fig4, threshold_sweep, overhead,
ablation, churn_resilience, scale, validation) calls it once per
(scenario, seed) cell, so one function decides what a campaign records.

:func:`measure_blocks` is its block-plane counterpart: it mines a
:class:`BlockSchedule` of blocks on one scenario and returns a plain
:class:`BlockCampaign` (block Δt, coverage, messages and bytes per measured
window).  relay_comparison and attacks each call it once per cell.

:func:`run_protocol_comparison` repeats that over several protocols and seeds
on *identically parameterised* networks — the controlled comparison behind
Fig. 3 — and pools each protocol's campaigns in a :class:`PropagationResult`.
Because every (protocol, seed) job is an independent simulation, the
comparison fans :class:`PropagationJob` cells out over the shared seed-grid
executor (:func:`~repro.experiments.grid.run_seed_grid`), which returns them
in submission order, so the pooled results are identical for every worker
count.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.analysis.samples import BlockArrivalRecorder, SampleLog
from repro.analysis.stats import mean, sample_variance
from repro.experiments.backends import current_plan
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.measurement.measuring_node import MeasuringNode
from repro.measurement.stats import DelayDistribution
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, ensure_network_snapshot
from repro.workloads.scenarios import Scenario, build_scenario, validate_policy_name

if TYPE_CHECKING:
    from repro.protocol.adversary import SelfishMiner
    from repro.protocol.mining import MiningProcess

#: Simulated idle time after every run, failed runs included, letting
#: residual relay traffic drain before the next transaction.
INTER_RUN_GAP_S = 5.0

#: Simulated time the transactions injected before a block get to drain.
BLOCK_DRAIN_S = 10.0

#: Commands that carry block payloads (a campaign's ``payload_bytes``).
BLOCK_PAYLOAD_COMMANDS = ("block", "cmpctblock", "blocktxn")


@dataclass(frozen=True)
class Campaign:
    """What one (scenario, seed) measuring-node campaign measured.

    Plain values only, so a pickled grid cell holds no simulator objects.

    Attributes:
        seed: the scenario's master seed.
        delays: every Δt, measuring node after measuring node, run after
            run, in reception order.
        ranks: the reception rank of each entry of ``delays`` (1 = first
            connection to receive) — the x-axis of the paper's figures.
        coverages: fraction of the measured connections reached, one per
            completed run.
        timed_out_receptions: connections that never received a measured
            transaction within the run horizon.
        failed_runs: runs abandoned because churn had left the measuring
            node without connections at send time.
        long_link_fallbacks: measuring nodes that measured long links in any
            run, for want of a proximity connection.
        clusters: the policy's cluster summary after the campaign.
    """

    seed: int
    delays: tuple[float, ...]
    ranks: tuple[int, ...]
    coverages: tuple[float, ...]
    timed_out_receptions: int
    failed_runs: int
    long_link_fallbacks: int
    clusters: dict[str, float]


def select_measuring_nodes(node_ids: Sequence[int], count: int) -> list[int]:
    """Measuring nodes spread evenly across the node id space.

    The single source of the placement rule, so every experiment observes
    from the same nodes.
    """
    count = min(count, len(node_ids))
    stride = max(1, len(node_ids) // count)
    return [node_ids[i * stride] for i in range(count)]


def measure_propagation(
    scenario: Scenario,
    config: ExperimentConfig,
    *,
    fund_measuring_only: bool = False,
) -> Campaign:
    """Run the Fig. 2 campaign on one built scenario.

    Each of ``config.measuring_nodes`` measuring nodes sends ``config.runs``
    transactions, one at a time, and every run is followed by
    :data:`INTER_RUN_GAP_S` of simulated time.  On a dynamic (churned)
    scenario the measuring nodes are spared from churn, and a run whose
    measuring node has no connection at send time counts as failed.

    Args:
        scenario: the built scenario to measure.
        config: shared experiment configuration.
        fund_measuring_only: fund only the measuring nodes instead of every
            node.  Only measuring nodes spend during a campaign, so 10k-node
            scale cells skip building and hashing N×k funding transactions
            and the shared ledger they fill.  The funding block's contents
            shape every node's ledger, so the figure experiments keep
            funding everyone (pinned by the golden-fingerprint tests).

    Raises:
        RuntimeError: on a static scenario, if a measuring node has no
            connection at all.
    """
    simulated = scenario.network
    simulator = simulated.simulator
    measuring_ids = select_measuring_nodes(simulated.node_ids(), config.measuring_nodes)
    fund_nodes(
        list(simulated.nodes.values()),
        outputs_per_node=config.funding_outputs,
        funded_node_ids=measuring_ids if fund_measuring_only else None,
    )
    if scenario.dynamic:
        # The measuring node m of the paper never leaves either.
        scenario.start_churn(spare=measuring_ids)

    delays: list[float] = []
    ranks: list[int] = []
    coverages: list[float] = []
    timed_out = failed_runs = long_link_fallbacks = 0
    for measuring_id in measuring_ids:
        measuring = MeasuringNode(
            simulated.node(measuring_id),
            simulator.random.stream(f"measuring-{measuring_id}"),
            payment_satoshi=config.payment_satoshi,
            run_timeout_s=config.run_timeout_s,
            exclude_long_links=config.exclude_long_links,
        )
        for index in range(config.runs):
            try:
                run = measuring.measure_once(run_index=index)
            except RuntimeError:
                if not scenario.dynamic:
                    raise
                # Churn momentarily starved the measuring node of
                # connections; the discovery sweep will top it up.
                failed_runs += 1
            else:
                for record in run.receptions:
                    delays.append(record.delta_t_s)
                    ranks.append(record.rank)
                coverages.append(run.coverage)
                timed_out += len(run.timed_out_nodes)
            simulator.run(until=simulator.now + INTER_RUN_GAP_S)
        long_link_fallbacks += any(run.long_link_fallback for run in measuring.runs)
    return Campaign(
        seed=simulated.parameters.seed,
        delays=tuple(delays),
        ranks=tuple(ranks),
        coverages=tuple(coverages),
        timed_out_receptions=timed_out,
        failed_runs=failed_runs,
        long_link_fallbacks=long_link_fallbacks,
        clusters=dict(scenario.policy.clusters.summary()),
    )


@dataclass(frozen=True)
class BlockSchedule:
    """What a block campaign mines; a bad schedule fails at construction.

    Attributes:
        blocks: blocks mined (and, unless withheld, measured).
        txs_per_block: fresh transactions injected and drained before each
            block, so compact receivers have a mempool to reconstruct from.
        horizon_s: simulated time each block gets to reach every node.
    """

    blocks: int
    txs_per_block: int
    horizon_s: float

    def __post_init__(self) -> None:
        if self.blocks <= 0:
            raise ValueError("blocks must be positive")
        if self.txs_per_block < 0:
            raise ValueError("txs_per_block cannot be negative")
        if self.horizon_s <= 0:
            raise ValueError("block_horizon_s must be positive")


@dataclass(frozen=True)
class BlockCampaign:
    """What one block campaign measured, as plain values.

    The message and byte counts cover the measured windows only: from just
    before a block is mined until every node holds it or its horizon passes.

    Attributes:
        delays: block Δt (mined -> accepted, miner excluded) of every
            measured block, in event order.
        blocks_measured: blocks mined and measured; a withheld block is not.
        coverage: mean fraction of nodes a measured block reached (0.0 when
            none was measured).
        observer_coverage: fraction of measured blocks that reached the
            observer (0.0 without an observer or a measured block).
        messages / bytes: protocol messages and bytes sent.
        payload_bytes: bytes of :data:`BLOCK_PAYLOAD_COMMANDS` only.
        message_breakdown: messages sent, per command.
    """

    delays: tuple[float, ...]
    blocks_measured: int
    coverage: float
    observer_coverage: float
    messages: int
    bytes: int
    payload_bytes: int
    message_breakdown: dict[str, int]


def measure_blocks(
    scenario: Scenario,
    mining: "MiningProcess",
    config: ExperimentConfig,
    schedule: BlockSchedule,
    *,
    observer: Optional[int] = None,
    selfish: Optional["SelfishMiner"] = None,
) -> BlockCampaign:
    """Mine ``schedule.blocks`` blocks on a funded scenario and measure each.

    Before each block, the next ``schedule.txs_per_block`` nodes of
    ``node_ids()`` (wrapping around) each pay ``config.payment_satoshi`` to
    themselves, and the flood drains for :data:`BLOCK_DRAIN_S`.  Then ``mining`` mines the
    block, and the campaign waits until every node holds it or
    ``schedule.horizon_s`` passes.  A block that ``selfish`` withholds is
    not measured; ``observer`` is the node ``observer_coverage`` watches.
    """
    simulated = scenario.network
    simulator = simulated.simulator
    network = simulated.network
    nodes = list(simulated.nodes.values())
    creators = itertools.cycle(simulated.node_ids())
    recorder = BlockArrivalRecorder()
    recorder.attach(nodes)

    delays: list[float] = []
    coverages: list[float] = []
    observer_hits = 0
    messages: Counter[str] = Counter()
    sent_bytes: Counter[str] = Counter()
    for _ in range(schedule.blocks):
        for _ in range(schedule.txs_per_block):
            creator = simulated.node(next(creators))
            creator.create_transaction([(creator.keypair.address, config.payment_satoshi)])
        simulator.run(until=simulator.now + BLOCK_DRAIN_S)

        messages_before = Counter(network.messages_sent)
        bytes_before = Counter(network.bytes_sent)
        block = mining.mine_one_block()
        if block is None:  # the winner was offline (churn): no block this round
            continue
        mined_at = simulator.now
        if selfish is not None and block.block_hash in selfish.withheld_hashes:
            # Nothing propagates yet: the release policy reacts to later
            # honest blocks or to the driver's end-of-campaign flush.
            continue
        deadline = mined_at + schedule.horizon_s
        while simulator.now < deadline and not all(
            node.blockchain.has_block(block.block_hash) for node in nodes
        ):
            simulator.run(until=min(simulator.now + 0.5, deadline))

        receivers = recorder.receivers(block.block_hash)
        delays.extend(
            recorder.delays(block.block_hash, mined_at, exclude=(block.header.miner_id,))
        )
        coverages.append(len(receivers) / len(nodes))
        observer_hits += observer in receivers
        messages.update(Counter(network.messages_sent) - messages_before)
        sent_bytes.update(Counter(network.bytes_sent) - bytes_before)

    measured = len(coverages)
    return BlockCampaign(
        delays=tuple(delays),
        blocks_measured=measured,
        coverage=mean(coverages) if measured else 0.0,
        observer_coverage=observer_hits / measured if measured else 0.0,
        messages=sum(messages.values()),
        bytes=sum(sent_bytes.values()),
        payload_bytes=sum(sent_bytes[command] for command in BLOCK_PAYLOAD_COMMANDS),
        message_breakdown=dict(messages),
    )


def add_block_samples(log: SampleLog, label: str, campaigns: dict[int, BlockCampaign]) -> None:
    """Log seed -> campaign records under ``label``, in the mapping's order.

    One ``block_delay_s`` series per seed, so the pooled concatenation is
    worker-count invariant, then one ``coverage`` point per campaign.
    """
    log.add_per_seed(
        label, "block_delay_s", {seed: c.delays for seed, c in campaigns.items()}, unit="s"
    )
    for index, campaign in enumerate(campaigns.values()):
        log.add_point(label, "coverage", float(index), campaign.coverage, unit="fraction")


@dataclass(frozen=True)
class PropagationResult:
    """One protocol's campaigns, pooled across seeds.

    Attributes:
        protocol: protocol label ("bitcoin", "lbc", "bcbpt", or
            "bcbpt@XXms" for threshold sweeps).
        cells: the per-seed campaigns, in seed order; every aggregate below
            is computed from them.
    """

    protocol: str
    cells: tuple[Campaign, ...]

    @property
    def delays(self) -> DelayDistribution:
        """Δt samples pooled across seeds and measuring nodes, in seed order."""
        return DelayDistribution(delay for cell in self.cells for delay in cell.delays)

    def summary(self) -> dict[str, float]:
        """Summary statistics of the pooled Δt distribution."""
        return self.delays.summary()

    def rank_variance_curve(self) -> list[tuple[int, float]]:
        """(rank, variance of Δt) pairs pooled across seeds.

        Rank *k* is the k-th connection to receive the transaction; the paper
        observes that under vanilla Bitcoin the variance grows with the rank
        while BCBPT keeps it flat.
        """
        by_rank: dict[int, list[float]] = {}
        for cell in self.cells:
            for rank, delay in zip(cell.ranks, cell.delays):
                by_rank.setdefault(rank, []).append(delay)
        return [
            (rank, sample_variance(delays))
            for rank, delays in sorted(by_rank.items())
            if len(delays) >= 2
        ]

    def long_link_fallbacks(self) -> int:
        """Measuring nodes that measured long links for want of a proximity connection."""
        return sum(cell.long_link_fallbacks for cell in self.cells)


def summarize_propagation(
    results: dict[str, PropagationResult],
) -> dict[str, dict[str, float]]:
    """Per-label envelope summaries of the propagation experiments (Fig. 3/4).

    Each label gets its pooled Δt summary and ``long_link_fallbacks``.  A
    clustered label also gets the cluster structure behind its Δt, over the
    seeds: the mean ``cluster_count`` and ``mean_cluster_size``, and the
    largest cluster of any seed as ``max_cluster_size``.
    """
    summaries: dict[str, dict[str, float]] = {}
    for label, result in results.items():
        summary = {
            **result.summary(),
            "long_link_fallbacks": float(result.long_link_fallbacks()),
        }
        clustered = [cell.clusters for cell in result.cells if cell.clusters.get("cluster_count")]
        if clustered:
            summary["cluster_count"] = sum(s["cluster_count"] for s in clustered) / len(clustered)
            summary["mean_cluster_size"] = sum(s["mean_size"] for s in clustered) / len(clustered)
            summary["max_cluster_size"] = float(max(s["max_size"] for s in clustered))
        summaries[label] = summary
    return summaries


@dataclass(frozen=True)
class PropagationJob:
    """One (protocol label, seed) propagation campaign.

    Attributes:
        label: protocol label as reported in results (may carry a threshold
            suffix, e.g. ``"bcbpt@50ms"``).
        policy_name: the underlying policy to build (``"bitcoin"``, ``"lbc"``
            or ``"bcbpt"``).
        threshold_s: BCBPT latency threshold ``d_t`` in seconds.
        seed: master seed for the job's network and simulator.
        config: shared experiment configuration.
        snapshot_path: optional path to a pre-built network snapshot for this
            job's (node count, seed); when set the worker loads it instead of
            rebuilding the network (stream-exact, so results are unchanged).
    """

    label: str
    policy_name: str
    threshold_s: float
    seed: int
    config: ExperimentConfig
    snapshot_path: Optional[str] = None


def run_propagation_job(job: PropagationJob) -> Campaign:
    """Execute one (protocol, seed) campaign — the process-pool entry point."""
    parameters = NetworkParameters(node_count=job.config.node_count, seed=job.seed)
    scenario = build_scenario(
        job.policy_name,
        parameters,
        latency_threshold_s=job.threshold_s,
        max_outbound=job.config.max_outbound,
        snapshot=job.snapshot_path,
    )
    return measure_propagation(scenario, job.config)


def collect_propagation_samples(
    results: dict[str, PropagationResult],
) -> SampleLog:
    """Raw-sample extraction shared by the propagation experiments (Fig. 3/4).

    Per label, the log carries one ``delay_s`` series per master seed (in
    seed order, so the pooled concatenation reproduces
    ``PropagationResult.delays`` exactly and is worker-count invariant) plus
    the ``rank_variance_s2`` curve the paper plots against the connection
    rank.  This is what lets ``repro report`` regenerate Fig. 3/4 from a
    stored envelope without re-simulation.
    """
    log = SampleLog()
    for label, result in results.items():
        log.add_per_seed(
            label,
            "delay_s",
            {cell.seed: cell.delays for cell in result.cells},
            unit="s",
        )
        for rank, variance in result.rank_variance_curve():
            log.add_point(label, "rank_variance_s2", float(rank), variance, unit="s^2")
    return log


def run_protocol_comparison(
    protocols: Sequence[str],
    config: ExperimentConfig,
    *,
    thresholds: Optional[dict[str, float]] = None,
    snapshot_dir: Optional[Union[str, Path]] = None,
) -> dict[str, PropagationResult]:
    """Run the same measurement campaign under several protocols and seeds.

    Args:
        protocols: protocol labels to compare (see
            :data:`repro.workloads.scenarios.POLICY_NAMES`); a label of the
            form ``"bcbpt@50ms"`` selects BCBPT with that threshold.
        config: shared experiment configuration.
        thresholds: optional per-label latency-threshold overrides (seconds).
        snapshot_dir: when given, each (node count, seed) network is built
            once here (serially, before the fan-out) and every job loads the
            snapshot instead of rebuilding it.  Snapshots are stream-exact, so
            results are byte-identical with or without this; it trades disk
            for the per-job network build time the grid would otherwise
            repeat ``len(protocols)`` times per seed.  Defaults to the
            active :class:`~repro.experiments.backends.ExecutionPlan`'s
            ``snapshot_dir`` (the CLI's ``--snapshot-dir``), which also
            feeds the pool backend's warm per-worker snapshot caches.

    Returns:
        Label -> pooled :class:`PropagationResult` across all seeds.
    """
    resolved = {label: _parse_label(label, config, thresholds) for label in protocols}

    active = current_plan()
    if snapshot_dir is None and active is not None:
        snapshot_dir = active.snapshot_dir

    snapshot_paths: dict[int, str] = {}
    if snapshot_dir is not None and (active is None or active.execute):
        # Pre-build serially in the driver process: workers only ever read.
        # Skipped under `repro shard merge` (execute=False): no cell body
        # runs there, and cell keys never include snapshot paths.
        for seed in config.seeds:
            parameters = NetworkParameters(node_count=config.node_count, seed=seed)
            snapshot_paths[seed] = str(ensure_network_snapshot(parameters, snapshot_dir))

    def make_job(label: str, seed: int) -> PropagationJob:
        policy_name, threshold = resolved[label]
        return PropagationJob(
            label=label,
            policy_name=policy_name,
            threshold_s=threshold,
            seed=seed,
            config=config,
            snapshot_path=snapshot_paths.get(seed),
        )

    grid = run_seed_grid(protocols, make_job, run_propagation_job, config)
    return {label: PropagationResult(label, tuple(cells)) for label, cells in grid}


def _parse_label(
    label: str,
    config: ExperimentConfig,
    thresholds: Optional[dict[str, float]],
) -> tuple[str, float]:
    """Resolve a protocol label to (policy name, latency threshold).

    The base name is validated against
    :data:`~repro.workloads.scenarios.POLICY_NAMES` here, at job-construction
    time, so a typo fails immediately in the driver process instead of deep
    inside a pool worker.
    """
    if thresholds is not None and label in thresholds:
        base = label.split("@", 1)[0]
        return validate_policy_name(base), thresholds[label]
    if "@" in label:
        base, spec = label.split("@", 1)
        if not spec.endswith("ms"):
            raise ValueError(f"threshold spec must end in 'ms': {label!r}")
        return validate_policy_name(base), float(spec[:-2]) / 1000.0
    return validate_policy_name(label), config.latency_threshold_s
