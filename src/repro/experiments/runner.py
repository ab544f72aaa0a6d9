"""The propagation experiment runner.

:class:`PropagationExperiment` executes the paper's measurement methodology on
one built :class:`~repro.workloads.scenarios.Scenario`:

1. fund every node so wallets can emit payments;
2. pick a set of measuring nodes spread across the id space;
3. run the Fig. 2 measuring-node campaign from each of them;
4. aggregate the Δt_{m,n} samples into one distribution per protocol.

:func:`run_protocol_comparison` repeats that over several protocols and seeds
on *identically parameterised* networks — the controlled comparison behind
Fig. 3 — and returns per-protocol aggregates.  Because every (protocol, seed)
job is an independent simulation, the comparison fans :class:`PropagationJob`
cells out over the shared seed-grid executor
(:func:`~repro.experiments.grid.run_seed_grid`); the merge below consumes job
results in submission order, so the aggregates are identical for every worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis.samples import SampleLog
from repro.experiments.backends import current_plan
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.measurement.measuring_node import CampaignResult, MeasurementCampaign, MeasuringNode
from repro.measurement.stats import DelayDistribution
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, ensure_network_snapshot
from repro.workloads.scenarios import Scenario, build_scenario, validate_policy_name


@dataclass
class PropagationResult:
    """Aggregated propagation-delay measurements for one protocol.

    Attributes:
        protocol: protocol label ("bitcoin", "lbc", "bcbpt", or
            "bcbpt@XXms" for threshold sweeps).
        delays: all Δt samples pooled across seeds and measuring nodes.
        per_seed: Δt distribution per master seed.
        per_rank: Δt distribution by reception rank (1 = first connection to
            receive), pooled across seeds — the x-axis of the paper's figures.
        campaigns: the underlying per-measuring-node campaign results.
        cluster_summaries: cluster statistics per seed (empty for "bitcoin").
        build_reports: topology build reports per seed.
    """

    protocol: str
    delays: DelayDistribution = field(default_factory=DelayDistribution)
    per_seed: dict[int, DelayDistribution] = field(default_factory=dict)
    per_rank: dict[int, DelayDistribution] = field(default_factory=dict)
    campaigns: list[CampaignResult] = field(default_factory=list)
    cluster_summaries: dict[int, dict[str, float]] = field(default_factory=dict)
    build_reports: dict[int, object] = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        """Summary statistics of the pooled Δt distribution."""
        return self.delays.summary()

    def rank_variance_curve(self) -> list[tuple[int, float]]:
        """(rank, variance) pairs pooled across campaigns."""
        curve = []
        for rank in sorted(self.per_rank):
            dist = self.per_rank[rank]
            if len(dist) >= 2:
                curve.append((rank, dist.variance()))
        return curve

    def rank_mean_curve(self) -> list[tuple[int, float]]:
        """(rank, mean Δt) pairs pooled across campaigns."""
        return [
            (rank, self.per_rank[rank].mean())
            for rank in sorted(self.per_rank)
            if len(self.per_rank[rank]) >= 1
        ]


def select_measuring_nodes(node_ids: Sequence[int], count: int) -> list[int]:
    """Measuring nodes spread evenly across the node id space.

    The single source of the placement rule: every experiment that rotates
    measuring nodes (the figure campaigns, the churn-resilience sweep) uses
    this, so cross-experiment comparisons observe from the same nodes.
    """
    count = min(count, len(node_ids))
    stride = max(1, len(node_ids) // count)
    return [node_ids[i * stride] for i in range(count)]


class PropagationExperiment:
    """Runs the measuring-node campaign on one prepared scenario.

    Args:
        scenario: the built scenario to measure.
        config: shared experiment configuration.
        fund_measuring_only: fund only the measuring nodes instead of every
            node.  Only measuring nodes spend during a campaign, so 10k-node
            scale cells opt out of building and hashing N×k funding
            transactions and of the shared ledger they fill.
            Default False: the funding block's contents shape every node's
            ledger, so the figure experiments keep the historical
            fund-everyone behaviour (pinned by the golden-fingerprint tests).
    """

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[ExperimentConfig] = None,
        *,
        fund_measuring_only: bool = False,
    ) -> None:
        self.scenario = scenario
        self.config = config if config is not None else ExperimentConfig(
            node_count=scenario.network.node_count
        )
        self.fund_measuring_only = fund_measuring_only
        self._funded = False

    def _ensure_funding(self) -> None:
        if self._funded:
            return
        fund_nodes(
            list(self.scenario.network.nodes.values()),
            outputs_per_node=self.config.funding_outputs,
            funded_node_ids=self.measuring_node_ids() if self.fund_measuring_only else None,
        )
        self._funded = True

    def measuring_node_ids(self) -> list[int]:
        """Measuring nodes spread evenly across the node id space."""
        return select_measuring_nodes(
            self.scenario.network.node_ids(), self.config.measuring_nodes
        )

    def run(self, repetitions: Optional[int] = None) -> PropagationResult:
        """Execute the campaign and return pooled results for this scenario."""
        self._ensure_funding()
        runs = repetitions if repetitions is not None else self.config.runs
        result = PropagationResult(protocol=self.scenario.name)
        simulated = self.scenario.network
        for measuring_id in self.measuring_node_ids():
            node = simulated.node(measuring_id)
            measuring = MeasuringNode(
                node,
                simulated.simulator.random.stream(f"measuring-{measuring_id}"),
                payment_satoshi=self.config.payment_satoshi,
                run_timeout_s=self.config.run_timeout_s,
                exclude_long_links=self.config.exclude_long_links,
            )
            campaign = MeasurementCampaign(measuring, self.scenario.name)
            campaign_result = campaign.run(runs)
            result.campaigns.append(campaign_result)
            result.delays = result.delays.merge(campaign_result.delays)
            for rank, dist in campaign_result.per_rank_delays.items():
                result.per_rank.setdefault(rank, DelayDistribution()).extend(dist.samples)
        seed = simulated.parameters.seed
        result.per_seed[seed] = result.delays
        result.cluster_summaries[seed] = self.scenario.policy.clusters.summary()
        result.build_reports[seed] = self.scenario.build_report
        return result


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


def run_propagation_job(job: PropagationJob) -> PropagationResult:
    """Execute one (protocol, seed) campaign — the process-pool entry point."""
    parameters = NetworkParameters(node_count=job.config.node_count, seed=job.seed)
    scenario = build_scenario(
        job.policy_name,
        parameters,
        latency_threshold_s=job.threshold_s,
        max_outbound=job.config.max_outbound,
        snapshot=job.snapshot_path,
    )
    scenario.name = job.label
    return PropagationExperiment(scenario, job.config).run()


def collect_propagation_samples(
    results: dict[str, PropagationResult],
) -> SampleLog:
    """Raw-sample extraction shared by the propagation experiments (Fig. 3/4).

    Per label, the log carries one ``delay_s`` series per master seed (in the
    merge's insertion order, so the pooled concatenation reproduces
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
            {seed: dist.samples for seed, dist in result.per_seed.items()},
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

    # Merge in submission order — exactly the order the serial nested loop
    # used, so pooled aggregates are identical for every worker count.
    results: dict[str, PropagationResult] = {}
    for label, seed_results in grid:
        pooled = results.get(label)
        if pooled is None:
            pooled = results[label] = PropagationResult(protocol=label)
        for seed, result in zip(config.seeds, seed_results):
            pooled.delays = pooled.delays.merge(result.delays)
            pooled.per_seed[seed] = result.delays
            pooled.campaigns.extend(result.campaigns)
            pooled.cluster_summaries[seed] = result.cluster_summaries[seed]
            pooled.build_reports[seed] = result.build_reports[seed]
            for rank, dist in result.per_rank.items():
                pooled.per_rank.setdefault(rank, DelayDistribution()).extend(dist.samples)
    return results


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
