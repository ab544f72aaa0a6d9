"""Ext-6 — churn resilience: propagation delay and cluster quality under live join/leave.

The paper evaluates its proximity overlays on *static* memberships, yet its
central claim — clustering cuts propagation delay without hurting consistency
— only matters if the clusters survive the heavy churn real Bitcoin peers
exhibit (Section IV.B sketches maintenance but never measures it).  This
extension produces the figure the paper implies but does not have: for each
protocol (``bitcoin``, ``lbc``, ``bcbpt``) and each churn intensity it runs
the Fig. 2 measuring-node campaign while a
:class:`~repro.core.maintenance.ChurnMaintainer` drives sessions from the
scenario's :class:`~repro.workloads.scenarios.ChurnSchedule`, and reports

* the Δt distribution (mean/variance, as in Fig. 3) under churn,
* measurement coverage (connections that still received the transaction),
* cluster-quality drift (cluster count / size before vs after the run), and
* the repair work performed (orphans re-homed, representatives replaced,
  bridge links created).

(protocol, level, seed) campaigns are independent simulations; they fan out
over :func:`~repro.experiments.grid.run_seed_grid`, and each pooled pair keeps
its per-seed records in seed order, so aggregates are identical for every
worker count.

Run from the command line::

    PYTHONPATH=src python -m repro.experiments run churn_resilience \
        --nodes 120 --runs 4 --seeds 3 11 --levels static heavy --workers 0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.analysis.samples import SampleLog
from repro.analysis.stats import mean
from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.experiments.runner import select_measuring_nodes
from repro.measurement.measuring_node import MeasuringNode
from repro.measurement.stats import DelayDistribution
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import ChurnSchedule, build_scenario

#: Protocols compared by the churn-resilience experiment.
CHURN_PROTOCOLS = ("bitcoin", "lbc", "bcbpt")

#: Named churn intensities swept by default.  ``static`` is the no-churn
#: control (the paper's original setting); the dynamic levels shorten the
#: median session until membership turns over several times per campaign.
CHURN_LEVELS: dict[str, Optional[ChurnSchedule]] = {
    "static": None,
    "mild": ChurnSchedule(
        median_session_s=240.0,
        sigma=1.0,
        stable_fraction=0.3,
        mean_downtime_s=30.0,
        discovery_interval_s=1.0,
        repair_interval_s=5.0,
    ),
    "heavy": ChurnSchedule(
        median_session_s=45.0,
        sigma=1.0,
        stable_fraction=0.1,
        mean_downtime_s=15.0,
        discovery_interval_s=1.0,
        repair_interval_s=5.0,
    ),
}


@dataclass(frozen=True)
class ChurnResilienceJob:
    """One (protocol, churn level, seed) dynamic-membership campaign.

    Attributes:
        protocol: policy under test (one of ``POLICY_NAMES``).
        level: human-readable churn-intensity label (``"static"``, ...).
        schedule: the churn schedule for this level, or None for a static
            (no-churn) control.
        seed: master seed for the job's network and simulator.
        config: shared experiment configuration (BCBPT's ``d_t`` is its
            ``latency_threshold_s``).
    """

    protocol: str
    level: str
    schedule: Optional[ChurnSchedule]
    seed: int
    config: ExperimentConfig


@dataclass(frozen=True)
class ChurnJobResult:
    """Everything one (protocol, level, seed) churn campaign measured.

    Attributes:
        delay_samples: Δt samples across the measuring nodes.
        coverages: per-run fraction of connections reached.
        timed_out_receptions: connections that never received a measured
            transaction within the run horizon (churned away mid-run).
        failed_runs: repetitions abandoned because the measuring node had no
            connections at send time (heavy churn starved it momentarily).
        join_events / leave_events: churn volume.
        repair_sweeps / orphans_reassigned / representatives_replaced /
            bridges_created: maintenance work.
        cluster_before / cluster_after: cluster summaries at build time and
            after the campaign.
    """

    protocol: str
    level: str
    seed: int
    delay_samples: tuple[float, ...]
    coverages: tuple[float, ...]
    timed_out_receptions: int
    failed_runs: int
    join_events: int
    leave_events: int
    repair_sweeps: int
    orphans_reassigned: int
    representatives_replaced: int
    bridges_created: int
    cluster_before: dict[str, float]
    cluster_after: dict[str, float]


@dataclass(frozen=True)
class ChurnResilienceResult:
    """Pooled measurements for one (protocol, churn level) pair.

    Attributes:
        protocol: policy label.
        level: churn-intensity label.
        cells: the pair's per-seed campaign records, in seed order; every
            aggregate below is computed from them.
    """

    protocol: str
    level: str
    cells: tuple[ChurnJobResult, ...]

    @property
    def label(self) -> str:
        """The combined ``protocol/level`` result key."""
        return f"{self.protocol}/{self.level}"

    def total(self, name: str) -> int:
        """One per-seed counter summed across the cells."""
        return sum(getattr(cell, name) for cell in self.cells)

    @property
    def delays(self) -> DelayDistribution:
        """Δt samples pooled across seeds and measuring nodes, in seed order."""
        return DelayDistribution(
            [sample for cell in self.cells for sample in cell.delay_samples]
        )

    @property
    def coverages(self) -> list[float]:
        """Per-campaign fractions of connections reached, in seed order."""
        return [coverage for cell in self.cells for coverage in cell.coverages]

    def summary(self) -> dict[str, float]:
        """Summary statistics of the pooled Δt distribution (``{"count": 0.0}``
        when heavy churn left no samples at all)."""
        delays = self.delays
        if not delays:
            return {"count": 0.0}
        return delays.summary()

    def mean_coverage(self) -> float:
        """Mean fraction of measured connections that received the payment."""
        coverages = self.coverages
        if not coverages:
            return 0.0
        return mean(coverages)

    def cluster_drift(self) -> dict[str, float]:
        """Mean absolute drift of cluster count / size across the run."""
        count_drift = [
            abs(cell.cluster_after["cluster_count"] - cell.cluster_before["cluster_count"])
            for cell in self.cells
        ]
        size_drift = [
            abs(cell.cluster_after["mean_size"] - cell.cluster_before["mean_size"])
            for cell in self.cells
        ]
        return {
            "cluster_count_drift": mean(count_drift) if count_drift else 0.0,
            "mean_size_drift": mean(size_drift) if size_drift else 0.0,
        }


def resolve_levels(
    names: Sequence[str],
    schedules: Optional[Mapping[str, Optional[ChurnSchedule]]] = None,
) -> dict[str, Optional[ChurnSchedule]]:
    """Map churn-level names to schedules, failing loudly on unknown names."""
    table = dict(CHURN_LEVELS)
    if schedules:
        table.update(schedules)
    resolved: dict[str, Optional[ChurnSchedule]] = {}
    for name in names:
        if name not in table:
            raise ValueError(
                f"unknown churn level {name!r}; expected one of {tuple(table)}"
            )
        resolved[name] = table[name]
    return resolved


# ----------------------------------------------------------------- job body
def run_churn_seed(job: ChurnResilienceJob) -> ChurnJobResult:
    """Execute one (protocol, level, seed) campaign — process-pool entry point."""
    config = job.config
    scenario = build_scenario(
        job.protocol,
        NetworkParameters(node_count=config.node_count, seed=job.seed),
        latency_threshold_s=config.latency_threshold_s,
        max_outbound=config.max_outbound,
        churn=job.schedule,
    )
    simulated = scenario.network
    cluster_before = dict(scenario.policy.clusters.summary())
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=config.funding_outputs)

    measuring_ids = select_measuring_nodes(simulated.node_ids(), config.measuring_nodes)
    if scenario.dynamic:
        # The measuring nodes are the experiment's observers; sparing them
        # from churn keeps every campaign comparable (the paper's measuring
        # node m never leaves either).
        scenario.start_churn(spare=measuring_ids)

    delays = DelayDistribution()
    coverages: list[float] = []
    timed_out = 0
    failed_runs = 0
    for measuring_id in measuring_ids:
        measuring = MeasuringNode(
            simulated.node(measuring_id),
            simulated.simulator.random.stream(f"measuring-{measuring_id}"),
            payment_satoshi=config.payment_satoshi,
            run_timeout_s=config.run_timeout_s,
            exclude_long_links=config.exclude_long_links,
        )
        simulator = simulated.simulator
        for index in range(config.runs):
            try:
                run = measuring.measure_once(run_index=index)
            except RuntimeError:
                # Churn momentarily starved the measuring node of
                # connections; the discovery sweep will top it up.
                failed_runs += 1
                simulator.run(until=simulator.now + 5.0)
                continue
            for record in run.receptions:
                delays.add(record.delta_t_s)
            coverages.append(run.coverage)
            timed_out += len(run.timed_out_nodes)
            # Idle gap between repetitions, letting relay traffic drain.
            simulator.run(until=simulator.now + 5.0)

    maintainer = scenario.maintainer
    return ChurnJobResult(
        protocol=job.protocol,
        level=job.level,
        seed=job.seed,
        delay_samples=tuple(delays.samples),
        coverages=tuple(coverages),
        timed_out_receptions=timed_out,
        failed_runs=failed_runs,
        join_events=maintainer.churn.join_events if maintainer else 0,
        leave_events=maintainer.churn.leave_events if maintainer else 0,
        repair_sweeps=maintainer.repair_sweeps if maintainer else 0,
        orphans_reassigned=maintainer.orphans_reassigned if maintainer else 0,
        representatives_replaced=maintainer.representatives_replaced if maintainer else 0,
        bridges_created=maintainer.bridges_created if maintainer else 0,
        cluster_before=cluster_before,
        cluster_after=dict(scenario.policy.clusters.summary()),
    )


def collect_samples(results: dict[str, ChurnResilienceResult]) -> SampleLog:
    """Raw Δt samples for the envelope's ``samples`` field.

    One ``delay_s`` series per (protocol/level, seed) in seed order, so the
    pooled concatenation is worker-count invariant, plus the per-campaign
    ``coverage`` curve.
    """
    log = SampleLog()
    for key, result in results.items():
        log.add_per_seed(
            key,
            "delay_s",
            {cell.seed: cell.delay_samples for cell in result.cells},
            unit="s",
        )
        for index, coverage in enumerate(result.coverages):
            log.add_point(key, "coverage", float(index), coverage, unit="fraction")
    return log


# ------------------------------------------------------------------- driver
#: Per-seed counters each pair's envelope summary sums over its seeds.
SUMMARY_COUNTERS = (
    "leave_events",
    "join_events",
    "timed_out_receptions",
    "orphans_reassigned",
    "representatives_replaced",
    "bridges_created",
)


@experiment(
    "churn_resilience",
    experiment_id="Ext-6",
    title="Propagation delay and cluster quality under live join/leave churn",
    description=__doc__,
    protocols=CHURN_PROTOCOLS,
    options=(
        ExperimentOption(
            flag="--protocols",
            dest="protocols",
            type=str,
            nargs="+",
            help="protocols to compare (default: bitcoin lbc bcbpt)",
            convert=tuple,
            is_protocols=True,
        ),
        ExperimentOption(
            flag="--levels",
            dest="levels",
            type=str,
            nargs="+",
            help="churn levels to sweep (default: static mild heavy)",
            convert=tuple,
        ),
    ),
    summarize=lambda results: {
        key: {
            **result.summary(),
            "mean_coverage": result.mean_coverage(),
            **{name: float(result.total(name)) for name in SUMMARY_COUNTERS},
            **result.cluster_drift(),
        }
        for key, result in results.items()
    },
    collect_samples=collect_samples,
    verdicts={"clustering_survives_churn": lambda results: clustering_survives_churn(results)},
)
def run_churn_resilience(
    config: Optional[ExperimentConfig] = None,
    *,
    protocols: Sequence[str] = CHURN_PROTOCOLS,
    levels: Sequence[str] = ("static", "mild", "heavy"),
    schedules: Optional[Mapping[str, Optional[ChurnSchedule]]] = None,
) -> dict[str, ChurnResilienceResult]:
    """Sweep churn intensity across protocols and pool results per pair.

    Args:
        config: shared experiment configuration.
        protocols: policy names to compare.
        levels: churn-level names, resolved against :data:`CHURN_LEVELS`
            (plus ``schedules`` overrides).
        schedules: extra/overriding ``name -> ChurnSchedule`` entries.

    Returns:
        ``"protocol/level"`` -> pooled :class:`ChurnResilienceResult`.
    """
    cfg = config if config is not None else ExperimentConfig()
    resolved = resolve_levels(levels, schedules)
    points = [
        (protocol, level, schedule)
        for protocol in protocols
        for level, schedule in resolved.items()
    ]

    def make_job(point: tuple[str, str, Optional[ChurnSchedule]], seed: int) -> ChurnResilienceJob:
        protocol, level, schedule = point
        return ChurnResilienceJob(
            protocol=protocol,
            level=level,
            schedule=schedule,
            seed=seed,
            config=cfg,
        )

    grid = run_seed_grid(points, make_job, run_churn_seed, cfg)
    return {
        f"{protocol}/{level}": ChurnResilienceResult(protocol, level, tuple(cells))
        for (protocol, level, _), cells in grid
    }


def clustering_survives_churn(results: dict[str, ChurnResilienceResult]) -> bool:
    """The headline check: BCBPT still beats vanilla Bitcoin under churn.

    Compares pooled mean Δt at the heaviest dynamic level present for both
    protocols — "heaviest" judged by the churn volume actually observed
    (leave events), not by the order the levels were listed in.
    """
    def leave_events(level: str) -> int:
        return (
            results[f"bcbpt/{level}"].total("leave_events")
            + results[f"bitcoin/{level}"].total("leave_events")
        )

    levels = [key.split("/", 1)[1] for key in results if key.startswith("bcbpt/")]
    dynamic = [lvl for lvl in levels if f"bitcoin/{lvl}" in results and leave_events(lvl) > 0]
    if not dynamic:
        return False
    level = max(dynamic, key=leave_events)
    bcbpt = results[f"bcbpt/{level}"].summary()
    bitcoin = results[f"bitcoin/{level}"].summary()
    if "mean_s" not in bcbpt or "mean_s" not in bitcoin:
        return False
    return bcbpt["mean_s"] < bitcoin["mean_s"]
