"""Ext-9 — load frontier: throughput vs confirmation latency under sustained
Poisson traffic.

The paper measures propagation delay for individual transactions injected
into an otherwise idle network.  Its claim — clustered overlays propagate
faster — only pays off for users if it survives *sustained* load, where
mempools fill, blocks hit their byte cap, the fee market decides inclusion
and the user-visible metric becomes tx-generated → buried-``k``-deep
confirmation latency.  This experiment maps that frontier.

For every (policy, offered tx/s) pair it builds the policy's overlay, funds
every wallet, then drives an open-loop Poisson
:class:`~repro.workloads.traffic.TrafficModel` (per-transaction fees drawn
from a deterministic per-seed exponential) against byte-capped Poisson mining
for a long simulated horizon.  A
:class:`~repro.workloads.traffic.ConfirmationTracker` on one observer node
streams confirmation latency through constant-size P² quantile estimators, so
multi-hour horizons with thousands of blocks never hold a per-sample series.
The driver reports, per policy:

* the latency-vs-offered-load frontier (p50/p99 confirmation latency at each
  offered rate),
* the saturation point — the lowest offered rate at which confirmed
  throughput falls measurably below offered *and* the late-run backlog is
  deep and either still growing (the unbounded-queue signature) or pinned
  against mempool capacity (evictions — a capped queue overflows instead),
* fee-market telemetry (full blocks, fees collected, fee evictions).

The headline verdict, ``bcbpt_advantage_under_load``, asks whether the
paper's clustered overlay still confirms no slower than vanilla Bitcoin at
the highest offered load — i.e. whether the propagation advantage survives
congestion instead of being an idle-network artefact.

(policy, rate, seed) cells are independent simulations; they fan out over
:func:`~repro.experiments.grid.run_seed_grid`, and each pooled cell keeps its
per-seed records in seed order.  Because the P² estimator state cannot be
merged, every cell finalises its quantiles *inside* the worker and the driver
aggregates per-seed scalars only — which is what keeps every aggregate
identical for every worker count.

Run from the command line::

    PYTHONPATH=src python -m repro.experiments run load_frontier \
        --nodes 30 --seeds 3 11 --rates 0.5 2 8 --horizon 600 --workers 0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.samples import SampleLog
from repro.analysis.stats import mean
from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.protocol.mining import MiningProcess, equal_hash_power
from repro.protocol.node import NodeConfig
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario
from repro.workloads.traffic import (
    PROFILE_KINDS,
    ConfirmationTracker,
    FeeModel,
    TrafficModel,
    TrafficProfile,
)

#: Policies compared by default: the vanilla baseline vs the paper's overlay.
LOAD_PROTOCOLS = ("bitcoin", "bcbpt")

#: Offered aggregate rates (tx/s) swept by default — spans comfortably
#: under-capacity to well past the default block-capacity (~1.7 tx/s).
DEFAULT_RATES = (0.5, 2.0, 8.0)

#: Default simulated seconds of sustained load per cell.
DEFAULT_HORIZON_S = 600.0

#: Default network-wide mean block interval (compressed from Bitcoin's 600 s
#: so a cell sees tens of blocks, the way the fork/double-spend drivers do).
DEFAULT_BLOCK_INTERVAL_S = 15.0

#: Default block size cap: ~26 payment transactions per block, so offered
#: rates past ~1.7 tx/s queue and the fee market decides inclusion.
DEFAULT_MAX_BLOCK_BYTES = 6_000

#: Default per-node mempool capacity (fee-priority eviction above it).
DEFAULT_MEMPOOL_MAX_SIZE = 500

#: Default burial depth for "confirmed" (k blocks deep on the best chain).
DEFAULT_CONFIRMATION_DEPTH = 3

#: Default mean of the exponential per-transaction fee draw (satoshi).
DEFAULT_MEAN_FEE_SATOSHI = 250.0

#: Default confirmed outputs funded per node before load starts.
DEFAULT_FUNDING_OUTPUTS = 8

#: Confirmed throughput below this fraction of offered load counts toward
#: saturation (the margin absorbs the confirmation-pipeline fill at the start
#: of the horizon).
SATURATION_THROUGHPUT_FRACTION = 0.9

#: The mean backlog over the final quarter of the horizon must exceed this
#: multiple of the second-quarter mean (and the absolute floor below) to
#: count as "still growing" — window means, so the between-blocks sawtooth
#: of a healthy queue does not read as growth.
SATURATION_BACKLOG_GROWTH = 1.5

#: Minimum final-quarter mean backlog (transactions) for the growth test.
SATURATION_BACKLOG_FLOOR = 5.0


@dataclass(frozen=True)
class LoadJob:
    """One (protocol, offered load, seed) sustained-traffic cell.

    Attributes:
        protocol: neighbour-selection policy under test.
        offered_tps: target aggregate transaction arrival rate (tx/s).
        profile_kind: traffic schedule shape (``"constant"``, ``"ramp"`` or
            ``"step"``; ramp/step reach ``offered_tps`` halfway through the
            horizon).
        seed: master seed for the cell's network, traffic and mining streams.
        horizon_s: simulated seconds of sustained load.
        block_interval_s: network-wide mean block interval.
        max_block_bytes: block size cap (drives the fee market once offered
            bytes/s exceed block bytes/s).
        mempool_max_size: per-node mempool capacity (fee-priority eviction
            above it).
        confirmation_depth: burials needed before a transaction counts as
            confirmed (``k`` in tx-generated → buried-``k``-deep).
        mean_fee_satoshi: mean of the exponential per-transaction fee draw.
        funding_outputs: confirmed outputs funded per node before load starts.
        config: shared experiment configuration (BCBPT's ``d_t`` is its
            ``latency_threshold_s``).
    """

    protocol: str
    offered_tps: float
    profile_kind: str
    seed: int
    horizon_s: float
    block_interval_s: float
    max_block_bytes: int
    mempool_max_size: int
    confirmation_depth: int
    mean_fee_satoshi: float
    funding_outputs: int
    config: ExperimentConfig


@dataclass(frozen=True)
class LoadJobResult:
    """Per-(protocol, rate, seed) streamed tallies of one load cell.

    Confirmation quantiles are P² streaming estimates finalised inside the
    worker (the estimator state cannot be merged), so the driver only ever
    aggregates per-seed scalars — which is what makes the merge independent
    of worker count.
    """

    protocol: str
    offered_tps: float
    seed: int
    txs_generated: int
    generation_failures: int
    txs_confirmed: int
    pending_at_end: int
    confirmation_p50_s: float
    confirmation_p99_s: float
    confirmation_mean_s: float
    confirmation_max_s: float
    backlog_curve: tuple[tuple[float, int], ...]
    blocks_mined: int
    full_blocks_mined: int
    total_fees_collected: int
    fee_evictions: int
    capacity_drops: int
    conflict_evictions: int
    events: int
    horizon_s: float

    @property
    def generated_tps(self) -> float:
        """Achieved generation rate (tx/s) over the horizon."""
        return self.txs_generated / self.horizon_s if self.horizon_s > 0 else 0.0

    @property
    def confirmed_tps(self) -> float:
        """Confirmed throughput (tx/s) over the horizon."""
        return self.txs_confirmed / self.horizon_s if self.horizon_s > 0 else 0.0

    @property
    def backlog_final(self) -> int:
        """Observer mempool depth at the end of the horizon."""
        return self.backlog_curve[-1][1] if self.backlog_curve else 0

    @property
    def backlog_mid(self) -> int:
        """Observer mempool depth halfway through the horizon."""
        if not self.backlog_curve:
            return 0
        return self.backlog_curve[len(self.backlog_curve) // 2][1]


@dataclass(frozen=True)
class LoadCellResult:
    """Pooled measurements for one (protocol, offered rate) cell.

    Every latency figure is the across-seed mean of a per-seed streamed
    scalar (P² estimates finalised in the worker), never a pooled-sample
    statistic — see the module docstring for why.

    Attributes:
        protocol: policy label.
        offered_tps: offered aggregate load (tx/s).
        cells: the cell's per-seed records, in seed order; every aggregate
            below is computed from them.
    """

    protocol: str
    offered_tps: float
    cells: tuple[LoadJobResult, ...]

    def total(self, name: str) -> int:
        """One per-seed counter summed across the cells."""
        return sum(getattr(cell, name) for cell in self.cells)

    def _seed_mean(self, name: str) -> float:
        values = [getattr(cell, name) for cell in self.cells]
        values = [value for value in values if value == value]  # NaN-safe
        return mean(values) if values else float("nan")

    def p50_latency_s(self) -> float:
        """Across-seed mean of the streamed p50 confirmation latency."""
        return self._seed_mean("confirmation_p50_s")

    def p99_latency_s(self) -> float:
        """Across-seed mean of the streamed p99 confirmation latency."""
        return self._seed_mean("confirmation_p99_s")

    def mean_latency_s(self) -> float:
        """Across-seed mean of the mean confirmation latency."""
        return self._seed_mean("confirmation_mean_s")

    def max_latency_s(self) -> float:
        """Largest confirmation latency any seed observed (0.0 when none)."""
        return max((0.0, *(cell.confirmation_max_s for cell in self.cells)))

    def _cell_mean(self, name: str) -> float:
        values = [float(getattr(cell, name)) for cell in self.cells]
        return mean(values) if values else 0.0

    def generated_tps(self) -> float:
        """Mean achieved generation rate (tx/s) across seeds."""
        return self._cell_mean("generated_tps")

    def confirmed_tps(self) -> float:
        """Mean confirmed throughput (tx/s) across seeds."""
        return self._cell_mean("confirmed_tps")

    def backlog_mid(self) -> float:
        """Mean observer backlog halfway through the horizon."""
        return self._cell_mean("backlog_mid")

    def backlog_final(self) -> float:
        """Mean observer backlog at the end of the horizon."""
        return self._cell_mean("backlog_final")

    def full_block_fraction(self) -> float:
        """Fraction of mined blocks whose template hit the byte cap."""
        blocks = self.total("blocks_mined")
        if not blocks:
            return 0.0
        return self.total("full_blocks_mined") / blocks

    def _window_means(self) -> list[tuple[float, float]]:
        """Per-seed (steady-window mean, final-window mean) of the backlog.

        Steady window = second quarter of the horizon (past the pipeline-fill
        transient), final window = last quarter.  Window means, not point
        samples, so the between-blocks sawtooth of a healthy queue averages
        out instead of masquerading as growth.
        """
        pairs = []
        for cell in self.cells:
            curve = cell.backlog_curve
            n = len(curve)
            if n < 4:
                continue
            steady = [float(depth) for _, depth in curve[n // 4 : n // 2]]
            final = [float(depth) for _, depth in curve[(3 * n) // 4 :]]
            if steady and final:
                pairs.append((mean(steady), mean(final)))
        return pairs

    def backlog_growth(self) -> float:
        """Final-quarter mean backlog over the second-quarter mean (per-seed
        ratios averaged; 0.0 when no curve is long enough to window)."""
        pairs = self._window_means()
        if not pairs:
            return 0.0
        return mean([final / max(steady, 1.0) for steady, final in pairs])

    def backlog_late(self) -> float:
        """Across-seed mean backlog over the final quarter of the horizon."""
        pairs = self._window_means()
        return mean([final for _, final in pairs]) if pairs else 0.0

    def pool_overflowed(self) -> bool:
        """Whether any mempool hit capacity (fee evictions or hard drops)."""
        return (self.total("fee_evictions") + self.total("capacity_drops")) > 0

    def is_saturated(self) -> bool:
        """Whether this cell shows the saturation signature.

        Confirmed throughput measurably below offered *and* a deep late-run
        backlog that is either still growing (the unbounded-queue signature)
        or has already pinned against a capacity-limited pool (evictions or
        drops — a capped queue cannot grow, it overflows).  Both conditions
        together, so neither the pipeline-fill transient nor a
        merely-deep-but-draining queue trips the detector.
        """
        throughput_short = (
            self.confirmed_tps() < SATURATION_THROUGHPUT_FRACTION * self.offered_tps
        )
        backlog_deep = self.backlog_late() >= SATURATION_BACKLOG_FLOOR
        backlog_stuck = (
            self.backlog_growth() > SATURATION_BACKLOG_GROWTH or self.pool_overflowed()
        )
        return throughput_short and backlog_deep and backlog_stuck

    def summary(self) -> dict[str, float]:
        """Scalar summary for the result envelope."""
        return {
            "offered_tps": self.offered_tps,
            "generated_tps": self.generated_tps(),
            "confirmed_tps": self.confirmed_tps(),
            "txs_generated": float(self.total("txs_generated")),
            "txs_confirmed": float(self.total("txs_confirmed")),
            "generation_failures": float(self.total("generation_failures")),
            "pending_at_end": float(self.total("pending_at_end")),
            "confirmation_p50_s": self.p50_latency_s(),
            "confirmation_p99_s": self.p99_latency_s(),
            "confirmation_mean_s": self.mean_latency_s(),
            "confirmation_max_s": self.max_latency_s(),
            "backlog_mid": self.backlog_mid(),
            "backlog_final": self.backlog_final(),
            "backlog_growth": self.backlog_growth(),
            "blocks_mined": float(self.total("blocks_mined")),
            "full_block_fraction": self.full_block_fraction(),
            "total_fees_collected": float(self.total("total_fees_collected")),
            "fee_evictions": float(self.total("fee_evictions")),
            "capacity_drops": float(self.total("capacity_drops")),
            "conflict_evictions": float(self.total("conflict_evictions")),
            "saturated": float(self.is_saturated()),
        }


def cell_label(protocol: str, offered_tps: float) -> str:
    """The stable ``"<protocol>@<rate>tps"`` label used everywhere downstream."""
    return f"{protocol}@{offered_tps:g}tps"


# ----------------------------------------------------------------- job body
def run_load_seed(job: LoadJob) -> LoadJobResult:
    """Execute one (protocol, rate, seed) cell — the process-pool entry point."""
    config = job.config
    parameters = NetworkParameters(
        node_count=config.node_count,
        seed=job.seed,
        node_config=NodeConfig(mempool_max_size=job.mempool_max_size),
    )
    scenario = build_scenario(
        job.protocol,
        parameters,
        latency_threshold_s=config.latency_threshold_s,
        max_outbound=config.max_outbound,
    )
    simulated = scenario.network
    simulator = simulated.simulator
    nodes = list(simulated.nodes.values())
    ids = simulated.node_ids()
    fund_nodes(nodes, outputs_per_node=job.funding_outputs)

    if job.profile_kind == "constant":
        profile = TrafficProfile(kind="constant", rate_tps=job.offered_tps)
    elif job.profile_kind == "ramp":
        profile = TrafficProfile(
            kind="ramp",
            rate_tps=job.offered_tps,
            base_rate_tps=0.0,
            ramp_duration_s=job.horizon_s / 2.0,
        )
    else:
        profile = TrafficProfile(
            kind="step",
            rate_tps=job.offered_tps,
            base_rate_tps=job.offered_tps / 4.0,
            step_at_s=job.horizon_s / 2.0,
        )

    observer = simulated.node(ids[0])
    tracker = ConfirmationTracker(observer, depth=job.confirmation_depth)
    traffic = TrafficModel(
        simulator,
        simulated.nodes,
        profile=profile,
        fee_model=FeeModel(mean_fee_satoshi=job.mean_fee_satoshi),
        payment_satoshi=config.payment_satoshi,
        tracker=tracker,
    )
    mining = MiningProcess(
        simulator,
        simulated.nodes,
        equal_hash_power(ids),
        simulator.random.stream("load-mining"),
        block_interval_s=job.block_interval_s,
        max_block_bytes=job.max_block_bytes,
    )

    traffic.start()
    mining.start()

    # Advance in fixed slices, sampling the observer's backlog at each edge —
    # a bounded (~100-point) curve regardless of horizon length.
    backlog_curve: list[tuple[float, int]] = []
    sample_interval = max(job.horizon_s / 100.0, 1.0)
    now = 0.0
    while now < job.horizon_s:
        now = min(now + sample_interval, job.horizon_s)
        simulator.run(until=now)
        backlog_curve.append((now, len(observer.mempool)))
    traffic.stop()
    mining.stop()

    no_sample = float("nan")
    return LoadJobResult(
        protocol=job.protocol,
        offered_tps=job.offered_tps,
        seed=job.seed,
        txs_generated=traffic.txs_generated,
        generation_failures=traffic.generation_failures,
        txs_confirmed=tracker.confirmed,
        pending_at_end=tracker.pending,
        confirmation_p50_s=tracker.p50.value() if tracker.confirmed else no_sample,
        confirmation_p99_s=tracker.p99.value() if tracker.confirmed else no_sample,
        confirmation_mean_s=tracker.mean_latency if tracker.confirmed else no_sample,
        confirmation_max_s=tracker.latency_max,
        backlog_curve=tuple(backlog_curve),
        blocks_mined=mining.blocks_mined,
        full_blocks_mined=mining.full_blocks_mined,
        total_fees_collected=mining.total_fees_collected,
        fee_evictions=sum(node.stats.mempool_fee_evictions for node in nodes),
        capacity_drops=sum(node.stats.mempool_capacity_drops for node in nodes),
        conflict_evictions=sum(node.stats.mempool_conflict_evictions for node in nodes),
        events=simulator.events_executed,
        horizon_s=job.horizon_s,
    )


# ----------------------------------------------------------------- analysis
def saturation_point_tps(
    results: dict[str, LoadCellResult], protocol: str
) -> Optional[float]:
    """The lowest offered rate at which ``protocol`` saturates (None if never)."""
    saturated = [
        cell.offered_tps
        for cell in results.values()
        if cell.protocol == protocol and cell.is_saturated()
    ]
    return min(saturated) if saturated else None


def _cells_for(results: dict[str, LoadCellResult], protocol: str) -> list[LoadCellResult]:
    return sorted(
        (cell for cell in results.values() if cell.protocol == protocol),
        key=lambda cell: cell.offered_tps,
    )


def confirms_at_every_rate(results: dict[str, LoadCellResult]) -> bool:
    """Every (protocol, rate) cell confirmed at least one transaction."""
    return bool(results) and all(cell.total("txs_confirmed") > 0 for cell in results.values())


def bcbpt_advantage_under_load(results: dict[str, LoadCellResult]) -> bool:
    """BCBPT confirms no slower than vanilla Bitcoin at the highest load.

    Compared on mean confirmation latency at each protocol's highest offered
    rate, with a 5% tolerance (confirmation latency is dominated by the block
    interval, so the overlay's propagation advantage is a small margin on
    top).  Vacuously true when either protocol is missing from the sweep.
    """
    bitcoin_cells = _cells_for(results, "bitcoin")
    bcbpt_cells = _cells_for(results, "bcbpt")
    if not bitcoin_cells or not bcbpt_cells:
        return True
    bitcoin_latency = bitcoin_cells[-1].mean_latency_s()
    bcbpt_latency = bcbpt_cells[-1].mean_latency_s()
    if bitcoin_latency != bitcoin_latency or bcbpt_latency != bcbpt_latency:
        return False  # a frontier edge with no confirmations is a failure
    return bcbpt_latency <= bitcoin_latency * 1.05


def saturation_no_earlier_for_bcbpt(results: dict[str, LoadCellResult]) -> bool:
    """BCBPT does not hit its saturation point at a lower rate than Bitcoin.

    Vacuously true when either protocol is absent from the sweep; a failure
    means both were swept and Bitcoin stayed unsaturated at a rate where
    BCBPT had already tipped over.
    """
    if not _cells_for(results, "bitcoin") or not _cells_for(results, "bcbpt"):
        return True
    bcbpt_point = saturation_point_tps(results, "bcbpt")
    if bcbpt_point is None:
        return True
    bitcoin_point = saturation_point_tps(results, "bitcoin")
    if bitcoin_point is None:
        return False
    return bcbpt_point >= bitcoin_point


def collect_samples(results: dict[str, LoadCellResult]) -> SampleLog:
    """Raw per-seed series for the envelope's ``samples`` field.

    One single-value series per (cell, seed) for each streamed latency
    scalar — that per-seed grouping is what lets ``repro report`` bootstrap
    confidence intervals across seeds without re-simulation — plus the
    observer backlog curve as a time series.
    """
    log = SampleLog()
    for key, cell in results.items():
        for metric in ("confirmation_p50_s", "confirmation_p99_s"):
            by_seed = {seed_cell.seed: getattr(seed_cell, metric) for seed_cell in cell.cells}
            log.add_per_seed(
                key,
                metric,
                {seed: [value] for seed, value in by_seed.items() if value == value},
                unit="s",
            )
        for seed_cell in sorted(cell.cells, key=lambda seed_cell: seed_cell.seed):
            for time_s, depth in seed_cell.backlog_curve:
                log.add_point(key, "mempool_backlog", time_s, float(depth), unit="txs")
    return log


# ------------------------------------------------------------------- driver
@experiment(
    "load_frontier",
    experiment_id="Ext-9",
    title="Throughput/latency frontier under sustained Poisson load",
    description=__doc__,
    protocols=LOAD_PROTOCOLS,
    options=(
        ExperimentOption(
            flag="--rates",
            dest="rates",
            type=float,
            nargs="+",
            help="offered aggregate loads to sweep, tx/s (default: 0.5 2 8)",
            convert=tuple,
        ),
        ExperimentOption(
            flag="--protocols",
            dest="protocols",
            type=str,
            nargs="+",
            help="policies to compare (default: bitcoin bcbpt)",
            convert=tuple,
            is_protocols=True,
        ),
        ExperimentOption(
            flag="--profile",
            dest="profile_kind",
            type=str,
            help="traffic schedule: constant, ramp or step (default: constant)",
        ),
        ExperimentOption(
            flag="--horizon",
            dest="horizon_s",
            type=float,
            help="simulated seconds of sustained load per cell (default: 600)",
        ),
        ExperimentOption(
            flag="--block-interval",
            dest="block_interval_s",
            type=float,
            help="mean block interval in simulated seconds (default: 15)",
        ),
        ExperimentOption(
            flag="--block-bytes",
            dest="max_block_bytes",
            type=int,
            help="block size cap in bytes (default: 6000)",
        ),
        ExperimentOption(
            flag="--mempool-cap",
            dest="mempool_max_size",
            type=int,
            help="per-node mempool capacity, transactions (default: 500)",
        ),
        ExperimentOption(
            flag="--depth",
            dest="confirmation_depth",
            type=int,
            help="burials before a transaction counts as confirmed (default: 3)",
        ),
        ExperimentOption(
            flag="--mean-fee",
            dest="mean_fee_satoshi",
            type=float,
            help="mean of the exponential per-tx fee draw, satoshi (default: 250)",
        ),
        ExperimentOption(
            flag="--funding-outputs",
            dest="funding_outputs",
            type=int,
            help="confirmed outputs funded per node before load starts (default: 8)",
        ),
    ),
    summarize=lambda results: {key: cell.summary() for key, cell in results.items()},
    collect_samples=collect_samples,
    verdicts={
        "confirms_at_every_rate": confirms_at_every_rate,
        "bcbpt_advantage_under_load": bcbpt_advantage_under_load,
        "bcbpt_saturates_no_earlier": saturation_no_earlier_for_bcbpt,
    },
    exit_verdict="confirms_at_every_rate",
)
def run_load_frontier(
    config: Optional[ExperimentConfig] = None,
    *,
    rates: Sequence[float] = DEFAULT_RATES,
    protocols: Sequence[str] = LOAD_PROTOCOLS,
    profile_kind: str = "constant",
    horizon_s: float = DEFAULT_HORIZON_S,
    block_interval_s: float = DEFAULT_BLOCK_INTERVAL_S,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
    mempool_max_size: int = DEFAULT_MEMPOOL_MAX_SIZE,
    confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH,
    mean_fee_satoshi: float = DEFAULT_MEAN_FEE_SATOSHI,
    funding_outputs: int = DEFAULT_FUNDING_OUTPUTS,
) -> dict[str, LoadCellResult]:
    """Sweep offered load across policies and pool results per cell.

    Args:
        config: shared experiment configuration.
        rates: offered aggregate transaction rates (tx/s) to sweep.
        protocols: policy names to compare.
        profile_kind: traffic schedule shape (:data:`PROFILE_KINDS`).
        horizon_s: simulated seconds of sustained load per cell.
        block_interval_s: network-wide mean block interval.
        max_block_bytes: block size cap in bytes.
        mempool_max_size: per-node mempool capacity.
        confirmation_depth: burials before "confirmed".
        mean_fee_satoshi: mean of the per-transaction fee draw.
        funding_outputs: confirmed outputs funded per node up front.

    Returns:
        ``"<protocol>@<rate>tps"`` -> pooled :class:`LoadCellResult`.
    """
    cfg = config if config is not None else ExperimentConfig()
    if not rates:
        raise ValueError("at least one offered rate is required")
    if any(rate <= 0 for rate in rates):
        raise ValueError("offered rates must be positive")
    if profile_kind not in PROFILE_KINDS:
        raise ValueError(
            f"unknown profile kind {profile_kind!r}; expected one of {PROFILE_KINDS}"
        )
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if block_interval_s <= 0:
        raise ValueError("block_interval_s must be positive")
    if max_block_bytes <= 0:
        raise ValueError("max_block_bytes must be positive")
    if mempool_max_size <= 0:
        raise ValueError("mempool_max_size must be positive")
    if confirmation_depth < 1:
        raise ValueError("confirmation_depth must be at least 1")
    if mean_fee_satoshi < 0:
        raise ValueError("mean_fee_satoshi cannot be negative")
    if funding_outputs < 1:
        raise ValueError("funding_outputs must be at least 1")

    points = [(protocol, float(rate)) for protocol in protocols for rate in rates]

    def make_job(point: tuple[str, float], seed: int) -> LoadJob:
        protocol, offered_tps = point
        return LoadJob(
            protocol=protocol,
            offered_tps=offered_tps,
            profile_kind=profile_kind,
            seed=seed,
            horizon_s=horizon_s,
            block_interval_s=block_interval_s,
            max_block_bytes=max_block_bytes,
            mempool_max_size=mempool_max_size,
            confirmation_depth=confirmation_depth,
            mean_fee_satoshi=mean_fee_satoshi,
            funding_outputs=funding_outputs,
            config=cfg,
        )

    grid = run_seed_grid(points, make_job, run_load_seed, cfg)
    return {
        cell_label(protocol, offered_tps): LoadCellResult(protocol, offered_tps, tuple(cells))
        for (protocol, offered_tps), cells in grid
    }
