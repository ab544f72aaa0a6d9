"""Ext-7 — relay comparison: block propagation under flood, compact, push,
adaptive and headers-first relay.

The paper evaluates its proximity overlays under a single relay protocol —
the legacy INV/GETDATA flood.  Real deployments changed that layer (BIP 152
compact blocks, Bitcoin-XT-style unsolicited push, BIP 130 headers-first
announcements), and the two axes are orthogonal: the overlay decides *where*
links are, the relay strategy decides *what travels over them*.  This
experiment crosses the two.  For every (relay, policy) pair it builds the
policy's overlay with every node running the given
:class:`~repro.protocol.relay.RelayStrategy`, fills mempools with fresh
transactions, mines a series of blocks and measures

* the block propagation Δt distribution (mined -> accepted, per node),
* relay messages and bytes per block (the Fig. 4-style overhead axis, now
  for the block plane), and
* the strategy's own work counters (compact reconstructions, fallback
  fetches, unsolicited pushes, adaptive fan-out changes, headers sync work).

The headline verdicts: compact relay needs *fewer messages per block* than
flood on every policy (header + short ids replace the INV/GETDATA/BLOCK
triple) and propagates *faster* (one hop sheds a full request round-trip).
The adaptive strategy asks the sharper question: does the paper's clustered
overlay still beat the vanilla one once the relay layer itself learns which
neighbours are fast (``clustering_beats_vanilla_under_adaptive``), and does
the adaptation narrow the overlay's advantage
(``adaptive_narrows_clustering_advantage``)?

(relay, protocol, seed) campaigns are independent simulations; they fan out
over :func:`~repro.experiments.grid.run_seed_grid`, and each pooled pair keeps
its per-seed records in seed order, so aggregates are identical for every
worker count.

Run from the command line::

    PYTHONPATH=src python -m repro.experiments run relay_comparison \
        --nodes 120 --seeds 3 11 --relays flood compact --blocks 4 --workers 0
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.samples import BlockArrivalRecorder, SampleLog
from repro.analysis.stats import mean
from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_seed_grid
from repro.experiments.reporting import ExperimentReport, format_table
from repro.measurement.stats import DelayDistribution
from repro.protocol.mining import MiningProcess, equal_hash_power
from repro.protocol.relay import validate_relay_name
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario

#: Relay strategies compared by default, flood (the paper's baseline) first.
RELAY_SWEEP = ("flood", "compact", "push", "adaptive", "headers")

#: Policies the relay strategies are crossed with.
RELAY_PROTOCOLS = ("bitcoin", "lbc", "bcbpt")

#: Commands that carry block payloads (the "block bytes" the bench guards).
BLOCK_PAYLOAD_COMMANDS = ("block", "cmpctblock", "blocktxn")


@dataclass(frozen=True)
class RelayJob:
    """One (relay strategy, protocol, seed) block-propagation campaign.

    Attributes:
        relay: relay-strategy name (one of
            :data:`repro.protocol.relay.RELAY_NAMES`).
        protocol: neighbour-selection policy under test.
        seed: master seed for the job's network and simulator.
        blocks: blocks mined (and measured) in the campaign.
        txs_per_block: fresh transactions injected and drained before each
            block, so compact reconstruction has a mempool to draw from.
        block_horizon_s: simulated time allowed for each block to reach the
            whole network.
        config: shared experiment configuration (BCBPT's ``d_t`` is its
            ``latency_threshold_s``).
    """

    relay: str
    protocol: str
    seed: int
    blocks: int
    txs_per_block: int
    block_horizon_s: float
    config: ExperimentConfig


@dataclass(frozen=True)
class RelayJobResult:
    """Per-(relay, protocol, seed) tallies of one campaign.

    Attributes:
        block_delay_samples: block Δt samples (miner excluded), in event order.
        blocks_measured: blocks mined and tracked.
        relay_messages / relay_bytes: protocol messages and bytes attributed
            to block propagation.
        block_payload_bytes: bytes of the block-carrying commands only
            (:data:`BLOCK_PAYLOAD_COMMANDS`).
        message_breakdown: per-command message counts.
        coverage: mean fraction of nodes each block reached within the
            horizon.
        compact_blocks_reconstructed / compact_txs_requested /
            compact_fallbacks / compact_txn_timeouts: compact-strategy work,
            summed across nodes.
        blocks_pushed: unsolicited full-block pushes (push strategy).
        adaptive_fanout_widened / adaptive_fanout_narrowed: fan-out width
            changes made by the adaptive strategy, summed across nodes.
        mean_final_fanout: mean effective fan-out width at the end of the
            campaign (adaptive strategy only, NaN otherwise).
        fanout_samples: (time, width) fan-out change samples, time-ordered.
        getheaders_sent / headers_received / header_bodies_requested:
            headers-first sync work, summed across nodes.
    """

    relay: str
    protocol: str
    seed: int
    block_delay_samples: tuple[float, ...]
    blocks_measured: int
    relay_messages: int
    relay_bytes: int
    block_payload_bytes: int
    message_breakdown: dict[str, int]
    coverage: float
    compact_blocks_reconstructed: int
    compact_txs_requested: int
    compact_fallbacks: int
    blocks_pushed: int
    compact_txn_timeouts: int = 0
    adaptive_fanout_widened: int = 0
    adaptive_fanout_narrowed: int = 0
    mean_final_fanout: float = float("nan")
    fanout_samples: tuple[tuple[float, int], ...] = ()
    getheaders_sent: int = 0
    headers_received: int = 0
    header_bodies_requested: int = 0


@dataclass(frozen=True)
class RelayComparisonResult:
    """Pooled measurements for one (relay, protocol) pair.

    Attributes:
        relay: relay-strategy name.
        protocol: policy label.
        cells: the pair's per-seed campaign records, in seed order; every
            aggregate below is computed from them.
    """

    relay: str
    protocol: str
    cells: tuple[RelayJobResult, ...]

    @property
    def label(self) -> str:
        """The combined ``relay/protocol`` result key."""
        return f"{self.relay}/{self.protocol}"

    def total(self, name: str) -> int:
        """One per-seed counter summed across the cells."""
        return sum(getattr(cell, name) for cell in self.cells)

    @property
    def delays(self) -> DelayDistribution:
        """Block Δt samples pooled across seeds, in seed order."""
        return DelayDistribution(
            [sample for cell in self.cells for sample in cell.block_delay_samples]
        )

    def _per_block(self, name: str) -> float:
        blocks = self.total("blocks_measured")
        if not blocks:
            return float("nan")
        return self.total(name) / blocks

    def messages_per_block(self) -> float:
        """Mean relay messages spent propagating one block."""
        return self._per_block("relay_messages")

    def bytes_per_block(self) -> float:
        """Mean relay bytes spent propagating one block."""
        return self._per_block("relay_bytes")

    def block_payload_bytes_per_block(self) -> float:
        """Mean bytes of block-carrying commands per block."""
        return self._per_block("block_payload_bytes")

    def mean_coverage(self) -> float:
        """Mean fraction of nodes reached per block within the horizon."""
        if not self.cells:
            return 0.0
        return mean([cell.coverage for cell in self.cells])

    def mean_final_fanout(self) -> float:
        """Mean end-of-campaign fan-out width (adaptive strategy only)."""
        if self.relay != "adaptive" or not self.cells:
            return float("nan")
        return mean([cell.mean_final_fanout for cell in self.cells])

    def summary(self) -> dict[str, float]:
        """Scalar summary for the result envelope."""
        delays = self.delays
        base = delays.summary() if len(delays) else {"count": 0.0}
        summary = {
            **base,
            "messages_per_block": self.messages_per_block(),
            "bytes_per_block": self.bytes_per_block(),
            "block_payload_bytes_per_block": self.block_payload_bytes_per_block(),
            "mean_coverage": self.mean_coverage(),
        }
        if self.relay == "adaptive":
            summary["mean_final_fanout"] = self.mean_final_fanout()
            summary["fanout_widened"] = float(self.total("adaptive_fanout_widened"))
            summary["fanout_narrowed"] = float(self.total("adaptive_fanout_narrowed"))
        if self.relay == "headers":
            summary["getheaders_sent"] = float(self.total("getheaders_sent"))
            summary["header_bodies_requested"] = float(self.total("header_bodies_requested"))
        return summary


# ----------------------------------------------------------------- job body
def run_relay_seed(job: RelayJob) -> RelayJobResult:
    """Execute one (relay, protocol, seed) campaign — process-pool entry point."""
    config = job.config
    scenario = build_scenario(
        job.protocol,
        NetworkParameters(node_count=config.node_count, seed=job.seed),
        latency_threshold_s=config.latency_threshold_s,
        max_outbound=config.max_outbound,
        relay=job.relay,
    )
    simulated = scenario.network
    network = simulated.network
    simulator = simulated.simulator
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=config.funding_outputs)

    ids = simulated.node_ids()
    nodes = list(simulated.nodes.values())

    # The shared block-plane observer: per block hash, node id -> acceptance
    # time in event order (via every node's block_listeners).
    recorder = BlockArrivalRecorder()
    recorder.attach(nodes)

    mining = MiningProcess(
        simulator,
        simulated.nodes,
        equal_hash_power(ids),
        simulator.random.stream("relay-mining"),
    )

    delays = DelayDistribution()
    coverages: list[float] = []
    relay_messages = 0
    relay_bytes = 0
    block_payload_bytes = 0
    breakdown: Counter[str] = Counter()
    blocks_measured = 0
    creator_cursor = 0

    for _ in range(job.blocks):
        # Refill mempools so the next block confirms real transactions (and
        # compact receivers have something to reconstruct from), then let the
        # transaction flood drain completely before the measured window.
        for _ in range(job.txs_per_block):
            creator = simulated.node(ids[creator_cursor % len(ids)])
            creator_cursor += 1
            creator.create_transaction(
                [(creator.keypair.address, config.payment_satoshi)]
            )
        simulator.run(until=simulator.now + 10.0)

        before_messages = network.total_messages()
        before_bytes = network.total_bytes()
        before_commands = Counter(network.messages_sent)
        before_command_bytes = Counter(network.bytes_sent)

        block = mining.mine_one_block()
        if block is None:  # pragma: no cover - static scenarios are always online
            continue
        mined_at = simulator.now
        deadline = mined_at + job.block_horizon_s
        while simulator.now < deadline:
            if all(node.blockchain.has_block(block.block_hash) for node in nodes):
                break
            simulator.run(until=min(simulator.now + 0.5, deadline))

        blocks_measured += 1
        delays.extend(
            recorder.delays(block.block_hash, mined_at, exclude=(block.header.miner_id,))
        )
        coverages.append(len(recorder.receivers(block.block_hash)) / len(nodes))
        relay_messages += network.total_messages() - before_messages
        relay_bytes += network.total_bytes() - before_bytes
        breakdown.update(Counter(network.messages_sent) - before_commands)
        command_bytes = Counter(network.bytes_sent) - before_command_bytes
        block_payload_bytes += sum(
            command_bytes.get(command, 0) for command in BLOCK_PAYLOAD_COMMANDS
        )

    # Adaptive-strategy fan-out telemetry: the final effective width per node
    # and the (time, width) change samples, merged time-ordered across nodes.
    mean_final_fanout = float("nan")
    fanout_samples: tuple[tuple[float, int], ...] = ()
    if job.relay == "adaptive":
        mean_final_fanout = mean(
            [float(node.relay.effective_fanout()) for node in nodes]
        )
        fanout_samples = tuple(
            sorted(
                (sample for node in nodes for sample in node.relay.fanout_history),
                key=lambda sample: sample[0],
            )
        )

    return RelayJobResult(
        relay=job.relay,
        protocol=job.protocol,
        seed=job.seed,
        block_delay_samples=tuple(delays.samples),
        blocks_measured=blocks_measured,
        relay_messages=relay_messages,
        relay_bytes=relay_bytes,
        block_payload_bytes=block_payload_bytes,
        message_breakdown=dict(breakdown),
        coverage=mean(coverages) if coverages else 0.0,
        compact_blocks_reconstructed=sum(
            node.stats.compact_blocks_reconstructed for node in nodes
        ),
        compact_txs_requested=sum(node.stats.compact_txs_requested for node in nodes),
        compact_fallbacks=sum(node.stats.compact_fallbacks for node in nodes),
        blocks_pushed=sum(node.stats.blocks_pushed for node in nodes),
        compact_txn_timeouts=sum(node.stats.compact_txn_timeouts for node in nodes),
        adaptive_fanout_widened=sum(
            node.stats.adaptive_fanout_widened for node in nodes
        ),
        adaptive_fanout_narrowed=sum(
            node.stats.adaptive_fanout_narrowed for node in nodes
        ),
        mean_final_fanout=mean_final_fanout,
        fanout_samples=fanout_samples,
        getheaders_sent=sum(node.stats.getheaders_sent for node in nodes),
        headers_received=sum(node.stats.headers_received for node in nodes),
        header_bodies_requested=sum(
            node.stats.header_bodies_requested for node in nodes
        ),
    )


def collect_samples(results: dict[str, RelayComparisonResult]) -> SampleLog:
    """Raw block-propagation samples for the envelope's ``samples`` field.

    One ``block_delay_s`` series per (relay/protocol, seed) in seed order, so
    the pooled concatenation is worker-count invariant, plus the per-campaign
    ``coverage`` curve.
    """
    log = SampleLog()
    for key, result in results.items():
        log.add_per_seed(
            key,
            "block_delay_s",
            {cell.seed: cell.block_delay_samples for cell in result.cells},
            unit="s",
        )
        for index, cell in enumerate(result.cells):
            log.add_point(key, "coverage", float(index), cell.coverage, unit="fraction")
        for cell in result.cells:
            for time_s, width in cell.fanout_samples:
                log.add_point(key, "fanout_width", time_s, float(width), unit="peers")
    return log


# ------------------------------------------------------------------- driver
@experiment(
    "relay_comparison",
    experiment_id="Ext-7",
    title="Block propagation and per-block overhead across relay strategies",
    description=__doc__,
    protocols=RELAY_PROTOCOLS,
    options=(
        ExperimentOption(
            flag="--relays",
            dest="relays",
            type=str,
            nargs="+",
            help="relay strategies to sweep (default: flood compact push adaptive headers)",
            convert=tuple,
        ),
        ExperimentOption(
            flag="--protocols",
            dest="protocols",
            type=str,
            nargs="+",
            help="policies to cross with (default: bitcoin lbc bcbpt)",
            convert=tuple,
            is_protocols=True,
        ),
        ExperimentOption(
            flag="--blocks",
            dest="blocks",
            type=int,
            help="blocks mined per (relay, protocol, seed) campaign (default: 3)",
        ),
        ExperimentOption(
            flag="--txs-per-block",
            dest="txs_per_block",
            type=int,
            help="fresh transactions injected before each block (default: 8)",
        ),
        ExperimentOption(
            flag="--block-horizon",
            dest="block_horizon_s",
            type=float,
            help="simulated seconds allowed per block to reach every node (default: 30)",
        ),
    ),
    report=lambda results: build_report(results),
    summarize=lambda results: {key: result.summary() for key, result in results.items()},
    collect_samples=collect_samples,
    verdicts={
        "compact_fewer_messages_per_block": lambda results: compact_beats_flood(
            results, lambda r: r.messages_per_block()
        ),
        "compact_faster_block_propagation": lambda results: compact_beats_flood(
            results, lambda r: r.delays.mean() if len(r.delays) else float("inf")
        ),
        "clustering_beats_vanilla_under_adaptive": lambda results: (
            clustering_beats_vanilla_under_adaptive(results)
        ),
        "adaptive_narrows_clustering_advantage": lambda results: (
            adaptive_narrows_clustering_advantage(results)
        ),
    },
    exit_verdict="compact_fewer_messages_per_block",
)
def run_relay_comparison(
    config: Optional[ExperimentConfig] = None,
    *,
    relays: Sequence[str] = RELAY_SWEEP,
    protocols: Sequence[str] = RELAY_PROTOCOLS,
    blocks: int = 3,
    txs_per_block: int = 8,
    block_horizon_s: float = 30.0,
) -> dict[str, RelayComparisonResult]:
    """Cross relay strategies with policies and pool results per pair.

    Args:
        config: shared experiment configuration.
        relays: relay-strategy names (validated against
            :data:`~repro.protocol.relay.RELAY_NAMES`).
        protocols: policy names to cross with.
        blocks: blocks mined per campaign.
        txs_per_block: transactions injected before each block.
        block_horizon_s: per-block propagation horizon in simulated seconds.

    Returns:
        ``"relay/protocol"`` -> pooled :class:`RelayComparisonResult`.
    """
    cfg = config if config is not None else ExperimentConfig()
    if blocks <= 0:
        raise ValueError("blocks must be positive")
    if txs_per_block < 0:
        raise ValueError("txs_per_block cannot be negative")
    if block_horizon_s <= 0:
        raise ValueError("block_horizon_s must be positive")
    for relay in relays:
        validate_relay_name(relay)

    points = [(relay, protocol) for relay in relays for protocol in protocols]

    def make_job(point: tuple[str, str], seed: int) -> RelayJob:
        relay, protocol = point
        return RelayJob(
            relay=relay,
            protocol=protocol,
            seed=seed,
            blocks=blocks,
            txs_per_block=txs_per_block,
            block_horizon_s=block_horizon_s,
            config=cfg,
        )

    grid = run_seed_grid(points, make_job, run_relay_seed, cfg)
    return {
        f"{relay}/{protocol}": RelayComparisonResult(relay, protocol, tuple(cells))
        for (relay, protocol), cells in grid
    }


def _pair_mean_delay(results: dict[str, RelayComparisonResult], key: str) -> float:
    """Mean block Δt of one ``relay/protocol`` cell, NaN when unmeasured."""
    result = results.get(key)
    if result is None:
        return float("nan")
    delays = result.delays
    if not len(delays):
        return float("nan")
    return delays.mean()


def clustering_beats_vanilla_under_adaptive(
    results: dict[str, RelayComparisonResult],
) -> bool:
    """Does BCBPT still out-propagate the vanilla overlay once relay adapts?

    The paper's speedup is measured under dumb flooding; an adaptive relay
    that concentrates fan-out on fast, useful neighbours does part of the
    overlay's job on its own.  This verdict checks the headline claim
    survives: blocks still reach the network faster on the clustered overlay
    than on the random one when *both* run the adaptive strategy.
    """
    bcbpt = _pair_mean_delay(results, "adaptive/bcbpt")
    vanilla = _pair_mean_delay(results, "adaptive/bitcoin")
    if bcbpt != bcbpt or vanilla != vanilla:  # NaN: cells not measured
        return False
    return bcbpt < vanilla


def adaptive_narrows_clustering_advantage(
    results: dict[str, RelayComparisonResult],
) -> bool:
    """Does the adaptive relay shrink BCBPT's Δt advantage over vanilla?

    The advantage is the vanilla/BCBPT mean-Δt ratio (>1 means the clustered
    overlay is faster).  True when the ratio under the adaptive strategy is
    smaller than under flood — the relay layer recovered part of the gain the
    paper attributes to the overlay.
    """
    flood_ratio = _pair_mean_delay(results, "flood/bitcoin") / _pair_mean_delay(
        results, "flood/bcbpt"
    )
    adaptive_ratio = _pair_mean_delay(results, "adaptive/bitcoin") / _pair_mean_delay(
        results, "adaptive/bcbpt"
    )
    if flood_ratio != flood_ratio or adaptive_ratio != adaptive_ratio:
        return False
    return adaptive_ratio < flood_ratio


def compact_beats_flood(
    results: dict[str, RelayComparisonResult],
    metric,
) -> bool:
    """Whether compact relay improves ``metric`` over flood for every policy.

    Only policies measured under *both* strategies participate; the verdict
    fails when no such pair exists (nothing was actually compared).
    """
    compared = 0
    for key, compact in results.items():
        relay, _, protocol = key.partition("/")
        if relay != "compact":
            continue
        flood = results.get(f"flood/{protocol}")
        if flood is None:
            continue
        compared += 1
        if not metric(compact) < metric(flood):
            return False
    return compared > 0


def build_report(results: dict[str, RelayComparisonResult]) -> ExperimentReport:
    """Turn relay-comparison results into a structured text report."""
    report = ExperimentReport(
        experiment_id="Ext-7",
        description="Block propagation and per-block overhead by relay strategy",
    )
    delay_rows = []
    for key, result in results.items():
        delays = result.delays
        summary = delays.summary() if len(delays) else {}
        delay_rows.append(
            [
                key,
                len(delays),
                summary.get("mean_s", float("nan")) * 1e3,
                summary.get("variance_s2", float("nan")) * 1e6,
                result.mean_coverage(),
            ]
        )
    report.add_section(
        "Block Δt by relay strategy (ms / ms²)",
        format_table(
            ["relay/protocol", "samples", "mean", "variance", "coverage"], delay_rows
        ),
    )
    overhead_rows = [
        [
            key,
            result.total("blocks_measured"),
            result.messages_per_block(),
            result.bytes_per_block() / 1e3,
            result.block_payload_bytes_per_block() / 1e3,
        ]
        for key, result in results.items()
    ]
    report.add_section(
        "Per-block overhead (messages / kB)",
        format_table(
            ["relay/protocol", "blocks", "msgs/block", "kB/block", "block-kB/block"],
            overhead_rows,
        ),
    )
    strategy_rows = [
        [key]
        + [
            result.total(name)
            for name in (
                "compact_blocks_reconstructed",
                "compact_txs_requested",
                "compact_fallbacks",
                "compact_txn_timeouts",
                "blocks_pushed",
            )
        ]
        for key, result in results.items()
        if result.relay in ("compact", "push")
    ]
    if strategy_rows:
        report.add_section(
            "Strategy work counters",
            format_table(
                [
                    "relay/protocol",
                    "reconstructed",
                    "txs fetched",
                    "fallbacks",
                    "timeouts",
                    "pushes",
                ],
                strategy_rows,
            ),
        )
    adaptive_rows = [
        [
            key,
            result.total("adaptive_fanout_widened"),
            result.total("adaptive_fanout_narrowed"),
            result.mean_final_fanout(),
        ]
        for key, result in results.items()
        if result.relay == "adaptive"
    ]
    if adaptive_rows:
        report.add_section(
            "Adaptive fan-out",
            format_table(
                ["relay/protocol", "widened", "narrowed", "final width"],
                adaptive_rows,
            ),
        )
    headers_rows = [
        [key]
        + [
            result.total(name)
            for name in ("getheaders_sent", "headers_received", "header_bodies_requested")
        ]
        for key, result in results.items()
        if result.relay == "headers"
    ]
    if headers_rows:
        report.add_section(
            "Headers-first sync",
            format_table(
                ["relay/protocol", "getheaders", "headers", "bodies fetched"],
                headers_rows,
            ),
        )
    return report
