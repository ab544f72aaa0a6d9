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

from dataclasses import dataclass
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

#: Per-node strategy work counters (``node.stats`` fields) a campaign sums.
#: The compact and push summaries report the first five, the adaptive one
#: the next two (as ``fanout_widened``/``fanout_narrowed``), the headers one
#: the last three.
RELAY_COUNTERS = (
    "compact_blocks_reconstructed", "compact_txs_requested", "compact_fallbacks",
    "compact_txn_timeouts", "blocks_pushed",
    "adaptive_fanout_widened", "adaptive_fanout_narrowed",
    "getheaders_sent", "headers_received", "header_bodies_requested",
)


@dataclass(frozen=True)
class RelayJob:
    """One (relay strategy, protocol, seed) block-propagation campaign.

    Attributes:
        relay: relay-strategy name (one of
            :data:`repro.protocol.relay.RELAY_NAMES`).
        protocol: neighbour-selection policy under test.
        seed: master seed for the job's network and simulator.
        schedule: the blocks the campaign mines and measures.
        config: shared experiment configuration (BCBPT's ``d_t`` is its
            ``latency_threshold_s``).
    """

    relay: str
    protocol: str
    seed: int
    schedule: BlockSchedule
    config: ExperimentConfig


@dataclass(frozen=True)
class RelayJobResult:
    """Per-(relay, protocol, seed) record of one campaign.

    Attributes:
        blocks: the block campaign (Δt, coverage, messages and bytes).
        counters: every :data:`RELAY_COUNTERS` entry, summed across nodes.
        mean_final_fanout: mean effective fan-out width at the end of the
            campaign (adaptive strategy only, NaN otherwise).
        fanout_samples: (time, width) fan-out change samples, time-ordered.
    """

    relay: str
    protocol: str
    seed: int
    blocks: BlockCampaign
    counters: dict[str, int]
    mean_final_fanout: float
    fanout_samples: tuple[tuple[float, int], ...]


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
        """One :class:`BlockCampaign` count summed across the cells."""
        return sum(getattr(cell.blocks, name) for cell in self.cells)

    def counter(self, name: str) -> int:
        """One :data:`RELAY_COUNTERS` entry summed across the cells."""
        return sum(cell.counters[name] for cell in self.cells)

    @property
    def delays(self) -> DelayDistribution:
        """Block Δt samples pooled across seeds, in seed order."""
        return DelayDistribution(sample for cell in self.cells for sample in cell.blocks.delays)

    def _per_block(self, name: str) -> float:
        blocks = self.total("blocks_measured")
        if not blocks:
            return float("nan")
        return self.total(name) / blocks

    def messages_per_block(self) -> float:
        """Mean relay messages spent propagating one block."""
        return self._per_block("messages")

    def bytes_per_block(self) -> float:
        """Mean relay bytes spent propagating one block."""
        return self._per_block("bytes")

    def block_payload_bytes_per_block(self) -> float:
        """Mean bytes of block-carrying commands per block."""
        return self._per_block("payload_bytes")

    def mean_coverage(self) -> float:
        """Mean fraction of nodes reached per block within the horizon."""
        if not self.cells:
            return 0.0
        return mean([cell.blocks.coverage for cell in self.cells])

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
            "blocks_measured": float(self.total("blocks_measured")),
            "messages_per_block": self.messages_per_block(),
            "bytes_per_block": self.bytes_per_block(),
            "block_payload_bytes_per_block": self.block_payload_bytes_per_block(),
            "mean_coverage": self.mean_coverage(),
        }
        if self.relay in ("compact", "push"):
            for name in RELAY_COUNTERS[:5]:
                summary[name] = float(self.counter(name))
        if self.relay == "adaptive":
            summary["mean_final_fanout"] = self.mean_final_fanout()
            summary["fanout_widened"] = float(self.counter("adaptive_fanout_widened"))
            summary["fanout_narrowed"] = float(self.counter("adaptive_fanout_narrowed"))
        if self.relay == "headers":
            for name in RELAY_COUNTERS[7:]:
                summary[name] = float(self.counter(name))
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
    simulator = simulated.simulator
    nodes = list(simulated.nodes.values())
    fund_nodes(nodes, outputs_per_node=config.funding_outputs)
    mining = MiningProcess(
        simulator, simulated.nodes, equal_hash_power(simulated.node_ids()),
        simulator.random.stream("relay-mining"),
    )
    blocks = measure_blocks(scenario, mining, config, job.schedule)
    mean_final_fanout, fanout_samples = float("nan"), ()
    if job.relay == "adaptive":
        # The final effective fan-out width per node, and the (time, width)
        # change samples merged time-ordered across nodes.
        mean_final_fanout = mean([float(node.relay.effective_fanout()) for node in nodes])
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
        blocks=blocks,
        counters={
            name: sum(getattr(node.stats, name) for node in nodes) for name in RELAY_COUNTERS
        },
        mean_final_fanout=mean_final_fanout,
        fanout_samples=fanout_samples,
    )


def collect_samples(results: dict[str, RelayComparisonResult]) -> SampleLog:
    """Raw block-propagation samples for the envelope's ``samples`` field.

    One ``block_delay_s`` series per (relay/protocol, seed) in seed order, so
    the pooled concatenation is worker-count invariant, plus the per-campaign
    ``coverage`` curve.
    """
    log = SampleLog()
    for key, result in results.items():
        add_block_samples(log, key, {cell.seed: cell.blocks for cell in result.cells})
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
    schedule = BlockSchedule(blocks, txs_per_block, block_horizon_s)
    for relay in relays:
        validate_relay_name(relay)

    points = [(relay, protocol) for relay in relays for protocol in protocols]

    def make_job(point: tuple[str, str], seed: int) -> RelayJob:
        relay, protocol = point
        return RelayJob(relay, protocol, seed, schedule, cfg)

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

