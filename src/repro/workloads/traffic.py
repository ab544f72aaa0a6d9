"""Open-loop traffic plane: load schedules, fee draws and confirmation latency.

The paper measures propagation under short fixed-rate bursts; its claim only
matters under *sustained* load, where mempools fill, blocks hit their size cap
and the user-visible metric becomes confirmation latency.  This module
provides that load:

* :class:`TrafficProfile` — an offered-load schedule (constant, ramp or step)
  giving the aggregate transaction arrival rate as a function of simulated
  time;
* :class:`FeeModel` — a deterministic per-seed fee distribution, so admission
  and block inclusion become a fee market instead of FIFO;
* :class:`TrafficModel` — an open-loop Poisson generator driving per-node
  transaction creation as simulator events (thinning against the profile's
  peak rate, so time-varying schedules stay exact);
* :class:`ConfirmationTracker` — an observer on one node's
  ``block_listeners`` that streams tx-generated → tx-buried-``k``-deep
  latency through constant-size P² quantile estimators, so multi-hour runs
  with thousands of blocks never store a per-sample series.

Determinism contract: arrival and fee draws come from the dedicated
``"traffic-arrivals"`` / ``"traffic-fees"`` streams of the simulator's
:class:`~repro.sim.rng.RandomService`.  Named streams are derived
independently from the master seed, so wiring a TrafficModel into a scenario
does not perturb a single draw seen by the existing consumers — with traffic
off (or simply absent) every other workload, including the fig3 golden
fingerprints, stays byte-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.stats import StreamingQuantile
from repro.protocol.node import BitcoinNode
from repro.sim.engine import Simulator
from repro.sim.process import Timeout

#: Profile kinds accepted by :class:`TrafficProfile`.
PROFILE_KINDS = ("constant", "ramp", "step")


@dataclass(frozen=True)
class TrafficProfile:
    """Aggregate offered load (tx/s) as a function of simulated time.

    Attributes:
        kind: ``"constant"`` (always ``rate_tps``), ``"ramp"`` (linear from
            ``base_rate_tps`` to ``rate_tps`` over ``ramp_duration_s``) or
            ``"step"`` (``base_rate_tps`` until ``step_at_s``, then
            ``rate_tps``).
        rate_tps: the target aggregate rate (the final rate for ramps, the
            post-step rate for steps).
        base_rate_tps: the starting rate for ramp/step profiles.
        ramp_duration_s: seconds a ramp takes to reach ``rate_tps``.
        step_at_s: time at which a step profile jumps.
    """

    kind: str = "constant"
    rate_tps: float = 1.0
    base_rate_tps: float = 0.0
    ramp_duration_s: float = 0.0
    step_at_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}")
        if self.rate_tps <= 0:
            raise ValueError(f"rate_tps must be positive, got {self.rate_tps}")
        if self.base_rate_tps < 0:
            raise ValueError(f"base_rate_tps cannot be negative, got {self.base_rate_tps}")
        if self.kind == "ramp" and self.ramp_duration_s <= 0:
            raise ValueError("a ramp profile needs a positive ramp_duration_s")
        if self.kind == "step" and self.step_at_s <= 0:
            raise ValueError("a step profile needs a positive step_at_s")

    def rate_at(self, t: float) -> float:
        """Offered aggregate rate (tx/s) at simulated time ``t``."""
        if self.kind == "constant":
            return self.rate_tps
        if self.kind == "ramp":
            fraction = min(max(t / self.ramp_duration_s, 0.0), 1.0)
            return self.base_rate_tps + (self.rate_tps - self.base_rate_tps) * fraction
        return self.base_rate_tps if t < self.step_at_s else self.rate_tps

    def peak_rate(self) -> float:
        """The schedule's maximum rate (the thinning envelope)."""
        return max(self.rate_tps, self.base_rate_tps)


@dataclass(frozen=True)
class FeeModel:
    """Deterministic per-seed fee distribution.

    Fees are drawn from an exponential distribution (most transactions pay
    little, a heavy tail pays a lot — the shape real fee markets show), with
    an optional floor.  All draws come from the ``"traffic-fees"`` stream.
    """

    mean_fee_satoshi: float = 200.0
    min_fee_satoshi: int = 1

    def __post_init__(self) -> None:
        if self.mean_fee_satoshi < 0:
            raise ValueError(f"mean_fee_satoshi cannot be negative, got {self.mean_fee_satoshi}")
        if self.min_fee_satoshi < 0:
            raise ValueError(f"min_fee_satoshi cannot be negative, got {self.min_fee_satoshi}")

    def draw(self, rng: np.random.Generator) -> int:
        """Draw one fee in satoshi."""
        if self.mean_fee_satoshi == 0:
            return self.min_fee_satoshi
        return self.min_fee_satoshi + int(rng.exponential(self.mean_fee_satoshi))


class ConfirmationTracker:
    """Streams tx-generated → buried-``depth``-deep confirmation latency.

    Attached to one observer node's ``block_listeners`` (the same observe-only
    contract as :class:`~repro.analysis.samples.BlockArrivalRecorder`): on
    every accepted block it notes which watched transactions were included,
    and once an inclusion is ``depth`` confirmations deep *and still on the
    best chain* it emits the latency into constant-size P² quantile
    estimators.  A transaction reorganised off the best chain goes back to
    pending, so a later re-inclusion restarts its burial count without losing
    its generation time.

    Memory is O(pending transactions) + O(1) quantile state — no per-sample
    series, which is what lets the load-frontier experiment run multi-hour
    horizons with thousands of blocks.
    """

    def __init__(self, node: BitcoinNode, *, depth: int = 6) -> None:
        if depth < 1:
            raise ValueError(f"confirmation depth must be at least 1, got {depth}")
        self._node = node
        self.depth = depth
        self._created_at: dict[str, float] = {}
        self._inflight: set[str] = set()
        self._inclusions: list[tuple[int, str]] = []  # (height, txid) min-heap
        self.p50 = StreamingQuantile(0.5)
        self.p99 = StreamingQuantile(0.99)
        self.confirmed = 0
        self.latency_sum = 0.0
        self.latency_max = 0.0
        node.block_listeners.append(self._on_block)

    @property
    def pending(self) -> int:
        """Watched transactions not yet buried ``depth`` deep."""
        return len(self._created_at)

    @property
    def mean_latency(self) -> float:
        """Mean confirmation latency in seconds (0.0 before any confirmation)."""
        return self.latency_sum / self.confirmed if self.confirmed else 0.0

    def register(self, txid: str, created_at: float) -> None:
        """Start watching a freshly-generated transaction."""
        self._created_at[txid] = created_at

    def _on_block(self, node_id: int, block, accepted_at: float) -> None:
        for tx in block.transactions:
            if tx.txid in self._created_at and tx.txid not in self._inflight:
                self._inflight.add(tx.txid)
                heapq.heappush(self._inclusions, (block.height, tx.txid))
        chain = self._node.blockchain
        burial_horizon = chain.height - self.depth + 1
        while self._inclusions and self._inclusions[0][0] <= burial_horizon:
            height, txid = heapq.heappop(self._inclusions)
            self._inflight.discard(txid)
            created = self._created_at.get(txid)
            if created is None:
                continue
            if not chain.contains_transaction(txid):
                # Reorganised off the best chain: back to pending; a later
                # inclusion re-enters the heap through the loop above.
                continue
            latency = accepted_at - created
            del self._created_at[txid]
            self.confirmed += 1
            self.latency_sum += latency
            self.latency_max = max(self.latency_max, latency)
            self.p50.add(latency)
            self.p99.add(latency)


class TrafficModel:
    """Open-loop Poisson transaction generation against a load schedule.

    Candidate arrivals are drawn at the profile's peak rate and thinned to
    the instantaneous rate (exact for time-varying schedules); each accepted
    arrival picks a uniformly random funded sender, a distinct receiver and a
    fee from the :class:`FeeModel`, then creates and broadcasts the payment.
    Open-loop means arrivals never wait for the network: when a wallet cannot
    fund a payment (all outputs unconfirmed — the saturated regime) the
    arrival is counted in :attr:`generation_failures` and the schedule keeps
    going.
    """

    def __init__(
        self,
        simulator: Simulator,
        nodes: dict[int, BitcoinNode],
        *,
        profile: TrafficProfile,
        fee_model: Optional[FeeModel] = None,
        payment_satoshi: int = 5_000,
        tracker: Optional[ConfirmationTracker] = None,
    ) -> None:
        if len(nodes) < 2:
            # Each payment needs a receiver distinct from its sender.
            raise ValueError(
                f"the traffic model needs at least two nodes, got {len(nodes)}"
            )
        if payment_satoshi <= 0:
            raise ValueError(f"payment_satoshi must be positive, got {payment_satoshi}")
        self._simulator = simulator
        self._nodes = nodes
        self.profile = profile
        self.fee_model = fee_model if fee_model is not None else FeeModel()
        self.payment_satoshi = int(payment_satoshi)
        self._node_ids = sorted(nodes)
        # Dedicated split streams: creating them cannot perturb draws seen by
        # any other consumer (see the RandomService stream-derivation contract).
        self._arrival_rng = simulator.random.stream("traffic-arrivals")
        self._fee_rng = simulator.random.stream("traffic-fees")
        self.tracker = tracker
        self.txs_generated = 0
        self.generation_failures = 0
        self.fees_offered = 0
        self._running = False

    def start(self) -> None:
        """Begin generating load."""
        if self._running:
            raise RuntimeError("the traffic model is already running")
        self._running = True
        self._simulator.spawn(self._generate_forever(), name="traffic")

    def stop(self) -> None:
        """Stop after the next candidate arrival."""
        self._running = False

    def _generate_forever(self):
        peak = self.profile.peak_rate()
        while self._running:
            gap = float(self._arrival_rng.exponential(1.0 / peak))
            yield Timeout(max(gap, 1e-6))
            if not self._running:
                return
            # Thinning: accept the candidate with probability rate/peak, so
            # the accepted process is Poisson at the instantaneous rate.
            rate = self.profile.rate_at(self._simulator.now)
            if float(self._arrival_rng.random()) * peak > rate:
                continue
            self._emit_one()

    def _emit_one(self) -> None:
        sender_id = self._node_ids[int(self._arrival_rng.integers(len(self._node_ids)))]
        sender = self._nodes[sender_id]
        fee = self.fee_model.draw(self._fee_rng)
        if sender.network is not None and not sender.network.is_online(sender_id):
            self.generation_failures += 1
            return
        receiver_id = sender_id
        while receiver_id == sender_id:
            receiver_id = self._node_ids[int(self._arrival_rng.integers(len(self._node_ids)))]
        receiver = self._nodes[receiver_id]
        try:
            tx = sender.create_transaction(
                [(receiver.keypair.address, self.payment_satoshi)], fee=fee
            )
        except ValueError:
            # Wallet exhausted (all outputs unconfirmed); open-loop load
            # keeps arriving regardless.
            self.generation_failures += 1
            return
        self.txs_generated += 1
        self.fees_offered += fee
        if self.tracker is not None:
            self.tracker.register(tx.txid, self._simulator.now)
