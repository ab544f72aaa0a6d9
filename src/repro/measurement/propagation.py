"""Records of individual propagation-measurement runs.

One :class:`PropagationRun` corresponds to one repetition of the paper's
Fig. 2 setup: the measuring node *m* sends a transaction at time ``T_m`` and
each of its connected nodes *n* receives it at time ``T_n``; the quantities of
interest are the differences Δt_{m,n} = T_n − T_m (Eq. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.measurement.stats import DelayDistribution


@dataclass(frozen=True)
class ReceptionRecord:
    """Reception of the measured transaction by one connected node."""

    node_id: int
    received_at: float
    delta_t_s: float
    rank: int

    def __post_init__(self) -> None:
        if not 0 <= self.delta_t_s < math.inf:
            raise ValueError(f"delta_t must be finite and non-negative, got {self.delta_t_s}")
        # record_reception clamps Δt at 0, which would turn a NaN time into 0.
        if not math.isfinite(self.received_at):
            raise ValueError(f"received_at must be finite, got {self.received_at}")
        if self.rank < 1:
            raise ValueError(f"rank starts at 1, got {self.rank}")


@dataclass
class PropagationRun:
    """The outcome of one measuring-node repetition.

    Attributes:
        run_index: repetition number within the campaign.
        txid: id of the measured transaction.
        sent_at: ``T_m``, when the measuring node pushed the transaction to its
            single chosen neighbour.
        first_recipient: the neighbour the transaction was pushed to.
        connected_nodes: ids of all the measuring node's connections at send time.
        receptions: per-node reception records, filled in as INVs come back.
        timed_out_nodes: connections that never received the transaction within
            the run horizon (loss of connection; the paper notes such errors
            are expected and simply averages over many runs).
        long_link_fallback: the measured connections are long links, because
            the measuring node had no proximity connection left (see
            :class:`~repro.measurement.measuring_node.MeasuringNode`).
    """

    run_index: int
    txid: str
    sent_at: float
    first_recipient: int
    connected_nodes: tuple[int, ...]
    receptions: list[ReceptionRecord] = field(default_factory=list)
    timed_out_nodes: tuple[int, ...] = ()
    long_link_fallback: bool = False

    # ---------------------------------------------------------------- intake
    def record_reception(self, node_id: int, received_at: float) -> Optional[ReceptionRecord]:
        """Record that ``node_id`` received the transaction at ``received_at``.

        Only the first reception per node is kept; nodes that are not among
        the measuring node's connections are ignored.
        """
        if node_id not in self.connected_nodes:
            return None
        if any(r.node_id == node_id for r in self.receptions):
            return None
        record = ReceptionRecord(
            node_id=node_id,
            received_at=received_at,
            delta_t_s=max(0.0, received_at - self.sent_at),
            rank=len(self.receptions) + 1,
        )
        self.receptions.append(record)
        return record

    # --------------------------------------------------------------- queries
    @property
    def complete(self) -> bool:
        """Whether every connected node has received the transaction."""
        return len(self.receptions) >= len(self.connected_nodes)

    @property
    def coverage(self) -> float:
        """Fraction of connected nodes that received the transaction."""
        if not self.connected_nodes:
            return 0.0
        return len(self.receptions) / len(self.connected_nodes)

    def delays(self) -> list[float]:
        """All Δt_{m,n} values of this run, in reception order."""
        return [r.delta_t_s for r in self.receptions]

    def delay_of(self, node_id: int) -> Optional[float]:
        """Δt for a specific connected node, or None if it never received."""
        for record in self.receptions:
            if record.node_id == node_id:
                return record.delta_t_s
        return None

    def last_delay(self) -> Optional[float]:
        """Δt of the last connection to receive (the run's total duration)."""
        if not self.receptions:
            return None
        return max(r.delta_t_s for r in self.receptions)

    def to_distribution(self) -> DelayDistribution:
        """The run's delays as a :class:`DelayDistribution`."""
        return DelayDistribution(self.delays())
