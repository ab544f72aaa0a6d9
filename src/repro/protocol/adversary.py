"""The adversary plane: byzantine relay behaviours and selfish mining.

The paper's future work (Section V.C) asks how proximity clustering changes
the attack surface; this module supplies the attackers.  Two mechanisms:

**Byzantine relay behaviours** — a :class:`ByzantineBehavior` is an outbound
message filter installed on the network fabric
(:meth:`~repro.protocol.network.P2PNetwork.install_behavior`).  Every message
a node sends — through ``send``, ``broadcast`` or ``multicast``, so under
every :class:`~repro.protocol.relay.RelayStrategy` — is offered to its
behavior, which forwards it, drops it silently, or injects extra delay.  The
drop rules key on :data:`~repro.protocol.relay.RELAY_COMMANDS` (the
give-inventory vocabulary), so a byzantine node keeps *requesting* objects
(it looks like a normal, if quiet, peer) while never *giving* any — the
``create_bad_node`` accept-and-never-relay peer of the related simulator.

**Selfish mining** — :class:`SelfishMiner` implements Eyal–Sirer-style block
withholding on top of the ordinary mining and chain machinery.  The
attacker's own :class:`~repro.protocol.blockchain.Blockchain` *is* the
private chain: blocks it mines are accepted locally but their announcements
are suppressed by a withholding filter, and the release policy reacts to
honest blocks (observed through the attacker node's ``block_listeners``)
with the classic state machine — publish-and-race on a one-block lead,
publish everything on a two-block lead, feed the oldest withheld block on a
longer lead.  Races resolve through the simulator's ordinary first-seen
tie-breaking, so the attacker's effective γ emerges from propagation rather
than being assumed.

Determinism contract
--------------------

Behaviours that need randomness draw it from the named stream
``"adversary-behavior"`` (and adversary *selection* draws from
``"adversary-selection"`` — see
:func:`repro.workloads.scenarios.install_attack`); with no behaviours
installed the network fabric takes zero extra draws, so adversary-off runs
are byte-identical to builds that predate this module (pinned by the fig3
golden-fingerprint regression).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, TYPE_CHECKING

from repro.protocol.messages import (
    BlockMessage,
    BlockTxnMessage,
    CmpctBlockMessage,
    GetBlockTxnMessage,
    HeadersMessage,
    InvMessage,
    InventoryType,
    Message,
)
from repro.protocol.relay import RELAY_COMMANDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    import numpy as np

    from repro.protocol.block import Block
    from repro.protocol.mining import MiningProcess
    from repro.protocol.network import P2PNetwork
    from repro.protocol.node import BitcoinNode
    from repro.sim.engine import Simulator

#: Byzantine behaviour kinds selectable by name.
BEHAVIOR_KINDS = ("silent", "selective", "delay")

#: Read as a module global: an enum member lookup costs about 0.15 µs more,
#: on every message the withholding filter sees.
_BLOCK_INVENTORY = InventoryType.BLOCK


@dataclass(frozen=True)
class SendDecision:
    """What a behaviour decided about one outbound message.

    Attributes:
        drop: suppress the message entirely (no traffic accounting, no
            delivery — the receiver never learns it existed).
        extra_delay_s: additional seconds added to the link-model delay when
            the message is forwarded.
    """

    drop: bool = False
    extra_delay_s: float = 0.0


#: The common decisions, shared so the hot path allocates nothing.
FORWARD = SendDecision()
DROP = SendDecision(drop=True)


def referenced_block_hashes(message: Message) -> tuple[str, ...]:
    """Block hashes an outbound message would reveal to its receiver.

    The selfish miner's withholding filter needs one answer for every relay
    strategy: *which blocks does this message tell the peer about?*  Covers
    the announce plane (block INVs, compact-block and headers announcements)
    and the payload plane (BLOCK, BLOCKTXN and GETBLOCKTXN, whose very hash
    field leaks the block's existence).  Messages that reference no block
    return an empty tuple.
    """
    if isinstance(message, InvMessage):
        if message.inventory_type is _BLOCK_INVENTORY:
            return message.hashes
        return ()
    if isinstance(message, BlockMessage):
        return (message.block.block_hash,) if message.block is not None else ()
    if isinstance(message, CmpctBlockMessage):
        return (message.block_hash,) if message.header is not None else ()
    if isinstance(message, (GetBlockTxnMessage, BlockTxnMessage)):
        return (message.block_hash,) if message.block_hash else ()
    if isinstance(message, HeadersMessage):
        return tuple(header.block_hash for header in message.headers)
    return ()


class ByzantineBehavior:
    """Base class: an outbound message filter attached to one node.

    :meth:`filter_send` is consulted by the send loop
    :meth:`~repro.protocol.network.P2PNetwork._fanout` for every message
    the node sends.  Implementations must be deterministic given the
    simulation's named RNG streams — any randomness comes from a stream
    passed in at construction, never from global state.
    """

    #: Registry key; concrete subclasses override.
    kind = "base"

    def filter_send(
        self, receiver_id: int, message: Message, now: float
    ) -> SendDecision:
        """Decide the fate of one outbound message."""
        raise NotImplementedError


class SilentByzantine(ByzantineBehavior):
    """Accept-and-never-relay: drops every outbound relay command.

    The node keeps requesting inventory (GETDATA/GETHEADERS/GETBLOCKTXN pass
    through), so it stays a plausible peer and keeps soaking up its
    neighbours' announcements — it just never gives anything back.  Every
    connection to it is a dead relay link.
    """

    kind = "silent"

    def filter_send(
        self, receiver_id: int, message: Message, now: float
    ) -> SendDecision:
        if message.command in RELAY_COMMANDS:
            return DROP
        return FORWARD


class SelectiveByzantine(ByzantineBehavior):
    """Relay normally — except toward a chosen set of target peers.

    Models the stealthier attacker: toward everyone else it behaves
    perfectly (so neighbour-scoring relay strategies keep trusting it), but
    a target (an eclipse victim, the far side of a cluster boundary) never
    receives inventory from it.

    Args:
        targets: node ids that are starved of relay traffic.
    """

    kind = "selective"

    def __init__(self, targets: Iterable[int]) -> None:
        self.targets = frozenset(targets)

    def filter_send(
        self, receiver_id: int, message: Message, now: float
    ) -> SendDecision:
        if receiver_id in self.targets and message.command in RELAY_COMMANDS:
            return DROP
        return FORWARD


class DelayByzantine(ByzantineBehavior):
    """Forward relay traffic, but late.

    Every outbound relay command is held back by ``base_delay_s`` plus a
    uniform draw from ``[0, jitter_s)`` on the behaviour's own stream — a
    node that is not provably malicious (everything arrives eventually) but
    degrades every propagation path through it.

    Args:
        base_delay_s: fixed extra delay on every relay message.
        jitter_s: width of the additional uniform delay (0 disables the
            draw entirely, keeping the behaviour RNG-free).
        rng: the ``"adversary-behavior"`` named stream; required when
            ``jitter_s`` is positive.
    """

    kind = "delay"

    def __init__(
        self,
        base_delay_s: float,
        *,
        jitter_s: float = 0.0,
        rng: Optional["np.random.Generator"] = None,
    ) -> None:
        if base_delay_s < 0:
            raise ValueError(f"base_delay_s cannot be negative, got {base_delay_s}")
        if jitter_s < 0:
            raise ValueError(f"jitter_s cannot be negative, got {jitter_s}")
        if jitter_s > 0 and rng is None:
            raise ValueError("a jittered DelayByzantine needs an rng stream")
        self.base_delay_s = float(base_delay_s)
        self.jitter_s = float(jitter_s)
        self._rng = rng

    def filter_send(
        self, receiver_id: int, message: Message, now: float
    ) -> SendDecision:
        if message.command not in RELAY_COMMANDS:
            return FORWARD
        extra = self.base_delay_s
        if self.jitter_s > 0:
            assert self._rng is not None
            extra += float(self._rng.uniform(0.0, self.jitter_s))
        return SendDecision(extra_delay_s=extra)


class WithholdingBehavior(ByzantineBehavior):
    """Suppress any outbound message that reveals a withheld block.

    Installed on the selfish miner's node; the withheld-hash set is owned by
    the :class:`SelfishMiner` release policy.  All other traffic — honest
    transaction relay, announcements of *published* blocks — passes through,
    so the attacker stays a fully participating peer.
    """

    kind = "withhold"

    def __init__(self, withheld: set[str]) -> None:
        self.withheld = withheld
        self.suppressed = 0

    def filter_send(
        self, receiver_id: int, message: Message, now: float
    ) -> SendDecision:
        if self.withheld and any(
            block_hash in self.withheld
            for block_hash in referenced_block_hashes(message)
        ):
            self.suppressed += 1
            return DROP
        return FORWARD


class SelfishMiner:
    """Eyal–Sirer block withholding wired onto one mining node.

    Construction installs two hooks: the mining process's ``on_block_found``
    pre-acceptance callback (so an attacker-won block is registered as
    withheld *before* ``accept_block`` announces it — the announcement then
    dies in the withholding filter) and a ``block_listeners`` observer on the
    attacker node that drives the release policy whenever an honest block is
    accepted.  Listeners must not mutate node state, so releases are
    scheduled at zero delay on the event engine instead of being sent inline.

    Release policy, on each honest block (``prev_lead`` = private-chain lead
    before the honest block landed):

    * ``prev_lead == 0`` — nothing withheld; the public chain just advanced.
    * ``prev_lead == 1`` — publish the private block and race it against the
      honest one (first-seen tie-breaking decides, per node).
    * ``prev_lead == 2`` — publish the entire private chain; the attacker's
      two blocks out-run the honest one decisively.
    * ``prev_lead > 2`` — release the oldest withheld block (match the
      honest chain's progress, keeping the rest of the lead private).

    Args:
        simulator: the event engine (used to schedule releases).
        network: the message fabric the attacker's node is attached to.
        attacker: the mining node that plays selfishly.
        mining: the mining process producing blocks for the whole network.
    """

    def __init__(
        self,
        simulator: "Simulator",
        network: "P2PNetwork",
        attacker: "BitcoinNode",
        mining: "MiningProcess",
    ) -> None:
        if mining.on_block_found is not None:
            raise ValueError("the mining process already has an on_block_found hook")
        self.simulator = simulator
        self.network = network
        self.attacker = attacker
        self._withheld: set[str] = set()
        #: Withheld blocks in mining order (the private chain's unpublished tail).
        self._private: list["Block"] = []
        self._public_height = attacker.blockchain.height
        self.behavior = WithholdingBehavior(self._withheld)
        self.blocks_withheld = 0
        self.blocks_released = 0
        self.races_started = 0
        mining.on_block_found = self._on_block_found
        network.install_behavior(attacker.node_id, self.behavior)
        attacker.block_listeners.append(self._on_block_accepted)

    @property
    def lead(self) -> int:
        """Current private-chain lead (withheld blocks not yet released)."""
        return len(self._private)

    @property
    def withheld_hashes(self) -> frozenset[str]:
        """Hashes currently being withheld (for assertions and reports)."""
        return frozenset(self._withheld)

    # ------------------------------------------------------------ mining hook
    def _on_block_found(self, block: "Block", miner_id: int) -> None:
        """Pre-acceptance mining hook: withhold the attacker's own blocks."""
        if miner_id != self.attacker.node_id:
            return
        self._withheld.add(block.block_hash)
        self._private.append(block)
        self.blocks_withheld += 1

    # ------------------------------------------------------- release policy
    def _on_block_accepted(self, node_id: int, block: "Block", now: float) -> None:
        """Observer hook on the attacker node: react to honest blocks."""
        if block.header.miner_id == self.attacker.node_id:
            return
        prev_lead = len(self._private)
        if prev_lead == 0:
            self._public_height = max(self._public_height, self._height_of(block))
            return
        if prev_lead == 1:
            self.races_started += 1
            self._schedule_release(count=1)
        elif prev_lead == 2:
            self._schedule_release(count=2)
        else:
            self._schedule_release(count=1)

    def _height_of(self, block: "Block") -> int:
        """Height of an accepted block on the attacker's chain index."""
        chain = self.attacker.blockchain
        if chain.on_best_chain(block):
            return block.height
        # Not on the best chain (a losing fork): approximate with the tip.
        return chain.height

    def _schedule_release(self, *, count: int) -> None:
        """Release ``count`` oldest withheld blocks at zero simulated delay.

        The listener contract forbids sending from inside ``accept_block``;
        a zero-delay event runs after the current delivery completes, which
        is also when a real miner's release broadcast would leave the box.
        """
        to_release = self._private[:count]
        del self._private[:count]
        for block in to_release:
            self.simulator.schedule(
                0.0,
                lambda b=block: self._release(b),
                label="selfish-release",
            )

    def _release(self, block: "Block") -> None:
        self._withheld.discard(block.block_hash)
        self.blocks_released += 1
        self._public_height = max(self._public_height, self._height_of(block))
        self.attacker.announce_block(block.block_hash)

    def release_all(self) -> int:
        """Publish every withheld block (end-of-campaign flush).

        Returns the number of blocks released.  Called by experiments before
        measuring revenue, so the attacker's final private lead competes on
        the public chain like a real attacker cashing out.
        """
        count = len(self._private)
        self._schedule_release(count=count)
        return count

    # ------------------------------------------------------------- measures
    def revenue_share(self, reference: "BitcoinNode") -> float:
        """The attacker's share of mined blocks on ``reference``'s best chain.

        Only blocks with a real miner (``miner_id >= 0``) participate —
        genesis and the funding block belong to nobody.  Returns NaN when the
        reference chain holds no mined blocks at all.
        """
        mined = [
            block
            for block in reference.blockchain.best_chain()
            if block.header.miner_id >= 0
        ]
        if not mined:
            return float("nan")
        attacker_blocks = sum(
            1 for block in mined if block.header.miner_id == self.attacker.node_id
        )
        return attacker_blocks / len(mined)
