"""The Bitcoin node: wallet, mempool, chain and the relay strategy that moves them.

Every peer in the simulation runs this class.  The node owns *what it knows*
— the blockchain, the mempool, the UTXO view, the address book — while *how
objects travel* (INV announcement, GETDATA scheduling, forwarding) is
delegated to a pluggable :class:`~repro.protocol.relay.RelayStrategy` chosen
by :attr:`NodeConfig.relay_strategy`.  The default ``flood`` strategy follows
Fig. 1 of the paper and the standard Bitcoin relay rules:

1. on creating or fully verifying a transaction, announce it to every
   neighbour with an ``INV`` (never push the full transaction unsolicited);
2. on receiving an ``INV`` for an unknown transaction, reply with ``GETDATA``;
3. on receiving ``GETDATA``, send the full ``TX``;
4. on receiving a ``TX``, verify it against the local ledger (charging the
   verification cost as a delay) and, if valid, go to step 1.

Blocks follow the same INV/GETDATA/BLOCK pattern under ``flood``; the
``compact`` and ``push`` strategies replace the block half of that plane (see
:mod:`repro.protocol.relay`).  The node itself still answers ``GETADDR`` with
a sample of known addresses, responds to ``PING``, and forwards
cluster-control messages (``JOIN``, ``CLUSTER_MEMBERS``) to whatever
neighbour-selection policy is attached to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, TYPE_CHECKING

from repro.protocol.blockchain import Blockchain, ConfirmationIndex
from repro.protocol.block import Block
from repro.protocol.crypto import KeyPair
from repro.protocol.mempool import Mempool
from repro.protocol.messages import (
    AddrMessage,
    ClusterMembersMessage,
    GetAddrMessage,
    InvMessage,
    InventoryType,
    JoinAcceptMessage,
    JoinMessage,
    Message,
    PingMessage,
    PongMessage,
    VerackMessage,
    VersionMessage,
)
from repro.protocol.relay import build_relay_strategy
from repro.protocol.transaction import Transaction
from repro.protocol.utxo import UtxoSet
from repro.protocol.validation import TransactionValidator, ValidationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.geo import GeoPosition
    from repro.protocol.network import P2PNetwork


class ClusterMessageListener(Protocol):
    """Interface a clustering policy implements to receive cluster-control messages."""

    def on_join_request(self, node: "BitcoinNode", sender: int, message: JoinMessage) -> None:
        """Handle a JOIN request arriving at ``node``."""

    def on_join_accept(self, node: "BitcoinNode", sender: int, message: JoinAcceptMessage) -> None:
        """Handle a JOIN_ACCEPT arriving at ``node``."""

    def on_cluster_members(
        self, node: "BitcoinNode", sender: int, message: ClusterMembersMessage
    ) -> None:
        """Handle a CLUSTER_MEMBERS list arriving at ``node``."""


@dataclass
class NodeConfig:
    """Tunable per-node behaviour.

    Attributes:
        max_outbound: outbound connections a node tries to maintain (Bitcoin
            Core's default is 8).
        max_connections: hard cap including inbound connections.
        addr_sample_size: how many addresses to return to a GETADDR.
        relay_transactions: whether the node relays transactions at all
            (miners and ordinary nodes do; a measuring node may not).
        verification_enabled: whether to charge the verification delay before
            relaying (the paper's baseline behaviour; pipelined relay per
            Stathakopoulou'15 can be modelled by disabling it).
        relay_conflicts: whether to relay the *first* transaction observed to
            conflict with a mempool transaction (a "double-spend alert", after
            Bitcoin XT's relay-first-double-spend behaviour).  The conflicting
            transaction is never admitted to the mempool — first-seen still
            wins — but announcing it once lets every node, in particular a
            merchant holding the victim transaction, learn that a conflict
            exists.  Off by default: vanilla Bitcoin (the paper's baseline)
            drops conflicting transactions silently, and relaying them also
            accelerates both race waves, which would perturb first-seen
            shares; the double-spend experiment opts in explicitly.
        resync_on_reconnect: whether each endpoint of a *new* connection
            announces its best-chain tip and mempool inventory to the other
            (the INV half of Bitcoin's initial sync).  This is what lets a
            node that left and rejoined mid-run converge back to the best
            chain and catch up on transactions it missed while offline.  Off
            by default: static-topology experiments never lose state, and the
            extra INV traffic during topology construction would perturb the
            paper-figure baselines; churn scenarios
            (:class:`~repro.workloads.scenarios.ChurnSchedule`) opt in.
        relay_strategy: name of the :class:`~repro.protocol.relay.RelayStrategy`
            the node runs (``"flood"``, ``"compact"``, ``"push"``,
            ``"adaptive"`` or ``"headers"`` — see
            :data:`~repro.protocol.relay.RELAY_NAMES`).  ``"flood"`` is the
            paper's INV/GETDATA baseline and reproduces the pre-strategy
            behaviour byte-for-byte in static scenarios; under churn the
            ``getdata_retry_s`` timeout additionally recovers requests whose
            reply died with a departed peer.
        getdata_retry_s: how long an in-flight GETDATA may stay unanswered
            before a *duplicate* INV for the same hash re-requests it from the
            newly-announcing peer.  Until then duplicate announcements are
            suppressed (the cross-peer request dedup), counted in
            ``NodeStatistics.getdata_saved``.
        max_orphan_blocks: cap on blocks stashed while their parent is still
            missing; the oldest stashed block is evicted first (bounded FIFO),
            so heavy churn cannot grow the orphan pool without limit.
        mempool_max_size: cap on unconfirmed transactions the mempool holds
            (:class:`~repro.protocol.mempool.Mempool` ``max_size``).  A
            transaction rejected *only* because the pool is at capacity is
            forgotten again (``stats.mempool_capacity_drops``) so a later INV
            can re-offer it once the pool drains.  None (the default) leaves
            the pool unbounded, the historical behaviour.
        prune_depth: when set, inventory state about blocks buried at least
            this many confirmations deep — ``known_blocks`` entries, the
            ``known_transactions`` / first-seen / accept-time records of their
            confirmed transactions — is dropped after each best-chain
            extension.  The blockchain itself is never pruned; a late INV for
            a pruned hash is answered from the chain index instead of the
            inventory sets, so behaviour is unchanged.  None (the default)
            keeps every record forever, which is exact but grows without bound
            on long runs at 10k-node scale.
    """

    max_outbound: int = 8
    max_connections: int = 125
    addr_sample_size: int = 23
    relay_transactions: bool = True
    verification_enabled: bool = True
    relay_conflicts: bool = False
    resync_on_reconnect: bool = False
    relay_strategy: str = "flood"
    getdata_retry_s: float = 30.0
    max_orphan_blocks: int = 64
    mempool_max_size: Optional[int] = None
    prune_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.getdata_retry_s <= 0:
            raise ValueError("getdata_retry_s must be positive")
        if self.max_orphan_blocks <= 0:
            raise ValueError("max_orphan_blocks must be positive")
        if self.mempool_max_size is not None and self.mempool_max_size < 1:
            raise ValueError("mempool_max_size must be at least 1 (or None for unbounded)")
        if self.prune_depth is not None and self.prune_depth < 1:
            raise ValueError("prune_depth must be at least 1 (or None to disable)")


@dataclass(slots=True)
class NodeStatistics:
    """Counters a node keeps about its own activity."""

    transactions_created: int = 0
    transactions_accepted: int = 0
    transactions_rejected: int = 0
    transactions_relayed: int = 0
    blocks_accepted: int = 0
    invs_received: int = 0
    getdata_sent: int = 0
    pings_received: int = 0
    duplicate_invs: int = 0
    sessions_ended: int = 0
    reconnect_syncs: int = 0
    #: Duplicate in-flight GETDATA requests suppressed by the cross-peer dedup.
    getdata_saved: int = 0
    #: Timed-out in-flight requests re-issued to a newly-announcing peer.
    getdata_retries: int = 0
    #: Orphan blocks dropped by the bounded pool's FIFO eviction.
    orphans_evicted: int = 0
    #: Compact-relay activity (``relay_strategy="compact"`` only).
    compact_blocks_received: int = 0
    compact_blocks_reconstructed: int = 0
    compact_txs_requested: int = 0
    compact_fallbacks: int = 0
    #: GETBLOCKTXN round-trips that timed out and fell back to a full fetch.
    compact_txn_timeouts: int = 0
    #: Full blocks pushed unsolicited to cluster peers (``"push"`` only).
    blocks_pushed: int = 0
    #: Transactions rejected *only* because the mempool was at capacity; the
    #: txid is deliberately forgotten so a later INV can re-offer it.
    mempool_capacity_drops: int = 0
    #: Pending transactions evicted from the full mempool by a higher-feerate
    #: arrival; the evicted txid is forgotten just like a capacity drop.
    mempool_fee_evictions: int = 0
    #: Pending transactions dropped because a confirmed block spent one of
    #: their inputs (or, after a reorg, left them unspendable).  The txid
    #: stays remembered — the transaction is permanently dead.
    mempool_conflict_evictions: int = 0
    #: Adaptive fan-out width adjustments (``relay_strategy="adaptive"``).
    adaptive_fanout_widened: int = 0
    adaptive_fanout_narrowed: int = 0
    #: Headers-first sync activity (``relay_strategy="headers"``).
    getheaders_sent: int = 0
    headers_received: int = 0
    header_bodies_requested: int = 0
    #: Stale-state pruning sweeps executed (``prune_depth`` set only).
    state_prunes: int = 0
    #: Inventory records (known hashes, first-seen/accept times) pruned.
    pruned_inventory_entries: int = 0


class BitcoinNode:
    """A simulated Bitcoin peer.

    Args:
        node_id: unique integer id.
        position: geographic position (drives link latency).
        network: the message fabric; assigned via :meth:`attach` or by passing
            it here.
        config: behavioural knobs.
        validator: transaction/block validator (shared across nodes is fine —
            it is stateless apart from its cost model).
        keypair: the node's wallet key; generated from the node id if omitted.
        genesis: genesis block shared by the whole network.
        confirmation_index: the network's shared
            :class:`~repro.protocol.blockchain.ConfirmationIndex`, handed to
            the node's blockchain; a private one when omitted.
    """

    def __init__(
        self,
        node_id: int,
        position: "GeoPosition",
        *,
        network: Optional["P2PNetwork"] = None,
        config: Optional[NodeConfig] = None,
        validator: Optional[TransactionValidator] = None,
        keypair: Optional[KeyPair] = None,
        genesis: Optional[Block] = None,
        confirmation_index: Optional[ConfirmationIndex] = None,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.network = network
        #: The simulator's clock, kept from the network the node is attached
        #: to, so reading the time is one attribute hop (None while unattached).
        self._clock = network.simulator.clock if network is not None else None
        self.config = config if config is not None else NodeConfig()
        self.validator = validator if validator is not None else TransactionValidator()
        self.keypair = keypair if keypair is not None else KeyPair.generate(f"node-{node_id}-wallet")
        self.blockchain = Blockchain(genesis, index=confirmation_index)
        self.mempool = Mempool(max_size=self.config.mempool_max_size)
        self.stats = NodeStatistics()

        #: Confirmed UTXO state; kept incrementally in sync with the best chain.
        self.utxo = self.blockchain.utxo_set()
        #: Transaction ids this node has seen (announced, requested or
        #: accepted).  Confirmed transactions it never heard of, such as the
        #: funding coinbases ``fund_nodes`` installs, are not in it;
        #: ``blockchain.contains_transaction`` answers for confirmed ones.
        self.known_transactions: set[str] = set()
        #: Block hashes this node has seen.
        self.known_blocks: set[str] = {self.blockchain.genesis.block_hash}
        #: The relay strategy: owns announcement, GETDATA scheduling and
        #: forwarding, plus the in-flight request state.
        self.relay = build_relay_strategy(self.config.relay_strategy, self)
        #: Peer addresses learned through ADDR gossip and the DNS seed.
        self.address_book: set[int] = set()
        #: Time each accepted transaction was first accepted locally.
        self.transaction_accept_times: dict[str, float] = {}
        #: Time each transaction id was first *heard of* (INV, TX or local
        #: creation) — reception of knowledge, not mempool admission.
        self.transaction_first_seen_times: dict[str, float] = {}
        #: Conflicts observed locally: rejected txid -> (pending txid it
        #: conflicts with, time the conflict was first observed).
        self.observed_conflicts: dict[str, tuple[str, float]] = {}
        #: Full transactions rejected for conflicting, kept so GETDATA for a
        #: relayed double-spend alert can be served.
        self._conflict_store: dict[str, Transaction] = {}
        #: Blocks received before their parent: parent hash -> waiting blocks.
        #: Retried as soon as the parent is accepted, so a node catching up
        #: over a multi-block gap (e.g. after rejoining under churn) converges
        #: instead of dropping every out-of-order block.  Bounded by
        #: ``config.max_orphan_blocks`` with FIFO eviction.
        self._orphan_blocks: dict[str, list[Block]] = {}
        self._orphan_count = 0
        #: Highest best-chain height whose inventory state has been pruned
        #: (``config.prune_depth``); genesis (height 0) is never pruned.
        self._pruned_height = 0

        #: External observers notified when a transaction is accepted locally,
        #: as ``listener(node_id, transaction, accepted_at)``.  This is the
        #: measurement plane's capture point: the measuring node records
        #: Δt_{m,n} through it.  Listeners observe — they must not mutate node
        #: state or send messages, or determinism is forfeit.
        self.transaction_listeners: list[Callable[[int, Transaction, float], None]] = []
        #: External observers notified when a block is accepted locally, as
        #: ``listener(node_id, block, accepted_at)``.  Same contract as
        #: ``transaction_listeners``; the standard consumer is
        #: :class:`repro.analysis.samples.BlockArrivalRecorder`, which turns
        #: acceptance times into the raw block-delay series experiments
        #: persist for ``repro report``.
        self.block_listeners: list[Callable[[int, Block, float], None]] = []
        #: External observers notified when this node sends an INV for a tx.
        self.announcement_listeners: list[Callable[[int, str, float], None]] = []
        #: Clustering policy hook for JOIN / CLUSTER_MEMBERS traffic.
        self.cluster_listener: Optional[ClusterMessageListener] = None

    # -------------------------------------------------------------- plumbing
    def attach(self, network: "P2PNetwork") -> None:
        """Associate the node with a network and register it."""
        self.network = network
        self._clock = network.simulator.clock
        network.register_node(self)

    def _require_network(self) -> "P2PNetwork":
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        return self.network

    @property
    def now(self) -> float:
        """Current simulated time."""
        try:
            return self._clock._now
        except AttributeError:
            raise RuntimeError(f"node {self.node_id} is not attached to a network") from None

    def neighbors(self) -> list[int]:
        """Ids of currently connected peers."""
        return self._require_network().neighbors(self.node_id)

    # -------------------------------------------------------------- adversary
    def install_behavior(self, behavior) -> None:
        """Make this node byzantine: filter every message it sends.

        Delegates to :meth:`~repro.protocol.network.P2PNetwork
        .install_behavior` — the filter sits on the network fabric's single
        send choke point, so it applies under every relay strategy.  See
        :mod:`repro.protocol.adversary` for the behaviour vocabulary.
        """
        self._require_network().install_behavior(self.node_id, behavior)

    @property
    def behavior(self):
        """The installed byzantine behaviour, or None for an honest node."""
        return self._require_network().behavior_of(self.node_id)

    @property
    def is_byzantine(self) -> bool:
        """Whether a byzantine behaviour is installed on this node."""
        return self.behavior is not None

    # ----------------------------------------------------- connection events
    def on_connected(self, peer_id: int) -> None:
        """Called by the network when a connection to ``peer_id`` is established."""
        self.address_book.add(peer_id)
        self.relay.on_peer_connected(peer_id)
        if self.config.resync_on_reconnect:
            self._sync_with_peer(peer_id)

    def on_disconnected(self, peer_id: int) -> None:
        """Called by the network when the connection to ``peer_id`` is torn down."""
        # The address stays in the address book; only the live link is gone.
        self.relay.on_peer_disconnected(peer_id)

    # ------------------------------------------------------ session lifecycle
    def on_offline(self, at: Optional[float] = None) -> None:
        """Called by the network when this node's session ends (churn leave).

        The connections are already gone, and with them every in-flight
        request: the relay strategy forgets its pending GETDATA state so a
        later INV for the same inventory triggers a fresh request after the
        node rejoins, instead of being ignored as already-requested forever.
        """
        self.relay.on_offline()
        self.stats.sessions_ended += 1

    def on_online(self, at: Optional[float] = None) -> None:
        """Called by the network when this node starts a new session.

        Chain, mempool and known-inventory state persist across the offline
        gap (a session ending is a disconnect, not a node restart); catching
        up on what was missed happens per-connection in :meth:`on_connected`
        once the policy re-establishes links.
        """

    def _sync_with_peer(self, peer_id: int) -> None:
        """Catch up chain and mempool inventory over a fresh connection.

        Both endpoints run this (each side's ``on_connected`` fires).  The
        chain half is delegated to the relay strategy: the flood baseline
        announces its tip with an INV (the peer GETDATAs it and unknown
        parents are walked through :meth:`accept_block`'s orphan path), while
        the headers-first strategy instead asks the peer for everything it
        missed with one GETHEADERS round-trip.  The mempool half stays an INV
        of pending txids.  Empty offers are skipped, which also makes this a
        no-op during initial topology construction.
        """
        network = self._require_network()
        announced = self.relay.sync_chain_with_peer(peer_id)
        mempool_txids = tuple(sorted(tx.txid for tx in self.mempool.transactions()))
        if mempool_txids:
            network.send(
                self.node_id,
                peer_id,
                InvMessage(
                    sender=self.node_id,
                    inventory_type=InventoryType.TRANSACTION,
                    hashes=mempool_txids,
                ),
            )
            announced = True
        if announced:
            self.stats.reconnect_syncs += 1

    # --------------------------------------------------------------- wallet
    def spendable_outputs(self) -> list[tuple[str, int, int]]:
        """``(txid, index, value)`` triples this node's wallet can spend.

        Outputs already spent by this node's own pending (mempool)
        transactions are excluded, so the wallet never double-spends itself.
        """
        return [
            (entry.txid, entry.index, entry.value)
            for entry in self.utxo.spendable_by(self.keypair.address)
            if not self.mempool.spends(entry.outpoint)
        ]

    def balance(self) -> int:
        """Confirmed wallet balance in satoshi."""
        return self.utxo.balance(self.keypair.address)

    def create_transaction(
        self,
        destinations: list[tuple[str, int]],
        *,
        broadcast: bool = True,
        fee: int = 0,
    ) -> Transaction:
        """Create, sign, accept and (optionally) announce a payment.

        Args:
            destinations: ``(address, value)`` pairs to pay.
            broadcast: whether to announce the transaction to the neighbours.
            fee: miner fee in satoshi (inputs minus outputs); ``fee=0``
                produces the historical byte-identical transaction.

        Raises:
            ValueError: if the wallet cannot cover the requested amount plus fee.
        """
        if fee < 0:
            raise ValueError(f"fee cannot be negative, got {fee}")
        total_needed = sum(value for _, value in destinations) + fee
        selected: list[tuple[str, int, int]] = []
        gathered = 0
        for candidate in self.spendable_outputs():
            selected.append(candidate)
            gathered += candidate[2]
            if gathered >= total_needed:
                break
        if gathered < total_needed:
            raise ValueError(
                f"node {self.node_id} cannot fund {total_needed} satoshi (balance {gathered})"
            )
        tx = Transaction.create_signed(
            self.keypair, selected, destinations, created_at=self.now, fee=fee
        )
        self.stats.transactions_created += 1
        self.accept_transaction(tx, origin_peer=None)
        if broadcast:
            self.announce_transaction(tx.txid)
        return tx

    # ------------------------------------------------------------ tx intake
    def accept_transaction(self, tx: Transaction, *, origin_peer: Optional[int]) -> ValidationResult:
        """Validate a transaction and admit it to the mempool if valid.

        Returns the validation result; listeners fire only on acceptance.
        """
        self.known_transactions.add(tx.txid)
        self.transaction_first_seen_times.setdefault(tx.txid, self.now)
        self.relay.note_transaction_received(tx.txid)
        effective_utxo = self._effective_utxo_for(tx)
        # Every node at one tip holds a copy of the same ledger, sharing its
        # memo until the node's next block: the first of them to validate
        # this transaction object leaves the verdict and fee to the rest.
        verdict = effective_utxo.recall(tx, self.validator)
        if verdict is None:
            result = self.validator.validate_transaction(tx, effective_utxo)
            fee = self._transaction_fee(tx, effective_utxo) if result.valid else 0
            effective_utxo.remember(tx, self.validator, (result, fee))
        else:
            result, fee = verdict
        if not result.valid:
            self.stats.transactions_rejected += 1
            return result
        if self.blockchain.contains_transaction(tx.txid):
            return result
        if not self.mempool.add(tx, arrival_time=self.now, fee=fee):
            # Conflict with a first-seen transaction, duplicate, or full pool.
            if tx.txid not in self.mempool:
                conflicting = self.mempool.conflicting_txid(tx)
                if conflicting is not None:
                    self._observe_conflict(tx, conflicting, origin_peer=origin_peer)
                elif self.mempool.is_full():
                    # Rejected purely for capacity — no verdict on the tx
                    # itself.  Keeping the txid in the known-set would make
                    # the drop permanent: every later INV would be suppressed
                    # as a duplicate and the tx could never be re-requested
                    # once the pool drains.
                    self.known_transactions.discard(tx.txid)
                    self.stats.mempool_capacity_drops += 1
            self.stats.transactions_rejected += 1
            return ValidationResult(False, None, result.verification_cost_s)
        for evicted in self.mempool.last_evicted:
            # Fee-priority eviction made room: forget the evicted txid for the
            # same reason a capacity drop forgets it — a later INV must be
            # able to re-offer the transaction once fee pressure eases.
            self.known_transactions.discard(evicted.txid)
            self.stats.mempool_fee_evictions += 1
        self.stats.transactions_accepted += 1
        self.transaction_accept_times[tx.txid] = self.now
        for listener in self.transaction_listeners:
            listener(self.node_id, tx, self.now)
        return result

    def _effective_utxo_for(self, tx: Transaction) -> UtxoSet:
        """Ledger view used for validating an incoming transaction.

        Unconfirmed parent outputs in the mempool are visible (Bitcoin relays
        chains of unconfirmed transactions), so the confirmed UTXO set is
        extended with mempool outputs when needed.
        """
        needs_mempool_parents = any(
            tx_input.outpoint not in self.utxo and tx_input.prev_txid in self.mempool
            for tx_input in tx.inputs
        )
        if not needs_mempool_parents:
            return self.utxo
        extended = self.utxo.copy()
        for pending in self.mempool.transactions():
            if extended.can_apply(pending):
                extended.apply_transaction(pending)
        return extended

    def _transaction_fee(self, tx: Transaction, utxo: UtxoSet) -> int:
        """Implicit miner fee of a validated transaction (inputs - outputs).

        ``utxo`` must be the view the transaction was validated against, so
        every input resolves; coinbases mint rather than spend and carry no
        fee.
        """
        if tx.is_coinbase:
            return 0
        total_in = 0
        for tx_input in tx.inputs:
            entry = utxo.get(tx_input.outpoint)
            if entry is None:
                return 0
            total_in += entry.value
        return max(total_in - tx.total_output_value, 0)

    # ------------------------------------------------------------- conflicts
    def _observe_conflict(
        self, tx: Transaction, conflicting_txid: str, *, origin_peer: Optional[int]
    ) -> None:
        """Record a double-spend conflict and relay the alert once.

        ``tx`` was rejected by the mempool because ``conflicting_txid`` (the
        first-seen transaction) spends one of its inputs.  The node remembers
        when it first learnt of the conflict — the quantity the double-spend
        experiment measures as the merchant's detection time — and, when
        configured, announces the conflicting transaction to its neighbours so
        knowledge of the conflict floods past the first-seen frontier.
        """
        if tx.txid in self.observed_conflicts:
            return
        self.observed_conflicts[tx.txid] = (conflicting_txid, self.now)
        if self.config.relay_conflicts and self.config.relay_transactions:
            self._conflict_store[tx.txid] = tx
            exclude = {origin_peer} if origin_peer is not None else None
            self.announce_transaction(tx.txid, exclude=exclude)

    def first_conflict_time(self, txid: str) -> Optional[float]:
        """When this node first observed ``txid`` to conflict (None if never)."""
        observed = self.observed_conflicts.get(txid)
        return observed[1] if observed is not None else None

    def announce_transaction(self, txid: str, *, exclude: Optional[set[int]] = None) -> int:
        """Announce ``txid`` to the neighbours, as the relay strategy sees fit."""
        return self.relay.announce_transaction(txid, exclude=exclude)

    def announce_block(self, block_hash: str, *, exclude: Optional[set[int]] = None) -> int:
        """Announce a block to the neighbours, as the relay strategy sees fit."""
        return self.relay.announce_block(block_hash, exclude=exclude)

    # --------------------------------------------------------- block intake
    def accept_block(self, block: Block, *, origin_peer: Optional[int]) -> bool:
        """Validate and store a block; relays it onwards when accepted.

        The first node of the network to validate this block object registers
        the ledger as of it in the shared
        :class:`~repro.protocol.blockchain.ConfirmationIndex`.  Every other
        node that receives the same object takes a copy of that ledger
        instead of validating and applying the block again: validity and
        ledger depend only on the block and on its parent's ledger, which is
        the same on every node.  A rebuilt object with the same hash (compact
        relay, or a tampered witness) is validated on its own.
        """
        self.known_blocks.add(block.block_hash)
        self.relay.note_block_received(block.block_hash)
        if self.blockchain.has_block(block.block_hash):
            return False
        if not self.blockchain.has_block(block.previous_hash):
            # Parent unknown: stash the block and request the parent (through
            # the pending-request dedup — an orphan burst on the same branch
            # must not re-send the GETDATA or refresh its retry clock), so
            # the whole branch is replayed once the gap fills in.
            self._stash_orphan(block)
            if origin_peer is not None:
                self.relay.request_parent(origin_peer, block.previous_hash)
            return False
        parent = self.blockchain.get_block(block.previous_hash)
        extends_tip = parent is self.blockchain.tip
        index = self.blockchain.index
        # The first node to validate this block object registered the ledger
        # as of it, so the block is valid here too: the node neither
        # validates nor applies it.
        ledger = index.ledger(block)
        if ledger is None:
            if extends_tip:
                # ``self.utxo`` *is* the ledger as of the tip (the invariant
                # this method maintains): validate and apply in one pass (an
                # invalid block is undone).
                ledger = self.utxo
            else:
                # A side branch: a copy of the parent's registered ledger, or
                # a replay when the index no longer holds it.
                ledger = index.ledger(parent)
                ledger = (
                    ledger.copy()
                    if ledger is not None
                    else self.blockchain.utxo_as_of(parent.block_hash)
                )
            if not self.validator.apply_block(block, parent, ledger).valid:
                return False
            index.register_ledger(block, ledger)
        tip_changed = self.blockchain.add_block(block, observed_at=self.now)
        self.stats.blocks_accepted += 1
        if tip_changed:
            # The block is the new tip, on the tip it extended or by a reorg.
            # The node writes only its own copy of the block's ledger.
            self.utxo = ledger.copy()
            self.mempool.remove_confirmed(block.txids)
            # A confirmed spend kills any pending double-spend of the same
            # output; left in the pool it would be packed into templates (and
            # invalidate every block built from them) forever.  The dead txid
            # stays in known_transactions — unlike a capacity drop, the
            # transaction can never become valid again, so re-offering it is
            # pointless.
            if extends_tip:
                spent = {
                    tx_input.outpoint
                    for tx in block.transactions
                    if not tx.is_coinbase
                    for tx_input in tx.inputs
                }
                dead = self.mempool.remove_conflicts(spent)
            else:
                dead = self.mempool.remove_unspendable(self.utxo)
            self.stats.mempool_conflict_evictions += len(dead)
        now = self.now
        for listener in self.block_listeners:
            listener(self.node_id, block, now)
        exclude = {origin_peer} if origin_peer is not None else None
        self.announce_block(block.block_hash, exclude=exclude)
        # Replay stashed children with no origin: the peer that sent an orphan
        # already has it, so a duplicate INV there is harmless, whereas
        # excluding the *parent's* sender would hide the child from the one
        # neighbour that may still be missing it.
        waiting = self._orphan_blocks.pop(block.block_hash, [])
        self._orphan_count -= len(waiting)
        for orphan in waiting:
            self.accept_block(orphan, origin_peer=None)
        if tip_changed and self.config.prune_depth is not None:
            self._prune_stale_state()
        return True

    def _prune_stale_state(self) -> None:
        """Drop inventory records about blocks buried ``prune_depth`` deep.

        Once a block has ``prune_depth`` confirmations its hash — and the
        first-seen/accept bookkeeping of its transactions — no longer needs a
        per-node inventory entry: any late INV is answered from the chain
        index (see ``RelayStrategy._classify``), which the node keeps anyway.
        Pruning is driven by best-chain extension, never by timers, so a run
        still drains to a natural fixpoint and ``workers=N`` determinism is
        untouched.  Each sweep covers only the heights newly buried since the
        last one, so the cost per accepted block is O(1) amortised.
        """
        depth = self.config.prune_depth
        assert depth is not None
        horizon = self.blockchain.height - depth
        if horizon <= self._pruned_height:
            return
        removed = 0
        chain = self.blockchain.best_chain()
        # Slice starts at 1 at the earliest, so genesis (height 0) survives.
        for block in chain[self._pruned_height + 1 : horizon + 1]:
            if block.block_hash in self.known_blocks:
                self.known_blocks.remove(block.block_hash)
                removed += 1
            for txid in block.txids:
                if txid in self.known_transactions:
                    self.known_transactions.remove(txid)
                    removed += 1
                if self.transaction_first_seen_times.pop(txid, None) is not None:
                    removed += 1
                if self.transaction_accept_times.pop(txid, None) is not None:
                    removed += 1
        self._pruned_height = horizon
        self.stats.state_prunes += 1
        self.stats.pruned_inventory_entries += removed

    def _stash_orphan(self, block: Block) -> None:
        """Stash a parent-less block, evicting the oldest beyond the cap.

        The pool is bounded by ``config.max_orphan_blocks``: without a cap a
        node kept offline through heavy churn would accumulate every block it
        cannot yet connect, a slow memory leak.  Eviction is FIFO — the
        longest-waiting block is the least likely to ever see its parent.
        """
        waiting = self._orphan_blocks.setdefault(block.previous_hash, [])
        if any(b.block_hash == block.block_hash for b in waiting):
            return
        waiting.append(block)
        self._orphan_count += 1
        while self._orphan_count > self.config.max_orphan_blocks:
            oldest_parent = next(iter(self._orphan_blocks))
            queue = self._orphan_blocks[oldest_parent]
            evicted = queue.pop(0)
            if not queue:
                del self._orphan_blocks[oldest_parent]
            self._orphan_count -= 1
            self.stats.orphans_evicted += 1
            # Forget the evicted block entirely: leaving it in known_blocks
            # would suppress every future re-announcement as a duplicate,
            # making the eviction permanent instead of a deferral.
            self.known_blocks.discard(evicted.block_hash)

    @property
    def orphan_block_count(self) -> int:
        """Blocks currently stashed while waiting for a missing parent."""
        return self._orphan_count

    # -------------------------------------------------------- message intake
    def handle_message(self, sender: int, message: Message) -> None:
        """Entry point for every delivered protocol message.

        Relay-plane messages (INV, GETDATA, TX, BLOCK and the compact-block
        trio) are delegated to the node's :class:`~repro.protocol.relay.
        RelayStrategy`; the control plane stays here.
        """
        if self.relay.handle_message(sender, message):
            return
        if isinstance(message, PingMessage):
            self.stats.pings_received += 1
            self._require_network().send(
                self.node_id, sender, PongMessage(sender=self.node_id, nonce=message.nonce)
            )
        elif isinstance(message, PongMessage):
            pass  # RTT bookkeeping is done by the policy that sent the ping.
        elif isinstance(message, GetAddrMessage):
            self._handle_getaddr(sender)
        elif isinstance(message, AddrMessage):
            self.address_book.update(a for a in message.addresses if a != self.node_id)
        elif isinstance(message, JoinMessage):
            if self.cluster_listener is not None:
                self.cluster_listener.on_join_request(self, sender, message)
        elif isinstance(message, JoinAcceptMessage):
            if self.cluster_listener is not None:
                self.cluster_listener.on_join_accept(self, sender, message)
        elif isinstance(message, ClusterMembersMessage):
            if self.cluster_listener is not None:
                self.cluster_listener.on_cluster_members(self, sender, message)
        elif isinstance(message, (VersionMessage, VerackMessage)):
            pass  # Handshake cost is charged by the network's connect().
        else:
            raise TypeError(f"node {self.node_id} received unsupported message {message!r}")

    def find_confirmed_transaction(self, txid: str) -> Optional[Transaction]:
        """Look a transaction up on the best chain (None if not confirmed)."""
        block = self.blockchain.confirming_block(txid)
        if block is None:
            return None
        return next(tx for tx in block.transactions if tx.txid == txid)

    # ------------------------------------------------------------------ addr
    def _handle_getaddr(self, sender: int) -> None:
        known = [a for a in self.address_book if a != sender]
        sample = tuple(sorted(known)[: self.config.addr_sample_size])
        self._require_network().send(
            self.node_id, sender, AddrMessage(sender=self.node_id, addresses=sample)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitcoinNode(id={self.node_id}, region={self.position.region!r}, "
            f"peers={len(self.neighbors()) if self.network else 0})"
        )
