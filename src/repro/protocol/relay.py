"""Pluggable relay strategies: how a node announces, requests and forwards.

The Fig. 1 INV/GETDATA flooding used to be hardcoded inside
:class:`~repro.protocol.node.BitcoinNode`; this module extracts the whole
message plane behind one interface so the *relay protocol* becomes an
experimental axis, orthogonal to the neighbour-selection policy the paper
studies.  A strategy owns

* inventory announcement (``announce_transaction`` / ``announce_block``),
* GETDATA scheduling with cross-peer de-duplication and timeout-based retry,
* transaction/block forwarding after local acceptance, and
* the per-node in-flight request state (dropped when the session ends).

Five concrete strategies ship:

``flood`` (:class:`FloodRelay`)
    The legacy behaviour: INV to every neighbour, GETDATA on first
    announcement, full TX/BLOCK on request.  Byte-identical to the
    pre-refactor node in static scenarios (pinned by golden-fingerprint
    equivalence tests); under churn the timeout-based GETDATA retry is a
    deliberate improvement — a request whose reply died with a departed peer
    used to suppress duplicate announcements forever.

``compact`` (:class:`CompactBlockRelay`)
    BIP 152-style compact blocks: accepted blocks are pushed as a header plus
    short transaction ids (:class:`~repro.protocol.messages.CmpctBlockMessage`);
    receivers reconstruct from their mempool and fetch only the transactions
    they miss (``GETBLOCKTXN``/``BLOCKTXN``), falling back to a full GETDATA
    when reconstruction cannot complete.  Transaction relay stays INV-based.

``push`` (:class:`PushRelay`)
    Bitcoin-XT-style unsolicited push: accepted blocks are sent in full to
    cluster peers (no INV/GETDATA round-trip on intra-cluster links); links
    outside the cluster fall back to INV announcement.  Under the vanilla
    Bitcoin policy, which builds no cluster links, this degenerates to flood.

``adaptive`` (:class:`AdaptiveRelay`)
    Neighbour-scored fan-out: every neighbour is scored by how useful it has
    been (objects it delivered first, announcements that were news, a
    response-latency EWMA) and announcements go to the top-N scored peers
    plus a random extra instead of everyone.  The width N adapts — narrowed
    when announcements keep arriving redundantly, widened when in-flight
    requests go stale — so the node floods while it knows nothing and prunes
    redundant links as evidence accumulates.

``headers`` (:class:`HeadersFirstRelay`)
    Headers-first block sync: new blocks are announced with a one-entry
    ``HEADERS`` message (BIP 130), a receiver missing the parent chain asks
    for the whole gap with one ``GETHEADERS``/block-locator round-trip, and
    every missing body is then fetched in one batched GETDATA (parallel body
    fetch) instead of the per-orphan parent walk.  Reconnecting nodes
    (``resync_on_reconnect``) catch up the same way.

Scenarios select a strategy through
:attr:`~repro.protocol.node.NodeConfig.relay_strategy` (or
``build_scenario(..., relay=...)``); register a new one by subclassing
:class:`RelayStrategy` and adding it to :data:`RELAY_STRATEGIES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.protocol.block import Block, merkle_root
from repro.protocol.messages import (
    BlockMessage,
    BlockTxnMessage,
    CmpctBlockMessage,
    GetBlockTxnMessage,
    GetDataMessage,
    GetHeadersMessage,
    HeadersMessage,
    InvMessage,
    InventoryType,
    Message,
    TxMessage,
    short_txid,
)
from repro.protocol.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.protocol.network import P2PNetwork
    from repro.protocol.node import BitcoinNode

#: The inventory kinds as module globals: reading an enum member off its
#: class costs about 0.15 µs more than a global, on every INV and GETDATA.
_TX_INVENTORY = InventoryType.TRANSACTION
_BLOCK_INVENTORY = InventoryType.BLOCK


class RelayStrategy:
    """Base class: the flood message plane every concrete strategy refines.

    The strategy is the node's relay state machine — it handles the
    inventory-plane messages (:class:`~repro.protocol.messages.InvMessage`,
    ``GETDATA``, ``TX``, ``BLOCK`` and the compact-relay trio), tracks which
    hashes are in flight so the same object is never requested from several
    peers at once, and decides how a locally-accepted object is forwarded.

    Args:
        node: the owning node; the strategy reads/writes its chain, mempool,
            known-inventory sets and statistics counters.
    """

    #: Registry key; concrete subclasses override.
    name = "base"

    def __init__(self, node: "BitcoinNode") -> None:
        self.node = node
        #: In-flight GETDATA state: requested hash -> request time.  A later
        #: INV for a pending hash is suppressed (the cross-peer dedup this
        #: used to leak: the timestamp lets a *stale* request — the serving
        #: peer died, the reply was dropped — be retried from the newly
        #: announcing peer instead of being ignored forever.
        self.pending_tx_requests: dict[str, float] = {}
        self.pending_block_requests: dict[str, float] = {}

    # ------------------------------------------------------------- plumbing
    def _network(self) -> "P2PNetwork":
        network = self.node.network
        if network is None:
            return self.node._require_network()  # raises: the node is unattached
        return network

    @property
    def _now(self) -> float:
        return self.node.now

    # ------------------------------------------------------------- dispatch
    def handle_message(self, sender: int, message: Message) -> bool:
        """Dispatch a relay-plane message; returns False for other messages."""
        if isinstance(message, InvMessage):
            self.handle_inv(sender, message)
        elif isinstance(message, GetDataMessage):
            self.handle_getdata(sender, message)
        elif isinstance(message, TxMessage):
            self.handle_tx(sender, message)
        elif isinstance(message, BlockMessage):
            self.handle_block(sender, message)
        elif isinstance(message, CmpctBlockMessage):
            self.handle_cmpct_block(sender, message)
        elif isinstance(message, GetBlockTxnMessage):
            self.handle_get_block_txn(sender, message)
        elif isinstance(message, BlockTxnMessage):
            self.handle_block_txn(sender, message)
        elif isinstance(message, GetHeadersMessage):
            self.handle_getheaders(sender, message)
        elif isinstance(message, HeadersMessage):
            self.handle_headers(sender, message)
        else:
            return False
        return True

    # ------------------------------------------------------ lifecycle hooks
    def on_offline(self) -> None:
        """Session ended: every in-flight request died with the connections."""
        self.pending_tx_requests.clear()
        self.pending_block_requests.clear()

    def note_transaction_received(self, txid: str) -> None:
        """The transaction arrived (by any path); it is no longer in flight."""
        self.pending_tx_requests.pop(txid, None)

    def note_block_received(self, block_hash: str) -> None:
        """The block arrived (by any path); it is no longer in flight."""
        self.pending_block_requests.pop(block_hash, None)

    def on_peer_connected(self, peer_id: int) -> None:
        """A connection to ``peer_id`` was established (strategy hook)."""

    def on_peer_disconnected(self, peer_id: int) -> None:
        """The connection to ``peer_id`` was torn down (strategy hook)."""

    def sync_chain_with_peer(self, peer_id: int) -> bool:
        """Offer the best chain over a fresh connection (the resync path).

        The flood baseline announces the tip with a block INV; unknown parents
        are then requested one-by-one through the orphan path.  Returns True
        when anything was sent.  Announcing the genesis-only tip is skipped,
        which also makes this a no-op during initial topology construction.
        """
        node = self.node
        tip = node.blockchain.tip
        if tip.block_hash == node.blockchain.genesis.block_hash:
            return False
        self._network().send(
            node.node_id,
            peer_id,
            InvMessage(
                sender=node.node_id,
                inventory_type=_BLOCK_INVENTORY,
                hashes=(tip.block_hash,),
            ),
        )
        return True

    # --------------------------------------------------------- announcement
    def announce_transaction(self, txid: str, *, exclude: Optional[set[int]] = None) -> int:
        """Send an INV for ``txid`` to every neighbour (minus ``exclude``)."""
        node = self.node
        message = InvMessage(
            sender=node.node_id,
            inventory_type=_TX_INVENTORY,
            hashes=(txid,),
        )
        count = self._network().broadcast(node.node_id, message, exclude=exclude)
        for listener in node.announcement_listeners:
            listener(node.node_id, txid, self._now)
        return count

    def announce_block(self, block_hash: str, *, exclude: Optional[set[int]] = None) -> int:
        """Send an INV for a block to every neighbour (minus ``exclude``)."""
        node = self.node
        message = InvMessage(
            sender=node.node_id,
            inventory_type=_BLOCK_INVENTORY,
            hashes=(block_hash,),
        )
        return self._network().broadcast(node.node_id, message, exclude=exclude)

    # --------------------------------------------------------- INV / GETDATA
    def handle_inv(self, sender: int, message: InvMessage) -> None:
        node = self.node
        node.stats.invs_received += 1
        if message.inventory_type is _TX_INVENTORY:
            if node.known_transactions.issuperset(message.hashes):
                # Most transaction INVs repeat what the node already knows:
                # the outcome _classify would reach, without building lists.
                node.stats.duplicate_invs += 1
                return
            unknown, stale = self._classify(
                message.hashes,
                node.known_transactions,
                self.pending_tx_requests,
                confirmed=(
                    node.blockchain.contains_transaction
                    if node.config.prune_depth is not None
                    else None
                ),
            )
            to_request = unknown + stale
            if not to_request:
                node.stats.duplicate_invs += 1
                return
            now = self._now
            for txid in unknown:
                node.transaction_first_seen_times.setdefault(txid, now)
            self.pending_tx_requests.update((txid, now) for txid in to_request)
            node.stats.getdata_sent += 1
            self._network().send(
                node.node_id,
                sender,
                GetDataMessage(
                    sender=node.node_id,
                    inventory_type=_TX_INVENTORY,
                    hashes=tuple(to_request),
                ),
            )
        else:
            unknown, stale = self._classify(
                message.hashes,
                node.known_blocks,
                self.pending_block_requests,
                confirmed=(
                    node.blockchain.has_block
                    if node.config.prune_depth is not None
                    else None
                ),
            )
            to_request = unknown + stale
            if not to_request:
                node.stats.duplicate_invs += 1
                return
            self.request_blocks(sender, tuple(to_request))

    def _classify(
        self,
        hashes: tuple[str, ...],
        known: set[str],
        pending: dict[str, float],
        confirmed: Optional[Callable[[str], bool]] = None,
    ) -> tuple[list[str], list[str]]:
        """Split announced hashes into (never requested, stale in-flight).

        A hash with a *fresh* in-flight request is suppressed — the same
        object is never fetched from several peers at once — and counted in
        ``stats.getdata_saved``.  A pending request older than
        ``NodeConfig.getdata_retry_s`` is considered lost (the serving peer
        churned away, the reply was dropped with a link) and re-issued to the
        announcing peer, counted in ``stats.getdata_retries``.

        ``confirmed`` is the pruning escape hatch (``NodeConfig.prune_depth``):
        a hash absent from the inventory set but confirmed on the best chain
        was *pruned*, not forgotten, and is treated exactly like a known hash
        instead of being re-requested.
        """
        node = self.node
        retry_after = node.config.getdata_retry_s
        unknown: list[str] = []
        stale: list[str] = []
        for h in hashes:
            if h in known:
                continue
            if confirmed is not None and confirmed(h):
                continue
            requested_at = pending.get(h)
            if requested_at is None:
                unknown.append(h)
            elif self._now - requested_at > retry_after:
                stale.append(h)
            else:
                node.stats.getdata_saved += 1
        node.stats.getdata_retries += len(stale)
        return unknown, stale

    def request_blocks(self, peer: int, hashes: tuple[str, ...]) -> None:
        """Issue a block GETDATA to ``peer`` and mark the hashes in flight."""
        now = self._now
        self.pending_block_requests.update((h, now) for h in hashes)
        self._network().send(
            self.node.node_id,
            peer,
            GetDataMessage(
                sender=self.node.node_id, inventory_type=_BLOCK_INVENTORY, hashes=hashes
            ),
        )

    def request_parent(self, peer: int, parent_hash: str) -> None:
        """Fetch an orphan's missing parent through the pending-request dedup.

        The orphan path used to call :meth:`request_blocks` unconditionally:
        a burst of orphans on the same branch re-sent the same GETDATA each
        time *and refreshed the in-flight timestamp*, so the stale-retry
        mechanism could never fire.  Routing the fetch through the same
        classification step the INV path uses restores the dedup (fresh
        in-flight requests are suppressed and counted in
        ``stats.getdata_saved``) while still retrying requests that went
        stale.
        """
        node = self.node
        if node.blockchain.has_block(parent_hash):
            return
        unknown, stale = self._classify(
            (parent_hash,), node.known_blocks, self.pending_block_requests
        )
        if unknown or stale:
            self.request_blocks(peer, (parent_hash,))

    def handle_getdata(self, sender: int, message: GetDataMessage) -> None:
        node = self.node
        network = self._network()
        if message.inventory_type is _TX_INVENTORY:
            for txid in message.hashes:
                tx = node.mempool.get(txid)
                if tx is None:
                    tx = node._conflict_store.get(txid)
                if tx is None:
                    tx = node.find_confirmed_transaction(txid)
                if tx is not None:
                    network.send(node.node_id, sender, TxMessage(sender=node.node_id, transaction=tx))
        else:
            for block_hash in message.hashes:
                if node.blockchain.has_block(block_hash):
                    network.send(
                        node.node_id,
                        sender,
                        BlockMessage(sender=node.node_id, block=node.blockchain.get_block(block_hash)),
                    )

    # ------------------------------------------------------------ TX / BLOCK
    def handle_tx(self, sender: int, message: TxMessage) -> None:
        node = self.node
        if message.transaction is None:
            return
        tx = message.transaction
        if tx.txid in node.known_transactions and tx.txid not in self.pending_tx_requests:
            return
        result = node.accept_transaction(tx, origin_peer=sender)
        if not result.valid:
            return
        if not node.config.relay_transactions:
            return
        relay_delay = result.verification_cost_s if node.config.verification_enabled else 0.0
        simulator = self._network().simulator
        txid = tx.txid
        simulator.schedule(
            relay_delay,
            lambda: self._relay_transaction(txid, exclude_peer=sender),
            label=f"relay:{node.node_id}",
        )

    def _relay_transaction(self, txid: str, *, exclude_peer: int) -> None:
        node = self.node
        if txid not in node.mempool and not node.blockchain.contains_transaction(txid):
            return
        node.stats.transactions_relayed += 1
        self.announce_transaction(txid, exclude={exclude_peer})

    def handle_block(self, sender: int, message: BlockMessage) -> None:
        if message.block is None:
            return
        self.node.accept_block(message.block, origin_peer=sender)

    # -------------------------------------------------------- compact plane
    def handle_cmpct_block(self, sender: int, message: CmpctBlockMessage) -> None:
        """Graceful interop: a non-compact node asks for the full block."""
        node = self.node
        if message.header is None:
            return
        block_hash = message.block_hash
        if block_hash in node.known_blocks or node.blockchain.has_block(block_hash):
            return
        requested_at = self.pending_block_requests.get(block_hash)
        if requested_at is not None:
            if self._now - requested_at <= node.config.getdata_retry_s:
                return
            node.stats.getdata_retries += 1
        self.request_blocks(sender, (block_hash,))

    def handle_get_block_txn(self, sender: int, message: GetBlockTxnMessage) -> None:
        """Serve the requested block transactions (any strategy can)."""
        node = self.node
        if not node.blockchain.has_block(message.block_hash):
            return
        block = node.blockchain.get_block(message.block_hash)
        indexes = tuple(i for i in message.indexes if 0 <= i < len(block.transactions))
        if not indexes:
            return
        self._network().send(
            node.node_id,
            sender,
            BlockTxnMessage(
                sender=node.node_id,
                block_hash=message.block_hash,
                indexes=indexes,
                transactions=tuple(block.transactions[i] for i in indexes),
            ),
        )

    def handle_block_txn(self, sender: int, message: BlockTxnMessage) -> None:
        """Only the compact strategy has reconstructions to complete."""

    # -------------------------------------------------------- headers plane
    #: Cap on headers served per HEADERS message (Bitcoin Core's limit).
    MAX_HEADERS_PER_MESSAGE = 2000

    def handle_getheaders(self, sender: int, message: GetHeadersMessage) -> None:
        """Serve best-chain headers after the requester's locator (any strategy).

        The highest locator entry found on the local best chain anchors the
        reply; everything above it (bounded by ``MAX_HEADERS_PER_MESSAGE`` and
        the optional stop hash) is returned in one HEADERS message.  An empty
        reply is skipped entirely — the requester's timeout-based retry covers
        the silent case.
        """
        node = self.node
        chain = node.blockchain.best_chain()
        height_of = {block.block_hash: index for index, block in enumerate(chain)}
        start = 0  # genesis: every locator ends there, but be lenient
        for locator_hash in message.locator:
            index = height_of.get(locator_hash)
            if index is not None:
                start = index
                break
        tail = chain[start + 1 : start + 1 + self.MAX_HEADERS_PER_MESSAGE]
        if message.stop_hash:
            for position, block in enumerate(tail):
                if block.block_hash == message.stop_hash:
                    tail = tail[: position + 1]
                    break
        if not tail:
            return
        self._network().send(
            node.node_id,
            sender,
            HeadersMessage(
                sender=node.node_id,
                headers=tuple(block.header for block in tail),
                heights=tuple(block.height for block in tail),
            ),
        )

    def handle_headers(self, sender: int, message: HeadersMessage) -> None:
        """Graceful interop: treat each header as a block announcement.

        A non-headers-first node receiving a HEADERS announcement requests the
        unknown bodies exactly as it would after a block INV (same dedup, same
        stale retry); gap-filling via GETHEADERS is the headers strategy's
        refinement.
        """
        node = self.node
        if not message.headers:
            return
        unknown, stale = self._classify(
            tuple(header.block_hash for header in message.headers),
            node.known_blocks,
            self.pending_block_requests,
            confirmed=(
                node.blockchain.has_block
                if node.config.prune_depth is not None
                else None
            ),
        )
        to_request = unknown + stale
        if not to_request:
            node.stats.duplicate_invs += 1
            return
        self.request_blocks(sender, tuple(to_request))


class FloodRelay(RelayStrategy):
    """The legacy INV/GETDATA/TX flood — the default, byte-identical relay."""

    name = "flood"


@dataclass
class _Reconstruction:
    """A compact block waiting for its missing transactions."""

    header: object
    height: int
    slots: list[Optional[Transaction]]
    origin: int
    missing: set[int] = field(default_factory=set)
    requested_at: float = 0.0
    #: Cancellable timer that falls back to a full-block GETDATA if the
    #: GETBLOCKTXN reply never arrives (the server may not have the block).
    timeout: Optional[object] = None


class CompactBlockRelay(FloodRelay):
    """BIP 152-style compact block relay (transactions still flood via INV).

    An accepted block is pushed to every neighbour (minus the origin) as a
    header plus short ids.  The receiver fills the transaction slots from its
    mempool; fully-reconstructed blocks are accepted immediately, otherwise
    the missing indexes are fetched with one GETBLOCKTXN round-trip.  If the
    reconstruction still cannot be completed — the serving peer lost the
    block, or a short-id collision corrupted a slot (detected by Merkle-root
    mismatch) — the node falls back to a plain full-block GETDATA.
    """

    name = "compact"

    def __init__(self, node: "BitcoinNode") -> None:
        super().__init__(node)
        #: Partially-reconstructed blocks: block hash -> reconstruction state.
        self._reconstructions: dict[str, _Reconstruction] = {}

    def on_offline(self) -> None:
        super().on_offline()
        for block_hash in tuple(self._reconstructions):
            self._pop_reconstruction(block_hash)

    def note_block_received(self, block_hash: str) -> None:
        super().note_block_received(block_hash)
        self._pop_reconstruction(block_hash)

    def _pop_reconstruction(self, block_hash: str) -> Optional[_Reconstruction]:
        """Drop a reconstruction and cancel its fallback timer, if any."""
        pending = self._reconstructions.pop(block_hash, None)
        if pending is not None and pending.timeout is not None:
            pending.timeout.cancel()
            pending.timeout = None
        return pending

    # --------------------------------------------------------- announcement
    def announce_block(self, block_hash: str, *, exclude: Optional[set[int]] = None) -> int:
        node = self.node
        block = node.blockchain.get_block(block_hash)
        message = CmpctBlockMessage(
            sender=node.node_id,
            header=block.header,
            height=block.height,
            short_ids=tuple(short_txid(tx.txid) for tx in block.transactions[1:]),
            coinbase=block.transactions[0] if block.transactions else None,
        )
        return self._network().broadcast(node.node_id, message, exclude=exclude)

    # ------------------------------------------------------- reconstruction
    def handle_cmpct_block(self, sender: int, message: CmpctBlockMessage) -> None:
        node = self.node
        if message.header is None:
            return
        node.stats.compact_blocks_received += 1
        block_hash = message.block_hash
        if block_hash in node.known_blocks or node.blockchain.has_block(block_hash):
            return
        # An in-flight reconstruction or full-block fetch suppresses duplicate
        # announcements — unless it has gone stale (the serving peer churned
        # away mid-round-trip), in which case this fresh announcement takes
        # over, mirroring the flood path's GETDATA retry.
        now = self._now
        retry_after = node.config.getdata_retry_s
        pending = self._reconstructions.get(block_hash)
        if pending is not None:
            if now - pending.requested_at <= retry_after:
                return
            self._pop_reconstruction(block_hash)
            node.stats.getdata_retries += 1
        requested_at = self.pending_block_requests.get(block_hash)
        if requested_at is not None:
            if now - requested_at <= retry_after:
                return
            # The dead full-block request is superseded by this announcement;
            # drop it so it cannot count as stale again on the next one.
            del self.pending_block_requests[block_hash]
            node.stats.getdata_retries += 1
        if message.coinbase is None:
            # Unreconstructable announcement; fetch the full block instead.
            self.request_blocks(sender, (block_hash,))
            return
        slots: list[Optional[Transaction]] = [None] * (len(message.short_ids) + 1)
        slots[0] = message.coinbase
        index = self._short_id_index()
        missing: list[int] = []
        for position, sid in enumerate(message.short_ids, start=1):
            tx = index.get(sid)
            if tx is not None:
                slots[position] = tx
            else:
                missing.append(position)
        if missing:
            reconstruction = _Reconstruction(
                header=message.header,
                height=message.height,
                slots=slots,
                origin=sender,
                missing=set(missing),
                requested_at=now,
            )
            self._reconstructions[block_hash] = reconstruction
            node.stats.compact_txs_requested += len(missing)
            self._network().send(
                node.node_id,
                sender,
                GetBlockTxnMessage(
                    sender=node.node_id,
                    block_hash=block_hash,
                    indexes=tuple(missing),
                ),
            )
            # The server may silently have nothing to answer with (it lost
            # the block, or every index was out of range); without a timer
            # the reconstruction would stall until an unrelated
            # re-announcement.  Mirror the flood GETDATA retry window.
            reconstruction.timeout = self._network().simulator.schedule(
                retry_after,
                lambda: self._expire_reconstruction(block_hash, now),
                label=f"cmpct-expire:{node.node_id}",
            )
            return
        self._complete(block_hash, message.header, message.height, slots, origin=sender)

    def _short_id_index(self) -> dict[str, Transaction]:
        """Short id -> transaction over everything reconstructible locally.

        Short-id collisions inside the mempool resolve arbitrarily; the
        Merkle check in :meth:`_complete` catches a wrong pick and falls back
        to a full-block fetch, exactly like BIP 152 prescribes.
        """
        return {short_txid(tx.txid): tx for tx in self.node.mempool.transactions()}

    def handle_block_txn(self, sender: int, message: BlockTxnMessage) -> None:
        pending = self._reconstructions.get(message.block_hash)
        if pending is None:
            return
        for position, tx in zip(message.indexes, message.transactions):
            if 0 <= position < len(pending.slots):
                pending.slots[position] = tx
                pending.missing.discard(position)
        if pending.missing:
            # The server could not provide everything; fall back.
            self._fallback(message.block_hash, pending.origin)
            return
        self._pop_reconstruction(message.block_hash)
        self._complete(
            message.block_hash, pending.header, pending.height, pending.slots, origin=pending.origin
        )

    def _complete(
        self,
        block_hash: str,
        header: object,
        height: int,
        slots: list[Optional[Transaction]],
        *,
        origin: int,
    ) -> None:
        node = self.node
        transactions = tuple(tx for tx in slots if tx is not None)
        if len(transactions) != len(slots) or merkle_root(transactions) != header.merkle_root:
            # A short-id collision filled a slot with the wrong transaction.
            self._fallback(block_hash, origin)
            return
        block = Block(header=header, transactions=transactions, height=height)
        node.stats.compact_blocks_reconstructed += 1
        node.accept_block(block, origin_peer=origin)

    def _expire_reconstruction(self, block_hash: str, requested_at: float) -> None:
        """Timer body: the GETBLOCKTXN reply never arrived; fall back.

        A no-op when the reconstruction completed, was taken over by a newer
        announcement, or was dropped offline in the meantime (the
        ``requested_at`` echo guards against a same-hash successor).
        """
        pending = self._reconstructions.get(block_hash)
        if pending is None or pending.requested_at != requested_at:
            return
        self.node.stats.compact_txn_timeouts += 1
        self._fallback(block_hash, pending.origin)

    def _fallback(self, block_hash: str, origin: int) -> None:
        node = self.node
        self._pop_reconstruction(block_hash)
        node.stats.compact_fallbacks += 1
        if not node.blockchain.has_block(block_hash):
            self.request_blocks(origin, (block_hash,))


class PushRelay(FloodRelay):
    """Unsolicited full-block push over cluster links (Bitcoin-XT style).

    Intra-cluster links are latency-picked by the clustering policy, so
    skipping the INV/GETDATA round-trip there buys the biggest Δt win per
    redundant byte; links outside the cluster (long maintenance links, the
    whole overlay under the vanilla policy) keep the polite INV announcement.
    """

    name = "push"

    def announce_block(self, block_hash: str, *, exclude: Optional[set[int]] = None) -> int:
        node = self.node
        network = self._network()
        excluded = exclude or set()
        topology = network.topology
        cluster_peers: list[int] = []
        inv_peers: list[int] = []
        for peer in network.neighbors(node.node_id):
            if peer in excluded:
                continue
            if topology.link(node.node_id, peer).is_cluster_link:
                cluster_peers.append(peer)
            else:
                inv_peers.append(peer)
        count = 0
        if cluster_peers:
            block = node.blockchain.get_block(block_hash)
            pushed = network.multicast(
                node.node_id,
                cluster_peers,
                BlockMessage(sender=node.node_id, block=block),
            )
            node.stats.blocks_pushed += pushed
            count += pushed
        if inv_peers:
            count += network.multicast(
                node.node_id,
                inv_peers,
                InvMessage(
                    sender=node.node_id,
                    inventory_type=_BLOCK_INVENTORY,
                    hashes=(block_hash,),
                ),
            )
        return count


@dataclass
class _NeighbourScore:
    """Observed relay usefulness of one neighbour (adaptive strategy)."""

    #: Objects (txs or blocks) whose *first* copy we received from this peer.
    first_deliveries: int = 0
    #: Announced hashes that were news to us (novel INV entries).
    novel_invs: int = 0
    #: EWMA of the GETDATA -> delivery round-trip to this peer.
    latency_ewma_s: float = 0.0
    latency_samples: int = 0

    def observe_latency(self, rtt_s: float, alpha: float) -> None:
        if self.latency_samples == 0:
            self.latency_ewma_s = rtt_s
        else:
            self.latency_ewma_s += alpha * (rtt_s - self.latency_ewma_s)
        self.latency_samples += 1

    @property
    def relay_score(self) -> int:
        """First deliveries weigh double: they are the scarce signal."""
        return 2 * self.first_deliveries + self.novel_invs


class AdaptiveRelay(FloodRelay):
    """Neighbour-scored announcement fan-out with dynamic widen/narrow.

    Every neighbour accumulates a :class:`_NeighbourScore` (objects it
    delivered first, announcements that were news, a response-latency EWMA,
    fed by the node's message hooks).  *Transaction* announcements then go to
    the ``N`` best-ranked peers plus one random extra instead of flooding
    everyone (block announcements keep the full fan-out — see the note on
    ``announce_block`` below):

    * the node starts in full-flood mode (``N`` unset) — with no evidence,
      pruning links would only strand objects;
    * a run of :data:`NARROW_AFTER_DUPLICATES` consecutive all-duplicate
      announcements narrows the fan-out by one (redundancy is high, the
      neighbourhood already hears everything through other paths);
    * an in-flight request going stale widens it again by one (the peers we
      rely on serve us poorly — listen to more of them).

    The random extra keeps the epidemic alive past the scored set, and the
    width never drops below :data:`MIN_FANOUT`.  Width changes are counted in
    ``stats.adaptive_fanout_widened`` / ``adaptive_fanout_narrowed`` and
    recorded with their timestamp in :attr:`fanout_history`.
    """

    name = "adaptive"

    #: Fan-out floor: epidemic relay with too few targets risks stranding
    #: objects, so narrowing never goes below this many scored peers.
    MIN_FANOUT = 3
    #: Random (non-top-ranked) peers added to every announcement.
    RANDOM_EXTRAS = 1
    #: Consecutive all-duplicate announcements that trigger one narrow step.
    NARROW_AFTER_DUPLICATES = 4
    #: EWMA smoothing factor for the response-latency estimate.
    LATENCY_ALPHA = 0.25

    def __init__(self, node: "BitcoinNode") -> None:
        super().__init__(node)
        #: Per-neighbour usefulness scores (reset when the session ends).
        self.scores: dict[int, _NeighbourScore] = {}
        #: Outstanding latency probes: requested hash -> (peer, sent time).
        self._probes: dict[str, tuple[int, float]] = {}
        #: Current fan-out width; None means full flood (no evidence yet).
        self._fanout: Optional[int] = None
        self._duplicate_run = 0
        #: (time, width) samples, appended on every widen/narrow step.
        self.fanout_history: list[tuple[float, int]] = []
        self._rng = None

    # ------------------------------------------------------------- lifecycle
    def on_offline(self) -> None:
        super().on_offline()
        self._probes.clear()
        self.scores.clear()
        self._duplicate_run = 0
        self._fanout = None  # fresh session, fresh neighbourhood: flood again

    def on_peer_disconnected(self, peer_id: int) -> None:
        self.scores.pop(peer_id, None)

    # --------------------------------------------------------------- scoring
    def _get_rng(self):
        if self._rng is None:
            self._rng = self._network().simulator.random.stream(
                f"adaptive-relay:{self.node.node_id}"
            )
        return self._rng

    def _score(self, peer: int) -> _NeighbourScore:
        score = self.scores.get(peer)
        if score is None:
            score = self.scores[peer] = _NeighbourScore()
        return score

    def get_classification(self, peers: list[int]) -> list[int]:
        """Rank peers best-first: score, then measured latency, then id."""

        def rank(peer: int) -> tuple[float, float, int]:
            score = self.scores.get(peer)
            if score is None:
                return (0.0, float("inf"), peer)
            latency = (
                score.latency_ewma_s if score.latency_samples else float("inf")
            )
            return (-float(score.relay_score), latency, peer)

        return sorted(peers, key=rank)

    def effective_fanout(self) -> int:
        """Announcement targets the *next* relay round will use."""
        degree = len(self._network().neighbors(self.node.node_id))
        if self._fanout is None:
            return degree
        extras = self.RANDOM_EXTRAS if degree > self._fanout else 0
        return min(self._fanout + extras, degree)

    def _relay_targets(self, exclude: Optional[set[int]]) -> list[int]:
        network = self._network()
        excluded = exclude or set()
        neighbours = [
            peer
            for peer in network.neighbors(self.node.node_id)
            if peer not in excluded
        ]
        width = self._fanout
        if width is None or width >= len(neighbours):
            return neighbours
        ranked = self.get_classification(neighbours)
        chosen = ranked[:width]
        rest = ranked[width:]
        extras = min(self.RANDOM_EXTRAS, len(rest))
        if extras:
            rng = self._get_rng()
            picks = rng.choice(len(rest), size=extras, replace=False)
            chosen.extend(rest[int(i)] for i in sorted(picks))
        return chosen

    # ------------------------------------------------------ width adaptation
    def _widen(self) -> None:
        if self._fanout is None:
            return  # already flooding everyone
        degree = len(self._network().neighbors(self.node.node_id))
        if self._fanout >= degree:
            self._fanout = None
            return
        self._fanout += 1
        self.node.stats.adaptive_fanout_widened += 1
        self.fanout_history.append((self._now, self._fanout))

    def _narrow(self) -> None:
        degree = len(self._network().neighbors(self.node.node_id))
        if degree == 0:
            return
        current = self._fanout if self._fanout is not None else degree
        narrowed = max(self.MIN_FANOUT, current - 1)
        if narrowed >= current:
            return
        self._fanout = narrowed
        self.node.stats.adaptive_fanout_narrowed += 1
        self.fanout_history.append((self._now, narrowed))

    def _note_duplicate(self) -> None:
        self._duplicate_run += 1
        if self._duplicate_run >= self.NARROW_AFTER_DUPLICATES:
            self._duplicate_run = 0
            self._narrow()

    # --------------------------------------------------------- announcement
    def announce_transaction(
        self, txid: str, *, exclude: Optional[set[int]] = None
    ) -> int:
        node = self.node
        targets = self._relay_targets(exclude)
        count = 0
        if targets:
            count = self._network().multicast(
                node.node_id,
                targets,
                InvMessage(
                    sender=node.node_id,
                    inventory_type=_TX_INVENTORY,
                    hashes=(txid,),
                ),
            )
        for listener in node.announcement_listeners:
            listener(node.node_id, txid, self._now)
        return count

    # announce_block is deliberately NOT overridden: block announcements keep
    # FloodRelay's full fan-out.  A transaction stranded by a narrow fan-out
    # is repaired by the next block that confirms it, but a stranded *block*
    # has no backstop — the node simply falls behind until an unrelated
    # resync.  Blocks are also rare, so their INVs contribute almost nothing
    # to the redundancy the narrowing removes; the duplicate-INV volume lives
    # on the transaction plane.  (Bitcoin Core draws the same line: tx relay
    # is trickled and filtered per peer, block announcements go to everyone.)

    # ----------------------------------------------------- scored message IO
    def handle_inv(self, sender: int, message: InvMessage) -> None:
        node = self.node
        node.stats.invs_received += 1
        is_tx = message.inventory_type is _TX_INVENTORY
        known = node.known_transactions if is_tx else node.known_blocks
        pending = self.pending_tx_requests if is_tx else self.pending_block_requests
        confirmed = None
        if node.config.prune_depth is not None:
            confirmed = (
                node.blockchain.contains_transaction
                if is_tx
                else node.blockchain.has_block
            )
        unknown, stale = self._classify(
            message.hashes, known, pending, confirmed=confirmed
        )
        if stale:
            # Requests are timing out: the peers we listen to serve us
            # poorly, so widen the fan-out (and our own usefulness signal).
            self._widen()
        to_request = unknown + stale
        if not to_request:
            node.stats.duplicate_invs += 1
            self._note_duplicate()
            return
        self._duplicate_run = 0
        self._score(sender).novel_invs += len(unknown)
        now = self._now
        if is_tx:
            for txid in unknown:
                node.transaction_first_seen_times.setdefault(txid, now)
            self.pending_tx_requests.update((txid, now) for txid in to_request)
            node.stats.getdata_sent += 1
            self._network().send(
                node.node_id,
                sender,
                GetDataMessage(
                    sender=node.node_id,
                    inventory_type=_TX_INVENTORY,
                    hashes=tuple(to_request),
                ),
            )
            for txid in to_request:
                self._probes[txid] = (sender, now)
        else:
            self.request_blocks(sender, tuple(to_request))

    def request_blocks(self, peer: int, hashes: tuple[str, ...]) -> None:
        super().request_blocks(peer, hashes)
        now = self._now
        for block_hash in hashes:
            self._probes[block_hash] = (peer, now)

    def handle_tx(self, sender: int, message: TxMessage) -> None:
        if message.transaction is not None:
            txid = message.transaction.txid
            self._observe_delivery(
                txid, sender, novel=txid not in self.node.known_transactions
            )
        super().handle_tx(sender, message)

    def handle_block(self, sender: int, message: BlockMessage) -> None:
        if message.block is not None:
            block_hash = message.block.block_hash
            self._observe_delivery(
                block_hash, sender, novel=block_hash not in self.node.known_blocks
            )
        super().handle_block(sender, message)

    def _observe_delivery(self, obj_hash: str, sender: int, *, novel: bool) -> None:
        score = self._score(sender)
        if novel:
            score.first_deliveries += 1
        probe = self._probes.pop(obj_hash, None)
        if probe is not None and probe[0] == sender:
            score.observe_latency(self._now - probe[1], self.LATENCY_ALPHA)


class HeadersFirstRelay(FloodRelay):
    """Headers-first block sync (GETHEADERS / HEADERS, BIP 130 announcement).

    New blocks are announced with a one-entry HEADERS message instead of an
    INV.  A receiver that already knows the parent chain batches one GETDATA
    for every missing body; a receiver missing intermediate headers asks the
    announcer for the whole gap with a single GETHEADERS carrying a block
    locator, then fetches the returned bodies bottom-up in batched GETDATAs
    (parallel body fetch) — replacing the flood path's one-GETDATA-per-orphan
    parent walk.  Reconnecting nodes (``resync_on_reconnect``) catch up the
    same way: :meth:`sync_chain_with_peer` sends a GETHEADERS instead of the
    tip INV, so one round-trip discovers however many blocks were missed.

    Two details keep a long catch-up cheap:

    * bodies are fetched through a bounded download window (Bitcoin Core's
      ``BLOCK_DOWNLOAD_WINDOW``, scaled down): at most
      ``min(BODY_DOWNLOAD_WINDOW, max_orphan_blocks)`` bodies are in flight
      at once, so however the per-message latencies scramble arrival order,
      the out-of-order tail always fits in the orphan pool.  Requesting the
      whole gap at once instead would evict tip-side orphans and re-download
      their bodies — the exact thrashing the flood walk suffers;
    * only tips are announced (BIP 130 semantics): a block accepted while we
      already know a strictly higher header is stale inventory, so replaying
      a catch-up batch does not spray HEADERS messages at the peer that is
      ahead of us anyway.
    """

    name = "headers"

    #: Cap on bodies in flight at once.  The effective window is
    #: ``min(BODY_DOWNLOAD_WINDOW, config.max_orphan_blocks)`` so a window's
    #: out-of-order arrivals can always be stashed without evicting anything.
    BODY_DOWNLOAD_WINDOW = 16

    def __init__(self, node: "BitcoinNode") -> None:
        super().__init__(node)
        #: Outstanding GETHEADERS round-trips: peer -> sent time (dedup with
        #: the same staleness window as GETDATA retries).
        self._pending_getheaders: dict[int, float] = {}
        #: Heights of headers whose bodies are still on the way; lets a
        #: child header chain onto a parent we only know by header yet.
        self._header_heights: dict[str, int] = {}
        #: Bodies discovered via HEADERS but not yet arrived, as
        #: ``(block_hash, serving_peer)``.  Drained window-by-window in
        #: height order; entries leave only when the body arrives.
        self._body_queue: list[tuple[str, int]] = []

    # ------------------------------------------------------------- lifecycle
    def on_offline(self) -> None:
        super().on_offline()
        self._pending_getheaders.clear()
        self._header_heights.clear()
        self._body_queue.clear()

    def note_block_received(self, block_hash: str) -> None:
        super().note_block_received(block_hash)
        self._header_heights.pop(block_hash, None)
        if self._body_queue:
            self._body_queue = [
                entry for entry in self._body_queue if entry[0] != block_hash
            ]
            # Refill only once the window drains: bodies keep going out in
            # window-sized batches instead of one 61-byte GETDATA each.
            if not self.pending_block_requests and self._body_queue:
                self._fill_body_window()

    def on_peer_disconnected(self, peer_id: int) -> None:
        self._pending_getheaders.pop(peer_id, None)

    # ------------------------------------------------------------------ sync
    def sync_chain_with_peer(self, peer_id: int) -> bool:
        """One GETHEADERS round-trip replaces the tip-INV + orphan walk."""
        return self._send_getheaders(peer_id)

    def block_locator(self) -> tuple[str, ...]:
        """Best-chain hashes, tip first with exponential gaps, genesis last."""
        chain = self.node.blockchain.best_chain()
        locator: list[str] = []
        step = 1
        index = len(chain) - 1
        while index > 0:
            locator.append(chain[index].block_hash)
            if len(locator) >= 10:
                step *= 2
            index -= step
        locator.append(chain[0].block_hash)
        return tuple(locator)

    def _send_getheaders(self, peer_id: int) -> bool:
        node = self.node
        now = self._now
        sent_at = self._pending_getheaders.get(peer_id)
        if sent_at is not None and now - sent_at <= node.config.getdata_retry_s:
            return False
        self._pending_getheaders[peer_id] = now
        node.stats.getheaders_sent += 1
        self._network().send(
            node.node_id,
            peer_id,
            GetHeadersMessage(sender=node.node_id, locator=self.block_locator()),
        )
        return True

    # ------------------------------------------------------------ body fetch
    def _fill_body_window(self) -> None:
        """Request queued bodies up to the download window, oldest first.

        Entries with a *fresh* in-flight GETDATA are left alone; entries
        whose request went stale (the serving peer churned away mid-batch)
        are re-issued and counted in ``stats.getdata_retries``.  The queue is
        height-sorted so the window always covers a contiguous bottom-up
        range — each window connects onto the last, and nothing waits in the
        orphan pool between windows.
        """
        node = self.node
        config = node.config
        window = max(1, min(self.BODY_DOWNLOAD_WINDOW, config.max_orphan_blocks))
        now = self._now
        heights = self._header_heights
        self._body_queue.sort(key=lambda entry: heights.get(entry[0], 0))
        in_flight = sum(
            1
            for requested_at in self.pending_block_requests.values()
            if now - requested_at <= config.getdata_retry_s
        )
        batches: dict[int, list[str]] = {}
        for block_hash, peer in self._body_queue:
            if block_hash in node.known_blocks:
                continue
            requested_at = self.pending_block_requests.get(block_hash)
            if requested_at is not None and now - requested_at <= config.getdata_retry_s:
                continue  # fresh in-flight request: not ours to repeat
            if in_flight >= window:
                break  # height order: nothing further down fits either
            if requested_at is not None:
                node.stats.getdata_retries += 1
            batches.setdefault(peer, []).append(block_hash)
            in_flight += 1
        for peer, hashes in batches.items():
            self.request_blocks(peer, tuple(hashes))

    # --------------------------------------------------------- announcement
    def announce_block(
        self, block_hash: str, *, exclude: Optional[set[int]] = None
    ) -> int:
        node = self.node
        block = node.blockchain.get_block(block_hash)
        # BIP 130 announces only tips.  While catching up we already hold
        # headers above this block, so announcing it would only re-offer
        # stale inventory to the peer that is ahead of us — at HEADERS wire
        # cost, for every block in the replayed batch.
        if any(height > block.height for height in self._header_heights.values()):
            return 0
        return self._network().broadcast(
            node.node_id,
            HeadersMessage(
                sender=node.node_id,
                headers=(block.header,),
                heights=(block.height,),
            ),
            exclude=exclude,
        )

    # -------------------------------------------------------- headers intake
    def handle_headers(self, sender: int, message: HeadersMessage) -> None:
        node = self.node
        node.stats.headers_received += 1
        self._pending_getheaders.pop(sender, None)
        to_fetch: list[str] = []
        gap = False
        for header, height in zip(message.headers, message.heights):
            block_hash = header.block_hash
            if (
                node.blockchain.has_block(block_hash)
                or block_hash in self._header_heights
            ):
                continue
            parent = header.previous_hash
            if not (
                node.blockchain.has_block(parent) or parent in self._header_heights
            ):
                gap = True
                continue
            self._header_heights[block_hash] = height
            to_fetch.append(block_hash)
        if gap:
            # Intermediate headers are missing; one locator round-trip to
            # the announcer fetches the whole gap.
            self._send_getheaders(sender)
        if not to_fetch and not self._body_queue:
            if not gap:
                node.stats.duplicate_invs += 1
            return
        queued = {entry[0] for entry in self._body_queue}
        fresh = [
            block_hash
            for block_hash in to_fetch
            if block_hash not in node.known_blocks and block_hash not in queued
        ]
        node.stats.header_bodies_requested += len(fresh)
        self._body_queue.extend((block_hash, sender) for block_hash in fresh)
        # Every headers round also sweeps the queue: requests that went stale
        # (the serving peer churned away) get re-issued to whoever is alive.
        self._fill_body_window()


#: Wire commands through which a relay strategy *gives* inventory to peers —
#: announcements (INV, CMPCTBLOCK, HEADERS) and payload deliveries (TX, BLOCK,
#: BLOCKTXN).  Every concrete strategy's outbound relay traffic is a subset of
#: this set; requests (GETDATA, GETHEADERS, GETBLOCKTXN) and the
#: handshake/keep-alive plane are deliberately excluded.  The adversary plane
#: (:mod:`repro.protocol.adversary`) keys its byzantine drop rules on this
#: vocabulary, which is what makes the behaviours strategy-agnostic: a silent
#: node under *any* of the five strategies stops giving and keeps taking.
RELAY_COMMANDS = frozenset(
    {"inv", "tx", "block", "cmpctblock", "blocktxn", "headers"}
)


#: Relay strategies selectable by name (``NodeConfig.relay_strategy``).
RELAY_STRATEGIES: dict[str, type[RelayStrategy]] = {
    FloodRelay.name: FloodRelay,
    CompactBlockRelay.name: CompactBlockRelay,
    PushRelay.name: PushRelay,
    AdaptiveRelay.name: AdaptiveRelay,
    HeadersFirstRelay.name: HeadersFirstRelay,
}

#: Relay names accepted by :func:`build_relay_strategy` / ``build_scenario``.
RELAY_NAMES = tuple(RELAY_STRATEGIES)


def validate_relay_name(name: str) -> str:
    """Check a relay-strategy name and return it.

    Raises:
        ValueError: for an unknown relay name.
    """
    if name not in RELAY_STRATEGIES:
        raise ValueError(f"unknown relay strategy {name!r}; expected one of {RELAY_NAMES}")
    return name


def build_relay_strategy(name: str, node: "BitcoinNode") -> RelayStrategy:
    """Construct the named relay strategy bound to ``node``."""
    return RELAY_STRATEGIES[validate_relay_name(name)](node)
