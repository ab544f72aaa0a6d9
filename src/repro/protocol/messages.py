"""The P2P message vocabulary.

These are the messages exchanged between simulated peers.  The standard
Bitcoin messages follow Fig. 1 of the paper (INV announcing a transaction,
GETDATA requesting it, TX delivering it) plus the handshake, address gossip
and ping keep-alive.  Two extra messages implement the clustering protocols'
control plane: ``JOIN`` / ``JOIN_ACCEPT`` (a node asking the closest
discovered node to admit it to its cluster, Section IV.B) and
``CLUSTER_MEMBERS`` (the admitting node returning the list of IPs in its
cluster so the joiner can connect to them).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

from repro.net.message import BLOCK_HEADER_BYTES
from repro.protocol.block import Block, BlockHeader
from repro.protocol.transaction import Transaction

_message_counter = itertools.count()

#: Bytes of a compact-block short transaction id on the wire (BIP 152 uses 6).
SHORT_ID_BYTES = 6

#: Hex characters of a short id (two per byte).
SHORT_ID_HEX_CHARS = SHORT_ID_BYTES * 2


def short_txid(txid: str) -> str:
    """The compact-relay short id of a transaction id (txid prefix).

    Real compact blocks salt short ids with SipHash per announcement; the
    simulation's txids are already uniform SHA-256 strings, so a plain prefix
    gives the same collision behaviour without the keying machinery.
    """
    return txid[:SHORT_ID_HEX_CHARS]


class InventoryType(enum.Enum):
    """Types of objects announced in INV / requested in GETDATA."""

    TRANSACTION = "tx"
    BLOCK = "block"


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for all protocol messages.

    Attributes:
        sender: node id of the sending peer.
        message_id: unique id used for tracing and de-duplication in tests.
    """

    sender: int
    message_id: int = field(default_factory=lambda: next(_message_counter), compare=False)

    #: Bitcoin wire command name; overridden by each concrete message.
    command: ClassVar[str] = ""

    def wire_payload(self) -> Optional[object]:
        """Payload descriptor handed to :func:`repro.net.message.message_size_bytes`."""
        return None


@dataclass(frozen=True, slots=True)
class VersionMessage(Message):
    """Handshake: advertises protocol version and listening address."""

    protocol_version: int = 70015
    user_agent: str = "/repro:1.0/"
    command: ClassVar[str] = "version"


@dataclass(frozen=True, slots=True)
class VerackMessage(Message):
    """Handshake acknowledgement."""

    command: ClassVar[str] = "verack"


@dataclass(frozen=True, slots=True)
class PingMessage(Message):
    """Keep-alive / latency probe."""

    nonce: int = 0
    command: ClassVar[str] = "ping"


@dataclass(frozen=True, slots=True)
class PongMessage(Message):
    """Reply to a ping, echoing its nonce."""

    nonce: int = 0
    command: ClassVar[str] = "pong"


@dataclass(frozen=True, slots=True)
class GetAddrMessage(Message):
    """Request for known peer addresses."""

    command: ClassVar[str] = "getaddr"


@dataclass(frozen=True, slots=True)
class AddrMessage(Message):
    """Gossip of known peer addresses (node ids in the simulation)."""

    addresses: tuple[int, ...] = ()
    command: ClassVar[str] = "addr"

    def wire_payload(self) -> int:
        return len(self.addresses)


@dataclass(frozen=True, slots=True)
class InvMessage(Message):
    """Announcement of available objects by hash (Fig. 1, step 1)."""

    inventory_type: InventoryType = InventoryType.TRANSACTION
    hashes: tuple[str, ...] = ()
    command: ClassVar[str] = "inv"

    def wire_payload(self) -> int:
        return len(self.hashes)


@dataclass(frozen=True, slots=True)
class GetDataMessage(Message):
    """Request for the full data of announced objects (Fig. 1, step 2)."""

    inventory_type: InventoryType = InventoryType.TRANSACTION
    hashes: tuple[str, ...] = ()
    command: ClassVar[str] = "getdata"

    def wire_payload(self) -> int:
        return len(self.hashes)


@dataclass(frozen=True, slots=True)
class TxMessage(Message):
    """Delivery of a full transaction (Fig. 1, step 3)."""

    transaction: Optional[Transaction] = None
    command: ClassVar[str] = "tx"

    def wire_payload(self) -> Optional[int]:
        return self.transaction.size_bytes if self.transaction is not None else None


@dataclass(frozen=True, slots=True)
class BlockMessage(Message):
    """Delivery of a full block."""

    block: Optional[Block] = None
    command: ClassVar[str] = "block"

    def wire_payload(self) -> Optional[int]:
        return self.block.size_bytes if self.block is not None else None


@dataclass(frozen=True, slots=True)
class CmpctBlockMessage(Message):
    """Compact-block announcement: header, short transaction ids, coinbase.

    The BIP 152-style relay optimisation: instead of announcing a block by
    hash (INV) and shipping the full payload on request, the relayer pushes
    the 80-byte header plus one :data:`SHORT_ID_HEX_CHARS`-character short id
    per confirmed transaction.  The receiver reconstructs the block from its
    own mempool and only requests the transactions it is missing with
    :class:`GetBlockTxnMessage`.  The coinbase can never be in anyone's
    mempool, so it is always prefilled.
    """

    header: Optional["BlockHeader"] = None
    height: int = 0
    short_ids: tuple[str, ...] = ()
    coinbase: Optional[Transaction] = None
    command: ClassVar[str] = "cmpctblock"

    def wire_payload(self) -> int:
        coinbase_bytes = self.coinbase.size_bytes if self.coinbase is not None else 0
        return BLOCK_HEADER_BYTES + len(self.short_ids) * SHORT_ID_BYTES + coinbase_bytes

    @property
    def block_hash(self) -> str:
        """Hash of the announced block (from its header)."""
        if self.header is None:
            raise ValueError("compact block message carries no header")
        return self.header.block_hash


@dataclass(frozen=True, slots=True)
class GetBlockTxnMessage(Message):
    """Request for the transactions a compact block could not reconstruct."""

    block_hash: str = ""
    indexes: tuple[int, ...] = ()
    command: ClassVar[str] = "getblocktxn"

    def wire_payload(self) -> int:
        return len(self.indexes)


@dataclass(frozen=True, slots=True)
class BlockTxnMessage(Message):
    """Reply to :class:`GetBlockTxnMessage`: the requested transactions."""

    block_hash: str = ""
    indexes: tuple[int, ...] = ()
    transactions: tuple[Transaction, ...] = ()
    command: ClassVar[str] = "blocktxn"

    def wire_payload(self) -> int:
        return sum(tx.size_bytes for tx in self.transactions)


@dataclass(frozen=True, slots=True)
class GetHeadersMessage(Message):
    """Request for the headers extending the requester's best chain.

    ``locator`` is a block locator: best-chain hashes starting at the tip with
    exponentially growing gaps, ending at genesis.  The responder finds the
    highest locator entry on its own best chain and replies with the headers
    that follow it (:class:`HeadersMessage`), so one round-trip discovers the
    whole gap however far behind the requester is.  ``stop_hash`` optionally
    truncates the reply at a specific block (empty means "as many as fit").
    """

    locator: tuple[str, ...] = ()
    stop_hash: str = ""
    command: ClassVar[str] = "getheaders"

    def wire_payload(self) -> int:
        return len(self.locator)


@dataclass(frozen=True, slots=True)
class HeadersMessage(Message):
    """Delivery of block headers (reply to GETHEADERS, or a BIP 130-style
    headers-first block announcement).

    ``heights`` carries the chain height of each header; the real protocol
    derives heights from the parent linkage, so the wire size stays 81 bytes
    per entry (80-byte header plus the empty tx-count byte).
    """

    headers: tuple[BlockHeader, ...] = ()
    heights: tuple[int, ...] = ()
    command: ClassVar[str] = "headers"

    def wire_payload(self) -> int:
        return len(self.headers)


@dataclass(frozen=True, slots=True)
class JoinMessage(Message):
    """Cluster-join request sent to the closest discovered node (Section IV.B)."""

    measured_rtt_s: float = 0.0
    command: ClassVar[str] = "join"


@dataclass(frozen=True, slots=True)
class JoinAcceptMessage(Message):
    """Positive response to a JOIN request."""

    cluster_id: int = -1
    command: ClassVar[str] = "join_accept"


@dataclass(frozen=True, slots=True)
class ClusterMembersMessage(Message):
    """List of node ids belonging to the responder's cluster (Section IV.B)."""

    cluster_id: int = -1
    members: tuple[int, ...] = ()
    command: ClassVar[str] = "cluster_members"

    def wire_payload(self) -> int:
        return len(self.members)
