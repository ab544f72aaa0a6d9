"""Wire-level message representation and sizing.

The protocol layer exchanges :class:`~repro.protocol.messages.Message`
objects; this module maps them onto bytes-on-the-wire so that the latency
model can charge a realistic transmission delay for each.  Sizes follow the
Bitcoin P2P wire format circa 2016: every message carries a 24-byte header
(magic, command, length, checksum) plus a payload whose size depends on the
message type and its content (number of inventory entries, transaction size,
address count, ...).
"""

from __future__ import annotations

from typing import Any

#: Size of the fixed Bitcoin P2P message header in bytes.
HEADER_BYTES = 24

#: Per-entry size of an inventory vector (4-byte type + 32-byte hash).
INV_ENTRY_BYTES = 36

#: Serialized size of a network address entry in ADDR messages.
ADDR_ENTRY_BYTES = 30

#: Typical serialized size of a simple 1-in/2-out transaction.
DEFAULT_TX_BYTES = 258

#: Payload of a version message (without user agent).
VERSION_PAYLOAD_BYTES = 102

#: Serialized block header size (the fixed part of block and cmpctblock).
BLOCK_HEADER_BYTES = 80

#: Fixed getblocktxn/blocktxn overhead: 32-byte block hash + 1-byte count.
BLOCK_TXN_REQUEST_BYTES = 33

#: Per-index size in a getblocktxn request (differentially encoded varint;
#: three bytes is a conservative flat estimate).
BLOCK_TXN_INDEX_BYTES = 3

#: Fixed getheaders overhead: 4-byte version + 1-byte locator count + the
#: 32-byte stop hash.
GET_HEADERS_FIXED_BYTES = 37

#: Per-entry size of a block-locator hash in a getheaders request.
GET_HEADERS_LOCATOR_BYTES = 32

#: Per-entry size in a headers reply (80-byte header + 1-byte tx count).
HEADERS_ENTRY_BYTES = 81

#: Ping / pong payload: an 8-byte nonce.
PING_PAYLOAD_BYTES = 8

#: Payload sizes for message commands whose size does not depend on content.
_FIXED_PAYLOADS: dict[str, int] = {
    "version": VERSION_PAYLOAD_BYTES,
    "verack": 0,
    "ping": PING_PAYLOAD_BYTES,
    "pong": PING_PAYLOAD_BYTES,
    "getaddr": 0,
    "join": 16,
    "join_accept": 4,
    "cluster_members": 0,  # plus ADDR_ENTRY_BYTES per member, added below
}


def message_size_bytes(command: str, payload: Any = None) -> int:
    """Serialized size in bytes of a protocol message.

    Args:
        command: lower-case Bitcoin command name (``"inv"``, ``"tx"``, ...).
        payload: command-dependent content descriptor:

            * ``inv`` / ``getdata`` — number of inventory entries (int);
            * ``tx`` — transaction size in bytes (int), or None for a default;
            * ``addr`` / ``cluster_members`` — number of address entries (int);
            * ``cmpctblock`` — payload bytes (header + short ids + coinbase);
            * ``getblocktxn`` — number of requested transaction indexes (int);
            * ``blocktxn`` — total bytes of the returned transactions (int);
            * ``getheaders`` — number of block-locator hashes (int);
            * ``headers`` — number of block headers (int);
            * fixed-size commands ignore the payload.

    Returns:
        Total bytes on the wire including the 24-byte header.
    """
    command = command.lower()
    if command in ("inv", "getdata"):
        count = int(payload) if payload is not None else 1
        if count < 0:
            raise ValueError(f"inventory count cannot be negative, got {count}")
        return HEADER_BYTES + 1 + count * INV_ENTRY_BYTES
    if command == "tx":
        size = int(payload) if payload is not None else DEFAULT_TX_BYTES
        if size <= 0:
            raise ValueError(f"transaction size must be positive, got {size}")
        return HEADER_BYTES + size
    if command == "block":
        size = int(payload) if payload is not None else 500_000
        if size <= 0:
            raise ValueError(f"block size must be positive, got {size}")
        return HEADER_BYTES + size
    if command == "cmpctblock":
        size = int(payload) if payload is not None else BLOCK_HEADER_BYTES
        if size < BLOCK_HEADER_BYTES:
            raise ValueError(
                f"compact block payload cannot be smaller than a header, got {size}"
            )
        return HEADER_BYTES + size
    if command == "getblocktxn":
        count = int(payload) if payload is not None else 1
        if count < 0:
            raise ValueError(f"index count cannot be negative, got {count}")
        return HEADER_BYTES + BLOCK_TXN_REQUEST_BYTES + count * BLOCK_TXN_INDEX_BYTES
    if command == "blocktxn":
        size = int(payload) if payload is not None else 0
        if size < 0:
            raise ValueError(f"transaction bytes cannot be negative, got {size}")
        return HEADER_BYTES + BLOCK_TXN_REQUEST_BYTES + size
    if command == "getheaders":
        count = int(payload) if payload is not None else 1
        if count < 0:
            raise ValueError(f"locator count cannot be negative, got {count}")
        return HEADER_BYTES + GET_HEADERS_FIXED_BYTES + count * GET_HEADERS_LOCATOR_BYTES
    if command == "headers":
        count = int(payload) if payload is not None else 1
        if count < 0:
            raise ValueError(f"header count cannot be negative, got {count}")
        return HEADER_BYTES + 1 + count * HEADERS_ENTRY_BYTES
    if command in ("addr", "cluster_members"):
        count = int(payload) if payload is not None else 1
        if count < 0:
            raise ValueError(f"address count cannot be negative, got {count}")
        return HEADER_BYTES + 1 + count * ADDR_ENTRY_BYTES
    if command in _FIXED_PAYLOADS:
        return HEADER_BYTES + _FIXED_PAYLOADS[command]
    raise KeyError(f"unknown message command {command!r}")
