"""Bitcoin protocol substrate.

Implements the pieces of the Bitcoin system the paper's evaluation depends on:

* :mod:`repro.protocol.crypto` — keypairs, addresses and signatures (a
  deterministic SHA-256 stand-in for ECDSA; see DESIGN.md substitutions);
* :mod:`repro.protocol.transaction` — transactions with inputs/outputs;
* :mod:`repro.protocol.utxo` — the unspent-output ledger;
* :mod:`repro.protocol.block` / :mod:`repro.protocol.blockchain` — blocks and
  a fork-capable chain;
* :mod:`repro.protocol.validation` — transaction/block validation with an
  explicit verification-cost model (the delay the paper blames for slow
  propagation);
* :mod:`repro.protocol.mempool` — per-node pool of unconfirmed transactions;
* :mod:`repro.protocol.messages` — the P2P message vocabulary (VERSION, INV,
  GETDATA, TX, CMPCTBLOCK, PING/PONG, ADDR, JOIN, ...);
* :mod:`repro.protocol.node` — the peer: wallet, mempool, chain and intake;
* :mod:`repro.protocol.relay` — pluggable relay strategies (flood / compact
  blocks / cluster push) that own the node's message plane;
* :mod:`repro.protocol.network` — wires nodes, links and the event engine
  together and delivers messages with realistic delays;
* :mod:`repro.protocol.discovery` — DNS seeds and ADDR gossip;
* :mod:`repro.protocol.mining` — simplified proof-of-work block production;
* :mod:`repro.protocol.doublespend` — the race attacker used by the
  double-spend experiment;
* :mod:`repro.protocol.adversary` — the adversary plane: byzantine relay
  behaviours (silent / selective / delay) filtered at the network's send
  choke point, and Eyal–Sirer selfish-mining block withholding.

Public entry points: :class:`~repro.protocol.node.BitcoinNode` (the peer,
including its observer hooks ``transaction_listeners`` /
``block_listeners``, the measurement and analysis planes' capture points),
:class:`~repro.protocol.network.P2PNetwork` (delivery fabric),
:class:`~repro.protocol.relay.RelayStrategy` (pluggable relay, selected by
``NodeConfig.relay_strategy``) and :class:`~repro.protocol.mining.MiningProcess`.
"""

from repro.protocol.block import Block, BlockHeader
from repro.protocol.adversary import (
    ByzantineBehavior,
    DelayByzantine,
    SelectiveByzantine,
    SelfishMiner,
    SilentByzantine,
)
from repro.protocol.blockchain import Blockchain
from repro.protocol.crypto import KeyPair, sha256_hex, sign, verify_signature
from repro.protocol.discovery import DnsSeedService
from repro.protocol.mempool import Mempool
from repro.protocol.messages import (
    AddrMessage,
    BlockMessage,
    BlockTxnMessage,
    ClusterMembersMessage,
    CmpctBlockMessage,
    GetAddrMessage,
    GetBlockTxnMessage,
    GetDataMessage,
    InvMessage,
    InventoryType,
    JoinAcceptMessage,
    JoinMessage,
    Message,
    PingMessage,
    PongMessage,
    TxMessage,
    VerackMessage,
    VersionMessage,
)
from repro.protocol.network import P2PNetwork
from repro.protocol.node import BitcoinNode, NodeConfig
from repro.protocol.relay import (
    RELAY_NAMES,
    RELAY_STRATEGIES,
    CompactBlockRelay,
    FloodRelay,
    PushRelay,
    RelayStrategy,
    build_relay_strategy,
    validate_relay_name,
)
from repro.protocol.transaction import Transaction, TxInput, TxOutput
from repro.protocol.utxo import UtxoSet
from repro.protocol.validation import TransactionValidator, ValidationResult

__all__ = [
    "AddrMessage",
    "BitcoinNode",
    "Block",
    "BlockHeader",
    "BlockMessage",
    "BlockTxnMessage",
    "Blockchain",
    "ByzantineBehavior",
    "ClusterMembersMessage",
    "CmpctBlockMessage",
    "CompactBlockRelay",
    "DelayByzantine",
    "DnsSeedService",
    "FloodRelay",
    "GetAddrMessage",
    "GetBlockTxnMessage",
    "GetDataMessage",
    "InvMessage",
    "InventoryType",
    "JoinAcceptMessage",
    "JoinMessage",
    "KeyPair",
    "Mempool",
    "Message",
    "NodeConfig",
    "P2PNetwork",
    "PingMessage",
    "PongMessage",
    "PushRelay",
    "RELAY_NAMES",
    "RELAY_STRATEGIES",
    "RelayStrategy",
    "SelectiveByzantine",
    "SelfishMiner",
    "SilentByzantine",
    "Transaction",
    "TransactionValidator",
    "TxInput",
    "TxMessage",
    "TxOutput",
    "UtxoSet",
    "ValidationResult",
    "VerackMessage",
    "VersionMessage",
    "build_relay_strategy",
    "sha256_hex",
    "validate_relay_name",
    "sign",
    "verify_signature",
]
