"""Construction of a complete simulated Bitcoin network.

:func:`build_network` assembles every substrate component — event engine,
geography, latency and bandwidth models, link delay calculator, P2P fabric,
nodes and DNS seed — from a single :class:`NetworkParameters` description, and
returns them bundled in a :class:`SimulatedNetwork`.  All experiments,
examples and most tests start from here.

Network snapshots
-----------------

Building a large network is expensive (position sampling, node construction,
registration), and a (point × seed) experiment grid rebuilds the *same*
network for every point sharing a seed.  :func:`save_network` /
:func:`load_network` snapshot a freshly-built network to disk so the grid
builds each (node count, seed) network once and every cell resumes from its
own private copy.  Snapshots are stream-exact: every random stream is derived
by name from the master seed (creation-order independent) and numpy
``Generator`` objects pickle with their exact bit-stream position, so
build → save → load → run is byte-identical to build → run.  Only *quiescent*
networks snapshot — no pending events, no live processes — which is exactly
the state :func:`build_network` returns.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.net.bandwidth import BandwidthModel
from repro.net.churn import SessionLengthModel, SessionParameters
from repro.net.geo import GeoModel, Region
from repro.net.latency import LatencyModel, LatencyParameters
from repro.net.link import LinkDelayCalculator
from repro.net.topology import OverlayTopology
from repro.protocol.block import Block
from repro.protocol.discovery import DnsSeedService
from repro.protocol.network import P2PNetwork
from repro.protocol.node import BitcoinNode, NodeConfig
from repro.protocol.validation import TransactionValidator, VerificationCostModel
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class NetworkParameters:
    """Everything needed to build a simulated network.

    Attributes:
        node_count: number of Bitcoin nodes.  The paper runs at the measured
            size of the reachable network (~5000); experiments here default to
            a few hundred for tractable runtimes and scale up on request.
        seed: master random seed (drives every stochastic component).
        latency: parameters of the Eq. (2)-(4) latency model.
        node_config: per-node behaviour (outbound quota, relay flags, ...).
        verification_cost: CPU cost model for transaction validation.
        session: churn session-length parameters (only used when an experiment
            enables churn).
        max_connections: per-node cap applied by the overlay topology.
        use_bandwidth_model: whether to draw heterogeneous per-node access
            rates (True) or use the flat link rate from the latency model.
        regions: custom world regions (defaults to the built-in set).
        seed_sample_size: how many addresses a DNS query returns.
        trace: enable event tracing on the engine.
    """

    node_count: int = 200
    seed: int = 1
    latency: LatencyParameters = field(default_factory=LatencyParameters)
    node_config: NodeConfig = field(default_factory=NodeConfig)
    verification_cost: VerificationCostModel = field(default_factory=VerificationCostModel)
    session: SessionParameters = field(default_factory=SessionParameters)
    max_connections: int = 125
    use_bandwidth_model: bool = True
    regions: Optional[Sequence[Region]] = None
    seed_sample_size: int = 25
    trace: bool = False

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError(f"a network needs at least 2 nodes, got {self.node_count}")
        if self.max_connections <= 0:
            raise ValueError("max_connections must be positive")
        if self.seed_sample_size <= 0:
            raise ValueError("seed_sample_size must be positive")

    def with_overrides(self, **kwargs: object) -> "NetworkParameters":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass
class SimulatedNetwork:
    """A fully-wired simulated network and its supporting models."""

    parameters: NetworkParameters
    simulator: Simulator
    geo_model: GeoModel
    latency_model: LatencyModel
    bandwidth_model: Optional[BandwidthModel]
    network: P2PNetwork
    nodes: dict[int, BitcoinNode]
    seed_service: DnsSeedService
    session_model: SessionLengthModel
    genesis: Block

    @property
    def node_count(self) -> int:
        """Number of nodes in the network."""
        return len(self.nodes)

    def node(self, node_id: int) -> BitcoinNode:
        """Look up a node by id."""
        return self.nodes[node_id]

    def node_ids(self) -> list[int]:
        """All node ids, sorted."""
        return sorted(self.nodes)


def build_network(parameters: Optional[NetworkParameters] = None) -> SimulatedNetwork:
    """Build a ready-to-use simulated Bitcoin network.

    Every node is created online, attached to the P2P fabric and registered
    with the DNS seed, but no connections exist yet — establishing the overlay
    is the job of a :class:`~repro.core.policy.NeighbourPolicy`.
    """
    params = parameters if parameters is not None else NetworkParameters()
    simulator = Simulator(seed=params.seed, trace=params.trace)

    geo_model = GeoModel(simulator.random.stream("geo"), regions=params.regions)
    # Array mode: per-pair routing state in flat numpy arrays instead of dicts
    # (byte-identical streams; see LatencyModel).  This is what bounds memory
    # at 10k-node scale.
    latency_model = LatencyModel(
        simulator.random.stream("latency"),
        parameters=params.latency,
        node_count=params.node_count,
    )
    bandwidth_model = (
        BandwidthModel(simulator.random.stream("bandwidth")) if params.use_bandwidth_model else None
    )
    delay_calculator = LinkDelayCalculator(latency_model, bandwidth_model)
    topology = OverlayTopology(max_connections=params.max_connections)
    network = P2PNetwork(simulator, delay_calculator, topology)

    genesis = Block.genesis()
    validator = TransactionValidator(params.verification_cost)
    positions = geo_model.sample_positions(params.node_count)
    nodes: dict[int, BitcoinNode] = {}
    for node_id, position in enumerate(positions):
        node = BitcoinNode(
            node_id,
            position,
            config=params.node_config,
            validator=validator,
            genesis=genesis,
        )
        node.attach(network)
        nodes[node_id] = node

    seed_service = DnsSeedService(
        {node_id: node.position for node_id, node in nodes.items()},
        simulator.random.stream("dns-seed"),
        seed_sample_size=params.seed_sample_size,
    )
    for node_id in nodes:
        seed_service.set_online(node_id, True)

    session_model = SessionLengthModel(
        simulator.random.stream("sessions"), parameters=params.session
    )
    return SimulatedNetwork(
        parameters=params,
        simulator=simulator,
        geo_model=geo_model,
        latency_model=latency_model,
        bandwidth_model=bandwidth_model,
        network=network,
        nodes=nodes,
        seed_service=seed_service,
        session_model=session_model,
        genesis=genesis,
    )


# ------------------------------------------------------------------ snapshots
def save_network(simulated: SimulatedNetwork, path: Union[str, Path]) -> Path:
    """Snapshot a quiescent network to ``path`` (pickle, written atomically).

    The network must be at rest: a pending event or a live process would pull
    scheduled callbacks (closures, generators) into the pickle and make the
    resumed run diverge from — or fail against — a freshly-built one.  The
    output of :func:`build_network`, before any policy runs, always qualifies.

    Raises:
        ValueError: if the network has pending events or live processes.
    """
    simulator = simulated.simulator
    if simulator.pending_events:
        raise ValueError(
            f"cannot snapshot a network with {simulator.pending_events} pending "
            "event(s); snapshots capture quiescent networks only"
        )
    if any(process.alive for process in simulator._processes):
        raise ValueError(
            "cannot snapshot a network with live processes; snapshots capture "
            "quiescent networks only"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "wb") as handle:
        pickle.dump(simulated, handle, protocol=pickle.HIGHEST_PROTOCOL)
    # Atomic publish: a concurrent reader sees either no file or a full one.
    os.replace(tmp_path, path)
    return path


def load_network(path: Union[str, Path]) -> SimulatedNetwork:
    """Load a network snapshot written by :func:`save_network`.

    Every load returns a fresh, fully independent copy: random streams resume
    at their exact saved bit positions, so running a policy/campaign on the
    loaded network is byte-identical to running it on the network the snapshot
    was taken from.

    Inside a warm-worker fork child (see
    :func:`serve_cached_snapshots`) the per-process cache is consulted
    first: the cached object was unpickled from the same bytes a cold load
    would read, and the child's copy-on-write memory makes it private, so
    the result is bit-identical either way.
    """
    cached = _cached_snapshot(path)
    if cached is not None:
        return cached
    with open(path, "rb") as handle:
        simulated = pickle.load(handle)
    if not isinstance(simulated, SimulatedNetwork):
        raise TypeError(f"{path} is not a SimulatedNetwork snapshot: {type(simulated)!r}")
    return simulated


# ------------------------------------------------------- warm snapshot cache
# Per-process warm cache for the pool backend's warm workers: a worker
# unpickles each snapshot it encounters once (LRU-bounded) and runs every
# snapshot-backed cell in a forked child, whose copy-on-write view of the
# cached network is private.  Serving is gated behind an explicit flag that
# only those single-cell children enable — handing the *same* object to two
# cells in one process would let mutations leak between them.
_SNAPSHOT_CACHE: "dict[str, SimulatedNetwork]" = {}
_SNAPSHOT_CACHE_LIMIT = 0
_SERVE_CACHED_SNAPSHOTS = False


def configure_snapshot_cache(limit: int) -> None:
    """Enable this process's warm snapshot cache with an LRU entry bound."""
    global _SNAPSHOT_CACHE_LIMIT
    _SNAPSHOT_CACHE_LIMIT = max(0, limit)
    if _SNAPSHOT_CACHE_LIMIT == 0:
        _SNAPSHOT_CACHE.clear()


def warm_snapshot(path: Union[str, Path]) -> bool:
    """Unpickle ``path`` into this process's warm cache (at most once).

    Returns True when the snapshot is cached afterwards; False when the
    cache is disabled (limit 0) or the file cannot be cached.
    """
    if _SNAPSHOT_CACHE_LIMIT <= 0:
        return False
    key = str(Path(path))
    if key in _SNAPSHOT_CACHE:
        # Refresh LRU recency (dicts preserve insertion order).
        _SNAPSHOT_CACHE[key] = _SNAPSHOT_CACHE.pop(key)
        return True
    with open(key, "rb") as handle:
        simulated = pickle.load(handle)
    if not isinstance(simulated, SimulatedNetwork):
        raise TypeError(f"{key} is not a SimulatedNetwork snapshot: {type(simulated)!r}")
    _SNAPSHOT_CACHE[key] = simulated
    while len(_SNAPSHOT_CACHE) > _SNAPSHOT_CACHE_LIMIT:
        _SNAPSHOT_CACHE.pop(next(iter(_SNAPSHOT_CACHE)))
    return True


def serve_cached_snapshots(enabled: bool) -> None:
    """Let :func:`load_network` return cached objects directly.

    Only safe in a process that loads **at most one** network and never
    shares it — in practice the pool backend's forked single-cell children.
    """
    global _SERVE_CACHED_SNAPSHOTS
    _SERVE_CACHED_SNAPSHOTS = enabled


def _cached_snapshot(path: Union[str, Path]) -> Optional[SimulatedNetwork]:
    if not _SERVE_CACHED_SNAPSHOTS:
        return None
    return _SNAPSHOT_CACHE.get(str(Path(path)))


#: Version of the pickled object layout.  It is part of every snapshot's
#: filename, so bumping it makes a snapshot directory written by older code
#: rebuild instead of loading objects that lack newer fields.
SNAPSHOT_FORMAT = 3


def snapshot_filename(parameters: NetworkParameters) -> str:
    """Deterministic snapshot filename for one parameter set.

    Node count and seed are spelled out for human eyes; the digest over the
    snapshot format and the full parameter repr distinguishes builds that
    differ in any other knob, or that older code wrote.
    """
    key = f"format-{SNAPSHOT_FORMAT}:{parameters!r}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    return f"network-n{parameters.node_count}-s{parameters.seed}-{digest}.pkl"


def ensure_network_snapshot(
    parameters: NetworkParameters, directory: Union[str, Path]
) -> Path:
    """Build-and-save a network snapshot unless an identical one exists.

    The cache key is :func:`snapshot_filename`, so every distinct parameter
    set gets its own file and repeated calls (across points of an experiment
    grid) reuse the first build.
    """
    directory = Path(directory)
    path = directory / snapshot_filename(parameters)
    if not path.exists():
        save_network(build_network(parameters), path)
    return path
