"""Construction of a complete simulated Bitcoin network.

:func:`build_network` assembles every substrate component — event engine,
geography, latency and bandwidth models, link delay calculator, P2P fabric,
nodes and DNS seed — from a single :class:`NetworkParameters` description, and
returns them bundled in a :class:`SimulatedNetwork`.  All experiments,
examples and most tests start from here.

Network snapshots
-----------------

:func:`save_network` / :func:`load_network` pickle a network to disk and back.
Snapshots are stream-exact: every random stream is derived by name from the
master seed (creation-order independent) and numpy ``Generator`` objects
pickle with their exact bit-stream position, so build → save → load → run is
byte-identical to build → run.  Only *quiescent* networks snapshot — no
pending events, no live processes — which is exactly the state
:func:`build_network` returns.  Experiment cells do not use them: a fresh
build costs no more than one save plus one load, so every cell builds its
own network.
"""

from __future__ import annotations

import os
import pickle
import tempfile
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
from repro.protocol.blockchain import ConfirmationIndex
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
    latency_model = LatencyModel(simulator.random.stream("latency"), parameters=params.latency)
    bandwidth_model = (
        BandwidthModel(simulator.random.stream("bandwidth")) if params.use_bandwidth_model else None
    )
    delay_calculator = LinkDelayCalculator(latency_model, bandwidth_model)
    topology = OverlayTopology(max_connections=params.max_connections)
    network = P2PNetwork(simulator, delay_calculator, topology)

    genesis = Block.genesis()
    # One txid -> blocks index for the whole network: each node's chain keeps
    # only its best chain by height, so confirmed lookups cost no per-node
    # copy of the confirmed txids.
    confirmation_index = ConfirmationIndex()
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
            confirmation_index=confirmation_index,
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
    # A private temp name per writer: two writers may save the same snapshot
    # at once.
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}-", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(simulated, handle, protocol=pickle.HIGHEST_PROTOCOL)
        # Atomic publish: a concurrent reader sees either no file or a full one.
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_network(path: Union[str, Path]) -> SimulatedNetwork:
    """Load a network snapshot written by :func:`save_network`.

    Every load returns a fresh, fully independent copy: random streams resume
    at their exact saved bit positions, so running a policy/campaign on the
    loaded network is byte-identical to running it on the network the snapshot
    was taken from.
    """
    with open(path, "rb") as handle:
        simulated = pickle.load(handle)
    if not isinstance(simulated, SimulatedNetwork):
        raise TypeError(f"{path} is not a SimulatedNetwork snapshot: {type(simulated)!r}")
    return simulated
