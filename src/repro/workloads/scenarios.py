"""Named scenario presets: network + policy (+ churn) ready to measure.

A :class:`Scenario` bundles a freshly-built network with a constructed
neighbour-selection policy and the build report of its topology.  Experiments,
benchmarks and examples use :func:`build_scenario` so they all agree on what
"run protocol X on a network of N nodes with seed S" means.  The relay
protocol is an independent axis: ``build_scenario(..., relay="compact")``
makes every node run the named
:class:`~repro.protocol.relay.RelayStrategy` instead of the default
INV/GETDATA flood.

Dynamic membership
------------------

Passing a :class:`ChurnSchedule` to :func:`build_scenario` turns the static
topology into a *dynamic-membership* scenario: a
:class:`~repro.core.maintenance.ChurnMaintainer` is wired to the network so
nodes leave and rejoin mid-simulation (session lengths drawn from
:class:`~repro.net.churn.SessionLengthModel`), departures tear their
connections down, and rejoining nodes are re-clustered and re-connected by the
scenario's policy.  Churn does not start on its own — call
:meth:`Scenario.start_churn` once the measurement phase begins, optionally
sparing a set of nodes (e.g. measuring nodes) from the churn cycle.

Composed attack scenarios
-------------------------

An :class:`AttackSpec` names an adversary composition and
:func:`install_attack` applies it to a built scenario: silent byzantine
peers scattered at random, captured cluster representatives (the PR-2
``representative_of`` role — the high-value target the paper never
stress-tests), delay injectors, or an eclipse ring of selective-relay nodes
placed latency-nearest to a victim (composed with churn by the attacks
experiment, so the overlay is being repaired while it is being attacked).
Adversary *selection* draws only from the ``"adversary-selection"`` named
stream and behaviours only from ``"adversary-behavior"``, so attack-off runs
stay byte-identical to builds that predate the adversary plane.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.core.bcbpt import BcbptConfig, BcbptPolicy
from repro.core.lbc import LbcConfig, LbcPolicy
from repro.core.maintenance import ChurnMaintainer
from repro.core.policy import NeighbourPolicy, TopologyBuildReport
from repro.core.random_topology import RandomNeighbourPolicy, RandomPolicyConfig
from repro.net.churn import SessionParameters
from repro.protocol.relay import RELAY_NAMES, validate_relay_name
from repro.workloads.network_gen import NetworkParameters, SimulatedNetwork, build_network

#: Protocol names accepted by :func:`build_policy` / :func:`build_scenario`.
POLICY_NAMES = ("bitcoin", "lbc", "bcbpt")

#: Adversary compositions accepted by :class:`AttackSpec` /
#: :func:`install_attack`.  ``"none"`` is the honest baseline cell;
#: ``"selfish"`` installs no relay behaviour here (the withholding filter is
#: wired by :class:`~repro.protocol.adversary.SelfishMiner`, which needs the
#: experiment's mining process).
ATTACK_KINDS = ("none", "byzantine", "representatives", "delay", "eclipse", "selfish")

__all__ = [
    "ATTACK_KINDS",
    "POLICY_NAMES",
    "RELAY_NAMES",
    "AttackSpec",
    "ChurnSchedule",
    "Scenario",
    "build_policy",
    "build_scenario",
    "install_attack",
    "validate_attack_kind",
    "validate_policy_name",
    "validate_relay_name",
]


def validate_attack_kind(kind: str) -> str:
    """Check an attack kind against :data:`ATTACK_KINDS` and return it.

    Raises:
        ValueError: for an unknown attack kind.
    """
    if kind not in ATTACK_KINDS:
        raise ValueError(f"unknown attack {kind!r}; expected one of {ATTACK_KINDS}")
    return kind


@dataclass(frozen=True)
class AttackSpec:
    """A picklable adversary composition for one scenario.

    Attributes:
        kind: one of :data:`ATTACK_KINDS`.
        fraction: share of the node population the adversary controls
            (``byzantine``/``delay``/``eclipse``; also the random-control
            size for ``representatives`` on non-clustered overlays).
        extra_delay_s: fixed extra forwarding delay of a ``delay`` adversary.
        delay_jitter_s: width of the uniform extra delay on top of it.
        hashpower: the selfish miner's hash-power share α (``selfish`` only).
    """

    kind: str = "none"
    fraction: float = 0.2
    extra_delay_s: float = 0.25
    delay_jitter_s: float = 0.25
    hashpower: float = 0.35

    def __post_init__(self) -> None:
        validate_attack_kind(self.kind)
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        if self.extra_delay_s < 0:
            raise ValueError(f"extra_delay_s cannot be negative, got {self.extra_delay_s}")
        if self.delay_jitter_s < 0:
            raise ValueError(
                f"delay_jitter_s cannot be negative, got {self.delay_jitter_s}"
            )
        if not 0.0 < self.hashpower < 1.0:
            raise ValueError(f"hashpower must be in (0, 1), got {self.hashpower}")

    @property
    def needs_churn(self) -> bool:
        """Whether this composition runs on a dynamic-membership scenario."""
        return self.kind == "eclipse"

    @property
    def mines_selfishly(self) -> bool:
        """Whether the experiment must wire a selfish miner for this spec."""
        return self.kind == "selfish"


def install_attack(
    scenario: "Scenario",
    spec: AttackSpec,
    *,
    victim: Optional[int] = None,
    protected: Iterable[int] = (),
) -> tuple[int, ...]:
    """Install the spec's byzantine behaviours on a built scenario.

    Selection rules per kind:

    * ``byzantine`` — a ``fraction`` of the population, drawn uniformly from
      the ``"adversary-selection"`` stream, each made
      :class:`~repro.protocol.adversary.SilentByzantine`.
    * ``representatives`` — every cluster representative (the maintainer's
      :meth:`~repro.core.maintenance.ChurnMaintainer.representative_of` role
      when churn is wired, the cluster founder otherwise) turns silent.  On
      the non-clustered vanilla overlay there are no representatives, so an
      equal-``fraction`` random set stands in as the fair control cell.
    * ``delay`` — a random ``fraction`` becomes
      :class:`~repro.protocol.adversary.DelayByzantine`, adding
      ``extra_delay_s`` plus uniform ``delay_jitter_s`` to every relayed
      message (jitter drawn from ``"adversary-behavior"``).
    * ``eclipse`` — the ``fraction`` of nodes latency-nearest to ``victim``
      relay honestly to everyone *except* the victim
      (:class:`~repro.protocol.adversary.SelectiveByzantine`) — the
      concentrated-near-the-target placement the paper warns about.
    * ``none`` / ``selfish`` — no relay behaviours installed here.

    Args:
        scenario: the built scenario to corrupt.
        spec: the adversary composition.
        victim: the eclipse target (required for ``kind="eclipse"``).
        protected: node ids that must stay honest (e.g. the victim itself,
            the observation plane's reference node).

    Returns:
        The corrupted node ids, sorted.
    """
    from repro.protocol.adversary import (
        DelayByzantine,
        SelectiveByzantine,
        SilentByzantine,
    )

    if spec.kind in ("none", "selfish"):
        return ()
    simulated = scenario.network
    network = simulated.network
    shielded = set(protected)
    if victim is not None:
        shielded.add(victim)
    candidates = [n for n in simulated.node_ids() if n not in shielded]
    if not candidates:
        raise ValueError("no candidate nodes left to corrupt")
    count = max(1, int(spec.fraction * simulated.node_count))
    count = min(count, len(candidates))

    if spec.kind == "eclipse":
        if victim is None:
            raise ValueError("an eclipse attack needs a victim node id")
        candidates.sort(key=lambda peer: network.base_rtt(victim, peer))
        chosen = candidates[:count]
        for node_id in chosen:
            network.install_behavior(node_id, SelectiveByzantine({victim}))
        return tuple(sorted(chosen))

    if spec.kind == "representatives":
        representatives = _cluster_representatives(scenario)
        chosen = sorted(rep for rep in representatives if rep not in shielded)
        if not chosen:
            # Non-clustered control: an equally-sized random capture.
            chosen = _draw_nodes(simulated, candidates, count)
        for node_id in chosen:
            network.install_behavior(node_id, SilentByzantine())
        return tuple(chosen)

    chosen = _draw_nodes(simulated, candidates, count)
    if spec.kind == "byzantine":
        for node_id in chosen:
            network.install_behavior(node_id, SilentByzantine())
    else:  # "delay"
        rng = (
            simulated.simulator.random.stream("adversary-behavior")
            if spec.delay_jitter_s > 0
            else None
        )
        for node_id in chosen:
            network.install_behavior(
                node_id,
                DelayByzantine(
                    spec.extra_delay_s, jitter_s=spec.delay_jitter_s, rng=rng
                ),
            )
    return tuple(chosen)


def _draw_nodes(
    simulated: SimulatedNetwork, candidates: list[int], count: int
) -> list[int]:
    """Draw ``count`` distinct nodes from the ``"adversary-selection"`` stream."""
    rng = simulated.simulator.random.stream("adversary-selection")
    indexes = rng.choice(len(candidates), size=count, replace=False)
    return sorted(candidates[int(i)] for i in indexes)


def _cluster_representatives(scenario: "Scenario") -> list[int]:
    """One representative per cluster, in cluster-id order."""
    representatives: list[int] = []
    for cluster in scenario.policy.clusters.clusters():
        rep = None
        if scenario.maintainer is not None:
            rep = scenario.maintainer.representative_of(cluster.cluster_id)
        representatives.append(rep if rep is not None else cluster.founder)
    return representatives


def validate_policy_name(name: str) -> str:
    """Check a policy name against :data:`POLICY_NAMES` and return it.

    Every call path that accepts a protocol/policy name — scenario builders,
    experiment drivers, parallel job constructors — funnels through this
    check, so a typo fails immediately with a clear message instead of deep
    inside a worker process (or, worse, being silently skipped).

    Raises:
        ValueError: for an unknown policy name.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    return name


@dataclass(frozen=True)
class ChurnSchedule:
    """When and how hard nodes churn in a dynamic-membership scenario.

    Attributes:
        median_session_s: median online-session length of ordinary nodes.
        sigma: log-normal session-length shape (larger = heavier tail).
        stable_fraction: share of nodes that are effectively always-on.
        stable_session_s: session length assigned to always-on nodes.
        mean_downtime_s: mean offline gap between two sessions.
        start_delay_s: simulated seconds between :meth:`Scenario.start_churn`
            and the first session clocks starting (lets the initial overlay
            settle, mirroring the paper's build-then-measure phases).
        discovery_interval_s: period of the maintenance discovery sweep that
            tops up under-connected nodes (None disables it).
        repair_interval_s: period of the cluster-repair sweep that re-homes
            orphaned members, replaces departed cluster representatives and
            re-bridges a fragmented overlay (None disables it).
    """

    median_session_s: float = 120.0
    sigma: float = 1.0
    stable_fraction: float = 0.2
    stable_session_s: float = 24 * 3600.0
    mean_downtime_s: float = 30.0
    start_delay_s: float = 0.0
    discovery_interval_s: Optional[float] = 1.0
    repair_interval_s: Optional[float] = 5.0

    def __post_init__(self) -> None:
        if self.median_session_s <= 0:
            raise ValueError("median_session_s must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.stable_fraction <= 1.0:
            raise ValueError("stable_fraction must be in [0, 1]")
        if self.stable_session_s <= 0:
            raise ValueError("stable_session_s must be positive")
        if self.mean_downtime_s < 0:
            raise ValueError("mean_downtime_s cannot be negative")
        if self.start_delay_s < 0:
            raise ValueError("start_delay_s cannot be negative")
        if self.discovery_interval_s is not None and self.discovery_interval_s <= 0:
            raise ValueError("discovery_interval_s must be positive (or None)")
        if self.repair_interval_s is not None and self.repair_interval_s <= 0:
            raise ValueError("repair_interval_s must be positive (or None)")

    def session_parameters(self) -> SessionParameters:
        """The session-length distribution this schedule prescribes."""
        return SessionParameters(
            median_session_s=self.median_session_s,
            sigma=self.sigma,
            stable_fraction=self.stable_fraction,
            stable_session_s=self.stable_session_s,
            mean_downtime_s=self.mean_downtime_s,
        )


@dataclass
class Scenario:
    """A built network with its policy-constructed overlay.

    Attributes:
        name: protocol label the scenario was built for.
        network: the simulated network and its supporting models.
        policy: the neighbour-selection policy that built (and maintains) the
            overlay.
        build_report: summary of the initial topology build.
        churn: the churn schedule, if this is a dynamic-membership scenario.
        maintainer: the churn/maintenance driver (None for static scenarios).
    """

    name: str
    network: SimulatedNetwork
    policy: NeighbourPolicy
    build_report: TopologyBuildReport
    churn: Optional[ChurnSchedule] = None
    maintainer: Optional[ChurnMaintainer] = None

    @property
    def simulator(self):
        """The scenario's event engine."""
        return self.network.simulator

    @property
    def dynamic(self) -> bool:
        """Whether this scenario has live join/leave churn wired up."""
        return self.maintainer is not None

    def start_churn(self, *, spare: Optional[Iterable[int]] = None) -> None:
        """Begin the join/leave cycles of a dynamic-membership scenario.

        Args:
            spare: node ids exempted from churn (they stay online for the
                whole run) — typically the measuring nodes, so a campaign is
                never interrupted by its own observer departing.

        Raises:
            RuntimeError: if the scenario was built without a churn schedule.
        """
        if self.maintainer is None or self.churn is None:
            raise RuntimeError(
                f"scenario {self.name!r} was built without a ChurnSchedule; "
                "pass churn=ChurnSchedule(...) to build_scenario() first"
            )
        spared = set(spare) if spare is not None else set()
        targets = [
            node_id
            for node_id in self.network.network.node_ids()
            if node_id not in spared
        ]
        maintainer = self.maintainer
        if self.churn.start_delay_s > 0:
            self.simulator.schedule(
                self.churn.start_delay_s,
                lambda: maintainer.start(targets),
                label="churn-start",
            )
        else:
            maintainer.start(targets)


def build_policy(
    name: str,
    simulated: SimulatedNetwork,
    *,
    latency_threshold_s: Optional[float] = None,
    max_outbound: int = 8,
) -> NeighbourPolicy:
    """Construct (but do not run) a neighbour policy for a built network.

    Args:
        name: one of ``"bitcoin"``, ``"lbc"``, ``"bcbpt"``.
        simulated: the network to operate on.
        latency_threshold_s: BCBPT's ``d_t``; ignored by the other policies.
        max_outbound: outbound connection quota for every policy.

    Raises:
        ValueError: for an unknown policy name.
    """
    validate_policy_name(name)
    rng = simulated.simulator.random.stream(f"policy-{name}")
    if name == "bitcoin":
        config = RandomPolicyConfig(max_outbound=max_outbound)
        return RandomNeighbourPolicy(
            simulated.network, simulated.seed_service, rng, config
        )
    if name == "lbc":
        config = LbcConfig(max_outbound=max_outbound)
        return LbcPolicy(simulated.network, simulated.seed_service, rng, config)
    if name == "bcbpt":
        threshold = latency_threshold_s if latency_threshold_s is not None else 0.025
        config = BcbptConfig(latency_threshold_s=threshold, max_outbound=max_outbound)
        return BcbptPolicy(simulated.network, simulated.seed_service, rng, config)
    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")


def build_scenario(
    policy_name: str,
    parameters: Optional[NetworkParameters] = None,
    *,
    latency_threshold_s: Optional[float] = None,
    max_outbound: int = 8,
    churn: Optional[ChurnSchedule] = None,
    relay: Optional[str] = None,
) -> Scenario:
    """Build a network, run the policy's topology construction, return both.

    This is the entry point used by the figure experiments: the same
    ``parameters`` (and therefore the same seed-derived node placement) with a
    different ``policy_name`` gives the controlled comparison of Fig. 3.

    Args:
        policy_name: one of :data:`POLICY_NAMES`.
        parameters: network build parameters (defaults apply when omitted).
        latency_threshold_s: BCBPT's ``d_t``; ignored by the other policies.
        max_outbound: outbound connection quota for every policy.
        churn: optional churn schedule.  When given, the returned scenario
            carries a wired (but not yet started)
            :class:`~repro.core.maintenance.ChurnMaintainer`, the network's
            session model follows the schedule, and every node resynchronises
            chain/mempool inventory when it reconnects after downtime
            (``NodeConfig.resync_on_reconnect``).
        relay: relay-strategy name every node runs (one of
            :data:`~repro.protocol.relay.RELAY_NAMES`); None keeps whatever
            ``parameters.node_config.relay_strategy`` says (the ``"flood"``
            baseline by default).

    Raises:
        ValueError: for an unknown policy name.
    """
    validate_policy_name(policy_name)
    params = parameters if parameters is not None else NetworkParameters()
    if relay is not None:
        validate_relay_name(relay)
        params = params.with_overrides(
            node_config=replace(params.node_config, relay_strategy=relay)
        )
    if churn is not None:
        # Dynamic membership: session lengths follow the schedule, and nodes
        # exchange tip/mempool inventory on reconnect so rejoining peers
        # converge back to the network state they missed while offline.
        params = params.with_overrides(
            session=churn.session_parameters(),
            node_config=replace(params.node_config, resync_on_reconnect=True),
        )
    simulated = build_network(params)
    policy = build_policy(
        policy_name,
        simulated,
        latency_threshold_s=latency_threshold_s,
        max_outbound=max_outbound,
    )
    report = policy.build_topology()
    maintainer: Optional[ChurnMaintainer] = None
    if churn is not None:
        maintainer = ChurnMaintainer(
            simulated.simulator,
            simulated.network,
            policy,
            simulated.seed_service,
            simulated.session_model,
            discovery_interval_s=churn.discovery_interval_s,
            repair_interval_s=churn.repair_interval_s,
        )
    return Scenario(
        name=policy_name,
        network=simulated,
        policy=policy,
        build_report=report,
        churn=churn,
        maintainer=maintainer,
    )
