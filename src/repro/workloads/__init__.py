"""Workload and scenario construction.

* :mod:`repro.workloads.network_gen` — builds a complete simulated network
  (engine, geography, latency model, nodes, DNS seed) from a
  :class:`~repro.workloads.network_gen.NetworkParameters` description;
* :mod:`repro.workloads.generators` — funding helpers;
* :mod:`repro.workloads.traffic` — the open-loop traffic plane: load
  schedules (:class:`~repro.workloads.traffic.TrafficProfile`), per-seed fee
  draws, Poisson generation as simulator events and streamed confirmation
  latency (:class:`~repro.workloads.traffic.ConfirmationTracker`);
* :mod:`repro.workloads.scenarios` — named presets combining a network, a
  neighbour-selection policy and (optionally) churn, used by the examples,
  experiments and benchmarks.

Public entry points: :func:`~repro.workloads.scenarios.build_scenario` (the
one call that assembles network + policy + relay + churn from names),
:class:`~repro.workloads.network_gen.NetworkParameters`,
:func:`~repro.workloads.generators.fund_nodes` and
:class:`~repro.workloads.scenarios.ChurnSchedule`.
"""

from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, SimulatedNetwork, build_network
from repro.workloads.traffic import (
    ConfirmationTracker,
    FeeModel,
    TrafficModel,
    TrafficProfile,
)
from repro.workloads.scenarios import (
    POLICY_NAMES,
    RELAY_NAMES,
    ChurnSchedule,
    Scenario,
    build_policy,
    build_scenario,
    validate_policy_name,
    validate_relay_name,
)

__all__ = [
    "ChurnSchedule",
    "ConfirmationTracker",
    "FeeModel",
    "NetworkParameters",
    "POLICY_NAMES",
    "RELAY_NAMES",
    "Scenario",
    "SimulatedNetwork",
    "TrafficModel",
    "TrafficProfile",
    "build_network",
    "build_policy",
    "build_scenario",
    "fund_nodes",
    "validate_policy_name",
    "validate_relay_name",
]
