"""repro: reproduction of the BCBPT proximity-aware Bitcoin clustering protocol.

This package reproduces "Proximity Awareness Approach to Enhance Propagation
Delay on the Bitcoin Peer-to-Peer Network" (Fadhil/Sallal, Owen, Adda —
ICDCS 2017): a discrete-event Bitcoin P2P simulator, the BCBPT ping-latency
clustering protocol, the LBC geographic baseline, the vanilla Bitcoin baseline,
the paper's measuring-node methodology, experiment drivers that regenerate its
figures, and an analysis plane (:mod:`repro.analysis`, CLI ``repro report``)
that re-renders Fig. 3/4 and percentile tables from any stored run's raw
samples without re-simulation.  See ``docs/ARCHITECTURE.md`` for the layer
map and the determinism contract.

Quickstart::

    from repro.analysis.stats import summarize_values
    from repro.experiments import ExperimentConfig, measure_propagation
    from repro.workloads import NetworkParameters, build_scenario

    scenario = build_scenario("bcbpt", NetworkParameters(node_count=150, seed=7),
                              latency_threshold_s=0.025)
    campaign = measure_propagation(scenario, ExperimentConfig(node_count=150, runs=20))
    print(summarize_values(campaign.delays))
"""

from repro.version import __version__

__all__ = ["__version__"]
