"""Measurement infrastructure.

Implements the paper's evaluation methodology (Section V):

* :mod:`repro.measurement.stats` — the delay distribution that holds Δt_{m,n}
  samples (finite and non-negative) and summarises them (mean, median,
  percentiles);
* :mod:`repro.measurement.propagation` — the record of one measurement run
  (which neighbour received the transaction when);
* :mod:`repro.measurement.measuring_node` — the measuring node *m* of Fig. 2:
  creates a valid transaction, sends it to exactly one of its connected
  nodes, and records the time every other connection receives it;
* :mod:`repro.measurement.crawler` — a crawler that samples ping/pong RTTs
  across the network, standing in for the authors' real-network crawler used
  to parameterise and validate their simulator.

Public entry points: :class:`~repro.measurement.measuring_node.MeasuringNode`
(one Fig. 2 repetition; :func:`repro.experiments.runner.measure_propagation`
runs the whole campaign), :class:`~repro.measurement.stats.DelayDistribution`
(its math lives in :mod:`repro.analysis.stats`) and
:class:`~repro.measurement.crawler.NetworkCrawler`.
"""

from repro.measurement.crawler import CrawlerReport, NetworkCrawler
from repro.measurement.measuring_node import MeasuringNode
from repro.measurement.propagation import PropagationRun, ReceptionRecord
from repro.measurement.stats import DelayDistribution

__all__ = [
    "CrawlerReport",
    "DelayDistribution",
    "MeasuringNode",
    "NetworkCrawler",
    "PropagationRun",
    "ReceptionRecord",
]
