"""Shared experiment configuration.

Every figure/extension driver takes an :class:`ExperimentConfig`; the defaults
are sized so the full benchmark suite runs in minutes on a laptop, while
``--nodes 5000 --runs 1000`` reproduces the paper's scale.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by all experiments.

    Attributes:
        node_count: nodes in the simulated network.  The paper uses the
            measured size of the reachable network (~5000); the default keeps
            benchmark runtimes small.
        runs: measurement repetitions per (protocol, measuring node) pair.
            The paper averages ~1000 runs; the aggregate sample count here is
            ``runs * len(measuring_nodes) * connections``.
        seeds: master seeds; results are aggregated across them.
        measuring_nodes: how many distinct measuring nodes to rotate through
            (spreads the measurement over different clusters).
        latency_threshold_s: BCBPT's ``d_t`` for the main comparison (25 ms in
            the paper's Fig. 3).
        fig4_thresholds_s: the thresholds swept in Fig. 4.
        max_outbound: outbound connection quota for every policy.
        exclude_long_links: measure only the proximity connections of the
            measuring node (see :class:`repro.measurement.MeasuringNode`).
        payment_satoshi: value of each measured transaction.
        funding_outputs_per_node: confirmed outputs funded per node (must be
            at least ``runs`` for measuring nodes).
        run_timeout_s: per-repetition simulated-time budget.
        workers: processes used to fan (protocol, seed) jobs out.  1 (the
            default) runs the bit-exact serial path in-process; 0 means "one
            per CPU"; higher values use the process-pool backend
            (:class:`~repro.experiments.backends.PoolBackend`), whose results
            come back in submission order, so results are identical for
            every worker count.
    """

    node_count: int = 200
    runs: int = 10
    seeds: tuple[int, ...] = (3, 11, 23)
    measuring_nodes: int = 3
    latency_threshold_s: float = 0.025
    fig4_thresholds_s: tuple[float, ...] = (0.030, 0.050, 0.100)
    max_outbound: int = 8
    exclude_long_links: bool = True
    payment_satoshi: int = 10_000
    funding_outputs_per_node: int = 0
    run_timeout_s: float = 60.0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.node_count < 10:
            raise ValueError(f"experiments need at least 10 nodes, got {self.node_count}")
        if self.runs <= 0:
            raise ValueError("runs must be positive")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            # Results are keyed by seed downstream (the per-seed sample
            # series), so a repeated seed would pool its cells' samples twice
            # while storing them once: the envelope would contradict itself.
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.measuring_nodes <= 0:
            raise ValueError("measuring_nodes must be positive")
        if self.latency_threshold_s <= 0:
            raise ValueError("latency_threshold_s must be positive")
        if not self.fig4_thresholds_s:
            raise ValueError("at least one fig4 threshold is required")
        if any(t <= 0 for t in self.fig4_thresholds_s):
            raise ValueError("fig4 thresholds must be positive")
        if self.max_outbound <= 0:
            raise ValueError("max_outbound must be positive")
        if self.payment_satoshi <= 0:
            raise ValueError("payment_satoshi must be positive")
        if self.funding_outputs_per_node < 0:
            raise ValueError("funding_outputs_per_node cannot be negative (0 means runs + 2)")
        if self.run_timeout_s <= 0:
            raise ValueError("run_timeout_s must be positive")
        if self.workers < 0:
            raise ValueError("workers cannot be negative (0 means one per CPU)")

    @property
    def funding_outputs(self) -> int:
        """Confirmed outputs per node: explicit value or enough for every run."""
        if self.funding_outputs_per_node > 0:
            return self.funding_outputs_per_node
        return self.runs + 2

    def with_overrides(self, **kwargs: object) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    # ----------------------------------------------------------------- CLI
    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """Register the standard experiment flags on an argparse parser.

        This is the single argparse builder shared by every experiment: the
        unified ``python -m repro.experiments run`` CLI composes these flags
        with each registered spec's declarative
        :class:`~repro.experiments.api.ExperimentOption` extras.
        """
        parser.add_argument("--nodes", type=int, default=None, help="network size")
        parser.add_argument("--runs", type=int, default=None, help="repetitions per measuring node")
        parser.add_argument(
            "--seeds", type=int, nargs="+", default=None, help="master random seeds"
        )
        parser.add_argument(
            "--measuring-nodes", type=int, default=None, help="distinct measuring nodes to rotate"
        )
        parser.add_argument(
            "--threshold-ms", type=float, default=None, help="BCBPT latency threshold in ms"
        )
        parser.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes for (protocol, seed) jobs (1 = serial, 0 = one per CPU)",
        )

    @staticmethod
    def from_args(args: argparse.Namespace, base: Optional["ExperimentConfig"] = None) -> "ExperimentConfig":
        """Apply parsed CLI flags on top of a base configuration."""
        config = base if base is not None else ExperimentConfig()
        overrides: dict[str, object] = {}
        if args.nodes is not None:
            overrides["node_count"] = args.nodes
        if args.runs is not None:
            overrides["runs"] = args.runs
        if args.seeds is not None:
            overrides["seeds"] = tuple(args.seeds)
        if args.measuring_nodes is not None:
            overrides["measuring_nodes"] = args.measuring_nodes
        if args.threshold_ms is not None:
            overrides["latency_threshold_s"] = args.threshold_ms / 1000.0
        if getattr(args, "workers", None) is not None:
            overrides["workers"] = args.workers
        if overrides:
            config = config.with_overrides(**overrides)
        return config
