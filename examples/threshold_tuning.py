#!/usr/bin/env python3
"""Threshold tuning: find a good BCBPT latency threshold for a given network.

The paper's Fig. 4 shows that smaller latency thresholds give lower delay
variance, but very small thresholds fragment the overlay into many tiny
clusters that lean on long-distance links.  This example runs the registered
``threshold_sweep`` experiment over a range of thresholds (including the
paper's 25/30/50/100 ms values), prints its report (the delay and cluster
structure per threshold), and recommends the threshold with the lowest p90 delay.

Run with::

    python examples/threshold_tuning.py --nodes 150 --thresholds-ms 15 25 50 100 200

(The same experiment is available directly as ``repro run threshold_sweep``,
including ``--sweep`` support for grid runs over any config field.)
"""

from __future__ import annotations

import argparse

from repro.analysis.report import render_report
from repro.experiments.api import run_experiment
from repro.experiments.config import ExperimentConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=150)
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    parser.add_argument(
        "--thresholds-ms", type=float, nargs="+", default=[15, 25, 50, 100, 200]
    )
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    config = ExperimentConfig(
        node_count=args.nodes,
        runs=args.runs,
        seeds=tuple(args.seeds),
        measuring_nodes=2,
        workers=args.workers,
    )
    print(f"Sweeping BCBPT thresholds {sorted(args.thresholds_ms)} ms on {args.nodes} nodes ...")
    result = run_experiment(
        "threshold_sweep",
        config,
        {"thresholds_ms": tuple(sorted(args.thresholds_ms))},
    )
    print()
    print(render_report(result))

    points = result.payload
    best = min(points, key=lambda point: point.p90_delay_s)
    print()
    print(
        f"Recommended threshold: {best.threshold_s * 1000:.0f} ms "
        f"(p90 Δt = {best.p90_delay_s * 1000:.1f} ms, "
        f"{best.cluster_count:.0f} clusters of mean size {best.mean_cluster_size:.1f})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
