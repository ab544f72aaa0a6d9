#!/usr/bin/env python3
"""Quickstart: build a BCBPT-clustered Bitcoin network and measure propagation.

This is the smallest end-to-end use of the library:

1. build a simulated Bitcoin network (geography, latency, nodes, DNS seed);
2. let the BCBPT policy cluster it by ping latency (d_t = 25 ms);
3. fund the wallets and run the paper's measuring-node methodology;
4. print the Δt_{m,n} summary.

Run with::

    python examples/quickstart.py [--nodes 150] [--runs 10]
"""

from __future__ import annotations

import argparse

from repro.analysis.stats import summarize_values
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import measure_propagation
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=150, help="network size")
    parser.add_argument("--runs", type=int, default=10, help="measurement repetitions")
    parser.add_argument("--threshold-ms", type=float, default=25.0, help="BCBPT d_t in ms")
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    args = parser.parse_args()

    print(f"Building a {args.nodes}-node network (seed {args.seed}) ...")
    scenario = build_scenario(
        "bcbpt",
        NetworkParameters(node_count=args.nodes, seed=args.seed),
        latency_threshold_s=args.threshold_ms / 1000.0,
    )
    report = scenario.build_report
    print(
        f"BCBPT formed {report.cluster_summary['cluster_count']:.0f} clusters "
        f"(mean size {report.cluster_summary['mean_size']:.1f}) using "
        f"{report.ping_exchanges} ping exchanges; average degree "
        f"{report.average_degree:.1f}."
    )

    config = ExperimentConfig(
        node_count=args.nodes, runs=args.runs, seeds=(args.seed,), measuring_nodes=2
    )
    print(f"Measuring transaction propagation over {args.runs} runs per measuring node ...")
    campaign = measure_propagation(scenario, config)
    summary = summarize_values(campaign.delays)
    print()
    print("Δt distribution over the measuring nodes' proximity connections:")
    print(f"  samples : {int(summary['count'])}")
    print(f"  mean    : {summary['mean_s'] * 1000:.1f} ms")
    print(f"  median  : {summary['median_s'] * 1000:.1f} ms")
    print(f"  std     : {summary['std_s'] * 1000:.1f} ms")
    print(f"  p90     : {summary['p90_s'] * 1000:.1f} ms")
    print(f"  max     : {summary['max_s'] * 1000:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
