#!/usr/bin/env python3
"""Security analysis: eclipse / partition exposure and double-spend races.

The paper's security discussion (Section V.C) worries that proximity-based
clustering makes eclipse and partition attacks easier, and its motivation
(Section I) argues that faster propagation reduces double-spend risk.  This
example quantifies both sides of that trade-off for the three protocols,
running the registered ``attacks`` and ``doublespend`` experiments through
the unified API.

Run with::

    python examples/attack_analysis.py --nodes 120 --adversary-fraction 0.15
"""

from __future__ import annotations

import argparse

from repro.analysis.report import render_report
from repro.experiments.api import run_experiment
from repro.experiments.config import ExperimentConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=120)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--adversary-fraction", type=float, default=0.15)
    parser.add_argument("--races", type=int, default=4)
    args = parser.parse_args()

    config = ExperimentConfig(
        node_count=args.nodes, runs=3, seeds=tuple(args.seeds), measuring_nodes=2
    )

    print("Evaluating eclipse and partition exposure ...")
    attacks = run_experiment(
        "attacks", config, {"adversary_fraction": args.adversary_fraction}
    )
    print()
    print(render_report(attacks))

    print()
    print("Staging double-spend races ...")
    doublespend = run_experiment(
        "doublespend", config, {"races_per_seed": args.races, "race_horizon_s": 2.0}
    )
    print()
    print(render_report(doublespend))

    # The default sweep runs the eclipse campaign; its cells read the exposure.
    by_name = {r.protocol: r for r in attacks.payload.eclipse}
    print()
    print("Trade-off summary:")
    print(
        f"  eclipse exposure  : bitcoin {by_name['bitcoin'].eclipsed_fraction:.2f} "
        f"vs bcbpt {by_name['bcbpt'].eclipsed_fraction:.2f} "
        "(clustering concentrates the victim's neighbourhood)"
    )
    race_by_name = {p.protocol: p for p in doublespend.payload}
    print(
        f"  attacker first-seen share: bitcoin {race_by_name['bitcoin'].mean_attacker_share:.2f} "
        f"vs bcbpt {race_by_name['bcbpt'].mean_attacker_share:.2f} "
        "(faster relay does not favour the attacker)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
