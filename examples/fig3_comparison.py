#!/usr/bin/env python3
"""Protocol comparison: regenerate the paper's Fig. 3 at a chosen scale.

Runs the measuring-node campaign under the vanilla Bitcoin protocol, the LBC
geographic clustering protocol and BCBPT (d_t = 25 ms) on identically seeded
networks — through the unified experiment API — then persists the run to the
result store, so it can be diffed against later runs, and prints its report
(the delay percentiles, the stored summaries with the cluster structure, the
per-rank variance curve) and whether the paper's ordering
(BCBPT < LBC < Bitcoin) holds::

    python examples/fig3_comparison.py --nodes 200 --runs 10 --seeds 3 11
    python -m repro.experiments compare fig3     # after two runs

(The same experiment is available directly as ``repro run fig3``.)
"""

from __future__ import annotations

import argparse

from repro.analysis.report import render_report
from repro.experiments.api import run_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultStore


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=200)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--measuring-nodes", type=int, default=3)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--no-save", action="store_true")
    args = parser.parse_args()

    config = ExperimentConfig(
        node_count=args.nodes,
        runs=args.runs,
        seeds=tuple(args.seeds),
        measuring_nodes=args.measuring_nodes,
        workers=args.workers,
    )
    print(
        f"Comparing bitcoin / lbc / bcbpt on {args.nodes}-node networks, "
        f"{len(args.seeds)} seed(s), {args.runs} runs per measuring node ..."
    )
    result = run_experiment("fig3", config)
    run_id = ""
    if not args.no_save:
        run_dir = ResultStore().save(result)
        run_id = f"fig3/{run_dir.name}"
    print()
    print(render_report(result, run_id=run_id))
    if run_id:
        print(f"saved: {run_dir}")
    if result.verdicts["paper_ordering"]:
        print("Paper ordering (BCBPT < LBC < Bitcoin in mean and variance): HOLDS")
        return 0
    print("Paper ordering (BCBPT < LBC < Bitcoin in mean and variance): DOES NOT HOLD")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
