"""Run one benchmark cell in this process and print its record as JSON.

The runner (``bench/run.py``) starts one fresh interpreter per cell, so
``peak_rss_mb`` is the cell's own and no cache survives from one cell to the
next.  The record is the last line of standard output::

    python -m bench.cell --workload fig3-500 --seed 3 --traced 0
    python -m bench.cell --preflight
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional, Sequence

from bench import workloads


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="JSONL file for a traced cell's raw spans")
    parser.add_argument("--preflight", action="store_true", help="run the golden fig3 check")
    args = parser.parse_args(argv)
    if args.preflight:
        print(json.dumps({"problems": workloads.preflight()}))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --preflight is given")
    record = workloads.run_cell(
        workloads.WORKLOADS[args.workload],
        args.seed,
        traced=bool(args.traced),
        spans_path=args.spans,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
