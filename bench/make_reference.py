"""Regenerate ``bench/reference.json``: every workload's output digests for
each input of the reference seeds, each from one untraced cell in a fresh
interpreter (about five minutes).

Run it only for a change that is meant to alter simulation outputs, and say
so in that change::

    python bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if not __package__:  # run as a script: make ``bench`` and ``repro`` importable
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import run, workloads  # noqa: E402

#: The default seed and the held-out seed.
REFERENCE_SEEDS = (3, 11)


def main() -> int:
    reference = {
        name: {
            str(seed): [
                run.run_child(
                    ["--workload", name, "--seed", str(workloads.cell_seed(seed, index))]
                )["digests"]
                for index in range(workloads.INPUTS_PER_SEED)
            ]
            for seed in REFERENCE_SEEDS
        }
        for name in workloads.WORKLOADS
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
