"""Render ``bench/PROFILE.md`` from the traced runs' layer tables.

Run a traced pass first, then render::

    python bench/run.py --seed 3 --trace
    python bench/render_profile.py

For each workload the profile lists the three layers with the largest share
of the traced wall time (self time summed over the layer's spans) and the
tracing overhead, under a fingerprint of the machine that measured them.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

if not __package__:  # run as a script: make ``bench`` and ``repro`` importable
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import layers, run, workloads  # noqa: E402

#: Span-name prefixes reported under another layer's name.
LAYER_ALIASES = {"utxo": "chain", "bench": "harness"}


def layer_of(span: str) -> str:
    head = span.split(".", 1)[0]
    return LAYER_ALIASES.get(head, head)


def fingerprint() -> list[str]:
    import networkx
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=run.ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return [
        f"- CPU: {cpu}, nproc {os.cpu_count()}",
        f"- Python {platform.python_version()}, numpy {numpy.__version__}, networkx {networkx.__version__}",
        f"- git HEAD when measured: {sha} (the simulator sources profiled)",
    ]


def workload_row(name: str) -> str:
    document = json.loads((run.OUT / f"{name}.layers.json").read_text())
    spans = document["spans"]
    wall = spans[layers.CELL_SPAN]["cumulative_s"]
    shares: dict[str, float] = {}
    for span, row in spans.items():
        shares[layer_of(span)] = shares.get(layer_of(span), 0.0) + row["self_s"]
    top = sorted(shares.items(), key=lambda item: item[1], reverse=True)[:3]
    cells = [f"{layer} {seconds / wall:.0%}" for layer, seconds in top]
    overhead = document["metrics"]["trace.overhead_frac"]
    return f"| {name} | {document['seed']} | {wall:.2f} | {' · '.join(cells)} | {overhead:+.0%} |"


def main() -> int:
    lines = [
        "# Traced layer profile",
        "",
        "Where each workload's time goes, from `python bench/run.py --seed 3 --trace`",
        "rendered by `python bench/render_profile.py`.  A layer's share is the self time of",
        "its spans (span time minus wrapped child spans) over the traced cell's wall",
        "time; `harness` is time outside any layer span plus counter harvesting.",
        "Traced times are inflated by the spans themselves: the overhead column is",
        "the traced median wall over the untraced median wall, minus one.",
        "",
        "Machine:",
        "",
        *fingerprint(),
        "",
        "| workload | seed | traced wall (s, uncalibrated) | top three layers by self-time share | trace overhead |",
        "|---|---|---|---|---|",
    ]
    lines += [workload_row(name) for name in workloads.WORKLOADS]
    path = run.ROOT / "bench" / "PROFILE.md"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
