"""Compare two sets of benchmark runs and give a verdict per metric.

    python bench/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

Each file is a record written by ``bench/run.py --json``.  Run each set at
least three times and interleave the sets (A, B, A, B, ...), since timing
noise on a shared machine drifts over minutes; only medians are compared.

For every (workload, end-to-end metric) the table shows each side's median
and quartiles and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``regressed`` / ``improved``: B's median moved by more than the bound;
* ``unchanged``: it moved by less;
* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell, unless every B run beats
  every A run (``improved``).

Each workload also gets a ``failed_frac`` row: failed cells over attempted
cells, summed over each side's runs.  Any increase is ``regressed``, so a
faster B whose cells fail their checks never passes.

Traced records also get their per-layer ``self_s`` medians compared; a layer
whose self time grew by more than :data:`LAYER_TOLERANCE` (and by more than
:data:`MIN_DELTA_S`, below which timer noise dominates) is flagged.  The
exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Optional, Sequence

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Per-layer self-time growth smaller than this is never flagged.
MIN_DELTA_S = 0.005
#: Relative per-layer self-time growth that is flagged.
LAYER_TOLERANCE = 0.25

#: (workload, metric) -> one value per run file.  The pseudo-metrics
#: ``failed`` and ``attempted`` hold each run's cell counts.
Runs = dict[tuple[str, str], list[float]]


def load_runs(paths: Sequence[Path]) -> Runs:
    """(workload, metric) -> one value per run file."""
    runs: Runs = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        for workload, result in record["workloads"].items():
            for metric, entry in result["metrics"].items():
                runs.setdefault((workload, metric), []).append(entry["value"])
            for count in ("failed", "attempted"):
                runs.setdefault((workload, count), []).append(result[count])
    return runs


def failed_frac(runs: Runs, workload: str) -> float:
    """Failed cells over attempted cells, over every run of one side."""
    return sum(runs[workload, "failed"]) / sum(runs[workload, "attempted"])


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """The verdict for one metric; ``a`` is the baseline, ``b`` the change."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    worse = sign * (statistics.median(b) - med_a) / abs(med_a) if med_a else 0.0
    b_always_better = all(sign * (vb - va) < 0 for va in a for vb in b)
    if max(spread(a), spread(b)) > bound:
        return "improved" if b_always_better else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a: Runs, b: Runs, spec: dict) -> tuple[list[str], list[str], int]:
    """Table rows, per-layer flags and the number of regressions."""
    rows = [
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | change | verdict |",
        "|---|---|---|---|---|---|",
    ]
    regressions = 0
    workloads = sorted({workload for workload, _ in a} & {workload for workload, _ in b})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            result = verdict(a[key], b[key], metric["bound"], metric["better"])
            regressions += result == "regressed"
            qa, qb = quartiles(a[key]), quartiles(b[key])
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            rows.append(
                f"| {workload} | {metric['name']} ({metric['unit']}) "
                f"| {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] "
                f"| {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] | {change:+.1%} | {result} |"
            )
        frac_a, frac_b = failed_frac(a, workload), failed_frac(b, workload)
        result = "regressed" if frac_b > frac_a else "unchanged"
        regressions += result == "regressed"
        rows.append(
            f"| {workload} | failed_frac | {frac_a:.3g} | {frac_b:.3g} "
            f"| {frac_b - frac_a:+.3g} | {result} |"
        )
    flags = []
    for workload in workloads:
        for metric in spec["per_layer"]:
            name = metric["name"]
            key = (workload, name)
            if not name.endswith("self_s") or key not in a or key not in b:
                continue
            med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
            if med_b - med_a > MIN_DELTA_S and med_b > med_a * (1 + LAYER_TOLERANCE):
                flags.append(f"{workload} {name}: {med_a:.4g} s -> {med_b:.4g} s")
    return rows, flags, regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_files", nargs="+", type=Path, metavar="A.json")
    raw = list(sys.argv[1:] if argv is None else argv)
    if "--" not in raw or raw.index("--") == len(raw) - 1:
        parser.error("give the A runs, then --, then the B runs")
    split = raw.index("--")
    args = parser.parse_args(raw[:split])
    a_files, b_files = args.a_files, [Path(name) for name in raw[split + 1 :]]

    spec = json.loads(BENCHMARK.read_text())
    rows, flags, regressions = compare(load_runs(a_files), load_runs(b_files), spec)
    print(f"A: {len(a_files)} run(s), B: {len(b_files)} run(s)")
    print("\n".join(rows))
    for flag in flags:
        print(f"FLAG per-layer self time grew: {flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
