"""Run the repository benchmark and print every metric with its unit.

Each workload runs as a sequence of cells, one fresh interpreter per cell,
back to back and single-threaded, until ``--seconds`` of measuring would be
exceeded (at least :data:`MIN_CELLS` cells).  The cells cycle through inputs
derived from ``--seed``; a cell's outputs must match the committed reference
digests of its input (seeds 3 and 11) or else every other cell of the same
input.
A golden fig3 preflight runs first.

Untraced runs report the end-to-end metrics (medians over cells, in
calibrated seconds, see ``bench/calibrate.py``).  Traced runs run each input
untraced and then traced and report the per-layer metrics, writing
``bench/out/<workload>.layers.json`` and ``.spans.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (cells run), ``failed`` (cells that raised, failed a check or
mismatched a digest) and ``metrics``.  The exit code is non-zero when any
check failed.

    python bench/run.py --seed 3                     # every workload, untraced
    python bench/run.py --workload fig3-300 --seed 11 --seconds 10 --trace 1
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make ``bench`` and ``repro`` importable
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import workloads  # noqa: E402
from bench.compare import quartiles  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
OUT = ROOT / "bench" / "out"

#: Seed used when none is given; 11 is the held-out seed.
DEFAULT_SEED = 3
#: Cells per run at least (a traced run has two per input).  It binds only
#: when the machine runs slow, and then mostly for load-saturated, whose
#: cells take 6–12 s: a median needs three samples.
MIN_CELLS = 3
#: Upper bound on cells per run, whatever ``--seconds`` allows.
MAX_CELLS = 40
#: A cell taking longer than this is killed and counted as failed.
CELL_TIMEOUT_S = 150


class CellFailed(RuntimeError):
    """A cell process exited abnormally or printed no record."""


def benchmark_spec() -> dict[str, Any]:
    return json.loads(BENCHMARK.read_text())


def run_child(args: Sequence[str]) -> dict[str, Any]:
    """Run ``python -m bench.cell ARGS`` in a fresh interpreter; returns its record."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path, "TMPDIR": str(tmp)}
    # One thread per cell: cells are measured single-threaded, and numpy's
    # BLAS pool would otherwise start threads on the other cores.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.cell", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CELL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise CellFailed(f"cell timed out after {CELL_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        detail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise CellFailed(f"cell exited with {proc.returncode}: {detail}")
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, traced: bool) -> list[dict[str, Any]]:
    """Run cells of one workload until ``seconds`` of measuring are used up.

    Successive cells run successive inputs derived from ``seed`` (see
    :func:`~bench.workloads.cell_seed`), so a run's medians cover several
    networks instead of one.  A traced run runs each input twice, untraced
    then traced, so both see the same machine conditions; the trace overhead
    is the ratio of their medians.
    """
    cells: list[dict[str, Any]] = []
    durations: list[float] = []  # per input, both modes together
    modes = (False, True) if traced else (False,)
    started = time.monotonic()
    for index in itertools.count():
        input_started = time.monotonic()
        for traced_cell in modes:
            args = ["--workload", name, "--seed", str(workloads.cell_seed(seed, index))]
            args += ["--traced", str(int(traced_cell))]
            if traced_cell:
                args += ["--spans", str(OUT / f"{name}.spans.jsonl")]
            cells.append({**run_child(args), "input": index % workloads.INPUTS_PER_SEED})
        durations.append(time.monotonic() - input_started)
        elapsed = time.monotonic() - started
        if len(cells) >= MAX_CELLS:
            break
        if len(cells) >= MIN_CELLS and elapsed + statistics.median(durations) > seconds:
            break
    return cells


def check_cells(
    cells: Sequence[dict[str, Any]],
    reference: Optional[Sequence[dict[str, str]]],
    preflight_problems: Sequence[str] = (),
) -> list[str]:
    """One message per failed cell (empty when every cell passed).

    A cell fails when it reported a problem, when its digests differ from
    the committed ``reference`` digests of its input (or, for seeds without
    a reference, from the run's first cell of the same input), or when the
    golden preflight failed, which invalidates every cell.
    """
    first_seen: dict[int, dict[str, str]] = {}
    failures = []
    for position, cell in enumerate(cells):
        digests = cell["digests"]
        if reference is not None:
            expected = reference[cell["input"]]
        else:
            expected = first_seen.setdefault(cell["input"], digests)
        problems = list(preflight_problems) + list(cell["problems"])
        if digests != expected:
            differing = sorted(
                label
                for label in set(expected) | set(digests)
                if expected.get(label) != digests.get(label)
            )
            kind = "traced" if cell["traced"] else "untraced"
            problems.append(f"{kind} digests differ for {', '.join(differing)}")
        if problems:
            failures.append(f"cell {position} (input {cell['input']}): " + "; ".join(problems))
    return failures


def end_to_end(cells: Sequence[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """End-to-end metrics over untraced cells: value, unit, samples and raw value.

    Timings are in calibrated seconds: each wall, set-up and unit time
    scaled by the machine speed sampled while it ran
    (:meth:`bench.calibrate.Sampler.speed`), which removes the machine's slow
    and fast stretches.  ``raw`` is the same statistic over unscaled times.
    """
    untraced = [cell for cell in cells if not cell["traced"]]

    def timings(cell: dict[str, Any]) -> dict[str, list[float]]:
        return {
            "wall_s": [cell["wall_s"]],
            "setup_s": [cell["setup_s"]],
            "run_s": [cell["wall_s"] - cell["setup_s"]],
            "unit_ms_p50": cell["units_ms"],
            "unit_ms_p80": cell["units_ms"],
        }

    def statistic(name: str, values: list[float]) -> float:
        # The 80th percentile: with n >= 50 units at least ten lie beyond it.
        if name == "unit_ms_p80":
            return statistics.quantiles(values, n=5)[3]
        return statistics.median(values)

    metrics = {}
    for name in timings(untraced[0]):
        raw = [value for cell in untraced for value in timings(cell)[name]]
        calibrated = [value for cell in untraced for value in timings(cell["calibrated"])[name]]
        metrics[name] = {
            "value": statistic(name, calibrated),
            "raw": statistic(name, raw),
            "samples": calibrated,
        }
    rss = [cell["peak_rss_mb"] for cell in untraced]
    metrics["peak_rss_mb"] = {"value": statistics.median(rss), "raw": statistics.median(rss), "samples": rss}
    units_of = {entry["name"]: entry["unit"] for entry in benchmark_spec()["end_to_end"]}
    return {name: {**metrics[name], "unit": unit} for name, unit in units_of.items()}


def per_layer(cells: Sequence[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """The ``per_layer`` metrics of ``BENCHMARK.json``: medians over traced
    cells, plus the two that come from the untraced cells.

    Times are in calibrated seconds, like the end-to-end timings.
    """
    traced = [cell for cell in cells if cell["traced"]]
    untraced = [cell for cell in cells if not cell["traced"]]
    overhead = statistics.median(c["calibrated"]["wall_s"] for c in traced) / statistics.median(
        c["calibrated"]["wall_s"] for c in untraced
    )
    metrics = {}
    for entry in benchmark_spec()["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name == "mem.rss_after_setup_mb":
            samples = [cell["rss_after_setup_mb"] for cell in untraced]
        elif name == "trace.overhead_frac":
            samples = [overhead - 1.0]
        elif unit in ("s", "us"):
            samples = [cell["per_layer"][name] * cell["speed"] for cell in traced]
        else:
            samples = [cell["per_layer"][name] for cell in traced]
        metrics[name] = {"value": statistics.median(samples), "unit": unit, "samples": samples}
    return metrics


def write_layer_table(name: str, seed: int, cells: Sequence[dict[str, Any]], metrics: dict) -> Path:
    """Median per-span calls, cumulative and self time over the traced cells."""
    traced = [cell for cell in cells if cell["traced"]]
    spans = sorted({span for cell in traced for span in cell["layers"]})
    table = {
        span: {
            column: statistics.median(cell["layers"].get(span, {}).get(column, 0) for cell in traced)
            for column in ("calls", "cumulative_s", "self_s")
        }
        for span in spans
    }
    path = OUT / f"{name}.layers.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": name,
        "seed": seed,
        "traced_cells": len(traced),
        "spans": table,
        "metrics": {metric: entry["value"] for metric, entry in metrics.items()},
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """Preflight, measure and check one workload; returns its result record."""
    try:
        preflight = run_child(["--preflight"])["problems"]
        cells = measure(name, seed, seconds, traced)
    except CellFailed as exc:
        return {"workload": name, "attempted": 1, "failed": 1, "failures": [str(exc)], "metrics": {}}
    expected = workloads.reference_digests().get(name, {}).get(str(seed))
    failures = check_cells(cells, expected, preflight)
    metrics = per_layer(cells) if traced else end_to_end(cells)
    if traced:
        write_layer_table(name, seed, cells, metrics)
    return {
        "workload": name,
        "attempted": len(cells),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    }


def report(result: dict[str, Any]) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    name = result["workload"]
    print(f"== {name}: {result['attempted']} cells, failed_frac {result['failed'] / max(result['attempted'], 1):.3f}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for metric, entry in result["metrics"].items():
        samples = entry["samples"]
        q1, _, q3 = quartiles(samples)
        raw = f" uncalibrated={entry['raw']:<10.6g}" if "raw" in entry else ""
        print(
            f"   {metric:34s} {entry['value']:12.6g} {entry['unit']:5s} n={len(samples):<5d}"
            f"{raw} sample q1={q1:.6g} q3={q3:.6g}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="also write the full result record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        report(result)
    if args.json is not None:
        for result in results:
            for entry in result["metrics"].values():
                entry["n"] = len(entry.pop("samples"))
        record = {"seed": args.seed, "trace": args.trace, "workloads": {r["workload"]: r for r in results}}
        args.json.write_text(json.dumps(record, indent=2) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{metric}" if prefix else metric): {"value": e["value"], "unit": e["unit"]}
        for r in results
        for metric, e in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
