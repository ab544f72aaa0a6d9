"""The benchmark workloads: fixed experiment cells run through the public API.

Each workload is one ``repro.experiments.api.run_experiment`` call with every
setting fixed here; the seed is the only input.  :func:`run_cell` runs one
such call in this process, with the coarse or the full span tier installed,
and returns a JSON-safe record: wall and set-up time, unit times, memory,
output digests, correctness problems and, when traced, the per-layer table.

Output digests make a cell checkable: the same input must reproduce the same
digests in every cell of a run, traced or not, and every input of seeds 3
and 11 must match the committed ``bench/reference.json``.

The fig3 and scale cells measure every connection of a measuring node,
long links included (``exclude_long_links=False``): with only proximity
links measured, about one network in eighty leaves an LBC measuring node
in a single-node cluster and the campaign raises, and a benchmark input
must never fail.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from bench import calibrate, layers
from bench.tracing import Recorder

#: Pooled Δt sample digests of the 40-node fig3 golden configuration, as
#: pinned by ``tests/experiments/test_relay_experiment.py``.
GOLDEN_FIG3_DIGESTS = {
    "bitcoin": "aedb16d62d7617f67751084501cbfd74632d9e5af8322caa365f0c40621a8286",
    "lbc": "c0657cee0303a0131d49594e28b761be79e7a13d7a6ae9438f445d9861b34f9b",
    "bcbpt": "781bbeb05fd4a1ec98ea0523a55221543af690ff5ca7f2ad367a8142060cfb57",
}
GOLDEN_CONFIG = {"node_count": 40, "runs": 2, "seeds": (5,), "measuring_nodes": 2, "run_timeout_s": 30.0}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Distinct inputs one run cycles through (cell ``i`` runs input ``i % 12``).
#: Poisson block counts and topologies vary from seed to seed by 10–20%, so
#: a run's medians over several inputs are far steadier than over one.
INPUTS_PER_SEED = 12


def cell_seed(seed: int, index: int) -> int:
    """The master seed of a run's ``index``-th cell; input 0 is ``seed``."""
    return seed + 7919 * (index % INPUTS_PER_SEED)


def sample_digest(samples: Any) -> str:
    """sha256 over the comma-joined ``repr`` of samples (the golden format)."""
    return hashlib.sha256(",".join(repr(s) for s in samples).encode()).hexdigest()


def value_digest(value: Any) -> str:
    """sha256 over the ``repr`` of a value built in a fixed order."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _summaries(result: Any, prefix: str = "") -> dict[str, str]:
    return {
        key: value_digest(sorted(summary.items()))
        for key, summary in sorted(result.summaries.items())
        if key.startswith(prefix)
    }


# ------------------------------------------------------------ fig3 campaign
def _fig3_digests(result: Any) -> dict[str, str]:
    return {label: sample_digest(r.delays.samples) for label, r in result.payload.items()}


def _fig3_problems(result: Any) -> list[str]:
    problems = []
    for label, pooled in result.payload.items():
        samples = pooled.delays.samples
        if not samples:
            problems.append(f"{label}: no Δt samples")
        elif not all(math.isfinite(s) and s >= 0 for s in samples):
            problems.append(f"{label}: Δt sample negative or not finite")
    return problems


# ------------------------------------------------------------- scale ladder
def _scale_digests(result: Any) -> dict[str, str]:
    # Scale summaries carry wall times, so only the deterministic per-cell
    # event and sample counts are digested.
    return {
        key: value_digest([(cell.events, cell.delay_samples) for cell in pooled.cells])
        for key, pooled in sorted(result.payload.items())
    }


def _scale_problems(result: Any) -> list[str]:
    return [] if result.verdicts.get("all_cells_completed") else ["a scale cell did not complete"]


# ------------------------------------------------------------ load frontier
def _load_digests(result: Any) -> dict[str, str]:
    return _summaries(result)


def _load_problems(result: Any) -> list[str]:
    # Wallets running dry under saturation (``generation_failures``) is part
    # of the modelled load, not a failure of the cell.
    if result.verdicts.get("confirms_at_every_rate"):
        return []
    return ["a load cell confirmed nothing"]


# ------------------------------------------------------------------ attacks
def _attack_digests(result: Any) -> dict[str, str]:
    return _summaries(result, "dynamic/")


def _attack_problems(result: Any) -> list[str]:
    problems = []
    dynamic = {k: v for k, v in result.summaries.items() if k.startswith("dynamic/")}
    if len(dynamic) != 8:
        problems.append(f"expected 8 dynamic attack cells, got {len(dynamic)}")
    for key, summary in dynamic.items():
        if not 0.0 <= summary["mean_coverage"] <= 1.0:
            problems.append(f"{key}: coverage {summary['mean_coverage']} outside [0, 1]")
    return problems


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name (``--workload``).
        experiment: registered experiment the cell runs.
        unit: span name whose calls are the workload's units.
        config: fixed :class:`~repro.experiments.config.ExperimentConfig`
            fields (``seeds`` and ``workers`` are set per cell).
        options: fixed experiment options.
        tiny: config/option overrides for the test-sized cell.
        digests: output digests of a result, by label.
        problems: correctness problems found in a result.
        fresh_store: run with a checkpoint store in a fresh directory.
    """

    name: str
    experiment: str
    unit: str
    digests: Callable[[Any], dict[str, str]]
    problems: Callable[[Any], list[str]]
    config: Mapping[str, Any] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    tiny: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    fresh_store: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig3-300",
            experiment="fig3",
            unit="measurement.measure_once",
            config={"node_count": 300, "runs": 1, "measuring_nodes": 4, "exclude_long_links": False},
            tiny={"config": {"node_count": 80, "runs": 1, "measuring_nodes": 1}},
            digests=_fig3_digests,
            problems=_fig3_problems,
        ),
        Workload(
            name="scale-1200",
            experiment="scale",
            unit="core.assign",
            config={"exclude_long_links": False},
            options={
                "node_counts": (1200,),
                "protocols": ("bcbpt",),
                "cell_runs": 2,
                "prune_depth": 6,
                "profile_memory": 0,
            },
            tiny={"options": {"node_counts": (80,)}},
            digests=_scale_digests,
            problems=_scale_problems,
        ),
        Workload(
            name="load-saturated",
            experiment="load_frontier",
            unit="sim.run",
            config={"node_count": 20},
            options={
                "protocols": ("bcbpt",),
                "rates": (2.5,),
                # Twice the chain of a 300-s cell, so costs that grow with it
                # (confirmed-tx lookups, UTXO apply) show, while a run still
                # fits four cells; bench/README.md has the measured shares.
                "horizon_s": 600.0,
                "block_interval_s": 6.5,
                "max_block_bytes": 3000,
                "mempool_max_size": 150,
                "confirmation_depth": 3,
                "mean_fee_satoshi": 250,
                "funding_outputs": 8,
            },
            tiny={"options": {"horizon_s": 60.0}},
            digests=_load_digests,
            problems=_load_problems,
        ),
        Workload(
            name="attack-churn",
            experiment="attacks",
            unit="exec.job",
            config={"node_count": 80},
            options={
                # Selfish mining runs first.  Run last, its allocations land on
                # what the earlier jobs left to the collector, and on about
                # four inputs in ten the cell's peak RSS jumps by ~12 MB.
                "attacks": ("selfish", "eclipse", "byzantine"),
                "protocols": ("bitcoin", "bcbpt"),
                "attack_blocks": 2,
                "adversary_fraction": 0.15,
            },
            tiny={"options": {"attack_blocks": 1}},
            digests=_attack_digests,
            problems=_attack_problems,
            fresh_store=True,
        ),
    )
}


def run_cell(
    workload: Workload,
    seed: int,
    *,
    traced: bool,
    tiny: bool = False,
    spans_path: Optional[Path] = None,
) -> dict[str, Any]:
    """Run one cell of ``workload`` in this process and return its record.

    Args:
        workload: the workload to run.
        seed: the experiment's master seed.
        traced: install the full span tier (per-layer metrics) instead of
            the coarse one (set-up and unit spans only).
        tiny: use the workload's test-sized settings.
        spans_path: where a traced cell writes its raw span ring (JSONL).
    """
    from repro.experiments import api
    from repro.experiments.backends import ExecutionPlan
    from repro.experiments.checkpoint import CellStore
    from repro.experiments.config import ExperimentConfig

    overrides = workload.tiny if tiny else {}
    config = ExperimentConfig(
        seeds=(seed,), workers=1, **{**workload.config, **overrides.get("config", {})}
    )
    options = {**workload.options, **overrides.get("options", {})}
    recorder = Recorder(unit=workload.unit, intervals=(layers.CELL_SPAN, *layers.SETUP_SPANS))
    patcher, harvester = layers.install(recorder, full=traced)
    try:
        with tempfile.TemporaryDirectory(prefix="bench-cell-") as scratch:
            plan = ExecutionPlan(
                backend="inline",
                workers=1,
                store=CellStore(Path(scratch) / "cells") if workload.fresh_store else None,
            )

            def cell() -> Any:
                outcome = api.run_experiment(workload.experiment, config, options, plan)
                if traced:  # networks built outside any grid job
                    recorder.run_untimed("bench.harvest", harvester.harvest)
                return outcome

            with calibrate.Sampler(recorder.exclude) as sampler:
                result = recorder.call(layers.CELL_SPAN, cell, (), {})
    finally:
        patcher.restore()
    wall_s = recorder.seconds(layers.CELL_SPAN, 1)

    def seconds(names: tuple[str, ...], calibrated: bool) -> list[float]:
        """Each outermost call of ``names``, in seconds, raw or calibrated by
        the machine speed sampled while it ran."""
        return [
            net / 1e9 * (sampler.speed(start, end) if calibrated else 1.0)
            for name in names
            for start, end, net in recorder.intervals[name]
        ]

    problems = workload.problems(result)
    if plan.cells_cached:
        problems.append(f"{plan.cells_cached} grid cell(s) served from a checkpoint cache")
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "wall_s": wall_s,
        "setup_s": sum(seconds(layers.SETUP_SPANS, False)),
        "units_ms": [t * 1e3 for t in seconds((workload.unit,), False)],
        "calibrated": {
            "wall_s": sum(seconds((layers.CELL_SPAN,), True)),
            "setup_s": sum(seconds(layers.SETUP_SPANS, True)),
            "units_ms": [t * 1e3 for t in seconds((workload.unit,), True)],
        },
        "speed": sampler.speed(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_after_setup_mb": recorder.peaks.get("mem.rss_after_setup_mb", 0.0),
        "digests": workload.digests(result),
        "problems": problems,
    }
    if traced:
        record["layers"] = {
            name: {"calls": row[0], "cumulative_s": row[1] / 1e9, "self_s": row[2] / 1e9}
            for name, row in sorted(recorder.table.items())
        }
        record["per_layer"] = layers.layer_metrics(recorder, wall_s)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "w") as handle:
                for span in recorder.raw_spans():
                    handle.write(json.dumps(span) + "\n")
    return record


def preflight() -> list[str]:
    """Run the 40-node fig3 golden configuration; returns digest mismatches."""
    from repro.experiments import api
    from repro.experiments.config import ExperimentConfig

    result = api.run_experiment("fig3", ExperimentConfig(**GOLDEN_CONFIG))
    problems = []
    for label, expected in GOLDEN_FIG3_DIGESTS.items():
        actual = sample_digest(result.payload[label].delays.samples)
        if actual != expected:
            problems.append(f"golden fig3 {label}: digest {actual[:12]} != {expected[:12]}")
    return problems


def reference_digests() -> dict[str, dict[str, list[dict[str, str]]]]:
    """Committed digests: workload -> seed (a string) -> per input, label -> digest."""
    return json.loads(REFERENCE_PATH.read_text())
