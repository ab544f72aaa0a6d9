"""Scale-plane regression guards: peak memory and throughput floors.

Quick-lane (``-m "not slow"``): one mid-size scale cell — snapshot-loaded
network, measuring-only funding, in-run pruning — must stay under a
*generous* traced-allocation ceiling and over a *generous* events/second
floor.  The bounds are an order of magnitude away from current numbers (at
400 nodes a cell peaks around 4 MB traced and runs well above 2000 events/s),
so they only trip on the regressions the scale plane exists to prevent: the
latency plane falling back to per-pair dicts, funding going quadratic again,
or the event loop slowing by 10x.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.experiments.config import ExperimentConfig
from repro.experiments.scale import ScaleJob, run_scale_job, scale_parameters
from repro.workloads.network_gen import ensure_network_snapshot

#: Mid-size rung: big enough that quadratic funding or dict-backed pair
#: storage would blow through the ceiling, small enough for the quick lane.
NODE_COUNT = 400

#: Generous ceiling on the cell's peak traced allocations.
PEAK_TRACED_BOUND_MB = 60.0

#: Generous floor on simulation throughput.
EVENTS_PER_S_FLOOR = 200.0

CONFIG = ExperimentConfig(
    node_count=NODE_COUNT, runs=1, seeds=(3,), measuring_nodes=1, run_timeout_s=30.0
)


def _run_cell(tmp_path):
    parameters = scale_parameters(NODE_COUNT, 3, 6)
    snapshot = ensure_network_snapshot(parameters, tmp_path)
    job = ScaleJob(
        node_count=NODE_COUNT,
        protocol="bitcoin",
        seed=3,
        prune_depth=6,
        cell_runs=1,
        profile_memory=True,
        snapshot_path=str(snapshot),
        config=CONFIG,
    )
    return run_scale_job(job)


def test_scale_cell_peak_memory_under_bound(tmp_path):
    assert not tracemalloc.is_tracing()  # the job owns the tracer
    result = _run_cell(tmp_path)
    assert result.events > 0
    assert result.delay_samples > 0
    assert result.peak_traced_mb is not None
    assert result.peak_traced_mb < PEAK_TRACED_BOUND_MB, (
        f"scale cell memory regressed: peak {result.peak_traced_mb:.1f} MB "
        f"traced at {NODE_COUNT} nodes (bound {PEAK_TRACED_BOUND_MB} MB)"
    )


def test_scale_cell_throughput_over_floor(tmp_path):
    start = time.perf_counter()
    result = _run_cell(tmp_path)
    elapsed = time.perf_counter() - start
    assert result.events_per_s > EVENTS_PER_S_FLOOR, (
        f"scale cell throughput regressed: {result.events_per_s:.0f} events/s "
        f"at {NODE_COUNT} nodes (floor {EVENTS_PER_S_FLOOR}, cell took "
        f"{elapsed:.1f}s wall)"
    )
