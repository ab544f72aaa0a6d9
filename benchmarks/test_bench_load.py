"""Traffic-plane regression guards: long-horizon load cell, memory + throughput.

Quick-lane (``-m "not slow"``): one sustained-load cell — open-loop Poisson
traffic, fee-priority mempools, byte-capped mining, streamed P² confirmation
quantiles — runs a ten-minute simulated horizon (~85 blocks) and must
stay under a *generous* traced-allocation ceiling and over a *generous*
events/second floor.  The memory bound is what the streaming design exists
for: confirmation latency is summarised in constant space and the backlog
curve is resampled to ~100 points, so the cell's footprint must not scale
with the number of transactions confirmed.  The bounds are an order of
magnitude away from current numbers, so they only trip on real regressions:
a per-sample latency series sneaking back in, the backlog sampler recording
every event, or the traffic/mempool hot path slowing by 10x.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.experiments.config import ExperimentConfig
from repro.experiments.load_frontier import LoadJob, run_load_seed

NODE_COUNT = 20

#: Simulated seconds of sustained load: ~85 blocks at the 7 s interval.
HORIZON_S = 600.0

#: Offered load, deliberately above the ~1.7 tx/s block capacity so the cell
#: exercises full blocks and fee eviction, not just the happy path.
OFFERED_TPS = 2.5

#: Generous ceiling on the cell's peak traced allocations.
PEAK_TRACED_BOUND_MB = 80.0

#: Generous floor on simulation throughput.
EVENTS_PER_S_FLOOR = 2_000.0

CONFIG = ExperimentConfig(
    node_count=NODE_COUNT, runs=1, seeds=(3,), measuring_nodes=1
)


def _job() -> LoadJob:
    return LoadJob(
        protocol="bcbpt",
        offered_tps=OFFERED_TPS,
        profile_kind="constant",
        seed=3,
        horizon_s=HORIZON_S,
        block_interval_s=7.0,
        max_block_bytes=3_000,
        mempool_max_size=150,
        confirmation_depth=3,
        mean_fee_satoshi=250.0,
        funding_outputs=8,
        config=CONFIG,
    )


def test_load_cell_streams_in_bounded_memory():
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        result = run_load_seed(_job())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mb = peak / 1e6

    # The cell really sustained load: dozens of byte-capped blocks, a
    # working fee market, and a steady confirmation stream.
    assert result.blocks_mined >= 50
    assert result.full_blocks_mined > 0
    assert result.fee_evictions > 0
    assert result.txs_confirmed > 100
    # Streaming contract: the curve is resampled, never one point per event.
    assert len(result.backlog_curve) <= 101
    assert peak_mb < PEAK_TRACED_BOUND_MB, (
        f"load cell memory regressed: peak {peak_mb:.1f} MB traced over "
        f"{result.txs_confirmed} confirmations (bound {PEAK_TRACED_BOUND_MB} MB)"
    )


def test_load_cell_throughput_over_floor():
    start = time.perf_counter()
    result = run_load_seed(_job())
    elapsed = time.perf_counter() - start
    events_per_s = result.events / elapsed
    assert events_per_s > EVENTS_PER_S_FLOOR, (
        f"load cell throughput regressed: {events_per_s:.0f} events/s "
        f"({result.events} events in {elapsed:.1f}s wall, floor "
        f"{EVENTS_PER_S_FLOOR:.0f})"
    )
