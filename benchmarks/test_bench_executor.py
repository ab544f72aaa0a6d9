"""Execution-plane regression guard: dispatch overhead.

Adaptive chunking must keep the pool's per-cell dispatch overhead (pickle +
queue round-trips) far below the cost of even a tiny simulation cell, so
many-tiny-cell grids (threshold sweeps, churn ladders) are not dominated by
plumbing.  The bound is deliberately generous: it trips on order-of-magnitude
regressions (per-task dispatch), not on CI jitter.
"""

from __future__ import annotations

import time

from repro.experiments.backends import PoolBackend

#: Generous ceiling on pool dispatch overhead per trivial cell.  Adaptive
#: chunking amortises round-trips ~64x, so real overhead is well under a
#: millisecond per cell; 25 ms only trips if chunking stops working.
DISPATCH_OVERHEAD_BOUND_S = 0.025

#: Trivial cells for the dispatch measurement.
DISPATCH_JOBS = 256

WORKERS = 2


def _noop(value: int) -> int:
    return value


def test_pool_dispatch_overhead_per_cell_under_bound():
    backend = PoolBackend(workers=WORKERS)
    start = time.perf_counter()
    results = backend.run(_noop, list(range(DISPATCH_JOBS)))
    elapsed = time.perf_counter() - start
    assert results == list(range(DISPATCH_JOBS))
    per_cell = elapsed / DISPATCH_JOBS
    print(
        f"\npool dispatch: {DISPATCH_JOBS} trivial cells on {WORKERS} workers "
        f"in {elapsed:.3f}s ({per_cell * 1e3:.2f} ms/cell)"
    )
    assert per_cell < DISPATCH_OVERHEAD_BOUND_S, (
        f"pool dispatch overhead regressed: {per_cell * 1e3:.1f} ms per "
        f"trivial cell (bound {DISPATCH_OVERHEAD_BOUND_S * 1e3:.0f} ms) — "
        "adaptive chunking is probably not amortising round-trips any more"
    )
