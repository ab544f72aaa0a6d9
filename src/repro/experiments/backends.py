"""Pluggable executor backends for the sweep execution plane.

The seed-grid executor (:func:`repro.experiments.grid.run_seed_grid`) used to
fan cells straight into one hard-wired process pool.  This module splits the
*what* (a deterministic list of independent (point × seed) cells) from the
*how* (where and when each cell body runs) behind a small interface:

:class:`InlineBackend`
    Executes cells in the calling process, in submission order — the
    bit-exact serial path (``workers <= 1`` never touches multiprocessing).

:class:`PoolBackend`
    The process pool, upgraded in two ways over the old ``pool.map``:

    * **streaming ordered regroup** — cells are submitted in adaptive chunks
      and collected with ``as_completed``; results are emitted to the
      caller's ``on_result`` callback in submission order as prefixes
      complete, so driver-side merges and checkpoint writes overlap slow
      straggler cells instead of waiting for the whole map;
    * **adaptive chunking** — many-tiny-cell grids amortise per-task dispatch
      over ``len(jobs) / (workers * CHUNKS_PER_WORKER)``-sized chunks instead
      of paying one round-trip per cell.

Sharding is not a third executor: it is a *slice filter* applied by the
:class:`ExecutionPlan` before whichever backend runs (``repro shard run
--shard i/N`` executes the cells whose global submission index is congruent
to ``i`` mod ``N``, and records every other cell as missing).  The same plan
object also carries the checkpoint store, the resume behaviour and the cell
budget, which is what lets every registered experiment inherit all of it
through ``run_seed_grid`` without touching a single driver.

Cell memory: every cell builds its own network inside its job body, and both
job loops free the previous job's network before the next job starts
(:func:`_release_finished_jobs`), so a process holds one cell's network at a
time.

Determinism: the backend choice, worker count, chunking, shard slice and
checkpoints never change what a cell computes — each cell derives all
randomness from its own master seed — so any execution plan that eventually
runs every cell yields byte-identical merged results.
"""

from __future__ import annotations

import contextlib
import contextvars
import gc
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.experiments.checkpoint import CellStore, cell_key
from repro.experiments.config import ExperimentConfig

JobT = TypeVar("JobT")
ResultT = TypeVar("ResultT")

#: Registered backend names, in the order `--backend` documents them.
BACKEND_NAMES = ("auto", "inline", "pool")

#: Target chunks per worker for the adaptive chunk size: small enough to
#: keep workers load-balanced against stragglers, large enough to amortise
#: dispatch on many-tiny-cell grids.
CHUNKS_PER_WORKER = 4


def resolve_workers(workers: int, job_count: int) -> int:
    """Effective process count for ``workers`` over ``job_count`` jobs.

    0 means "one per CPU"; the result is never larger than the number of jobs
    (extra processes would only add fork overhead) and never smaller than 1.
    """
    if workers < 0:
        raise ValueError("workers cannot be negative")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, job_count))


def _pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used for worker pools.

    ``fork`` is preferred where available: workers inherit the imported
    package (no re-import per process) and start in milliseconds.  Platforms
    without ``fork`` fall back to the default start method.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def adaptive_chunksize(job_count: int, workers: int) -> int:
    """Chunk size balancing dispatch overhead against load balance."""
    return max(1, job_count // max(1, workers * CHUNKS_PER_WORKER))


def _release_finished_jobs() -> None:
    """Job boundary: free what earlier jobs left behind, freeze what they kept.

    A finished job's network is cyclic (node <-> network, node <-> relay), so
    only the cycle collector frees it, and left to its thresholds the
    collector runs too late: the next job's network gets built while the
    previous one is still in memory.  ``gc.collect()`` frees it before the
    next job starts (the first call frees whatever earlier grids left), and
    ``gc.freeze()`` then moves every survivor — modules, earlier results —
    out of the collector's view, so neither the next boundary's collection
    nor any automatic one during the next job rescans them.  Collecting
    without freezing would rescan every earlier job's results at every
    boundary: a cost quadratic in the job count.

    A frozen object that later becomes cyclic garbage stays in memory until
    the freeze ends, and how it ends is up to each loop
    (:class:`InlineBackend`, :func:`_run_chunk`).
    """
    gc.collect()
    gc.freeze()


# ------------------------------------------------------------------ backends
class ExecutorBackend:
    """Executes a list of independent cell jobs, preserving submission order.

    Implementations must call ``on_result(index, result)`` in submission
    order (0, 1, 2, ...) as results become available, and return the full
    result list in submission order.  ``job_fn`` and job specs must satisfy
    the usual picklability constraints for any backend that crosses a
    process boundary.
    """

    name = "abstract"

    def run(
        self,
        job_fn: Callable[[JobT], ResultT],
        jobs: Sequence[JobT],
        on_result: Optional[Callable[[int, ResultT], None]] = None,
    ) -> list[ResultT]:
        raise NotImplementedError


class InlineBackend(ExecutorBackend):
    """The bit-exact serial path: cells run inline in the calling process.

    Each job starts at :func:`_release_finished_jobs`; the loop unfreezes
    when it ends or raises, which also releases a freeze the caller made
    before calling :meth:`run`.
    """

    name = "inline"

    def run(
        self,
        job_fn: Callable[[JobT], ResultT],
        jobs: Sequence[JobT],
        on_result: Optional[Callable[[int, ResultT], None]] = None,
    ) -> list[ResultT]:
        results: list[ResultT] = []
        try:
            for index, job in enumerate(jobs):
                _release_finished_jobs()
                result = job_fn(job)
                results.append(result)
                if on_result is not None:
                    on_result(index, result)
        finally:
            gc.unfreeze()
        return results


class PoolBackend(ExecutorBackend):
    """Process-pool execution with adaptive chunks and streaming regroup.

    Args:
        workers: worker processes; 0 means one per CPU.  A resolved count of
            1 falls back to the inline path (no multiprocessing).
    """

    name = "pool"

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ValueError("workers cannot be negative (0 means one per CPU)")
        self.workers = workers

    def run(
        self,
        job_fn: Callable[[JobT], ResultT],
        jobs: Sequence[JobT],
        on_result: Optional[Callable[[int, ResultT], None]] = None,
    ) -> list[ResultT]:
        jobs = list(jobs)
        if not jobs:
            return []
        workers = resolve_workers(self.workers, len(jobs))
        if workers <= 1:
            return InlineBackend().run(job_fn, jobs, on_result)
        chunksize = adaptive_chunksize(len(jobs), workers)
        chunks = [jobs[start : start + chunksize] for start in range(0, len(jobs), chunksize)]
        results: list[Any] = [None] * len(jobs)
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=gc.freeze,
        ) as pool:
            futures = {
                pool.submit(_run_chunk, job_fn, chunk): chunk_index
                for chunk_index, chunk in enumerate(chunks)
            }
            # Streaming ordered regroup: buffer out-of-order chunks, emit the
            # contiguous prefix as soon as it exists so the caller's merge
            # and checkpoint writes overlap straggler cells.
            buffered: dict[int, list[Any]] = {}
            next_chunk = 0
            emitted = 0
            for future in as_completed(futures):
                buffered[futures[future]] = future.result()
                while next_chunk in buffered:
                    for result in buffered.pop(next_chunk):
                        results[emitted] = result
                        if on_result is not None:
                            on_result(emitted, result)
                        emitted += 1
                    next_chunk += 1
        return results


def make_backend(name: str, workers: int) -> ExecutorBackend:
    """Build a backend by registered name (``auto`` picks by worker count)."""
    if name == "auto":
        name = "inline" if resolve_workers(workers, 2) <= 1 else "pool"
    if name == "inline":
        return InlineBackend()
    if name == "pool":
        return PoolBackend(workers)
    raise ValueError(f"unknown backend {name!r}; known: {', '.join(BACKEND_NAMES)}")


# ------------------------------------------------------ worker-side machinery
def _run_chunk(job_fn: Callable[[Any], Any], chunk: list[Any]) -> list[Any]:
    """Execute one chunk of cells inside a pool worker.

    The worker froze its inherited heap when it started (the pool's
    initializer), so its collections neither scan that heap nor write to the
    pages it shares copy-on-write with the caller, which would unshare them.
    Each job starts at :func:`_release_finished_jobs`.  The worker stays
    frozen until it ends with its pool, because unfreezing after each chunk
    would make the next chunk's first collection rescan the worker's whole
    heap, the inherited part included.
    """
    results = []
    for job in chunk:
        _release_finished_jobs()
        results.append(job_fn(job))
    return results


# ------------------------------------------------------------ execution plan
class MissingCell:
    """Placeholder for a cell this invocation did not produce.

    A shard run (or a budget-limited run) legitimately leaves cells
    unproduced; any attempt to *use* one fails loudly so a driver merge
    cannot silently aggregate a hole.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<missing cell>"

    def __getattr__(self, name: str) -> Any:
        raise AttributeError(
            "this grid cell was not produced by this invocation (shard slice "
            "or cell budget); merge via `repro shard merge` or resume the run"
        )


#: The shared missing-cell placeholder.
MISSING = MissingCell()


class GridIncomplete(RuntimeError):
    """Raised when an execution plan finished without producing every cell.

    This is the *expected* outcome of a shard run (each shard produces only
    its slice) and of a ``--max-cells``-limited run; the completed cells are
    already checkpointed, so the caller resumes or merges rather than
    retrying from scratch.
    """

    def __init__(self, plan: "ExecutionPlan", cause: Optional[BaseException] = None):
        self.plan = plan
        detail = (
            f"{plan.cells_executed} cell(s) executed, {plan.cells_cached} loaded "
            f"from checkpoints, {plan.cells_missing} not produced"
        )
        if plan.store is not None:
            detail += f" (completed cells are under {plan.store.root})"
        super().__init__(f"sweep incomplete: {detail}")
        self.__cause__ = cause


@dataclass
class ExecutionPlan:
    """How one experiment invocation executes its grid cells.

    The plan is orthogonal to the experiment configuration on purpose: none
    of its knobs appear in cell keys or envelopes, because none of them can
    change a cell's result — only whether/where/when it runs.

    Attributes:
        backend: ``"auto"`` (inline when the effective worker count is 1,
            pool otherwise), ``"inline"`` or ``"pool"``.
        workers: overrides ``config.workers`` when set.
        store: checkpoint store; when set, completed cells are persisted
            immediately and previously completed cells are loaded instead of
            re-executed.
        shard_index / shard_count: execute only cells whose global
            submission index is congruent to ``shard_index`` mod
            ``shard_count`` (requires ``store``; every other cell is
            recorded as missing).
        max_cells: execute at most this many cells, then record the rest as
            missing — a deterministic "interrupt after N cells" used for
            time-boxed runs and the kill-and-resume tests.
        execute: when False, never run a cell body — every cell must come
            from the store (the strict ``repro shard merge`` mode).
        experiment: registry name, set by ``run_experiment`` — the cell-key
            namespace.
    """

    backend: str = "auto"
    workers: Optional[int] = None
    store: Optional[CellStore] = None
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None
    max_cells: Optional[int] = None
    execute: bool = True
    experiment: Optional[str] = None

    # Progress accounting, filled in as grids execute.
    cells_executed: int = 0
    cells_cached: int = 0
    cells_missing: int = 0
    missing_cell_keys: list[str] = field(default_factory=list)
    _next_cell_index: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {', '.join(BACKEND_NAMES)}"
            )
        if (self.shard_index is None) != (self.shard_count is None):
            raise ValueError("shard_index and shard_count must be set together")
        if self.shard_count is not None:
            if self.shard_count <= 0:
                raise ValueError("shard_count must be positive")
            if not 0 <= self.shard_index < self.shard_count:
                raise ValueError(
                    f"shard_index must be in [0, {self.shard_count}), got {self.shard_index}"
                )
            if self.store is None:
                raise ValueError("shard execution requires a cell store")
        if self.max_cells is not None and self.max_cells < 0:
            raise ValueError("max_cells cannot be negative")
        if not self.execute and self.store is None:
            raise ValueError("execute=False requires a cell store to load from")

    # ------------------------------------------------------------- accounting
    @property
    def incomplete(self) -> bool:
        """Whether at least one cell was neither executed nor loaded."""
        return self.cells_missing > 0

    def progress(self) -> dict[str, int]:
        """Counters for logs, manifests and the shard CLI."""
        return {
            "cells_executed": self.cells_executed,
            "cells_cached": self.cells_cached,
            "cells_missing": self.cells_missing,
            "cells_total": self._next_cell_index,
        }

    # -------------------------------------------------------------- execution
    def _in_slice(self, global_index: int) -> bool:
        if self.shard_count is None:
            return True
        return global_index % self.shard_count == self.shard_index

    def resolve_backend(self, config: ExperimentConfig) -> ExecutorBackend:
        """The executor this plan uses for one grid."""
        workers = self.workers if self.workers is not None else config.workers
        return make_backend(self.backend, workers)

    def run_cells(
        self,
        job_fn: Callable[[JobT], ResultT],
        jobs: Sequence[JobT],
        config: ExperimentConfig,
    ) -> list[Any]:
        """Execute one grid's cells under this plan, in submission order.

        Cached cells are loaded from the store; cells outside the shard
        slice or beyond the budget become :data:`MISSING`; the rest run on
        the resolved backend, with each completed result checkpointed the
        moment the streaming regroup emits it.
        """
        jobs = list(jobs)
        keys: Optional[list[str]] = None
        if self.store is not None:
            namespace = self.experiment or f"{job_fn.__module__}.{job_fn.__qualname__}"
            keys = [cell_key(namespace, job) for job in jobs]

        results: list[Any] = [MISSING] * len(jobs)
        pending: list[int] = []
        for position, job in enumerate(jobs):
            global_index = self._next_cell_index
            self._next_cell_index += 1
            if keys is not None and self.store.has(keys[position]):
                results[position] = self.store.load(keys[position])
                self.cells_cached += 1
                continue
            if not self.execute or not self._in_slice(global_index):
                self._record_missing(keys, position)
                continue
            pending.append(position)

        if self.max_cells is not None:
            budget = max(0, self.max_cells - self.cells_executed)
            for position in pending[budget:]:
                self._record_missing(keys, position)
            pending = pending[:budget]

        if pending:
            backend = self.resolve_backend(config)
            store = self.store

            def on_result(emitted: int, result: Any) -> None:
                position = pending[emitted]
                results[position] = result
                self.cells_executed += 1
                if store is not None and keys is not None:
                    store.save(keys[position], result)

            backend.run(job_fn, [jobs[position] for position in pending], on_result)
        return results

    def _record_missing(self, keys: Optional[list[str]], position: int) -> None:
        self.cells_missing += 1
        if keys is not None:
            self.missing_cell_keys.append(keys[position])


# ------------------------------------------------------------- active plan
_ACTIVE_PLAN: contextvars.ContextVar[Optional[ExecutionPlan]] = contextvars.ContextVar(
    "repro_execution_plan", default=None
)


def current_plan() -> Optional[ExecutionPlan]:
    """The plan installed by the innermost :func:`use_plan`, if any."""
    return _ACTIVE_PLAN.get()


@contextlib.contextmanager
def use_plan(plan: ExecutionPlan):
    """Install ``plan`` as the active execution plan for the enclosed code.

    ``run_experiment`` wraps each driver call in this, which is how every
    ``run_seed_grid`` call inside the driver — however deeply nested —
    inherits the backend, checkpoint store and shard slice without any
    driver-signature changes.
    """
    token = _ACTIVE_PLAN.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLAN.reset(token)
