"""The shared sweep/grid executor.

Every experiment in this repository is a *grid*: a list of sweep points
(protocol labels, thresholds, ablation variants, churn levels, ...) crossed
with the configured master seeds, where each (point, seed) cell is one
independent simulation.  :func:`run_seed_grid` is the single place that
cross-product is built, fanned out and regrouped:

1. jobs are constructed **point-major, seed-minor** — exactly the order the
   pre-grid serial loops used;
2. they fan out over an executor backend
   (:mod:`repro.experiments.backends`), which returns results in submission
   order regardless of completion order;
3. the flat result list is regrouped into one ``(point, seed_results)`` pair
   per sweep point, with seed results in seed order.

Because both the job order and the regrouping are deterministic, any
aggregate a driver computes over the grouped results is identical for every
worker count.  Drivers keep each point's seed results as a tuple of per-seed
records and compute their aggregates from it.  Every experiment registered
through :mod:`repro.experiments.api` gets ``--workers`` fan-out for free by
building on this executor.

The raw-sample capture layer inherits the same contract: a driver's
``collect_samples`` hook fills a :class:`~repro.analysis.samples.SampleLog`
from results in this submission order (one series per (point, seed), see
``SampleLog.add_per_seed``), so the ``samples`` field persisted into the
:class:`~repro.experiments.results.ExperimentResult` envelope — and every
figure ``repro report`` later regenerates from it — is byte-identical for
every worker count.

Since the execution-plane refactor the fan-out itself is delegated to an
:class:`~repro.experiments.backends.ExecutionPlan`: the plan chooses the
executor backend (inline or process pool), consults the checkpoint store
for already-completed cells, applies the shard slice and the cell budget,
and persists each freshly computed cell the moment the streaming regroup
emits it.  ``run_experiment`` installs the plan with
:func:`~repro.experiments.backends.use_plan`, so every registered
experiment inherits backends, checkpoint/resume and sharding for free; a
driver called directly (tests, examples) gets an ephemeral default plan
equivalent to the old behaviour.

Job specs must be picklable (frozen dataclasses of plain values) and
``job_fn`` must be a module-level callable, so both survive the trip to a
pool worker.  Each driver defines its job spec, its per-seed result record
and its job function next to the code that aggregates them.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

from repro.experiments.backends import ExecutionPlan, current_plan
from repro.experiments.config import ExperimentConfig

PointT = TypeVar("PointT")
JobT = TypeVar("JobT")
ResultT = TypeVar("ResultT")


def run_seed_grid(
    points: Sequence[PointT],
    make_job: Callable[[PointT, int], JobT],
    job_fn: Callable[[JobT], ResultT],
    config: ExperimentConfig,
    *,
    plan: Optional[ExecutionPlan] = None,
) -> list[tuple[PointT, list[ResultT]]]:
    """Run ``job_fn`` over the (point, seed) grid and regroup per point.

    Args:
        points: the sweep axis (labels, thresholds, variants, ...).
        make_job: builds the picklable job spec for one (point, seed) cell.
        job_fn: module-level job body, executed possibly in a worker process.
        config: supplies the seeds and the worker count.
        plan: execution plan; defaults to the plan installed by
            :func:`~repro.experiments.backends.use_plan` (how
            ``run_experiment`` threads backends/checkpoints through without
            changing driver signatures), and otherwise to an ephemeral
            default plan driven by ``config.workers``.

    Returns:
        One ``(point, seed_results)`` pair per sweep point, in sweep order,
        with ``seed_results`` in ``config.seeds`` order — the same sequence a
        serial ``for point: for seed:`` loop would produce.  Cells the plan
        did not produce (shard slice, cell budget) come back as the
        :data:`~repro.experiments.backends.MISSING` placeholder.
    """
    points = list(points)
    jobs = [make_job(point, seed) for point in points for seed in config.seeds]
    active = plan if plan is not None else current_plan()
    if active is None:
        active = ExecutionPlan()
    results = active.run_cells(job_fn, jobs, config)
    per_point = len(config.seeds)
    return [
        (point, results[index * per_point : (index + 1) * per_point])
        for index, point in enumerate(points)
    ]
