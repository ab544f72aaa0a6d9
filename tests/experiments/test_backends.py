"""Unit tests for the executor backends and the cell checkpoint layer.

The contracts under test: backends preserve submission order and stream
``on_result`` callbacks in that order; cell keys hash the physics of a cell
and ignore execution-plane knobs; the cell store round-trips results
atomically (including through extra read-only roots); and the execution plan
partitions a grid into shard slices, budgets, cache hits and loud MISSING
placeholders without ever changing a produced value.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.experiments.backends import (
    MISSING,
    ExecutionPlan,
    GridIncomplete,
    InlineBackend,
    PoolBackend,
    adaptive_chunksize,
    make_backend,
    resolve_workers,
)
from repro.experiments.checkpoint import (
    CellStore,
    canonical_job,
    cell_key,
    missing_keys,
)
from repro.experiments import checkpoint
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import PropagationJob


def _double(value: int) -> int:
    return value * 2


class TestInlineBackend:
    def test_preserves_submission_order(self):
        assert InlineBackend().run(_double, list(range(10))) == [2 * i for i in range(10)]

    def test_streams_results_in_order(self):
        emitted = []
        InlineBackend().run(_double, [5, 6, 7], lambda i, r: emitted.append((i, r)))
        assert emitted == [(0, 10), (1, 12), (2, 14)]


class TestPoolBackend:
    def test_preserves_submission_order(self):
        assert PoolBackend(workers=4).run(_double, list(range(25))) == [
            2 * i for i in range(25)
        ]

    def test_streams_results_in_submission_order(self):
        emitted = []
        # 35 jobs on 4 workers: adaptive chunks of two jobs, and a short last
        # chunk.
        assert adaptive_chunksize(35, 4) == 2
        results = PoolBackend(workers=4).run(
            _double, list(range(35)), lambda i, r: emitted.append((i, r))
        )
        # on_result must fire for every cell, strictly in submission order,
        # regardless of which worker finished first.
        assert emitted == [(i, 2 * i) for i in range(35)]
        assert results == [2 * i for i in range(35)]

    def test_streams_with_the_adaptive_chunksize(self):
        emitted = []
        results = PoolBackend(workers=4).run(
            _double, list(range(12)), lambda i, r: emitted.append((i, r))
        )
        assert results == [2 * i for i in range(12)]
        assert emitted == [(i, 2 * i) for i in range(12)]

    def test_empty_jobs(self):
        assert PoolBackend(workers=4).run(_double, []) == []

    def test_single_worker_falls_back_inline(self):
        # A non-picklable closure only survives the inline path.
        captured = []
        results = PoolBackend(workers=1).run(lambda v: captured.append(v) or v, [1, 2])
        assert results == [1, 2]
        assert captured == [1, 2]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            PoolBackend(workers=-2)


class TestBackendFactory:
    def test_auto_picks_by_worker_count(self):
        assert make_backend("auto", 1).name == "inline"
        assert make_backend("auto", 4).name == "pool"

    def test_serial_backend_streams_on_result(self):
        emitted = []
        make_backend("auto", 1).run(_double, [3, 4], lambda i, r: emitted.append((i, r)))
        assert emitted == [(0, 6), (1, 8)]

    def test_explicit_names(self):
        assert make_backend("inline", 8).name == "inline"
        assert make_backend("pool", 8).name == "pool"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("cloud", 4)

    def test_adaptive_chunksize(self):
        assert adaptive_chunksize(8, 4) == 1  # fewer jobs than target chunks
        assert adaptive_chunksize(320, 4) == 20  # 4 workers * 4 chunks each
        assert adaptive_chunksize(0, 4) == 1

    def test_resolve_workers(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(0, 2) >= 1


def _propagation_job(**overrides) -> PropagationJob:
    fields = dict(
        label="bcbpt",
        policy_name="bcbpt",
        threshold_s=0.05,
        seed=3,
        config=ExperimentConfig(node_count=80, workers=1),
    )
    fields.update(overrides)
    return PropagationJob(**fields)


class TestCellKey:
    def test_stable_across_processes(self):
        # The key is a pure content hash: recomputing it yields the same hex.
        job = _propagation_job()
        assert cell_key("fig3", job) == cell_key("fig3", job)

    def test_execution_knobs_do_not_change_the_key(self):
        base = _propagation_job()
        more_workers = _propagation_job(config=ExperimentConfig(node_count=80, workers=8))
        assert cell_key("fig3", base) == cell_key("fig3", more_workers)

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        # Bumping the version must orphan every stored cell: a store written
        # under another pickle layout is ignored, never misread.
        job = _propagation_job()
        before = cell_key("fig3", job)
        monkeypatch.setattr(
            checkpoint, "CELL_SCHEMA_VERSION", checkpoint.CELL_SCHEMA_VERSION + 1
        )
        assert cell_key("fig3", job) != before

    def test_physics_changes_the_key(self):
        base = _propagation_job()
        assert cell_key("fig3", base) != cell_key("fig3", _propagation_job(seed=11))
        assert cell_key("fig3", base) != cell_key(
            "fig3", _propagation_job(config=ExperimentConfig(node_count=200, workers=1))
        )
        assert cell_key("fig3", base) != cell_key("fig4", base)

    def test_canonical_job_strips_execution_fields(self):
        data = canonical_job(_propagation_job())
        assert "workers" not in data["config"]
        assert data["config"]["node_count"] == 80


class TestCellStore:
    def test_round_trip(self, tmp_path):
        store = CellStore(tmp_path / "cells-a")
        assert not store.has("k1")
        store.save("k1", {"delays": [1.0, 2.0]})
        assert store.has("k1")
        assert store.load("k1") == {"delays": [1.0, 2.0]}
        assert store.keys() == ["k1"]
        assert len(store) == 1

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError):
            CellStore(tmp_path).load("nope")

    def test_extra_roots_serve_reads(self, tmp_path):
        shard_a = CellStore(tmp_path / "a")
        shard_b = CellStore(tmp_path / "b")
        shard_a.save("k1", "from-a")
        shard_b.save("k2", "from-b")
        merged = CellStore(tmp_path / "a", extra_roots=[tmp_path / "b"])
        assert merged.has("k1") and merged.has("k2")
        assert merged.load("k2") == "from-b"
        assert merged.keys() == ["k1", "k2"]
        assert missing_keys(merged, ["k1", "k2", "k3"]) == ["k3"]

    def test_no_torn_cells_left_behind(self, tmp_path):
        # A failed save must not leave a partial cell file a reader could load.
        store = CellStore(tmp_path)

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("boom")

        with pytest.raises(Exception):
            store.save("k1", Unpicklable())
        assert not store.has("k1")
        cell_dir = tmp_path / CellStore.CELL_DIR
        assert not any(cell_dir.glob("*.pkl"))

    def test_manifest_round_trip(self, tmp_path):
        store = CellStore(tmp_path / "a", extra_roots=[tmp_path / "b"])
        CellStore(tmp_path / "b").write_manifest({"shard_index": 1})
        store.write_manifest({"shard_index": 0})
        manifests = store.read_manifests()
        assert [m["shard_index"] for m in manifests] == [0, 1]


class TestMissingSentinel:
    def test_attribute_access_fails_loudly(self):
        with pytest.raises(AttributeError, match="shard"):
            MISSING.delays

    def test_pickles_to_a_missing_cell(self):
        clone = pickle.loads(pickle.dumps(MISSING))
        with pytest.raises(AttributeError):
            clone.anything


CONFIG = ExperimentConfig(node_count=80, workers=1)


class TestExecutionPlanValidation:
    def test_shard_fields_must_pair(self, tmp_path):
        with pytest.raises(ValueError, match="together"):
            ExecutionPlan(shard_index=0)

    def test_shard_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            ExecutionPlan(shard_index=0, shard_count=2)

    def test_shard_index_range(self, tmp_path):
        store = CellStore(tmp_path)
        with pytest.raises(ValueError, match="shard_index"):
            ExecutionPlan(shard_index=2, shard_count=2, store=store)

    def test_no_execute_requires_store(self):
        with pytest.raises(ValueError, match="execute"):
            ExecutionPlan(execute=False)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionPlan(backend="cloud")


class TestExecutionPlanRunCells:
    def test_plain_plan_runs_everything(self):
        plan = ExecutionPlan()
        assert plan.run_cells(_double, [1, 2, 3], CONFIG) == [2, 4, 6]
        assert plan.progress() == {
            "cells_executed": 3,
            "cells_cached": 0,
            "cells_missing": 0,
            "cells_total": 3,
        }
        assert not plan.incomplete

    def test_checkpointed_cells_are_loaded_not_rerun(self, tmp_path):
        store = CellStore(tmp_path)
        first = ExecutionPlan(store=store, experiment="unit")
        first.run_cells(_double, [1, 2, 3], CONFIG)
        assert len(store) == 3

        second = ExecutionPlan(store=store, experiment="unit")
        assert second.run_cells(_double, [1, 2, 3], CONFIG) == [2, 4, 6]
        assert second.cells_cached == 3
        assert second.cells_executed == 0

    def test_max_cells_budget_marks_the_rest_missing(self, tmp_path):
        store = CellStore(tmp_path)
        plan = ExecutionPlan(store=store, experiment="unit", max_cells=2)
        results = plan.run_cells(_double, [1, 2, 3, 4], CONFIG)
        assert results[:2] == [2, 4]
        assert results[2] is MISSING and results[3] is MISSING
        assert plan.incomplete
        assert plan.progress()["cells_missing"] == 2
        assert len(plan.missing_cell_keys) == 2

    def test_budget_spans_grids(self, tmp_path):
        # max_cells is a per-invocation budget, not per-grid: the second grid
        # of a multi-grid driver sees what the first one left.
        plan = ExecutionPlan(store=CellStore(tmp_path), experiment="unit", max_cells=3)
        plan.run_cells(_double, [1, 2], CONFIG)
        results = plan.run_cells(_double, [3, 4], CONFIG)
        assert results == [6, MISSING]

    def test_shards_partition_the_grid(self, tmp_path):
        jobs = list(range(7))
        produced: dict[int, int] = {}
        for shard in range(3):
            store = CellStore(tmp_path / f"shard-{shard}")
            plan = ExecutionPlan(
                store=store, experiment="unit", shard_index=shard, shard_count=3
            )
            results = plan.run_cells(_double, jobs, CONFIG)
            for position, result in enumerate(results):
                if result is not MISSING:
                    assert position not in produced, "two shards ran one cell"
                    produced[position] = result
        # Every cell ran in exactly one shard, with the right value.
        assert produced == {i: 2 * i for i in range(7)}

    def test_shard_slice_uses_the_global_cell_index(self, tmp_path):
        # Across two grids of 3 cells, shard 0/2 takes global indexes 0,2,4.
        plan = ExecutionPlan(
            store=CellStore(tmp_path), experiment="unit", shard_index=0, shard_count=2
        )
        first = plan.run_cells(_double, [0, 1, 2], CONFIG)
        second = plan.run_cells(_double, [3, 4, 5], CONFIG)
        assert first == [0, MISSING, 4]
        assert second == [MISSING, 8, MISSING]

    def test_no_execute_serves_only_the_store(self, tmp_path):
        store = CellStore(tmp_path)
        ExecutionPlan(store=store, experiment="unit").run_cells(_double, [1, 2], CONFIG)
        merge = ExecutionPlan(store=store, experiment="unit", execute=False)
        assert merge.run_cells(_double, [1, 2], CONFIG) == [2, 4]
        assert merge.cells_cached == 2

        strict = ExecutionPlan(store=store, experiment="unit", execute=False)
        results = strict.run_cells(_double, [1, 2, 99], CONFIG)
        assert results[2] is MISSING
        assert strict.incomplete

    def test_grid_incomplete_message_carries_progress(self, tmp_path):
        plan = ExecutionPlan(store=CellStore(tmp_path), experiment="unit", max_cells=1)
        plan.run_cells(_double, [1, 2], CONFIG)
        message = str(GridIncomplete(plan))
        assert "1 cell(s) executed" in message
        assert "1 not produced" in message


class _Garbage:
    """A self-referencing object: only the cycle collector can free it."""

    def __init__(self) -> None:
        self.cycle = self


class _Kept:
    """A job result: what the job saw when it started."""

    def __init__(self, garbage_alive: bool, visible_results: int, frozen: int) -> None:
        self.garbage_alive = garbage_alive
        self.visible_results = visible_results
        self.frozen = frozen


#: Weak references to the garbage the previous job in this process left.
_LEFT_BEHIND: list = []


def _leave_cyclic_garbage(index: int) -> _Kept:
    """Report what earlier jobs in this process left behind, then litter.

    Automatic collection is switched off first, so only the job boundary can
    free the previous job's garbage.
    """
    gc.disable()
    seen = _Kept(
        garbage_alive=any(ref() is not None for ref in _LEFT_BEHIND),
        visible_results=sum(isinstance(obj, _Kept) for obj in gc.get_objects()),
        frozen=gc.get_freeze_count(),
    )
    _LEFT_BEHIND[:] = [weakref.ref(_Garbage())]
    return seen


def _fail_on_zero(value: int) -> int:
    return 10 // value


@pytest.fixture
def automatic_gc_restored():
    """Undo the ``gc.disable()`` a job ran in this process."""
    enabled = gc.isenabled()
    _LEFT_BEHIND.clear()
    yield
    _LEFT_BEHIND.clear()
    if enabled:
        gc.enable()


class TestJobBoundaryRelease:
    """Each job starts with earlier jobs' garbage freed and their results frozen."""

    @staticmethod
    def _assert_released(seen: list[_Kept]) -> None:
        assert [kept.garbage_alive for kept in seen] == [False] * len(seen)
        assert [kept.visible_results for kept in seen] == [0] * len(seen)
        assert all(kept.frozen > 0 for kept in seen)

    def test_inline_jobs_start_released(self, automatic_gc_restored):
        seen = InlineBackend().run(_leave_cyclic_garbage, range(4))
        self._assert_released(seen)
        assert gc.get_freeze_count() == 0

    def test_pool_worker_jobs_start_released(self, automatic_gc_restored):
        # 16 jobs on 2 workers: adaptive chunks of two, so every worker runs
        # several jobs back to back.
        assert adaptive_chunksize(16, 2) == 2
        seen = PoolBackend(workers=2).run(_leave_cyclic_garbage, range(16))
        self._assert_released(seen)

    def test_run_cells_leaves_nothing_frozen(self, automatic_gc_restored):
        plan = ExecutionPlan()
        self._assert_released(plan.run_cells(_leave_cyclic_garbage, range(3), CONFIG))
        assert gc.get_freeze_count() == 0
        with pytest.raises(ZeroDivisionError):
            ExecutionPlan().run_cells(_fail_on_zero, [1, 0, 2], CONFIG)
        assert gc.get_freeze_count() == 0
