"""Integration tests for the sweep execution plane.

The headline guarantees, exercised end-to-end on a small fig3 sweep:

* **kill-and-resume** — a run interrupted after N cells and resumed against
  the same cell store produces an envelope whose canonical form (summaries
  AND raw samples) is byte-identical to an uninterrupted run, for both the
  serial and the pooled backend;
* **shard + merge** — two `repro shard run` slices merged with
  `repro shard merge` reassemble the exact single-machine envelope, also
  for attacks and ablation, whose payloads have several parts;
* **result-store robustness** — two processes saving simultaneously never
  collide on a run directory, and `ResultStore.select` names stored runs
  by every reference form, parameter selectors included, newest last.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments import cli
from repro.experiments.api import run_experiment
from repro.experiments.backends import ExecutionPlan, GridIncomplete
from repro.experiments.checkpoint import CellStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import (
    ExperimentResult,
    ResultStore,
    parse_where,
)

#: Small enough for CI, large enough that BCBPT measuring nodes keep
#: proximity connections (do not shrink below ~80 nodes).  Two seeds so the
#: per-seed raw-sample series exercise the submission-order merge.
SMALL = ExperimentConfig(
    node_count=80, runs=1, seeds=(3, 11), measuring_nodes=1, workers=1
)

#: fig3 grid size under SMALL: 3 protocols x 2 seeds.
TOTAL_CELLS = 6

#: A tiny two-seed configuration for the attacks and ablation sweeps.
TINY = ExperimentConfig(
    node_count=40, runs=1, seeds=(3, 11), measuring_nodes=1, run_timeout_s=30.0, workers=1
)


@pytest.fixture(scope="module")
def baseline() -> ExperimentResult:
    """The uninterrupted single-machine reference envelope."""
    return run_experiment("fig3", SMALL)


def _canonical(result: ExperimentResult) -> str:
    text = result.canonical_json()
    # The canonical form must have masked every wall-clock field.
    assert '"duration_s"' not in text
    return text


class TestKillAndResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_then_resumed_run_is_byte_identical(
        self, baseline, tmp_path, workers
    ):
        store = CellStore(tmp_path / f"cells-w{workers}")
        config = SMALL.with_overrides(workers=workers)

        # "Kill" the sweep after 2 of 6 cells: the budgeted plan checkpoints
        # what it completed and raises instead of producing an envelope.
        interrupted = ExecutionPlan(store=store, max_cells=2)
        with pytest.raises(GridIncomplete):
            run_experiment("fig3", config, plan=interrupted)
        assert interrupted.cells_executed == 2
        assert len(store) == 2

        # Resume against the same store: only the remaining cells execute,
        # and the merged envelope is canonically byte-identical to the
        # uninterrupted reference — including the raw per-seed samples.
        resumed_plan = ExecutionPlan(store=store)
        resumed = run_experiment("fig3", config, plan=resumed_plan)
        assert resumed_plan.cells_cached == 2
        assert resumed_plan.cells_executed == TOTAL_CELLS - 2
        assert _canonical(resumed) == _canonical(baseline)
        assert resumed.samples == baseline.samples
        assert resumed.fingerprint() == baseline.fingerprint()

    def test_full_cache_reruns_without_executing(self, baseline, tmp_path):
        store = CellStore(tmp_path / "cells")
        run_experiment("fig3", SMALL, plan=ExecutionPlan(store=store))
        replay_plan = ExecutionPlan(store=store, max_cells=0)
        replay = run_experiment("fig3", SMALL, plan=replay_plan)
        assert replay_plan.cells_executed == 0
        assert replay_plan.cells_cached == TOTAL_CELLS
        assert _canonical(replay) == _canonical(baseline)


class TestShardRunAndMerge:
    def test_two_shards_merge_byte_identically(self, baseline, tmp_path):
        stores = [CellStore(tmp_path / f"shard-{i}") for i in range(2)]
        for index, store in enumerate(stores):
            plan = ExecutionPlan(store=store, shard_index=index, shard_count=2)
            with pytest.raises(GridIncomplete):
                run_experiment("fig3", SMALL, plan=plan)
            assert plan.cells_executed == TOTAL_CELLS // 2

        merged_store = CellStore(stores[0].root, extra_roots=[stores[1].root])
        merge_plan = ExecutionPlan(store=merged_store, execute=False)
        merged = run_experiment("fig3", SMALL, plan=merge_plan)
        assert merge_plan.cells_executed == 0
        assert merge_plan.cells_cached == TOTAL_CELLS
        assert _canonical(merged) == _canonical(baseline)
        assert merged.samples == baseline.samples

    @pytest.mark.parametrize(
        "name, options",
        [
            (
                "attacks",
                {"attacks": ("eclipse",), "protocols": ("bitcoin", "bcbpt"), "attack_blocks": 1},
            ),
            ("ablation", {}),
        ],
    )
    def test_two_shards_of_a_many_part_payload_merge(self, name, options, tmp_path):
        """attacks (eclipse, partition and dynamic outcomes) and ablation
        (verification and long-link variants) each run one grid of 8 cells
        here, so the two shard slices hold every cell between them."""
        stores = [CellStore(tmp_path / f"shard-{index}") for index in range(2)]
        for index, store in enumerate(stores):
            plan = ExecutionPlan(store=store, shard_index=index, shard_count=2)
            with pytest.raises(GridIncomplete):
                run_experiment(name, TINY, dict(options), plan=plan)
            assert plan.cells_executed == 4
        merged_store = CellStore(stores[0].root, extra_roots=[stores[1].root])
        merge_plan = ExecutionPlan(store=merged_store, execute=False)
        merged = run_experiment(name, TINY, dict(options), plan=merge_plan)
        assert merge_plan.cells_cached == 8
        assert merged.fingerprint() == run_experiment(name, TINY, dict(options)).fingerprint()

    def test_merge_is_strict_about_missing_shards(self, tmp_path):
        half = CellStore(tmp_path / "only-shard-0")
        with pytest.raises(GridIncomplete):
            run_experiment(
                "fig3",
                SMALL,
                plan=ExecutionPlan(store=half, shard_index=0, shard_count=2),
            )
        with pytest.raises(GridIncomplete):
            run_experiment(
                "fig3", SMALL, plan=ExecutionPlan(store=half, execute=False)
            )


# ----------------------------------------------------------- store + index
def _make_result(**overrides) -> ExperimentResult:
    fields = dict(
        experiment="fig3",
        experiment_id="Fig. 3",
        title="test result",
        created_at=1_800_000_000.0,
        config={"node_count": 80, "seeds": [3, 11], "workers": 1},
        options={},
        seeds=[3, 11],
        summaries={
            "bitcoin": {"mean_s": 0.18, "count": 15},
            "bcbpt": {"mean_s": 0.02, "count": 6},
        },
        verdicts={"paper_ordering": True},
        extras={"duration_s": 1.5},
    )
    fields.update(overrides)
    return ExperimentResult(**fields)


def _race_save(root: str, barrier, sink) -> None:
    store = ResultStore(root)
    result = _make_result()
    barrier.wait()  # both processes call save() at the same instant
    sink.put(str(store.save(result)))


class TestResultStoreRace:
    def test_concurrent_saves_claim_distinct_run_dirs(self, tmp_path):
        # Both results carry the same created_at, so both processes compute
        # the same <stamp> prefix; the atomic mkdir claim must hand each a
        # distinct sequence number instead of letting one overwrite the other.
        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        sink = context.Queue()
        procs = [
            context.Process(target=_race_save, args=(str(tmp_path), barrier, sink))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        dirs = {sink.get(timeout=60) for _ in procs}
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert len(dirs) == 2, "two savers claimed the same run directory"
        store = ResultStore(tmp_path)
        assert len(store.run_ids("fig3")) == 2
        for run_dir in dirs:
            assert store.load(run_dir).experiment == "fig3"


class TestResultIndexQueries:
    @pytest.fixture()
    def store(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        store.save(_make_result(config={"node_count": 80, "workers": 1}))
        store.save(
            _make_result(
                created_at=1_800_000_100.0,
                config={"node_count": 200, "workers": 4},
                summaries={"bcbpt@50ms": {"mean_s": 0.03}},
            )
        )
        store.save(
            _make_result(
                created_at=1_800_000_200.0,
                experiment="scale",
                config={"node_count": 10000, "workers": 0},
                summaries={"bcbpt": {"mean_s": 0.05}},
            )
        )
        return store

    def test_query_by_config_field_and_alias(self, store):
        assert len(store.query({"node_count": "200"})) == 1
        assert store.query({"nodes": "200"}) == store.query({"node_count": "200"})
        assert len(store.query({"nodes": "80"}, experiment="fig3")) == 1
        assert store.query({"nodes": "999"}) == []

    def test_query_by_protocol_label(self, store):
        # "bcbpt" matches both the plain label and the base of "bcbpt@50ms".
        assert len(store.query({"policy": "bcbpt"})) == 3
        assert len(store.query({"protocol": "bcbpt@50ms"})) == 1

    def test_conditions_intersect(self, store):
        assert len(store.query({"nodes": "10000", "policy": "bcbpt"})) == 1
        assert store.query({"nodes": "10000", "policy": "bitcoin"}) == []

    def test_query_by_seed(self, store):
        assert len(store.query({"seed": "11"}, experiment="fig3")) == 2

    def test_query_sees_runs_saved_by_another_store(self, store):
        # A run saved by a second writer on the same root (another process,
        # a shard runner) is found by the next query.
        run_dir = ResultStore(store.root).save(
            _make_result(created_at=1_800_000_300.0, summaries={"bcbpt": {"mean_s": 0.04}})
        )
        matches = store.query({"policy": "bcbpt"})
        assert len(matches) == 4
        assert f"fig3/{run_dir.name}" in matches

    def test_select_forms(self, store):
        ids = store.run_ids()
        assert store.select(None) == store.select("") == store.select("latest") == ids
        assert store.select("?policy=bcbpt") == store.query({"policy": "bcbpt"})
        assert store.select("fig3?nodes=200") == store.query(
            {"nodes": "200"}, experiment="fig3"
        )
        assert store.select("fig3") == store.run_ids("fig3")
        assert store.select(ids[0]) == [ids[0]]
        run_dir = store.run_dir(ids[0])
        assert store.select(run_dir) == [str(run_dir)]
        for missing in ("fig3?nodes=31337", "fig4", "fig3/20000101T000000-001"):
            with pytest.raises(FileNotFoundError, match="no stored runs match"):
                store.select(missing)
        with pytest.raises(ValueError, match="selector"):
            store.select("fig3?nodes")

    def test_select_orders_runs_by_time_across_experiments(self, tmp_path):
        """Regression: `run_ids` sorted by experiment name before time, so a
        selector's newest match could be older than the newest run."""
        store = ResultStore(tmp_path)
        # Both runs carry the bcbpt label; the fig3 run is saved 100 s later.
        store.save(_make_result(experiment="fig4"))
        newest = f"fig3/{store.save(_make_result(created_at=1_800_000_100.0)).name}"
        assert store.select("?policy=bcbpt")[-1] == newest
        assert store.select("latest")[-1] == newest
        assert store.run_ids()[-1] == newest

    def test_parse_where(self):
        assert parse_where("nodes=80,policy=bcbpt") == {
            "nodes": "80",
            "policy": "bcbpt",
        }
        with pytest.raises(ValueError, match="selector"):
            parse_where("nodes")
        with pytest.raises(ValueError, match="selector"):
            parse_where("")


class TestCanonicalForm:
    def test_masks_wall_clock_and_execution_fields(self):
        a = _make_result(created_at=1.0, extras={"duration_s": 9.9})
        b = _make_result(
            created_at=2.0,
            extras={"duration_s": 0.1},
            config={"node_count": 80, "seeds": [3, 11], "workers": 8},
        )
        assert a.canonical_json() == b.canonical_json()
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_the_physics(self):
        a = _make_result()
        b = _make_result(summaries={"bitcoin": {"mean_s": 0.99}})
        assert a.fingerprint() != b.fingerprint()


# ------------------------------------------------------------------ CLI glue
class TestCliExecutionPlane:
    def test_budget_exhaustion_exits_incomplete(self, tmp_path, capsys):
        # --max-cells 0 executes nothing, so this exercises the full
        # GridIncomplete CLI path without simulating a single cell.
        code = cli.main(
            [
                "run",
                "fig3",
                "--max-cells",
                "0",
                "--cells",
                str(tmp_path / "cells"),
                "--results-dir",
                str(tmp_path / "results"),
            ]
        )
        assert code == cli.EXIT_INCOMPLETE
        err = capsys.readouterr().err
        assert "sweep incomplete" in err
        assert "resume with" in err

    def test_shard_run_requires_cells(self, tmp_path, capsys):
        code = cli.main(["shard", "run", "fig3", "--shard", "0/2"])
        assert code == 2
        assert "--cells" in capsys.readouterr().err

    def test_shard_rejects_sweep(self, tmp_path, capsys):
        code = cli.main(
            [
                "shard",
                "run",
                "fig3",
                "--shard",
                "0/2",
                "--cells",
                str(tmp_path),
                "--sweep",
                "node_count=80,200",
            ]
        )
        assert code == 2
        assert "--sweep" in capsys.readouterr().err

    def test_bad_shard_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(
                ["shard", "run", "fig3", "--shard", "2", "--cells", str(tmp_path)]
            )

    def test_shard_merge_strict_on_empty_store(self, tmp_path, capsys):
        code = cli.main(
            [
                "shard",
                "merge",
                "fig3",
                str(tmp_path / "empty-cells"),
                "--results-dir",
                str(tmp_path / "results"),
            ]
        )
        assert code == cli.EXIT_INCOMPLETE
        assert "strict" in capsys.readouterr().err

    def test_shard_usage_and_unknown_mode(self, capsys):
        assert cli.main(["shard"]) == 2
        assert cli.main(["shard", "--help"]) == 0
        assert "shard run" in capsys.readouterr().out
        assert cli.main(["shard", "teleport"]) == 2
        assert cli.main(["shard", "run", "not-an-experiment"]) == 2
