"""Tests for the scale plane: network snapshots and Ext-8.

Two contracts are checked here:

* **snapshot stream-exactness** — build→save→load→run must be byte-identical
  to build→run, and a save is atomic and refuses a busy network;
* **the scale experiment itself** — jobs are picklable, cells complete, and
  the envelope carries the nodes-vs-resource curves.
"""

import math
import pickle
import resource
from types import SimpleNamespace

import pytest

from repro.experiments.api import get_experiment, run_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.scale import (
    DEFAULT_PRUNE_DEPTH,
    SCALE_PROTOCOLS,
    ScaleJob,
    collect_samples,
    default_ladder,
    run_scale,
)
from repro.workloads import network_gen
from repro.workloads.network_gen import (
    NetworkParameters,
    build_network,
    load_network,
    save_network,
)
from repro.workloads.scenarios import build_policy, build_scenario

SMALL = ExperimentConfig(
    node_count=30, runs=1, seeds=(3,), measuring_nodes=1, run_timeout_s=30.0
)


class TestSnapshotRoundTrip:
    def test_load_reproduces_build_exactly(self, tmp_path):
        """build→save→load→policy ≡ build→policy."""
        parameters = NetworkParameters(node_count=30, seed=9)
        path = save_network(build_network(parameters), tmp_path / "net.pkl")

        fresh = build_scenario("bcbpt", parameters, latency_threshold_s=0.025)
        loaded = load_network(path)
        report = build_policy("bcbpt", loaded, latency_threshold_s=0.025).build_topology()
        assert loaded.parameters == fresh.network.parameters
        assert report == fresh.build_report
        edges = lambda simulated: sorted(
            (link.node_a, link.node_b, link.is_cluster_link, link.is_long_link)
            for link in simulated.network.topology.links()
        )
        assert edges(loaded) == edges(fresh.network)

    def test_slotted_node_statistics_round_trip(self, tmp_path):
        simulated = build_network(NetworkParameters(node_count=20, seed=4))
        for node_id, node in simulated.nodes.items():
            node.stats.invs_received = 3 * node_id
            node.stats.pruned_inventory_entries = node_id + 1
        assert not hasattr(simulated.nodes[0].stats, "__dict__")
        loaded = load_network(save_network(simulated, tmp_path / "net.pkl"))
        assert [node.stats for node in loaded.nodes.values()] == [
            node.stats for node in simulated.nodes.values()
        ]

    def test_concurrent_writers_of_one_snapshot_do_not_collide(self, tmp_path, monkeypatch):
        """A second save of the same snapshot, made while the first is still
        pickling, must neither break the first writer nor leave a temp file."""
        simulated = build_network(NetworkParameters(node_count=20, seed=4))
        path = tmp_path / "net.pkl"
        real_dump = pickle.dump
        handles = []

        def dump_while_another_writer_saves(obj, handle, protocol=None):
            handles.append(handle)
            if len(handles) == 1:
                save_network(simulated, path)
            real_dump(obj, handle, protocol=protocol)

        monkeypatch.setattr(network_gen.pickle, "dump", dump_while_another_writer_saves)
        assert save_network(simulated, path) == path
        monkeypatch.undo()
        assert len(handles) == 2
        assert [entry.name for entry in tmp_path.iterdir()] == ["net.pkl"]
        loaded = load_network(path)
        assert [link.key for link in loaded.network.topology.links()] == [
            link.key for link in simulated.network.topology.links()
        ]

    def test_failed_save_leaves_no_temp_file(self, tmp_path, monkeypatch):
        simulated = build_network(NetworkParameters(node_count=20, seed=4))

        def failing_dump(obj, handle, protocol=None):
            handle.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(network_gen.pickle, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_network(simulated, tmp_path / "net.pkl")
        assert list(tmp_path.iterdir()) == []

    def test_snapshot_requires_quiescent_network(self, tmp_path):
        simulated = build_network(NetworkParameters(node_count=20, seed=1))
        simulated.simulator.schedule(1.0, lambda: None, label="pending")
        with pytest.raises(ValueError, match="pending"):
            save_network(simulated, tmp_path / "busy.pkl")

    def test_load_rejects_foreign_pickles(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"not": "a network"}, handle)
        with pytest.raises(TypeError):
            load_network(path)


class TestScaleExperiment:
    def test_registered_with_spec(self):
        spec = get_experiment("scale")
        assert spec.experiment_id == "Ext-8"
        assert spec.exit_verdict == "all_cells_completed"
        assert {o.dest for o in spec.options} >= {
            "node_counts", "protocols", "prune_depth", "cell_runs", "profile_memory",
        }

    def test_default_ladder_shape(self):
        assert default_ladder(10_000) == (2500, 5000, 10_000)
        assert default_ladder(40) == (20, 40)  # quarter/half clamp to the floor
        assert SCALE_PROTOCOLS == ("bitcoin", "bcbpt")
        assert DEFAULT_PRUNE_DEPTH == 6

    def test_scale_job_is_picklable(self):
        job = ScaleJob(
            node_count=100, protocol="bcbpt", seed=3,
            prune_depth=6, cell_runs=1, profile_memory=True, config=SMALL,
        )
        assert pickle.loads(pickle.dumps(job)) == job

    def test_runs_end_to_end(self, render_payload):
        results = run_scale(
            SMALL, node_counts=(20, 30), protocols=("bitcoin",), cell_runs=1
        )
        assert set(results) == {"bitcoin@20", "bitcoin@30"}
        for result in results.values():
            assert len(result.cells) == len(SMALL.seeds)
            for cell in result.cells:
                assert cell.events > 0
                assert cell.delay_samples > 0
                assert cell.build_s >= 0.0
                # Only a cell that raised the process's RSS high-water mark
                # records one.
                assert cell.rss_mb is None or cell.rss_mb > 0.0
                assert cell.peak_traced_mb is not None
        text = render_payload("scale", results)
        assert "Ext-8" in text
        assert "`mean_events_per_s`" in text

    def test_prune_depth_zero_disables_pruning(self):
        results = run_scale(
            SMALL, node_counts=(20,), protocols=("bitcoin",), cell_runs=1,
            prune_depth=0, profile_memory=False,
        )
        (result,) = results.values()
        assert all(cell.state_prunes == 0 for cell in result.cells)
        assert all(cell.peak_traced_mb is None for cell in result.cells)

    def test_envelope_and_verdicts(self):
        run = run_experiment(
            "scale",
            SMALL,
            {"node_counts": (20,), "protocols": ("bitcoin",), "cell_runs": 1},
        )
        assert run.verdicts["all_cells_completed"]
        assert "bitcoin@20" in run.summaries
        assert run.summaries["bitcoin@20"]["mean_events_per_s"] > 0
        curves = {
            (curve["label"], curve["metric"]) for curve in run.samples["timeseries"]
        }
        assert ("bitcoin", "wall_s") in curves
        rss_points = [
            point
            for curve in run.samples["timeseries"]
            if curve["metric"] == "rss_mb"
            for point in curve["points"]
        ]
        recorded = [
            cell.rss_mb for result in run.payload.values() for cell in result.cells
            if cell.rss_mb is not None
        ]
        assert len(rss_points) == len(recorded)

    def test_a_cell_records_rss_only_when_it_raised_the_high_water_mark(self, monkeypatch):
        # ru_maxrss (KB) read before and after each cell: the bitcoin cell
        # raises the process's mark from 100 to 150 MB, and the bcbpt cell
        # after it leaves the mark at 150 MB, so its own peak is unknown.
        marks = iter([100 * 1024, 150 * 1024, 150 * 1024, 150 * 1024])
        monkeypatch.setattr(
            resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=next(marks))
        )
        results = run_scale(
            SMALL, node_counts=(20,), protocols=("bitcoin", "bcbpt"), cell_runs=1,
            profile_memory=False,
        )
        assert next(marks, None) is None
        assert [cell.rss_mb for cell in results["bitcoin@20"].cells] == [150.0]
        assert [cell.rss_mb for cell in results["bcbpt@20"].cells] == [None]
        assert results["bitcoin@20"].summary()["max_rss_mb"] == 150.0
        assert math.isnan(results["bcbpt@20"].summary()["max_rss_mb"])
        curves = [
            (curve.label, curve.points)
            for curve in collect_samples(results).timeseries()
            if curve.metric == "rss_mb"
        ]
        assert curves == [("bitcoin", [(20.0, 150.0)])]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            run_scale(SMALL, node_counts=(5,))
        with pytest.raises(ValueError, match="cell_runs"):
            run_scale(SMALL, node_counts=(20,), cell_runs=0)
        with pytest.raises(ValueError, match="prune_depth"):
            run_scale(SMALL, node_counts=(20,), prune_depth=-1)
        with pytest.raises(ValueError, match="unknown policy"):
            run_scale(SMALL, node_counts=(20,), protocols=("bitcion",))
