"""Tests for the scale plane: snapshots, snapshot-backed golden runs, Ext-8.

Two contracts gate the tentpole changes here:

* **snapshot stream-exactness** — build→save→load→run must be byte-identical
  to build→run, so the snapshot-backed Fig. 3 comparison reproduces the same
  golden fingerprints as the rebuild-per-job path, for any worker count;
* **the scale experiment itself** — jobs are picklable, cells complete, and
  the envelope carries the nodes-vs-resource curves.
"""

import hashlib
import pickle

import pytest

from repro.experiments.api import get_experiment, run_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_protocol_comparison
from repro.experiments.scale import (
    DEFAULT_PRUNE_DEPTH,
    SCALE_PROTOCOLS,
    ScaleJob,
    default_ladder,
    run_scale,
    scale_parameters,
)
from repro.workloads import network_gen
from repro.workloads.network_gen import (
    NetworkParameters,
    build_network,
    ensure_network_snapshot,
    load_network,
    save_network,
    snapshot_filename,
)
from repro.workloads.scenarios import build_scenario

from tests.experiments.test_relay_experiment import (
    GOLDEN_CONFIG,
    GOLDEN_FIG3_DIGESTS,
    _digest,
)

SMALL = ExperimentConfig(
    node_count=30, runs=1, seeds=(3,), measuring_nodes=1, run_timeout_s=30.0
)


class TestSnapshotRoundTrip:
    def test_load_reproduces_build_exactly(self, tmp_path):
        """build→save→load→policy→campaign ≡ build→policy→campaign."""
        parameters = NetworkParameters(node_count=30, seed=9)
        path = save_network(build_network(parameters), tmp_path / "net.pkl")

        fresh = build_scenario("bcbpt", parameters, latency_threshold_s=0.025)
        loaded = build_scenario(
            "bcbpt", latency_threshold_s=0.025, snapshot=path
        )
        assert loaded.network.parameters == fresh.network.parameters
        assert loaded.build_report == fresh.build_report
        edges = lambda scenario: sorted(
            (link.node_a, link.node_b, link.is_cluster_link, link.is_long_link)
            for link in scenario.network.network.topology.links()
        )
        assert edges(loaded) == edges(fresh)

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

    def test_snapshot_filename_changes_with_format_version(self, monkeypatch):
        """A snapshot written under another object layout is never loaded."""
        parameters = NetworkParameters(node_count=20, seed=4)
        current = snapshot_filename(parameters)
        unversioned = hashlib.sha256(repr(parameters).encode()).hexdigest()[:12]
        assert unversioned not in current
        monkeypatch.setattr(network_gen, "SNAPSHOT_FORMAT", network_gen.SNAPSHOT_FORMAT + 1)
        assert snapshot_filename(parameters) != current

    def test_ensure_snapshot_caches_by_parameters(self, tmp_path):
        parameters = NetworkParameters(node_count=20, seed=4)
        first = ensure_network_snapshot(parameters, tmp_path)
        stamp = first.stat().st_mtime_ns
        second = ensure_network_snapshot(parameters, tmp_path)
        assert second == first
        assert second.stat().st_mtime_ns == stamp  # reused, not rebuilt
        other = ensure_network_snapshot(
            NetworkParameters(node_count=20, seed=5), tmp_path
        )
        assert other != first

    def test_scenario_rejects_mismatched_parameters(self, tmp_path):
        path = ensure_network_snapshot(NetworkParameters(node_count=20, seed=4), tmp_path)
        with pytest.raises(ValueError, match="different NetworkParameters"):
            build_scenario(
                "bitcoin", NetworkParameters(node_count=20, seed=5), snapshot=path
            )

    def test_scenario_rejects_dynamic_overrides(self, tmp_path):
        from repro.workloads.scenarios import ChurnSchedule

        path = ensure_network_snapshot(NetworkParameters(node_count=20, seed=4), tmp_path)
        with pytest.raises(ValueError, match="static flood"):
            build_scenario("bitcoin", snapshot=path, churn=ChurnSchedule())


class TestSnapshotGoldenFingerprints:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_snapshot_backed_fig3_matches_golden_digests(self, workers, tmp_path):
        """THE gate: the snapshot-reuse path must reproduce the pre-snapshot
        Δt streams byte-for-byte, serial and fan-out alike."""
        results = run_protocol_comparison(
            ("bitcoin", "lbc", "bcbpt"),
            GOLDEN_CONFIG.with_overrides(workers=workers),
            snapshot_dir=tmp_path,
        )
        for name, expected in GOLDEN_FIG3_DIGESTS.items():
            assert _digest(results[name].delays.samples) == expected, (
                f"{name} (workers={workers}, snapshot-backed) diverged from the "
                "golden baseline"
            )


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
            prune_depth=6, cell_runs=1, profile_memory=True,
            snapshot_path="/tmp/x.pkl", config=SMALL,
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
                assert cell.rss_mb > 0.0
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
        assert ("bitcoin", "rss_mb") in curves

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            run_scale(SMALL, node_counts=(5,))
        with pytest.raises(ValueError, match="cell_runs"):
            run_scale(SMALL, node_counts=(20,), cell_runs=0)
        with pytest.raises(ValueError, match="prune_depth"):
            run_scale(SMALL, node_counts=(20,), prune_depth=-1)
        with pytest.raises(ValueError, match="unknown policy"):
            run_scale(SMALL, node_counts=(20,), protocols=("bitcion",))

    def test_scale_parameters_shared_cache_key(self):
        # Driver and worker must agree bit-for-bit on the snapshot filename.
        a = scale_parameters(100, 3, 6)
        b = scale_parameters(100, 3, 6)
        assert repr(a) == repr(b)
        assert (
            hashlib.sha256(repr(a).encode()).hexdigest()
            == hashlib.sha256(repr(b).encode()).hexdigest()
        )
