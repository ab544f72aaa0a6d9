"""Tests for the ExperimentResult envelope and the persistent ResultStore."""

import json
import math

import pytest

from repro.analysis.report import render_report
from repro.experiments.results import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    ResultStore,
    diff_results,
    json_safe,
)


def make_result(**overrides) -> ExperimentResult:
    fields = dict(
        experiment="fig3",
        experiment_id="Fig. 3",
        title="test result",
        created_at=1_800_000_000.0,
        config={"node_count": 40, "seeds": [5], "workers": 1},
        options={"races": 2},
        seeds=[5],
        summaries={
            "bitcoin": {"mean_s": 0.18, "variance_s2": 8e-3, "count": 15},
            "bcbpt": {"mean_s": 0.02, "variance_s2": 1e-4, "count": 6},
        },
        verdicts={"paper_ordering": True},
        extras={"duration_s": 1.5},
    )
    fields.update(overrides)
    return ExperimentResult(**fields)


class TestJsonSafe:
    def test_plain_and_nested_structures(self):
        assert json_safe({"a": (1, 2), "b": {3, 1}}) == {"a": [1, 2], "b": [1, 3]}

    def test_dataclasses_become_dicts(self):
        from repro.experiments.threshold_sweep import ThresholdPoint

        point = ThresholdPoint(
            threshold_s=0.025,
            mean_delay_s=0.02,
            median_delay_s=0.02,
            variance_s2=1e-4,
            p90_delay_s=0.03,
            cluster_count=5.0,
            mean_cluster_size=4.0,
            mean_link_rtt_s=0.07,
            long_link_fraction=0.5,
            long_link_fallbacks=0.0,
        )
        assert json_safe(point)["threshold_s"] == 0.025

    def test_unserialisable_objects_fall_back_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert json_safe({"x": Opaque()}) == {"x": "<opaque>"}


class TestEnvelopeRoundTrip:
    def test_json_round_trip_identity(self):
        result = make_result()
        clone = ExperimentResult.from_json(result.to_json())
        assert clone.to_dict() == result.to_dict()

    def test_nan_metrics_survive_round_trip(self):
        result = make_result(
            summaries={"bcbpt": {"mean_detection_time_s": float("nan")}}
        )
        clone = ExperimentResult.from_json(result.to_json())
        assert math.isnan(clone.summaries["bcbpt"]["mean_detection_time_s"])

    def test_newer_schema_rejected(self):
        data = make_result().to_dict()
        data["schema_version"] = 999
        with pytest.raises(ValueError, match="newer"):
            ExperimentResult.from_dict(data)

    def test_render_includes_summaries_and_verdicts(self):
        text = render_report(make_result())
        assert "| bitcoin | 0.18 | 0.008 | 15 |" in text
        assert "| paper_ordering | PASS |" in text

    def test_v2_envelope_with_sections_loads_renders_and_drops_them(self):
        """Up to schema v2 envelopes stored pre-rendered report sections; they
        still load and render, and round-trip without them."""
        data = make_result().to_dict()
        data["schema_version"] = 2
        data["sections"] = [["Delay summary", "protocol  mean\nbitcoin  180"]]
        legacy = ExperimentResult.from_dict(data)
        assert render_report(legacy) == render_report(make_result())
        stored = legacy.to_dict()
        assert "sections" not in stored
        assert stored["schema_version"] == RESULT_SCHEMA_VERSION == 3
        assert ExperimentResult.from_json(legacy.to_json()).to_dict() == stored
        assert legacy.fingerprint() == make_result().fingerprint()


class TestDiff:
    def test_identical_runs(self):
        diff = diff_results(make_result(), make_result())
        assert diff.identical

    def test_nan_equal_nan_in_diff(self):
        a = make_result(summaries={"x": {"m": float("nan")}})
        b = make_result(summaries={"x": {"m": float("nan")}})
        assert diff_results(a, b).identical

    def test_config_metric_and_verdict_changes_reported(self):
        baseline = make_result()
        candidate = make_result(
            config={"node_count": 80, "seeds": [5], "workers": 1},
            summaries={
                "bitcoin": {"mean_s": 0.20, "variance_s2": 8e-3, "count": 15},
                "lbc": {"mean_s": 0.03},
            },
            verdicts={"paper_ordering": False},
        )
        diff = diff_results(baseline, candidate)
        assert not diff.identical
        assert diff.config_changes["node_count"] == (40, 80)
        assert diff.metric_deltas["bitcoin"]["mean_s"] == (0.18, 0.20)
        assert diff.labels_only_in_baseline == ["bcbpt"]
        assert diff.labels_only_in_candidate == ["lbc"]
        assert diff.verdict_changes["paper_ordering"] == (True, False)

    def test_cross_experiment_diff_rejected(self):
        with pytest.raises(ValueError, match="different experiments"):
            diff_results(make_result(), make_result(experiment="fig4"))


class TestResultStore:
    def test_save_creates_run_directory_with_envelope(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        run_dir = store.save(make_result())
        # The envelope only: `repro report` renders report.md on demand.
        assert [path.name for path in run_dir.iterdir()] == ["result.json"]
        assert sorted(path.name for path in store.root.iterdir()) == ["fig3"]
        assert json.loads((run_dir / "result.json").read_text())["experiment"] == "fig3"

    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        result = make_result()
        run_dir = store.save(result)
        assert store.load(run_dir).to_dict() == result.to_dict()

    def test_run_ids_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        first = store.save(make_result())
        second = store.save(make_result())
        ids = store.run_ids("fig3")
        assert len(ids) == 2
        assert ids[0].endswith(first.name) and ids[1].endswith(second.name)
        assert store.run_ids("fig4") == []

    def test_same_second_runs_get_distinct_directories(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        a = store.save(make_result())
        b = store.save(make_result())
        assert a != b

    def test_load_by_run_id_and_missing_run_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        run_dir = store.save(make_result())
        run_id = f"fig3/{run_dir.name}"
        assert store.load(run_id).experiment == "fig3"
        with pytest.raises(FileNotFoundError):
            store.load("fig3/20000101T000000-001")

    def test_two_stored_runs_diff_after_load(self, tmp_path):
        """A verdict change survives save and load, so comparing the two
        runs a ref selects reports it."""
        store = ResultStore(tmp_path / "results")
        store.save(make_result())
        store.save(make_result(verdicts={"paper_ordering": False}))
        baseline_id, candidate_id = store.select("fig3")
        diff = diff_results(store.load(baseline_id), store.load(candidate_id))
        assert diff.verdict_changes == {"paper_ordering": (True, False)}
        assert not (diff.config_changes or diff.metric_deltas)

    def test_empty_store_lists_nothing(self, tmp_path):
        assert ResultStore(tmp_path / "nowhere").run_ids() == []
