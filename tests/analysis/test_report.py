"""Tests for `repro report` (`repro.analysis.report` + the CLI subcommand).

Pins the acceptance criteria: figures regenerate from stored raw samples
with no re-simulation, markdown is byte-stable across repeated invocations,
and legacy sample-less envelopes still load and report (tables only).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import figures as figures_mod
from repro.analysis.report import (
    build_figures,
    render_comparison,
    render_report,
    resolve_run_ref,
    sample_log_of,
    write_report,
)
from repro.experiments.api import run_experiment
from repro.experiments.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult, ResultStore

TINY_ARGS = ["--nodes", "20", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1"]


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """One tiny fig3 run persisted to a module-scoped store."""
    store_dir = tmp_path_factory.mktemp("results")
    rc = main(["run", "fig3", *TINY_ARGS, "--results-dir", str(store_dir)])
    assert rc == 0
    store = ResultStore(store_dir)
    (run_id,) = store.run_ids("fig3")
    return store, run_id


class TestFigureRegeneration:
    def test_fig3_curves_come_from_stored_samples(self, stored_run):
        store, run_id = stored_run
        result = store.load(run_id)
        specs = build_figures(result, sample_log_of(result))
        delay_spec = next(s for s in specs if s.slug == "fig3-delay-coverage")
        assert "Fig. 3" in delay_spec.title
        labels = [curve.label for curve in delay_spec.curves]
        assert labels == ["bitcoin", "lbc", "bcbpt"]
        for curve in delay_spec.curves:
            fractions = [y for _, y in curve.points]
            assert fractions == sorted(fractions), "a CDF must be monotone"
            assert fractions[-1] == 1.0

    def test_fig4_regenerates_per_threshold(self, tmp_path):
        result = run_experiment(
            "fig4",
            ExperimentConfig(node_count=20, runs=1, seeds=(3,), measuring_nodes=1),
            {"thresholds_ms": (30.0, 60.0)},
        )
        specs = build_figures(result, sample_log_of(result))
        delay_spec = next(s for s in specs if s.slug == "fig4-delay-coverage")
        assert [c.label for c in delay_spec.curves] == ["bcbpt@30ms", "bcbpt@60ms"]

    def test_fallback_table_always_available(self, stored_run):
        store, run_id = stored_run
        result = store.load(run_id)
        specs = build_figures(result, sample_log_of(result))
        table = figures_mod.figure_table(specs[0])
        header = table.splitlines()[0]
        assert header == "| propagation delay (ms) | bitcoin | lbc | bcbpt |"

    def test_render_figure_without_matplotlib_returns_nothing(self, stored_run, tmp_path):
        store, run_id = stored_run
        result = store.load(run_id)
        specs = build_figures(result, sample_log_of(result))
        paths = figures_mod.render_figure(specs[0], tmp_path)
        if figures_mod.matplotlib_available():
            assert [p.suffix for p in paths] == [".png", ".svg"]
            assert all(p.stat().st_size > 0 for p in paths)
        else:
            assert paths == []


class TestWriteReport:
    def test_report_lands_in_run_dir_and_is_byte_stable(self, stored_run):
        store, run_id = stored_run
        first = write_report(store, run_id)
        assert first.markdown_path == store.run_dir(run_id) / "report.md"
        second = write_report(store, run_id)
        assert first.markdown == second.markdown
        assert first.markdown_path.read_bytes() == second.markdown_path.read_bytes()

    def test_report_contents(self, stored_run):
        store, run_id = stored_run
        markdown = write_report(store, run_id).markdown
        assert markdown.startswith("# Fig. 3:")
        assert f"`{run_id}`" in markdown
        assert "## Provenance" in markdown
        assert "## Verdicts" in markdown
        assert "## Percentiles — `delay_s` (ms)" in markdown
        assert "95% CI of mean" in markdown
        assert "## Figures" in markdown
        # One row per label; the clustered labels carry their cluster structure.
        assert "## Stored summaries" in markdown
        assert "| label | `count` | `mean_s` |" in markdown
        assert "| bitcoin |" in markdown and "`max_cluster_size`" in markdown
        # The envelope stores no pre-rendered text to print a second time.
        assert "## Stored report sections" not in markdown

    def test_out_dir_override(self, stored_run, tmp_path):
        store, run_id = stored_run
        artifacts = write_report(store, run_id, out_dir=tmp_path / "out")
        assert artifacts.markdown_path == tmp_path / "out" / "report.md"
        assert artifacts.markdown_path.exists()

    def test_legacy_envelope_reports_tables_only(self, stored_run, tmp_path):
        """A v1 envelope (no samples) still renders: summary tables, no
        percentile tables, no figures."""
        store, run_id = stored_run
        data = store.load(run_id).to_dict()
        del data["samples"]
        data["schema_version"] = 1
        legacy = ExperimentResult.from_dict(data)
        markdown = render_report(legacy, run_id="legacy")
        assert "legacy envelope" in markdown
        assert "## Stored summaries" in markdown
        assert "## Percentiles" not in markdown
        assert "## Figures" not in markdown

    def test_summary_tables_group_labels_by_metric_set(self):
        result = ExperimentResult(
            experiment="x",
            experiment_id="X",
            title="t",
            created_at=0.0,
            config={},
            summaries={
                "flood/a": {"count": 2, "mean_s": 0.5},
                "compact/a": {"count": 3, "mean_s": 0.25, "compact_fallbacks": 1.0},
                "flood/b": {"count": 4, "mean_s": 1.5},
            },
        )
        markdown = render_report(result)
        body = markdown.split("## Stored summaries\n\n", 1)[1]
        assert body == (
            "| label | `count` | `mean_s` |\n"
            "|---|---|---|\n"
            "| flood/a | 2 | 0.5 |\n"
            "| flood/b | 4 | 1.5 |\n"
            "\n"
            "| label | `count` | `mean_s` | `compact_fallbacks` |\n"
            "|---|---|---|---|\n"
            "| compact/a | 3 | 0.25 | 1 |\n"
        )

    @pytest.mark.parametrize("installed", [True, False])
    def test_figure_note_names_why_a_table_is_shown(
        self, stored_run, monkeypatch, installed
    ):
        store, run_id = stored_run
        monkeypatch.setattr(figures_mod, "matplotlib_available", lambda: installed)
        markdown = render_report(store.load(run_id), run_id=run_id)
        assert "| propagation delay (ms) | bitcoin | lbc | bcbpt |" in markdown
        assert ("matplotlib is not installed" in markdown) is not installed
        assert ("_Figure not rendered — table view shown" in markdown) is installed

    def test_resolve_run_ref_forms(self, stored_run):
        store, run_id = stored_run
        assert resolve_run_ref(store, None) == run_id
        assert resolve_run_ref(store, "latest") == run_id
        assert resolve_run_ref(store, "fig3") == run_id
        assert resolve_run_ref(store, run_id) == run_id
        with pytest.raises(FileNotFoundError):
            resolve_run_ref(store, "fig4")
        with pytest.raises(FileNotFoundError):
            resolve_run_ref(ResultStore(store.root / "empty"), None)


class TestReportCli:
    def test_report_smoke(self, stored_run, capsys):
        store, run_id = stored_run
        rc = main(["report", run_id, "--results-dir", str(store.root)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "report:" in out

    def test_report_latest_default_with_stdout(self, stored_run, capsys):
        store, _ = stored_run
        rc = main(["report", "--results-dir", str(store.root), "--stdout"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "## Percentiles" in out

    def test_report_missing_run_fails_cleanly(self, tmp_path, capsys):
        rc = main(["report", "--results-dir", str(tmp_path / "none")])
        assert rc == 2
        assert "no stored runs" in capsys.readouterr().err

    def test_compare_smoke(self, stored_run, capsys):
        store, run_id = stored_run
        rc = main(
            ["report", "--compare", run_id, run_id, "--results-dir", str(store.root)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# Comparison:")
        assert "(summaries identical)" in out
        assert "## Percentiles — `delay_s`" in out


class TestComparisonRendering:
    def test_detects_config_drift_and_verdict_columns(self, stored_run, tmp_path):
        store, run_id = stored_run
        baseline = store.load(run_id)
        drifted = baseline.to_dict()
        drifted["config"]["node_count"] = 25
        drifted["verdicts"] = {name: not v for name, v in baseline.verdicts.items()}
        other_store = ResultStore(tmp_path / "results")
        other_store.save(ExperimentResult.from_dict(drifted))
        # Copy the baseline into the same store so both refs resolve there.
        other_store.save(baseline)
        ids = other_store.run_ids("fig3")
        markdown = render_comparison(other_store, ids[0], ids[1])
        assert "`node_count`" in markdown
        assert "changed" in markdown
