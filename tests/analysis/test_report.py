"""Tests for `repro report` (`repro.analysis.report` + the CLI subcommand).

Pins the acceptance criteria: figures regenerate from stored raw samples
with no re-simulation, markdown is byte-stable across repeated invocations,
sample-less envelopes (legacy or current) report their summary tables only,
and `repro compare` prints the one comparison view.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import figures as figures_mod
from repro.analysis.report import (
    FIGURES_DIR,
    build_figures,
    render_comparison,
    render_report,
    sample_log_of,
    write_report,
)
from repro.experiments.api import run_experiment
from repro.experiments.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult, ResultStore

TINY_ARGS = ["--nodes", "20", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1"]

SAMPLE_LESS_NOTE = (
    "Raw samples: none stored — the tables below are the stored scalar summaries."
)


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


class TestFigureLayout:
    def test_delay_coverage_grid_spans_the_pooled_range_in_ms(self):
        spec = figures_mod.delay_coverage_figure(
            {"a": [0.010, 0.030], "empty": [], "b": [0.020, 0.050]}, slug="s", title="t"
        )
        assert spec.xlabel == "propagation delay (ms)"
        assert [curve.label for curve in spec.curves] == ["a", "b"]
        grids = {tuple(x for x, _ in curve.points) for curve in spec.curves}
        assert len(grids) == 1, "every curve is evaluated on one shared grid"
        (grid,) = grids
        assert len(grid) == figures_mod.CURVE_POINTS
        assert grid[0] == pytest.approx(10.0) and grid[-1] == pytest.approx(50.0)
        assert [curve.points[-1][1] for curve in spec.curves] == [1.0, 1.0]
        assert figures_mod.delay_coverage_figure({"empty": []}, slug="s", title="t") is None

    def test_fallback_table_keeps_at_most_table_rows(self):
        points = tuple((float(x), x / 99) for x in range(100))
        spec = figures_mod.FigureSpec(
            slug="s",
            title="t",
            xlabel="x",
            ylabel="y",
            curves=(figures_mod.Curve(label="c", points=points),),
        )
        body = figures_mod.figure_table(spec).splitlines()[2:]
        assert len(body) == figures_mod.TABLE_ROWS
        assert body[0].startswith("| 0 |") and body[-1].startswith("| 99 |")

    def test_rendered_images_are_linked_under_the_figures_dir(self, stored_run):
        store, run_id = stored_run
        result = store.load(run_id)
        specs = build_figures(result, sample_log_of(result))
        slug = specs[0].slug
        images = [Path("anywhere") / f"{slug}.svg", Path("anywhere") / f"{slug}.png"]
        markdown = render_report(
            result, run_id=run_id, rendered_figures={slug: images}, specs=specs
        )
        assert f"]({FIGURES_DIR}/{slug}.png)" in markdown  # the PNG is embedded
        assert f"[{slug}.svg]({FIGURES_DIR}/{slug}.svg)" in markdown


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
        assert SAMPLE_LESS_NOTE in markdown
        assert "## Stored summaries" in markdown
        assert "## Percentiles" not in markdown
        assert "## Figures" not in markdown

    def test_current_sample_less_envelope_is_not_called_legacy(self):
        """Experiments that store no samples write current envelopes; the
        report says no samples are stored, not that the envelope is legacy."""
        fresh = ExperimentResult(
            experiment="threshold_sweep",
            experiment_id="Ext-1",
            title="t",
            created_at=0.0,
            config={"node_count": 20},
            summaries={"bcbpt@25ms": {"mean_delay_s": 0.02}},
        )
        markdown = render_report(ExperimentResult.from_json(fresh.to_json()))
        assert SAMPLE_LESS_NOTE in markdown
        assert "legacy" not in markdown

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

    def test_every_ref_form_reports_the_newest_run_it_names(self, stored_run, tmp_path):
        store, run_id = stored_run
        run_dir = store.run_dir(run_id)
        refs = {
            None: run_id,
            "latest": run_id,
            "fig3": run_id,
            run_id: run_id,
            str(run_dir): str(run_dir),
            "fig3?nodes=20,policy=bcbpt": run_id,
        }
        for ref, shown in refs.items():
            artifacts = write_report(store, ref, out_dir=tmp_path / "out")
            assert artifacts.run_id == shown
            assert f"run `{shown}`" in artifacts.markdown
        with pytest.raises(FileNotFoundError):
            write_report(store, "fig4")
        with pytest.raises(FileNotFoundError):
            write_report(ResultStore(store.root / "empty"), None)


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

    def test_report_ref_that_names_no_run_fails_cleanly(self, stored_run, capsys):
        store, _ = stored_run
        for ref, message in (
            ("fig3?nodes=31337", "no stored runs match 'fig3?nodes=31337'"),
            ("?policy=nonesuch", "no stored runs match '?policy=nonesuch'"),
            ("fig3?nodes", "run selector"),
        ):
            assert main(["report", ref, "--results-dir", str(store.root)]) == 2
            assert message in capsys.readouterr().err

    def test_compare_smoke(self, stored_run, capsys):
        store, run_id = stored_run
        rc = main(["compare", run_id, run_id, "--results-dir", str(store.root)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(f"# Comparison: `{run_id}` vs `{run_id}` — identical\n")
        assert "(no metric deltas)" in out
        assert "## Percentiles — `delay_s`" in out


class TestComparisonRendering:
    def test_detects_config_drift_and_verdict_columns(self, stored_run):
        store, run_id = stored_run
        baseline = store.load(run_id)
        drifted = baseline.to_dict()
        drifted["config"]["node_count"] = 25
        drifted["verdicts"] = {name: not v for name, v in baseline.verdicts.items()}
        markdown = render_comparison(
            baseline,
            ExperimentResult.from_dict(drifted),
            baseline_id="a",
            candidate_id="b",
        )
        assert markdown.startswith("# Comparison: `a` vs `b` — differ in config, verdicts\n")
        assert "`node_count`" in markdown
        assert "changed" in markdown

    def test_config_only_drift_is_not_identical(self, stored_run, tmp_path, capsys):
        """Regression: a pair whose summaries match but whose config differs
        was reported as "(summaries identical)"."""
        store, run_id = stored_run
        baseline = store.load(run_id)
        drifted = baseline.to_dict()
        drifted["config"]["workers"] = baseline.config["workers"] + 1
        other_store = ResultStore(tmp_path / "results")
        other_store.save(baseline)
        other_store.save(ExperimentResult.from_dict(drifted))
        rc = main(["compare", "fig3", "--results-dir", str(other_store.root)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "identical" not in out
        assert "— differ in config\n" in out
        assert "`workers`" in out
        assert "(no metric deltas)" in out
