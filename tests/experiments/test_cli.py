"""Smoke tests for the unified experiment CLI (`python -m repro.experiments`).

Every registered experiment is exercised end-to-end at tiny scale through the
same entry point the shell uses (`cli.main`), including result-store
persistence, the sweep grid and `compare`.
"""

import pytest

from repro.experiments.api import experiment_names
from repro.experiments.cli import main
from repro.experiments.results import ResultStore

#: Tiny-scale arguments per experiment: every registered name must appear
#: here so a newly added experiment without a smoke test fails loudly.
TINY_ARGS = {
    "fig3": ["--nodes", "20", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1"],
    "fig4": [
        "--nodes", "20", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--thresholds-ms", "30", "60",
    ],
    "threshold_sweep": [
        "--nodes", "20", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--thresholds-ms", "25", "50",
    ],
    "overhead": [
        "--nodes", "20", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
    ],
    "attacks": [
        "--nodes", "40", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--attacks", "byzantine", "selfish", "--protocols", "bitcoin", "bcbpt",
        "--attack-blocks", "1", "--attack-txs", "2",
    ],
    "doublespend": [
        "--nodes", "40", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--races", "1", "--horizon", "0.5",
    ],
    "ablation": ["--nodes", "20", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1"],
    "churn_resilience": [
        "--nodes", "40", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--levels", "static", "heavy",
    ],
    "relay_comparison": [
        "--nodes", "20", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--relays", "flood", "compact", "adaptive", "headers",
        "--protocols", "bitcoin", "bcbpt",
        "--blocks", "1", "--txs-per-block", "2",
    ],
    "load_frontier": [
        "--nodes", "12", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--rates", "1", "4", "--horizon", "60", "--block-interval", "4",
        "--depth", "2", "--funding-outputs", "4",
    ],
    "scale": [
        "--nodes", "30", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--node-counts", "20", "30", "--protocols", "bitcoin", "--cell-runs", "1",
    ],
    "validation": [
        "--nodes", "40", "--runs", "2", "--seeds", "3", "--measuring-nodes", "1",
        "--crawler-samples", "500",
    ],
}


def test_every_registered_experiment_has_a_smoke_entry():
    assert sorted(TINY_ARGS) == sorted(experiment_names())


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in experiment_names():
        assert name in out


def test_list_prints_a_markdown_table(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| name | id | title |", "|---|---|---|"]
    assert len(lines) == 2 + len(experiment_names())
    assert all(line.startswith("| ") and line.endswith(" |") for line in lines[2:])


def test_describe_every_experiment(capsys):
    for name in experiment_names():
        assert main(["describe", name]) == 0
        assert name in capsys.readouterr().out


def test_unknown_experiment_fails_cleanly(capsys):
    assert main(["describe", "fig5"]) == 2
    assert main(["run", "fig5"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_run_smoke_with_persistence(name, tmp_path, capsys):
    """`run <name>` at tiny scale: exit 0, envelope stored, and the printed
    report is the one `repro report <run> --no-figures` writes."""
    store_dir = tmp_path / "results"
    rc = main(["run", name, *TINY_ARGS[name], "--results-dir", str(store_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "saved:" in out
    store = ResultStore(store_dir)
    ids = store.run_ids(name)
    assert len(ids) == 1
    loaded = store.load(ids[0])
    assert loaded.experiment == name
    assert loaded.seeds == [3]
    assert main(["report", ids[0], "--no-figures", "--results-dir", str(store_dir)]) == 0
    capsys.readouterr()
    markdown = (store.run_dir(ids[0]) / "report.md").read_text()
    assert markdown in out
    for label in loaded.summaries:
        assert f"| {label} |" in markdown


def test_repeated_seed_fails_before_any_cell_runs(tmp_path):
    """Regression: `--seeds 3 3` used to run every cell twice and store an
    envelope whose summaries pooled twice the samples its per-seed series
    held.  It is now an invalid config, rejected like any other."""
    store_dir = tmp_path / "results"
    args = ["--nodes", "20", "--runs", "1", "--seeds", "3", "3", "--measuring-nodes", "1"]
    with pytest.raises(ValueError, match="distinct"):
        main(["run", "fig3", *args, "--results-dir", str(store_dir)])
    assert ResultStore(store_dir).run_ids("fig3") == []


def test_run_no_save_writes_nothing(tmp_path, capsys):
    store_dir = tmp_path / "results"
    rc = main(
        ["run", "fig3", *TINY_ARGS["fig3"], "--no-save", "--results-dir", str(store_dir)]
    )
    assert rc == 0
    assert "saved:" not in capsys.readouterr().out
    assert not store_dir.exists()


def test_sweep_produces_one_stored_run_per_point(tmp_path, capsys):
    store_dir = tmp_path / "results"
    rc = main(
        [
            "run", "fig3", *TINY_ARGS["fig3"],
            "--results-dir", str(store_dir),
            "--sweep", "max_outbound=4,8",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep point: max_outbound=4" in out
    assert "## Sweep summary\n\n| sweep point | verdict 1 |\n|---|---|\n" in out
    assert "| max_outbound=8 | paper_ordering:" in out
    ids = ResultStore(store_dir).run_ids("fig3")
    assert len(ids) == 2
    outbounds = {ResultStore(store_dir).load(i).config["max_outbound"] for i in ids}
    assert outbounds == {4, 8}


def test_sweep_over_list_valued_option_and_config_field(tmp_path, capsys):
    """Each sweep point carries one scalar; list-valued targets (an option
    with nargs, a sequence config field like seeds) must receive it wrapped,
    not exploded (regression: `--sweep thresholds_ms=30,50` crashed and
    `--sweep protocols=...` split the name into characters)."""
    store_dir = tmp_path / "results"
    rc = main(
        [
            "run", "fig4", *TINY_ARGS["fig3"],
            "--results-dir", str(store_dir),
            "--sweep", "thresholds_ms=30,60",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep point: thresholds_ms=30" in out
    store = ResultStore(store_dir)
    thresholds = {
        tuple(store.load(i).config["fig4_thresholds_s"]) for i in store.run_ids("fig4")
    }
    assert thresholds == {(0.030,), (0.060,)}

    rc = main(
        ["run", "fig3", *TINY_ARGS["fig3"][2:], "--nodes", "20",
         "--results-dir", str(store_dir), "--sweep", "seeds=3,11"]
    )
    assert rc == 0
    seeds = {tuple(store.load(i).seeds) for i in store.run_ids("fig3")}
    assert seeds == {(3,), (11,)}


def test_sweep_rejects_unknown_field(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "fig3", *TINY_ARGS["fig3"], "--no-save", "--sweep", "bogus=1,2"])


def test_compare_identical_runs(tmp_path, capsys):
    store_dir = tmp_path / "results"
    for _ in range(2):
        assert main(["run", "fig3", *TINY_ARGS["fig3"], "--results-dir", str(store_dir)]) == 0
    rc = main(["compare", "fig3", "--results-dir", str(store_dir)])
    assert rc == 0
    assert "identical" in capsys.readouterr().out


def test_compare_one_selector_names_the_two_newest_matching_runs(tmp_path, capsys):
    """Regression: the one-ref form took only a bare experiment name, so a
    selector found no runs and the command exited 2."""
    store_dir = str(tmp_path / "results")
    for _ in range(2):
        assert main(["run", "fig3", *TINY_ARGS["fig3"], "--results-dir", store_dir]) == 0
    capsys.readouterr()
    rc = main(["compare", "fig3?nodes=20", "--results-dir", store_dir])
    assert rc == 0
    out = capsys.readouterr().out
    first, second = ResultStore(store_dir).run_ids("fig3")
    assert out.startswith(f"# Comparison: `{first}` vs `{second}` — identical\n")
    assert main(["compare", "fig3?nodes=25", "--results-dir", store_dir]) == 2
    assert "two stored runs" in capsys.readouterr().err


def test_compare_two_selectors_compares_the_newest_run_of_each(tmp_path, capsys):
    """`compare A B` resolves each ref on its own, so the baseline may be the
    newer run."""
    store_dir = str(tmp_path / "results")
    for nodes in ("20", "25"):
        run_args = [*TINY_ARGS["fig3"][2:], "--nodes", nodes, "--results-dir", store_dir]
        assert main(["run", "fig3", *run_args]) == 0
    capsys.readouterr()
    small, large = ResultStore(store_dir).run_ids("fig3")
    rc = main(["compare", "fig3?nodes=25", "fig3?nodes=20", "--results-dir", store_dir])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith(f"# Comparison: `{large}` vs `{small}` — differ in config")
    assert "| `node_count` | 25 | 20 |" in out


def test_compare_refs_it_cannot_resolve_exit_2(tmp_path, capsys):
    store_dir = str(tmp_path / "results")
    assert main(["run", "fig3", *TINY_ARGS["fig3"], "--results-dir", store_dir]) == 0
    capsys.readouterr()
    assert main(["compare", "fig3", "fig4", "--results-dir", store_dir]) == 2
    assert "no stored runs match 'fig4'" in capsys.readouterr().err
    assert main(["compare", "fig3?nodes", "--results-dir", store_dir]) == 2
    assert "run selector" in capsys.readouterr().err
    assert main(["compare", "fig3", "fig3", "fig3", "--results-dir", store_dir]) == 2
    assert "one or two run refs" in capsys.readouterr().err


def test_compare_detects_config_drift(tmp_path, capsys):
    store_dir = tmp_path / "results"
    assert main(["run", "fig3", *TINY_ARGS["fig3"], "--results-dir", str(store_dir)]) == 0
    assert (
        main(
            ["run", "fig3", *TINY_ARGS["fig3"][2:], "--nodes", "25",
             "--results-dir", str(store_dir)]
        )
        == 0
    )
    rc = main(["compare", "fig3", "--results-dir", str(store_dir)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "| `node_count` | 20 | 25 |" in out
    assert "identical" not in out


def test_compare_needs_two_runs(tmp_path, capsys):
    rc = main(["compare", "fig3", "--results-dir", str(tmp_path / "results")])
    assert rc == 2
    assert "two stored runs" in capsys.readouterr().err


def test_diff_latest_flag(tmp_path, capsys):
    store_dir = tmp_path / "results"
    args = ["run", "fig3", *TINY_ARGS["fig3"], "--results-dir", str(store_dir)]
    assert main(args) == 0
    assert main([*args, "--diff-latest"]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_latest_with_default_relative_root(tmp_path, monkeypatch, capsys):
    """Regression: with the default relative `results/` root, the saved run
    directory must not be double-prefixed when diffed against."""
    monkeypatch.chdir(tmp_path)
    args = ["run", "fig3", *TINY_ARGS["fig3"]]
    assert main(args) == 0
    assert main([*args, "--diff-latest"]) == 0
    out = capsys.readouterr().out
    assert "identical" in out
    assert (tmp_path / "results" / "fig3").is_dir()


def test_diff_latest_works_with_no_save(tmp_path, capsys):
    """Regression: --no-save --diff-latest still diffs the (unsaved) run
    against the newest stored one instead of silently doing nothing."""
    store_dir = tmp_path / "results"
    args = ["run", "fig3", *TINY_ARGS["fig3"], "--results-dir", str(store_dir)]
    assert main(args) == 0
    assert main([*args, "--no-save", "--diff-latest"]) == 0
    out = capsys.readouterr().out
    assert "(unsaved run)" in out
    assert "identical" in out
    assert len(ResultStore(store_dir).run_ids("fig3")) == 1


def test_diff_latest_shows_config_drift_in_the_comparison_view(tmp_path, capsys):
    """The run's exit code follows its verdict, not the diff; the drift is
    printed in the one comparison view."""
    store_dir = str(tmp_path / "results")
    assert main(["run", "fig3", *TINY_ARGS["fig3"], "--results-dir", store_dir]) == 0
    capsys.readouterr()
    run_args = [*TINY_ARGS["fig3"][2:], "--nodes", "25", "--results-dir", store_dir]
    assert main(["run", "fig3", *run_args, "--diff-latest"]) == 0
    out = capsys.readouterr().out
    first, second = ResultStore(store_dir).run_ids("fig3")
    assert f"# Comparison: `{first}` vs `{second}` — differ in config" in out
    assert "| `node_count` | 20 | 25 |" in out
    assert "identical" not in out
