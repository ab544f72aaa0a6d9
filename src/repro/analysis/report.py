"""The one renderer: every run becomes text here, as markdown.

:func:`render_report` turns one
:class:`~repro.experiments.results.ExperimentResult` envelope into a
human-readable, machine-diffable markdown report — configuration provenance,
verdicts, percentile tables with bootstrap confidence intervals over seeds,
the stored summaries, and the paper's figures regenerated from the envelope's
raw ``samples`` (:mod:`repro.analysis.figures`) — with **no re-simulation**.
``repro run`` prints it for a fresh run, and ``repro report`` writes the same
text to ``report.md`` for a stored one.  :func:`render_comparison` is the one
view of two runs, printed by ``repro compare`` and ``repro run --diff-latest``.

Byte-stability contract: rendering the same stored run twice produces
byte-identical markdown.  Everything in the report derives from the stored
envelope (the run's own ``created_at``, never the render time), iteration
orders are the envelope's stored orders, floats are formatted at fixed
precision, and the bootstrap uses a pinned generator seed.

Envelopes without ``samples`` (schema v1, and experiments that store none)
render the stored scalar summaries only: no percentile tables, no figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.analysis import figures as figures_mod
from repro.analysis.samples import SampleLog
from repro.analysis.stats import bootstrap_ci, percentile, summarize_values
from repro.experiments.reporting import format_markdown_table
from repro.experiments.results import ExperimentResult, ResultStore, diff_results

#: Figure titles for the metrics that correspond to actual paper figures.
_FIGURE_TITLES = {
    ("fig3", "delay_s"): (
        "Fig. 3 — propagation delay vs coverage (Bitcoin vs LBC vs BCBPT, d_t = 25 ms)"
    ),
    ("fig4", "delay_s"): (
        "Fig. 4 — propagation delay vs coverage for BCBPT by threshold d_t"
    ),
}

#: Known time-series metrics: metric -> (title, xlabel, ylabel, y scale).
_TIMESERIES_AXES = {
    "rank_variance_s2": (
        "Variance of Δt by connection rank",
        "connection rank",
        "variance of Δt (ms²)",
        1e6,
    ),
    "block_coverage": (
        "Per-block network coverage",
        "block index",
        "fraction of nodes reached",
        1.0,
    ),
    "coverage": (
        "Per-campaign measurement coverage",
        "campaign index",
        "fraction of connections reached",
        1.0,
    ),
    "mempool_backlog": (
        "Observer mempool backlog under sustained load",
        "simulated time (s)",
        "pending transactions",
        1.0,
    ),
}

#: Directory, beside ``report.md``, that a report's images are written to.
FIGURES_DIR = "figures"

#: Percentiles tabulated for every delay metric (columns of the main table).
_TABLE_PERCENTILES = (10, 25, 50, 75, 90, 95, 99)

#: Pinned bootstrap parameters — part of the byte-stability contract.
_BOOTSTRAP_RESAMPLES = 500
_BOOTSTRAP_SEED = 0
_BOOTSTRAP_CONFIDENCE = 0.95


@dataclass
class ReportArtifacts:
    """What one :func:`write_report` call produced."""

    run_id: str
    markdown_path: Path
    markdown: str
    figure_paths: list[Path] = dataclass_field(default_factory=list)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_ms(value_s: float) -> str:
    return f"{value_s * 1e3:.6g}"


def _is_delay_metric(metric: str) -> bool:
    return metric.endswith("delay_s")


def sample_log_of(result: ExperimentResult) -> SampleLog:
    """The envelope's raw samples as a :class:`SampleLog` (empty when none are stored)."""
    return SampleLog.from_dict(result.samples)


# ------------------------------------------------------------------ figures
def build_figures(result: ExperimentResult, log: SampleLog) -> list[figures_mod.FigureSpec]:
    """Figure specs regenerable from one envelope's raw samples.

    One delay-vs-coverage CDF figure per delay metric (Fig. 3/4 for the
    figure experiments), plus one curve figure per stored time-series metric.
    Envelopes without samples yield no figures.
    """
    specs: list[figures_mod.FigureSpec] = []
    labels = log.labels()
    for metric in log.metrics():
        if not _is_delay_metric(metric):
            continue
        delays = {label: log.values(label, metric) for label in labels}
        title = _FIGURE_TITLES.get(
            (result.experiment, metric),
            f"{result.experiment} — {metric} vs coverage",
        )
        slug = _slugify(f"{result.experiment}-{_strip_unit(metric)}-coverage")
        spec = figures_mod.delay_coverage_figure(
            delays, slug=slug, title=title,
            caption="Empirical CDF of the stored raw samples, pooled across seeds.",
        )
        if spec is not None:
            specs.append(spec)
    timeseries_metrics: dict[str, None] = {}
    for curve in log.timeseries():
        timeseries_metrics.setdefault(curve.metric, None)
    for metric in timeseries_metrics:
        title, xlabel, ylabel, y_scale = _TIMESERIES_AXES.get(
            metric, (f"{result.experiment} — {metric}", "x", metric, 1.0)
        )
        spec = figures_mod.timeseries_figure(
            {label: log.points(label, metric) for label in labels},
            slug=_slugify(f"{result.experiment}-{_strip_unit(metric)}"),
            title=title, xlabel=xlabel, ylabel=ylabel, y_scale=y_scale,
        )
        if spec is not None:
            specs.append(spec)
    return specs


def _strip_unit(metric: str) -> str:
    for suffix in ("_s2", "_s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return metric


def _slugify(text: str) -> str:
    return text.replace("_", "-").replace("/", "-")


# ----------------------------------------------------------------- markdown
def render_report(
    result: ExperimentResult,
    *,
    run_id: str = "",
    rendered_figures: Optional[Mapping[str, Sequence[Path]]] = None,
    log: Optional[SampleLog] = None,
    specs: Optional[Sequence[figures_mod.FigureSpec]] = None,
) -> str:
    """Render one envelope as self-contained markdown.

    Args:
        result: the loaded envelope.
        run_id: run identity printed in the header (stable, not a timestamp
            of this rendering).
        rendered_figures: slug -> image paths actually written for this
            report, under :data:`FIGURES_DIR`; specs without an entry fall
            back to the table view.
        log: the envelope's parsed sample log, when the caller already built
            it (avoids re-parsing large sample sets); derived otherwise.
        specs: pre-built figure specs (same reason); derived otherwise.
    """
    if log is None:
        log = sample_log_of(result)
    rendered = dict(rendered_figures or {})
    lines: list[str] = []
    lines.append(f"# {result.experiment_id}: {result.title}")
    lines.append("")
    recorded = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(result.created_at))
    identity = f"`{run_id}`" if run_id else f"`{result.experiment}` (unsaved)"
    lines.append(f"Experiment `{result.experiment}`, run {identity}, recorded {recorded}.")
    if log:
        lines.append(
            f"Raw samples: {log.sample_count()} measurements in "
            f"{len(log.series())} series."
        )
    else:
        lines.append(
            "Raw samples: none stored — the tables below are the stored "
            "scalar summaries."
        )
    lines.append("")

    # Provenance -----------------------------------------------------------
    lines.append("## Provenance")
    lines.append("")
    provenance_rows = [[f"`{key}`", _plain(result.config[key])] for key in sorted(result.config)]
    lines.append(format_markdown_table(["config field", "value"], provenance_rows))
    lines.append("")
    if result.options:
        option_rows = [[f"`{key}`", _plain(result.options[key])] for key in sorted(result.options)]
        lines.append(format_markdown_table(["option", "value"], option_rows))
        lines.append("")
    lines.append(f"Seeds: {', '.join(str(seed) for seed in result.seeds) or '(none)'}.")
    lines.append("")

    # Verdicts -------------------------------------------------------------
    if result.verdicts:
        lines.append("## Verdicts")
        lines.append("")
        verdict_rows = [
            [name, "PASS" if value else "FAIL"] for name, value in result.verdicts.items()
        ]
        lines.append(format_markdown_table(["criterion", "outcome"], verdict_rows))
        lines.append("")

    # Percentile tables ----------------------------------------------------
    delay_metrics = [metric for metric in log.metrics() if _is_delay_metric(metric)]
    for metric in delay_metrics:
        lines.append(f"## Percentiles — `{metric}` (ms)")
        lines.append("")
        headers = (
            ["label", "n", "mean"]
            + [f"p{q}" for q in _TABLE_PERCENTILES]
            + ["max", "95% CI of mean"]
        )
        rows = []
        for label in log.labels():
            values = log.values(label, metric)
            if not values:
                continue
            summary = summarize_values(values)
            groups = list(log.per_seed(label, metric).values()) or [values]
            interval = bootstrap_ci(
                groups,
                n_resamples=_BOOTSTRAP_RESAMPLES,
                confidence=_BOOTSTRAP_CONFIDENCE,
                seed=_BOOTSTRAP_SEED,
            )
            rows.append(
                [label, str(int(summary["count"])), _fmt_ms(summary["mean_s"])]
                + [_fmt_ms(percentile(values, q)) for q in _TABLE_PERCENTILES]
                + [
                    _fmt_ms(summary["max_s"]),
                    f"[{_fmt_ms(interval.low)}, {_fmt_ms(interval.high)}]",
                ]
            )
        lines.append(format_markdown_table(headers, rows))
        lines.append("")
        lines.append(
            f"_Mean CI: {int(_BOOTSTRAP_CONFIDENCE * 100)}% percentile bootstrap "
            f"({_BOOTSTRAP_RESAMPLES} resamples over per-seed groups, seed "
            f"{_BOOTSTRAP_SEED})._"
        )
        lines.append("")

    # Load frontier ---------------------------------------------------------
    lines.extend(_render_load_frontier(result, log))

    # Stored scalar summaries (always present; the only tables without samples):
    # one row per label, one table per set of metrics, in envelope order.
    if result.summaries:
        lines.append("## Stored summaries")
        lines.append("")
        groups: dict[frozenset[str], list[str]] = {}
        for label, metrics in result.summaries.items():
            groups.setdefault(frozenset(metrics), []).append(label)
        for labels in groups.values():
            names = list(result.summaries[labels[0]])
            rows = [
                [label] + [_plain(result.summaries[label][name]) for name in names]
                for label in labels
            ]
            lines.append(
                format_markdown_table(["label"] + [f"`{name}`" for name in names], rows)
            )
            lines.append("")

    # Figures --------------------------------------------------------------
    if specs is None:
        specs = build_figures(result, log)
    if specs:
        lines.append("## Figures")
        lines.append("")
        for spec in specs:
            lines.append(f"### {spec.title}")
            lines.append("")
            images = list(rendered.get(spec.slug, ()))
            # Embed the PNG when present, else the first rendered image of
            # any format (e.g. `--formats svg`); remaining formats are linked.
            embedded = next((p for p in images if p.suffix == ".png"), None)
            if embedded is None and images:
                embedded = images[0]
            if embedded is not None:
                lines.append(f"![{spec.title}]({FIGURES_DIR}/{embedded.name})")
                others = [p.name for p in images if p is not embedded]
                if others:
                    refs = ", ".join(
                        f"[{name}]({FIGURES_DIR}/{name})" for name in others
                    )
                    lines.append("")
                    lines.append(f"_Also rendered: {refs}._")
            else:
                if figures_mod.matplotlib_available():
                    lines.append(
                        "_Figure not rendered — table view shown "
                        "(`repro report` without `--no-figures` writes PNG/SVG)._"
                    )
                else:
                    lines.append(
                        "_matplotlib is not installed — table view shown "
                        "(install the `repro[plots]` extra for PNG/SVG)._"
                    )
                lines.append("")
                lines.append(figures_mod.figure_table(spec))
            if spec.caption:
                lines.append("")
                lines.append(f"_{spec.caption}_")
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _render_load_frontier(result: ExperimentResult, log: SampleLog) -> list[str]:
    """The load-frontier experiment's latency-vs-offered-load table.

    Rendered from the envelope's stored per-seed streamed quantiles (one
    scalar per seed per cell — P² estimates finalised inside each worker), so
    the bootstrap here resamples *seeds*, never raw latencies; nothing is
    re-simulated.
    """
    if result.experiment != "load_frontier":
        return []
    labels = [
        label for label in log.labels() if log.values(label, "confirmation_p50_s")
    ]
    if not labels:
        return []

    def sort_key(label: str) -> tuple[str, float]:
        summary = result.summaries.get(label, {})
        return (label.split("@", 1)[0], float(summary.get("offered_tps", 0.0)))

    rows = []
    for label in sorted(labels, key=sort_key):
        summary = result.summaries.get(label, {})
        cells: list[str] = [
            label.split("@", 1)[0],
            _fmt(float(summary.get("offered_tps", float("nan")))),
            _fmt(float(summary.get("confirmed_tps", float("nan")))),
        ]
        for metric in ("confirmation_p50_s", "confirmation_p99_s"):
            groups = [
                values for values in log.per_seed(label, metric).values() if values
            ]
            if not groups:
                cells += ["—", "—"]
                continue
            interval = bootstrap_ci(
                groups,
                n_resamples=_BOOTSTRAP_RESAMPLES,
                confidence=_BOOTSTRAP_CONFIDENCE,
                seed=_BOOTSTRAP_SEED,
            )
            cells += [
                _fmt(interval.point),
                f"[{_fmt(interval.low)}, {_fmt(interval.high)}]",
            ]
        cells.append("yes" if summary.get("saturated") else "no")
        rows.append(cells)
    lines = ["## Latency vs offered load", ""]
    lines.append(
        format_markdown_table(
            [
                "policy",
                "offered tx/s",
                "confirmed tx/s",
                "p50 (s)",
                "p50 95% CI",
                "p99 (s)",
                "p99 95% CI",
                "saturated",
            ],
            rows,
        )
    )
    lines.append("")
    lines.append(
        "_Latency point estimates are across-seed means of per-seed streamed "
        f"P² quantiles; CIs bootstrap the seed groups ({_BOOTSTRAP_RESAMPLES} "
        f"resamples, seed {_BOOTSTRAP_SEED})._"
    )
    lines.append("")
    # The lowest offered load at which each policy saturates.
    saturation: dict[str, Optional[float]] = {}
    for label in sorted(result.summaries, key=sort_key):
        summary = result.summaries[label]
        policy = label.split("@", 1)[0]
        if saturation.get(policy) is None:
            saturation[policy] = summary["offered_tps"] if summary.get("saturated") else None
    lines.append("Saturation points (lowest offered load that saturates):")
    lines.append("")
    for policy, point in saturation.items():
        shown = f"{_fmt(point)} tx/s" if point is not None else "not reached in sweep"
        lines.append(f"- {policy}: {shown}")
    lines.append("")
    return lines


def _plain(value: Any) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_plain(item) for item in value) or "()"
    return str(value)


# ------------------------------------------------------------------ driving
def write_report(
    store: ResultStore,
    ref: Optional[str] = None,
    *,
    out_dir: Union[str, Path, None] = None,
    formats: Sequence[str] = ("png", "svg"),
    render_figures: bool = True,
) -> ReportArtifacts:
    """Render one stored run to ``report.md`` (+ figures) and return the paths.

    ``ref`` is any :meth:`ResultStore.select` reference; the newest run it
    names is rendered.  By default everything lands in the run's own
    directory, keeping it a self-contained artifact; ``out_dir`` overrides
    the destination.
    """
    run_id = store.select(ref)[-1]
    result = store.load(run_id)
    destination = Path(out_dir) if out_dir is not None else store.run_dir(run_id)
    destination.mkdir(parents=True, exist_ok=True)
    log = sample_log_of(result)
    specs = build_figures(result, log)
    rendered: dict[str, list[Path]] = {}
    if render_figures and figures_mod.matplotlib_available():
        for spec in specs:
            paths = figures_mod.render_figure(
                spec, destination / FIGURES_DIR, formats=formats
            )
            if paths:
                rendered[spec.slug] = paths
    markdown = render_report(
        result, run_id=run_id, rendered_figures=rendered, log=log, specs=specs
    )
    markdown_path = destination / "report.md"
    markdown_path.write_text(markdown)
    return ReportArtifacts(
        run_id=run_id,
        markdown_path=markdown_path,
        markdown=markdown,
        figure_paths=[path for paths in rendered.values() for path in paths],
    )


# --------------------------------------------------------------- comparison
def render_comparison(
    baseline: ExperimentResult,
    candidate: ExperimentResult,
    *,
    baseline_id: str,
    candidate_id: str,
) -> str:
    """Side-by-side markdown comparison of two runs of one experiment.

    The opening line calls the runs identical only when
    :func:`~repro.experiments.results.diff_results` finds no config,
    summary or verdict change; otherwise it names the parts that differ.
    """
    diff = diff_results(baseline, candidate)
    summaries_differ = bool(
        diff.metric_deltas or diff.labels_only_in_baseline or diff.labels_only_in_candidate
    )
    differing = [
        part
        for part, changed in (
            ("config", diff.config_changes),
            ("summaries", summaries_differ),
            ("verdicts", diff.verdict_changes),
        )
        if changed
    ]
    outcome = f"differ in {', '.join(differing)}" if differing else "identical"
    lines = [f"# Comparison: `{baseline_id}` vs `{candidate_id}` — {outcome}", ""]
    lines.append(f"Experiment `{baseline.experiment}`.")
    lines.append("")

    lines.append("## Config drift")
    lines.append("")
    if diff.config_changes:
        rows = [
            [f"`{key}`", _plain(old), _plain(new)]
            for key, (old, new) in sorted(diff.config_changes.items())
        ]
        lines.append(format_markdown_table(["field", "baseline", "candidate"], rows))
    else:
        lines.append("(none)")
    lines.append("")

    lines.append("## Verdicts")
    lines.append("")
    verdict_names = sorted(set(baseline.verdicts) | set(candidate.verdicts))
    if verdict_names:
        rows = []
        for name in verdict_names:
            old = baseline.verdicts.get(name)
            new = candidate.verdicts.get(name)
            flag = " ⟵ changed" if old != new else ""
            rows.append([name, _verdict(old), _verdict(new) + flag])
        lines.append(format_markdown_table(["criterion", "baseline", "candidate"], rows))
    else:
        lines.append("(none)")
    lines.append("")

    lines.append("## Metric deltas")
    lines.append("")
    if summaries_differ:
        rows = []
        for label in diff.labels_only_in_baseline:
            rows.append([label, "_(whole label)_", "present", "absent", ""])
        for label in diff.labels_only_in_candidate:
            rows.append([label, "_(whole label)_", "absent", "present", ""])
        for label, metrics in sorted(diff.metric_deltas.items()):
            for metric, (old, new) in sorted(metrics.items()):
                delta = ""
                if (
                    isinstance(old, (int, float))
                    and isinstance(new, (int, float))
                    and old
                    and old == old  # NaN-safe
                    and new == new
                ):
                    delta = f"{(new - old) / abs(old):+.1%}"
                rows.append([label, f"`{metric}`", _plain(old), _plain(new), delta])
        lines.append(
            format_markdown_table(["label", "metric", "baseline", "candidate", "Δ"], rows)
        )
    else:
        lines.append("(no metric deltas)")
    lines.append("")

    base_log = sample_log_of(baseline)
    cand_log = sample_log_of(candidate)
    shared_metrics = [
        metric
        for metric in base_log.metrics()
        if _is_delay_metric(metric) and metric in cand_log.metrics()
    ]
    for metric in shared_metrics:
        shared_labels = [
            label for label in base_log.labels() if cand_log.values(label, metric)
        ]
        rows = []
        for label in shared_labels:
            old_values = base_log.values(label, metric)
            new_values = cand_log.values(label, metric)
            if not old_values or not new_values:
                continue
            rows.append(
                [
                    label,
                    f"{len(old_values)} / {len(new_values)}",
                    f"{_fmt_ms(percentile(old_values, 50))} / {_fmt_ms(percentile(new_values, 50))}",
                    f"{_fmt_ms(percentile(old_values, 90))} / {_fmt_ms(percentile(new_values, 90))}",
                    f"{_fmt_ms(percentile(old_values, 99))} / {_fmt_ms(percentile(new_values, 99))}",
                ]
            )
        if rows:
            lines.append(f"## Percentiles — `{metric}` (ms, baseline / candidate)")
            lines.append("")
            lines.append(
                format_markdown_table(["label", "n", "p50", "p90", "p99"], rows)
            )
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _verdict(value: Optional[bool]) -> str:
    if value is None:
        return "—"
    return "PASS" if value else "FAIL"
