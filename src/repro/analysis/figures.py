"""Figure regeneration: declarative curve specs, matplotlib optional.

A :class:`FigureSpec` is a plain description of one figure — title, axis
labels and a set of named curves — built from stored raw samples with **no
re-simulation** (:func:`delay_coverage_figure` produces the paper's
Fig. 3/4-style delay-vs-coverage CDF curves; :func:`timeseries_figure` plots
stored counter curves such as variance-by-connection-rank).

Rendering is two-tier:

* with matplotlib installed (the optional ``repro[plots]`` extra),
  :func:`render_figure` writes PNG/SVG files;
* always, :func:`figure_table` renders the same curves as a markdown table
  (shared x-grid, one column per curve), so reports degrade gracefully when
  matplotlib is absent — the environment this repository is developed in.

Everything here is deterministic: fixed grids, fixed precision, a fixed
categorical palette assigned to curves in order (never cycled — past eight
curves the remainder is listed in the caption and carried by the fallback
table, which has no series limit).
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.analysis.stats import Ecdf

#: Categorical palette (validated light-mode hex slots, assigned in fixed
#: order).  Taken from the reference data-viz palette: adjacent-pair
#: colorblind-safe and above the normal-vision separation floor.
PALETTE = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: Maximum curves drawn in one rendered figure (palette slots are assigned in
#: fixed order and never cycled; the markdown fallback table has no limit).
MAX_CURVES = len(PALETTE)

#: Points on the shared delay grid of a delay-vs-coverage figure.
CURVE_POINTS = 40

#: Most rows a figure's fallback table shows.
TABLE_ROWS = 21

_SURFACE = "#fcfcfb"
_GRID = "#e5e4e0"
_TEXT = "#0b0b0b"
_TEXT_SECONDARY = "#52514e"


@dataclass(frozen=True)
class Curve:
    """One named curve: ``(x, y)`` points in drawing order."""

    label: str
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class FigureSpec:
    """A declarative, render-backend-independent figure description.

    Attributes:
        slug: file stem for rendered artifacts (``"fig3-delay-coverage"``).
        title: figure title.
        xlabel / ylabel: axis labels (units included).
        curves: the named curves, in legend order.
        caption: optional caption printed under the figure in reports.
    """

    slug: str
    title: str
    xlabel: str
    ylabel: str
    curves: tuple[Curve, ...]
    caption: str = ""


def matplotlib_available() -> bool:
    """Whether the optional plotting backend (``repro[plots]``) is importable."""
    return importlib.util.find_spec("matplotlib") is not None


def delay_coverage_figure(
    delays_by_label: Mapping[str, Sequence[float]],
    *,
    slug: str,
    title: str,
    caption: str = "",
) -> Optional[FigureSpec]:
    """Delay-vs-coverage CDF curves (the shape of the paper's Fig. 3/4).

    Every label's empirical CDF is evaluated on one shared delay grid of
    :data:`CURVE_POINTS` points spanning the pooled sample range, so the
    curves (and the fallback table) are directly comparable.  Delays are
    displayed in milliseconds.  Labels without samples are skipped; returns
    None when no label has any.

    Args:
        delays_by_label: raw delay samples (seconds) per curve label.
        slug / title / caption: spec metadata.
    """
    populated = {
        label: list(values) for label, values in delays_by_label.items() if len(values)
    }
    if not populated:
        return None
    ecdfs = {label: Ecdf(values) for label, values in populated.items()}
    low = min(ecdf.min for ecdf in ecdfs.values())
    high = max(ecdf.max for ecdf in ecdfs.values())
    step = (high - low) / (CURVE_POINTS - 1)
    grid = [low + index * step for index in range(CURVE_POINTS)]
    curves = tuple(
        Curve(
            label=label,
            points=tuple((x * 1e3, fraction) for x, fraction in ecdf.curve_on(grid)),
        )
        for label, ecdf in ecdfs.items()
    )
    return FigureSpec(
        slug=slug,
        title=title,
        xlabel="propagation delay (ms)",
        ylabel="fraction of receivers covered",
        curves=curves,
        caption=caption,
    )


def timeseries_figure(
    points_by_label: Mapping[str, Sequence[tuple[float, float]]],
    *,
    slug: str,
    title: str,
    xlabel: str,
    ylabel: str,
    caption: str = "",
    y_scale: float = 1.0,
) -> Optional[FigureSpec]:
    """Stored counter curves (e.g. variance of Δt by connection rank)."""
    curves = tuple(
        Curve(label=label, points=tuple((x, y * y_scale) for x, y in points))
        for label, points in points_by_label.items()
        if len(points)
    )
    if not curves:
        return None
    return FigureSpec(
        slug=slug, title=title, xlabel=xlabel, ylabel=ylabel,
        curves=curves, caption=caption,
    )


def render_figure(
    spec: FigureSpec,
    out_dir: Path,
    *,
    formats: Sequence[str] = ("png", "svg"),
) -> list[Path]:
    """Render one spec as image files; returns [] when matplotlib is absent.

    At most :data:`MAX_CURVES` curves are drawn (palette slots are assigned
    in order, never cycled); any remainder is named in an on-figure note and
    still appears in the :func:`figure_table` fallback.
    """
    if not matplotlib_available():
        return []
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    drawn = spec.curves[:MAX_CURVES]
    omitted = spec.curves[MAX_CURVES:]
    fig, ax = plt.subplots(figsize=(7.2, 4.3), dpi=150)
    fig.patch.set_facecolor(_SURFACE)
    ax.set_facecolor(_SURFACE)
    for index, curve in enumerate(drawn):
        xs = [x for x, _ in curve.points]
        ys = [y for _, y in curve.points]
        ax.plot(xs, ys, color=PALETTE[index], linewidth=2.0, label=curve.label)
    ax.set_title(spec.title, color=_TEXT, fontsize=11)
    ax.set_xlabel(spec.xlabel, color=_TEXT_SECONDARY, fontsize=9)
    ax.set_ylabel(spec.ylabel, color=_TEXT_SECONDARY, fontsize=9)
    ax.grid(color=_GRID, linewidth=0.8)
    ax.tick_params(colors=_TEXT_SECONDARY, labelsize=8)
    for side in ("top", "right"):
        ax.spines[side].set_visible(False)
    for side in ("left", "bottom"):
        ax.spines[side].set_color(_GRID)
    if len(drawn) > 1:
        ax.legend(frameon=False, fontsize=8, labelcolor=_TEXT)
    if omitted:
        ax.annotate(
            f"(+{len(omitted)} series omitted — see the table view)",
            xy=(0.99, 0.01), xycoords="axes fraction",
            ha="right", va="bottom", fontsize=7, color=_TEXT_SECONDARY,
        )
    fig.tight_layout()
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for fmt in formats:
        path = out_dir / f"{spec.slug}.{fmt}"
        # Strip volatile metadata (the SVG writer stamps a creation date by
        # default) so repeated renders of the same run stay comparable.
        metadata = {"Date": None} if fmt == "svg" else None
        fig.savefig(path, format=fmt, facecolor=_SURFACE, metadata=metadata)
        written.append(path)
    plt.close(fig)
    return written


def figure_table(spec: FigureSpec) -> str:
    """The figure's curves as one markdown table (the no-matplotlib view).

    The table is ``x | curve1 | curve2 | ...`` over the sorted union of the
    curves' x values (a blank cell where a curve has no point); long grids
    are downsampled to at most :data:`TABLE_ROWS` evenly spaced rows (first
    and last always included).
    """
    # Imported here: the markdown-table renderer lives in the experiments
    # layer, which the heavyweight analysis modules sit above (samples/stats
    # stay leaves; see the package docstring).
    from repro.experiments.reporting import format_markdown_table

    if not spec.curves:
        return "(no data)"
    xs = sorted({x for curve in spec.curves for x, _ in curve.points})
    columns = {curve.label: dict(curve.points) for curve in spec.curves}
    indices = list(range(len(xs)))
    if len(indices) > TABLE_ROWS:
        stride = (len(indices) - 1) / (TABLE_ROWS - 1)
        indices = sorted({round(i * stride) for i in range(TABLE_ROWS)})
    rows = []
    for index in indices:
        x = xs[index]
        row: list[object] = [f"{x:.4g}"]
        for curve in spec.curves:
            value = columns[curve.label].get(x)
            row.append("" if value is None else f"{value:.4g}")
        rows.append(row)
    header = [spec.xlabel] + [curve.label for curve in spec.curves]
    return format_markdown_table(header, rows)
