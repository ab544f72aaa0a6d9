"""Plain-text and markdown reporting helpers for experiment results.

The paper presents its results as figures; the terminal reports render the
same information as text tables (one row per protocol / threshold / rank)
that can be compared against the figures' shape.  Actual figure regeneration
from stored raw samples lives one layer up, in :mod:`repro.analysis`
(``repro report``), which builds its markdown tables with
:func:`format_markdown_table` and takes its distribution math from
:mod:`repro.analysis.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Format a simple aligned text table."""
    if not headers:
        raise ValueError("a table needs at least one column")
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.6g}"
    return str(cell)


def format_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Format a GitHub-flavoured markdown table (used by ``repro report``).

    Cells render like :func:`format_table` cells (floats at ``%.6g``), so a
    value appears identically in the terminal report and the markdown report.
    """
    if not headers:
        raise ValueError("a table needs at least one column")
    lines = [
        "| " + " | ".join(str(header) for header in headers) + " |",
        "|" + "|".join(["---"] * len(headers)) + "|",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        lines.append("| " + " | ".join(_render_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def format_delay_summaries(
    summaries: Mapping[str, Mapping[str, float]],
    *,
    title: str = "Delay distribution summary",
) -> str:
    """Render per-protocol delay summaries as one comparison table."""
    headers = ["protocol", "samples", "mean_ms", "median_ms", "std_ms", "var_ms2", "p90_ms", "max_ms"]
    rows = []
    for name, summary in summaries.items():
        rows.append(
            [
                name,
                int(summary["count"]),
                summary["mean_s"] * 1e3,
                summary["median_s"] * 1e3,
                summary["std_s"] * 1e3,
                summary["variance_s2"] * 1e6,
                summary["p90_s"] * 1e3,
                summary["max_s"] * 1e3,
            ]
        )
    return format_table(headers, rows, title=title)


@dataclass
class ExperimentReport:
    """A structured experiment report: named sections of text."""

    experiment_id: str
    description: str
    sections: list[tuple[str, str]] = field(default_factory=list)

    def add_section(self, heading: str, body: str) -> None:
        """Append a titled text section."""
        self.sections.append((heading, body))

    def render(self) -> str:
        """Full plain-text rendering of the report."""
        lines = [f"=== {self.experiment_id}: {self.description} ==="]
        for heading, body in self.sections:
            lines.append("")
            lines.append(f"--- {heading} ---")
            lines.append(body)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
