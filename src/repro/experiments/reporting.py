"""Plain-text and markdown table helpers.

Every run becomes text through one renderer one layer up,
:func:`repro.analysis.report.render_report`, which builds its markdown tables
with :func:`format_markdown_table`.  :func:`format_table` lays out the CLI's
own listings (``repro list``, the sweep summary).
"""

from __future__ import annotations

from typing import Optional, Sequence


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
