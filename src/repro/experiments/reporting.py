"""The markdown table helper.

Every run becomes text through one renderer one layer up,
:func:`repro.analysis.report.render_report`, which builds its tables with
:func:`format_markdown_table`; the CLI's own listings (``repro list``, the
sweep summary) use it too.
"""

from __future__ import annotations

from typing import Sequence


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.6g}"
    return str(cell)


def format_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Format a GitHub-flavoured markdown table (floats at ``%.6g``)."""
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
