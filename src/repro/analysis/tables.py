"""Plain-text table rendering (Table I of the paper).

``render_table1_row`` converts a :class:`~repro.core.report.SynthesisReport`
into the paper's column set; ``format_table`` renders a list of such rows
with aligned columns, thousands separators, and ``N/A`` for missing values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.report import SynthesisReport

TABLE1_COLUMNS = (
    "Configuration",
    "Holes",
    "Candidates",
    "Pruning Patterns",
    "Evaluated",
    "Solutions",
    "Exec. Time",
)


def render_table1_row(
    configuration: str,
    report: SynthesisReport,
    evaluated_override: Optional[int] = None,
    seconds_override: Optional[float] = None,
    estimated: bool = False,
) -> Dict[str, object]:
    """One Table I row; overrides support estimated naive baselines."""
    row = report.table_row(configuration)
    if evaluated_override is not None:
        row["Evaluated"] = evaluated_override
    if seconds_override is not None:
        row["Exec. Time"] = seconds_override
    if estimated:
        row["Configuration"] = f"{configuration} (estimated)"
    return row


def _format_cell(column: str, value: object) -> str:
    if value is None:
        return "N/A"
    if column == "Exec. Time":
        return f"{float(value):.1f}s"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Render Table I rows as an aligned plain-text table."""
    columns = TABLE1_COLUMNS
    rendered: List[List[str]] = [
        [_format_cell(column, row.get(column)) for column in columns]
        for row in rows
    ]
    widths = []
    for i, column in enumerate(columns):
        cell_widths = [len(line[i]) for line in rendered] or [0]
        widths.append(max(len(column), *cell_widths))
    lines = [
        "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for line in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)
