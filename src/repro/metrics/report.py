"""Plain-text rendering for benchmark-harness output.

The artifact commands print the same rows/series the paper's tables
and figures report; these helpers keep that output aligned and
readable in a terminal or a log file.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_cdf_table", "format_table", "hbar"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned plain-text table.

    Floats are formatted with ``float_format``; everything else via
    ``str``.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        if len(row) != len(widths):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(widths)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def format_cdf_table(
    edge_labels: Sequence[str],
    series: Sequence[tuple],
    title: Optional[str] = None,
) -> str:
    """Render CDF/PDF series side by side, one column per series.

    ``series`` is a sequence of ``(name, values)`` pairs where each
    ``values`` has one entry per edge label.
    """
    for name, values in series:
        if len(values) != len(edge_labels):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(edge_labels)} edges"
            )
    headers = ["bucket_ms"] + [name for name, _ in series]
    rows = []
    for index, label in enumerate(edge_labels):
        rows.append(
            [label] + [values[index] for _, values in series]
        )
    return format_table(headers, rows, title=title)


def hbar(
    value: float,
    maximum: float,
    width: int = 40,
    fill: str = "#",
) -> str:
    """A fixed-width horizontal bar for quick visual comparison."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if maximum <= 0:
        return ""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    filled = int(round(width * min(value, maximum) / maximum))
    return fill * filled + "." * (width - filled)
