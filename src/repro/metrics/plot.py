"""ASCII plotting: multi-series CDF/PDF charts for terminal output.

The artifact tables report numbers; these charts make the *shape*
visible in a terminal — the same visual comparison the paper's figures
provide.  Series are drawn as distinct glyphs on a shared grid; the
y-axis is the cumulative (or density) fraction, the x-axis the bucket
labels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["ascii_chart"]

#: Plot glyphs, assigned to series in order.
GLYPHS = "*o+x#@%&"


def ascii_chart(
    edge_labels: Sequence[str],
    series: Sequence[Tuple[str, Sequence[float]]],
    height: int = 12,
    title: Optional[str] = None,
    y_max: Optional[float] = None,
) -> str:
    """Render series of per-bucket values as an ASCII chart.

    Parameters
    ----------
    edge_labels:
        X-axis labels, one per bucket.
    series:
        ``(name, values)`` pairs; each ``values`` has one entry per
        edge label.  At most ``len(GLYPHS)`` series.
    height:
        Number of character rows for the y-axis.
    y_max:
        Top of the y-axis; defaults to the max value observed (or 1.0
        for fraction-like data ≤ 1).
    """
    if not edge_labels:
        raise ValueError("need at least one edge label")
    if not series:
        raise ValueError("need at least one series")
    if len(series) > len(GLYPHS):
        raise ValueError(
            f"at most {len(GLYPHS)} series supported, got {len(series)}"
        )
    if height < 2:
        raise ValueError(f"height must be >= 2, got {height}")
    for name, values in series:
        if len(values) != len(edge_labels):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(edge_labels)} buckets"
            )

    peak = max(max(values) for _, values in series)
    if y_max is None:
        y_max = 1.0 if peak <= 1.0 else peak
    if y_max <= 0:
        y_max = 1.0

    column_width = max(max(len(label) for label in edge_labels) + 1, 4)
    width = column_width * len(edge_labels)
    grid: List[List[str]] = [
        [" "] * width for _ in range(height)
    ]
    for series_index, (_, values) in enumerate(series):
        glyph = GLYPHS[series_index]
        for bucket, value in enumerate(values):
            level = min(
                height - 1,
                int(round((value / y_max) * (height - 1))),
            )
            row = height - 1 - level
            column = bucket * column_width + column_width // 2
            if grid[row][column] == " ":
                grid[row][column] = glyph
            else:
                # Collision: mark shared points distinctly.
                grid[row][column] = "="

    lines: List[str] = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        fraction = (height - 1 - row_index) / (height - 1) * y_max
        lines.append(f"{fraction:5.2f} |" + "".join(row))
    lines.append("      +" + "-" * width)
    label_row = "       "
    for label in edge_labels:
        label_row += label.center(column_width)
    lines.append(label_row.rstrip())
    legend = "  ".join(
        f"{GLYPHS[index]}={name}" for index, (name, _) in enumerate(series)
    )
    lines.append(f"       [{legend}]  (= marks overlap)")
    return "\n".join(lines)
