"""Render a :class:`~repro.obs.analysis.TraceAnalysis` as text or HTML.

The plain-text report reuses the benchmark-harness table helpers
(:mod:`repro.metrics.report`) so it lands in a terminal or CI log with
the same look as every other artifact.  The HTML report is a single
self-contained file — inline CSS, no scripts, no external assets — so
it survives being uploaded as a CI artifact and opened anywhere.

Both renderers draw from the same section builders, so the two
formats can never drift apart in content.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.report import format_table, hbar
from repro.obs.analysis import TraceAnalysis
from repro.obs.metrics import render_prometheus

__all__ = [
    "render_html",
    "render_text",
    "report_sections",
    "write_html_report",
]

#: Cap on utilization rows: traces of big sweeps have hundreds of
#: tracks, and the tail is all zeros.
MAX_UTILIZATION_ROWS = 30


def _phase_rows(analysis: TraceAnalysis) -> List[Tuple]:
    attribution = analysis.attribution
    rows = []
    for category, total in attribution.ranking:
        rows.append(
            (
                category,
                total,
                attribution.share(category),
                hbar(total, attribution.ranking[0][1], width=24),
            )
        )
    return rows


def _utilization_rows(analysis: TraceAnalysis) -> List[Tuple]:
    tracks = sorted(
        analysis.utilization, key=lambda item: -item.busy_ms
    )[:MAX_UTILIZATION_ROWS]
    rows = []
    for track in tracks:
        gaps = track.idle_gaps
        mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
        rows.append(
            (
                track.process,
                track.thread,
                track.spans,
                track.busy_ms,
                track.utilization,
                len(gaps),
                mean_gap,
            )
        )
    return rows


def _depth_rows(timelines: Dict) -> List[Tuple]:
    return [
        (
            timeline.label,
            timeline.intervals,
            timeline.max_depth,
            timeline.mean_depth,
        )
        for timeline in timelines.values()
    ]


def _response_rows(analysis: TraceAnalysis) -> List[Tuple]:
    return [
        (scope, stats.count, stats.mean, stats.minimum, stats.maximum)
        for scope, stats in sorted(analysis.response_stats.items())
    ]


def report_sections(
    analysis: TraceAnalysis, tolerance_ms: float = 0.0
) -> List[Tuple[str, List[str], List[Tuple]]]:
    """The report's content as ``(title, headers, rows)`` tables.

    Both renderers consume this, so text and HTML always agree.
    """
    sections = [
        (
            "Bottleneck attribution (aggregate ms per phase)",
            ["phase", "total_ms", "share", "bar"],
            _phase_rows(analysis),
        ),
        (
            "Per-track utilization (busiest first)",
            [
                "process",
                "track",
                "spans",
                "busy_ms",
                "util",
                "idle_gaps",
                "mean_gap_ms",
            ],
            _utilization_rows(analysis),
        ),
        (
            "Queue depth (waiting requests, per drive)",
            ["process", "requests", "max_depth", "mean_depth"],
            _depth_rows(analysis.queue_depth),
        ),
        (
            "In-flight logical requests (per array)",
            ["process", "requests", "max_depth", "mean_depth"],
            _depth_rows(analysis.inflight),
        ),
        (
            "Response times by run scope (from array envelopes)",
            ["scope", "requests", "mean_ms", "min_ms", "max_ms"],
            _response_rows(analysis),
        ),
        (
            "Phase-sum reconciliation (spans vs envelopes)",
            ["scope", "requests", "reference", "max_abs_err_ms",
             "verdict"],
            [
                (
                    report.label,
                    report.requests,
                    report.reference,
                    report.max_abs_error_ms,
                    "exact"
                    if report.exact
                    else ("ok" if report.ok else "FAILED"),
                )
                for report in analysis.reconcile(
                    tolerance_ms=tolerance_ms
                )
            ],
        ),
    ]
    return sections


def _verdict_lines(analysis: TraceAnalysis) -> List[str]:
    lines = []
    attribution = analysis.attribution
    top = attribution.top_service_phase
    if top is not None:
        lines.append(
            f"primary service-phase bottleneck: {top} "
            f"({attribution.share(top):.1%} of attributed time)"
        )
    crosscheck = analysis.scaling_crosscheck
    if crosscheck is not None:
        lines.append(
            "paper cross-check (1/2)R vs (1/2)S: mean "
            f"{crosscheck.half_rotation_mean_ms:.2f} ms vs "
            f"{crosscheck.half_seek_mean_ms:.2f} ms -> rotation "
            f"{'IS' if crosscheck.rotation_is_primary else 'is NOT'} "
            "the primary bottleneck"
        )
    if analysis.dropped_spans:
        lines.append(
            f"WARNING: {analysis.dropped_spans} spans dropped "
            "(max_spans cap); analytics cover retained spans only"
        )
    return lines


def _header_lines(analysis: TraceAnalysis, title: str) -> List[str]:
    start, end = analysis.window
    return [
        title,
        f"spans: {len(analysis.spans)}; window: "
        f"[{start:.3f}, {end:.3f}] ms; scopes: "
        f"{', '.join(analysis.scopes) or '(none)'}",
    ]


def render_text(
    analysis: TraceAnalysis,
    title: str = "Trace analysis",
    tolerance_ms: float = 0.0,
) -> str:
    """The full report as aligned plain text."""
    blocks = ["\n".join(_header_lines(analysis, title))]
    verdicts = _verdict_lines(analysis)
    if verdicts:
        blocks.append("\n".join(f"* {line}" for line in verdicts))
    for section_title, headers, rows in report_sections(
        analysis, tolerance_ms=tolerance_ms
    ):
        if not rows:
            continue
        blocks.append(
            format_table(
                headers, rows, title=section_title,
                float_format="{:.3f}",
            )
        )
    telemetry = render_prometheus(analysis.telemetry)
    if telemetry:
        blocks.append("Telemetry\n" + telemetry.rstrip("\n"))
    return "\n\n".join(blocks)


_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e;
       padding: 0 1rem; }
h1 { font-size: 1.4rem; }
h2 { font-size: 1.05rem; margin-top: 2rem;
     border-bottom: 1px solid #d0d0e0; padding-bottom: 0.3rem; }
table { border-collapse: collapse; margin-top: 0.6rem;
        font-size: 0.85rem; font-variant-numeric: tabular-nums; }
th, td { padding: 0.25rem 0.8rem; text-align: right;
         border-bottom: 1px solid #ececf4; }
th { background: #f4f4fa; }
td:first-child, th:first-child { text-align: left; }
.meta { color: #555; font-size: 0.9rem; }
.verdict { background: #eef7ee; border-left: 4px solid #3a8a3a;
           padding: 0.5rem 0.8rem; margin: 0.4rem 0; }
.warn { background: #fdf3e4; border-left-color: #c07a1a; }
.bar { display: inline-block; height: 0.7rem; background: #5470c6;
       vertical-align: middle; border-radius: 2px; }
.barbox { min-width: 10rem; text-align: left; }
"""


def _html_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return html.escape(str(value))


def _html_table(
    headers: Sequence[str], rows: Sequence[Sequence]
) -> List[str]:
    parts = ["<table>", "<tr>"]
    parts.extend(f"<th>{html.escape(str(h))}</th>" for h in headers)
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        parts.extend(f"<td>{_html_cell(cell)}</td>" for cell in row)
        parts.append("</tr>")
    parts.append("</table>")
    return parts


def render_html(
    analysis: TraceAnalysis,
    title: str = "Trace analysis",
    tolerance_ms: float = 0.0,
) -> str:
    """The full report as one self-contained HTML document."""
    start, end = analysis.window
    parts = [
        "<!DOCTYPE html>",
        "<html lang=\"en\"><head><meta charset=\"utf-8\">",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        (
            f"<p class=\"meta\">{len(analysis.spans)} spans; window "
            f"[{start:.3f}, {end:.3f}] ms; scopes: "
            f"{html.escape(', '.join(analysis.scopes) or '(none)')}</p>"
        ),
    ]
    for line in _verdict_lines(analysis):
        css = "verdict warn" if line.startswith("WARNING") else "verdict"
        parts.append(f"<div class=\"{css}\">{html.escape(line)}</div>")
    for section_title, headers, rows in report_sections(
        analysis, tolerance_ms=tolerance_ms
    ):
        if not rows:
            continue
        parts.append(f"<h2>{html.escape(section_title)}</h2>")
        if headers and headers[-1] == "bar":
            # Replace the ASCII bar column with a CSS bar, scaled to
            # the section's largest value.
            peak = max(row[1] for row in rows) or 1.0
            html_rows = []
            for row in rows:
                width = 100.0 * row[1] / peak
                bar = (
                    f"<span class=\"bar\" style=\"width:{width:.1f}%"
                    "\"></span>"
                )
                html_rows.append(tuple(row[:-1]) + (bar,))
            parts.append("<table><tr>")
            parts.extend(
                f"<th>{html.escape(str(h))}</th>" for h in headers
            )
            parts.append("</tr>")
            for row in html_rows:
                parts.append("<tr>")
                for cell in row[:-1]:
                    parts.append(f"<td>{_html_cell(cell)}</td>")
                parts.append(f"<td class=\"barbox\">{row[-1]}</td>")
                parts.append("</tr>")
            parts.append("</table>")
        else:
            parts.extend(_html_table(headers, rows))
    telemetry = render_prometheus(analysis.telemetry)
    if telemetry:
        parts.append(
            f"<h2>Telemetry</h2><pre>{html.escape(telemetry)}</pre>"
        )
    parts.append("</body></html>")
    return "\n".join(parts)


def write_html_report(
    analysis: TraceAnalysis,
    path: str,
    title: str = "Trace analysis",
    tolerance_ms: float = 0.0,
) -> str:
    """Write the HTML report; returns the path written."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            render_html(analysis, title=title, tolerance_ms=tolerance_ms)
        )
        handle.write("\n")
    return path
