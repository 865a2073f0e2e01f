"""Terminal dashboard for live metrics (``repro metrics --watch``).

Renders a merged metrics snapshot as aligned text tables — workers
first (heartbeat age), then gauges, counters and histogram summaries
— and polls the per-worker snapshot files under a queue directory at
a fixed interval.  Pure presentation: all collection and merge
semantics live in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.metrics.report import format_table
from repro.obs.metrics import MetricsRegistry

__all__ = ["format_dashboard", "watch_metrics"]

#: ANSI "clear screen + home" used between --watch refreshes.
_CLEAR = "\x1b[2J\x1b[H"


def _label_text(labels: Dict[str, str]) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def format_dashboard(
    source: Union[MetricsRegistry, Dict],
    workers: Optional[List[Dict]] = None,
    title: str = "repro live metrics",
    now: Optional[float] = None,
) -> str:
    """One text frame: worker heartbeats, gauges, counters and
    histogram summaries from a registry or snapshot dict."""
    snapshot = source if isinstance(source, dict) else source.snapshot()
    families = snapshot.get("families", {})
    reference = time.time() if now is None else now
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(reference))
    sections: List[str] = [f"{title} — {stamp}"]

    if workers:
        rows = [
            [
                meta.get("worker", "?"),
                meta.get("pid", "?"),
                max(0.0, reference - float(meta.get("written_at", 0.0))),
            ]
            for meta in workers
        ]
        sections.append(
            format_table(
                ("worker", "pid", "last seen (s)"),
                rows,
                title="Workers",
                float_format="{:.1f}",
            )
        )

    kinds: Dict[str, List[Tuple[str, Dict]]] = {
        "gauge": [], "counter": [], "histogram": [], "summary": []
    }
    for name in sorted(families):
        entry = families[name]
        kinds.get(entry.get("kind"), []).append((name, entry))

    for kind, heading in (("gauge", "Gauges"), ("counter", "Counters")):
        rows = [
            [name, _label_text(item.get("labels", {})), item["value"]]
            for name, entry in kinds[kind]
            for item in entry.get("series", ())
        ]
        if rows:
            sections.append(
                format_table(
                    ("metric", "labels", "value"), rows, title=heading
                )
            )

    histogram_rows = []
    for name, entry in kinds["histogram"] + kinds["summary"]:
        for item in entry.get("series", ()):
            count = item.get("count", 0)
            total = item.get("sum", 0.0)
            histogram_rows.append(
                [
                    name,
                    _label_text(item.get("labels", {})),
                    count,
                    total / count if count else 0.0,
                    total,
                ]
            )
    if histogram_rows:
        sections.append(
            format_table(
                ("histogram", "labels", "count", "mean", "sum"),
                histogram_rows,
                title="Histograms",
            )
        )

    if len(sections) == 1:
        sections.append("(no metrics recorded yet)")
    return "\n\n".join(sections) + "\n"


def watch_metrics(
    queue_dir: str,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    stream=None,
    clear: bool = True,
) -> int:
    """Poll the queue's merged metrics and redraw the dashboard every
    ``interval_s`` seconds until Ctrl-C (or ``iterations`` frames, for
    tests and smoke runs).  Returns the number of frames drawn."""
    from repro.serve.service import merged_queue_metrics

    out = stream if stream is not None else sys.stdout
    frames = 0
    try:
        while iterations is None or frames < iterations:
            registry, workers = merged_queue_metrics(queue_dir)
            frame = format_dashboard(
                registry, workers, title=f"repro live metrics [{queue_dir}]"
            )
            if clear:
                out.write(_CLEAR)
            out.write(frame)
            out.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return frames
