"""``python -m repro profile``: cProfile the simulator hot path.

Profiles the reference benchmark workload — one serial limit-study
pass per selected workload, the pass ``repro bench`` digests — and
prints the top-N entries.  The default ordering is cumulative time,
which surfaces the call-tree roots worth optimising; ``--sort
tottime`` surfaces the leaf functions the interpreter actually spends
its time in.

``--json`` emits the same entries as machine-readable JSON, so a
notebook can diff successive profiles without scraping pstats' text
layout.  cProfile adds a cost to every Python call, so these
proportions locate candidates; calibrated end-to-end and per-layer
timings come from ``perfbench/`` (``--trace 1`` prints its ledger).
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Dict, List, Optional, Sequence

__all__ = ["format_profile", "run_profile"]

#: Sort keys accepted by ``--sort`` (a curated subset of pstats').
SORT_KEYS = ("cumulative", "tottime", "ncalls")


def run_profile(
    requests: int = 2000,
    workloads: Optional[Sequence[str]] = None,
    top: int = 25,
    sort: str = "cumulative",
) -> Dict:
    """Profile one serial bench pass and return the top-``top`` entries.

    Returns ``{"requests", "sort", "total_calls", "total_time_s",
    "entries"}`` where each entry carries the function's location, call
    counts and timings — plain data, JSON-ready.
    """
    from repro.tools.bench import _bench_job, _selected

    if sort not in SORT_KEYS:
        raise ValueError(
            f"unknown sort key {sort!r}; choose from {SORT_KEYS}"
        )
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    selected = _selected(requests, workloads)

    profiler = cProfile.Profile()
    profiler.enable()
    for name in selected:
        _bench_job(name, requests)
    profiler.disable()

    stats = pstats.Stats(profiler, stream=io.StringIO())
    entries: List[Dict] = []
    for (filename, line, name), (
        primitive_calls,
        ncalls,
        tottime,
        cumtime,
        _callers,
    ) in stats.stats.items():
        entries.append(
            {
                "function": name,
                "file": filename,
                "line": line,
                "ncalls": ncalls,
                "primitive_calls": primitive_calls,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )
    sort_field = {
        "cumulative": "cumtime_s",
        "tottime": "tottime_s",
        "ncalls": "ncalls",
    }[sort]
    entries.sort(key=lambda entry: entry[sort_field], reverse=True)

    return {
        "requests": requests,
        "sort": sort,
        "total_calls": stats.total_calls,
        "total_time_s": round(stats.total_tt, 6),
        "entries": entries[:top],
    }


def format_profile(result: Dict) -> str:
    """Plain-text table of a :func:`run_profile` result."""
    from repro.metrics.report import format_table

    rows = []
    for entry in result["entries"]:
        location = entry["file"]
        if entry["line"]:
            location = f"{location}:{entry['line']}"
        rows.append(
            (
                entry["function"],
                entry["ncalls"],
                entry["tottime_s"],
                entry["cumtime_s"],
                location,
            )
        )
    table = format_table(
        ["function", "ncalls", "tottime_s", "cumtime_s", "where"],
        rows,
        title=(
            f"Profile: bench pass ({result['requests']} "
            f"requests/workload), top {len(result['entries'])} by "
            f"{result['sort']}"
        ),
        float_format="{:.4f}",
    )
    footer = (
        f"total: {result['total_calls']} calls in "
        f"{result['total_time_s']:.3f}s"
    )
    return "\n".join([table, footer])
