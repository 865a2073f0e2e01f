"""``python -m repro profile``: cProfile the simulator hot path.

Profiles either the reference benchmark workload (``--target bench``,
the default — one serial limit-study pass per selected workload) or
the pure-engine kernel microbenchmark (``--target kernel``), then
prints the top-N entries.  The default ordering is cumulative time,
which surfaces the call-tree roots worth optimising; ``--sort
tottime`` surfaces the leaf functions the interpreter actually spends
its time in.

``--json`` emits the same entries as machine-readable JSON, so a CI
step (or a notebook) can diff successive profiles without scraping
pstats' text layout.  For the kernel target, ``--shards N`` times the
microbenchmark one shard partition at a time and reports a row per
shard (``kernel_shards`` in the JSON); ``--shards 1`` is the classic
single-kernel microbenchmark, bit-for-bit.

``--compare BASELINE.json`` switches to delta mode: instead of
profiling, it re-times every comparable cell of a committed bench
snapshot — each per-workload serial pass and the engine-kernel
microbenchmark — and reports current events/second against the
baseline's, cell by cell.  That answers "*where* did the throughput
move?" after an engine change, which the bench's single aggregate
number cannot.  Older
baselines are migrated on load; cells the baseline never recorded are
skipped.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "format_compare",
    "format_profile",
    "run_compare",
    "run_profile",
]

#: Sort keys accepted by ``--sort`` (a curated subset of pstats').
SORT_KEYS = ("cumulative", "tottime", "ncalls")

TARGETS = ("bench", "kernel")


def _profile_bench(
    requests: int, workloads: Optional[Sequence[str]]
) -> cProfile.Profile:
    from repro.tools.bench import _bench_job
    from repro.workloads.commercial import COMMERCIAL_WORKLOADS

    selected = list(workloads or COMMERCIAL_WORKLOADS)
    unknown = [
        name for name in selected if name not in COMMERCIAL_WORKLOADS
    ]
    if unknown:
        raise ValueError(
            f"unknown workloads {unknown}; choose from "
            f"{sorted(COMMERCIAL_WORKLOADS)}"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    for name in selected:
        _bench_job(name, requests)
    profiler.disable()
    return profiler


def _profile_kernel(
    shards: int = 1,
) -> Tuple[cProfile.Profile, List[Dict]]:
    """Profile the engine kernel, one pass per shard partition.

    The kernel workload is partitioned the way the sharded engine
    partitions drives: striped, so ``shards`` kernels each run their
    share of the ``KERNEL_PROCESSES`` timeout cycles on a private
    environment.  Each shard's pass is timed individually and returned
    as a row.  With ``shards=1`` the single row *is* the classic
    kernel microbenchmark — same call, same event count — so existing
    profile consumers see unchanged numbers.
    """
    from repro.tools.bench import (
        KERNEL_PROCESSES,
        KERNEL_TIMEOUTS,
        _kernel_pass,
    )

    rows: List[Dict] = []
    profiler = cProfile.Profile()
    profiler.enable()
    for shard in range(shards):
        processes = len(range(shard, KERNEL_PROCESSES, shards))
        start = time.perf_counter()
        events = _kernel_pass(processes, KERNEL_TIMEOUTS)
        wall = time.perf_counter() - start
        rows.append(
            {
                "shard": shard,
                "processes": processes,
                "timeouts": KERNEL_TIMEOUTS,
                "events": events,
                "wall_s": round(wall, 6),
                "events_per_s": round(events / wall, 1),
            }
        )
    profiler.disable()
    return profiler, rows


def run_profile(
    target: str = "bench",
    requests: int = 2000,
    workloads: Optional[Sequence[str]] = None,
    top: int = 25,
    sort: str = "cumulative",
    shards: int = 1,
) -> Dict:
    """Profile ``target`` and return the top-``top`` entries.

    Returns ``{"target", "requests", "total_time_s", "total_calls",
    "sort", "entries", "shards", "kernel_shards"}`` where each entry
    carries the function's location, call counts and timings — plain
    data, JSON-ready.  For the kernel target, ``kernel_shards`` holds
    one timed microbenchmark row per shard partition (``shards=1``
    reproduces the classic single-kernel row exactly); the bench
    target reports ``kernel_shards: None``.
    """
    if target not in TARGETS:
        raise ValueError(
            f"unknown profile target {target!r}; choose from {TARGETS}"
        )
    if sort not in SORT_KEYS:
        raise ValueError(
            f"unknown sort key {sort!r}; choose from {SORT_KEYS}"
        )
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    kernel_shards: Optional[List[Dict]] = None
    if target == "bench":
        profiler = _profile_bench(requests, workloads)
    else:
        profiler, kernel_shards = _profile_kernel(shards)

    stats = pstats.Stats(profiler, stream=io.StringIO())
    total_calls = stats.total_calls
    total_time = stats.total_tt

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
        "target": target,
        "requests": requests if target == "bench" else None,
        "sort": sort,
        "shards": shards if target == "kernel" else None,
        "kernel_shards": kernel_shards,
        "total_calls": total_calls,
        "total_time_s": round(total_time, 6),
        "entries": entries[:top],
    }


def run_compare(baseline_path: str, repeats: int = 1) -> Dict:
    """Re-time a bench snapshot's cells and report per-cell deltas.

    Loads (and, for older schemas, migrates) the baseline snapshot,
    then re-runs every cell it recorded a throughput for — one serial
    pass per workload at the baseline's request count and the kernel
    microbenchmark at the baseline's shape.  Each fresh wall-clock is
    the best of ``repeats`` passes.  Deltas are informational: the
    caller decides what counts as a regression (host noise on shared
    machines easily reaches several percent).
    """
    from repro.tools.bench import _bench_job, load_bench, run_kernel_bench

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    baseline = load_bench(baseline_path)
    requests = baseline["requests"]
    cells: List[Dict] = []

    def add_cell(name: str, base_rate: float, rate: float) -> None:
        cells.append(
            {
                "cell": name,
                "baseline_events_per_s": base_rate,
                "current_events_per_s": rate,
                "delta_fraction": (
                    round(rate / base_rate - 1.0, 4) if base_rate else None
                ),
            }
        )

    for entry in baseline.get("workload_results") or []:
        name = entry["workload"]
        wall = float("inf")
        events = 0
        for _ in range(repeats):
            outcome = _bench_job(name, requests)
            wall = min(wall, outcome["wall_s"])
            events = outcome["events"]
        add_cell(
            f"workload:{name}",
            entry["events_per_s"],
            round(events / wall, 1),
        )

    kernel = baseline.get("kernel")
    if kernel:
        fresh = run_kernel_bench(
            kernel["processes"], kernel["timeouts"], repeats
        )
        add_cell("kernel", kernel["events_per_s"], fresh["events_per_s"])

    return {
        "baseline_path": baseline_path,
        "baseline_date": baseline.get("date"),
        "baseline_schema": baseline.get("migrated_from", baseline["schema"]),
        "requests": requests,
        "repeats": repeats,
        "cells": cells,
    }


def format_compare(result: Dict) -> str:
    """Plain-text table of a :func:`run_compare` result."""
    from repro.metrics.report import format_table

    rows = [
        (
            entry["cell"],
            entry["baseline_events_per_s"],
            entry["current_events_per_s"],
            (
                f"{entry['delta_fraction'] * 100:+.1f}%"
                if entry["delta_fraction"] is not None
                else "n/a"
            ),
        )
        for entry in result["cells"]
    ]
    table = format_table(
        ["cell", "baseline_ev_s", "current_ev_s", "delta"],
        rows,
        title=(
            f"Per-cell events/s vs {result['baseline_path']} "
            f"({result['baseline_date']}, {result['requests']} "
            f"requests, best of {result['repeats']})"
        ),
        float_format="{:.1f}",
    )
    footer = (
        "deltas are informational: wall-clocks are host-dependent, "
        "only the bench digest gates"
    )
    if not result["cells"]:
        footer = (
            "baseline recorded no comparable cells (pre-v3 snapshot?)"
        )
    return "\n".join([table, footer])


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
    scope = (
        f"{result['requests']} requests/workload"
        if result["target"] == "bench"
        else "engine kernel"
    )
    table = format_table(
        ["function", "ncalls", "tottime_s", "cumtime_s", "where"],
        rows,
        title=(
            f"Profile: {result['target']} ({scope}), top "
            f"{len(result['entries'])} by {result['sort']}"
        ),
        float_format="{:.4f}",
    )
    footer = (
        f"total: {result['total_calls']} calls in "
        f"{result['total_time_s']:.3f}s"
    )
    lines = [table, footer]
    for row in result.get("kernel_shards") or []:
        lines.append(
            f"shard {row['shard']}: {row['events']} events in "
            f"{row['wall_s']:.3f}s = {row['events_per_s']:.0f} "
            f"events/s ({row['processes']} processes x "
            f"{row['timeouts']} timeouts)"
        )
    return "\n".join(lines)
