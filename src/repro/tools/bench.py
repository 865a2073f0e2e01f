"""Reproducible benchmark harness for the simulator hot path.

``python -m repro bench`` times a fixed-seed reference workload — the
Figure 2 limit study (MD and HC-SD runs for every commercial workload)
— at one worker and at the requested worker count, and writes a
``BENCH_<date>.json`` snapshot with wall-clock, engine events/second
and the parallel speedup.  The workload is fully deterministic, so two
snapshots from the same machine and interpreter are directly
comparable, and the recorded figure digest doubles as a regression
check: serial and parallel runs must produce byte-identical figures.

The JSON schema (``repro-bench/6``)::

    {
      "schema": "repro-bench/6",
      "date": "2026-08-06",
      "python": "3.11.x ...",
      "cpu_count": 8,
      "requests": 6000,
      "repeats": 3,
      "workloads": ["financial", "websearch", "tpcc", "tpch"],
      "events": 123456,            # engine events per full pass
      "figures_sha256": "...",     # digest of the per-run figures
      "figures_identical": true,   # serial == parallel, bit for bit
      "workload_results": [        # serial pass, per workload
        {"workload": "financial", "events": ..., "wall_s": ...,
         "events_per_s": ...},
        ...
      ],
      "kernel": {                  # pure-engine microbenchmark
        "processes": 50, "timeouts": 2000, "events": ...,
        "wall_s": ..., "events_per_s": ...
      },
      "results": [
        {"workers": 1, "wall_s": ..., "events_per_s": ...,
         "speedup_vs_serial": 1.0},
        {"workers": 4, "wall_s": ..., "events_per_s": ...,
         "speedup_vs_serial": ...}
      ],
      "shard_scaling": {           # sharded-kernel scaling curve
        "disks": 16, "interarrival_ms": 4.0, "requests": ...,
        "events": ...,             # serial engine events for the cell
        "figures_sha256": "...",   # digest of the serial cell figures
        "figures_identical": true, # every shard count reproduced it
        "results": [
          {"shards": 1, "wall_s": ..., "events_per_s": ...,
           "speedup_vs_serial": 1.0},
          {"shards": 2, "skipped": true, "reason": "...",
           "figures_identical": true},
          ...
        ]
      },
      "metrics_overhead": {       # live-metrics cost (non-gating)
        "workload": "websearch", "requests": ...,
        "events": ...,
        "off_events_per_s": ..., "on_events_per_s": ...,
        "overhead_fraction": ...,  # 1 - on/off (negative = noise)
        "figures_identical": true  # metered figures == unmetered
      }
    }

Schema history: v3 added the per-workload serial breakdown and the
engine-kernel microbenchmark (migrated v1/v2 snapshots carry an empty
``workload_results`` and a ``null`` kernel — the data cannot be
reconstructed from older runs).  v4 added the sharded-kernel scaling
curve — one 16-drive RAID-0 cell run at 1/2/4 engine shards — with
the same host-honesty rule as the worker sweep: shard counts above
``cpu_count`` (or on hosts without ``fork``) are never *timed*, but
every shard count that can run at all is still *executed* once so its
figure digest is checked against the serial cell (bit-identity is
host-independent; wall-clocks are not).  Migrated v1/v2/v3 snapshots
carry a ``null`` ``shard_scaling``.  v5 added the ``metrics_overhead``
cell — one serial workload pass timed with the live-metrics registry
off and on (:mod:`repro.obs.metrics`), recording the throughput cost
of metering and checking the metered figures are bit-identical.  The
cell is informational, never a gate: ``--check`` ignores it, because
the overhead of a few counter increments is far below shared-runner
noise.  Migrated v1-v4 snapshots carry a ``null`` ``metrics_overhead``.
v6 added a ``scheduler`` cell that timed the kernel under a calendar
queue and a binary heap.  The engine now has only the heap, so the
cell is no longer written or required and v6 has the v5 keys; v6
snapshots that still carry a ``scheduler`` key load unchanged, and
nothing reads it.

Worker counts above ``cpu_count`` are never timed: on an oversubscribed
host a "parallel" pass measures scheduler contention, not speedup (a
1-core machine once recorded workers=4 at 0.754× and made the executor
look like a slowdown).  The sweep caps the parallel configuration at
``cpu_count`` and appends a ``{"workers": N, "skipped": true, ...}``
entry documenting the request (schema bump 1 → 2).

Wall-clock per configuration is the *minimum* over ``repeats`` timed
passes — the standard estimator for the noise floor of a deterministic
workload.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.configs import (
    build_hcsd_system,
    build_md_system,
    build_raid0_system,
)
from repro.experiments.executor import Job, resolve_workers, sweep
from repro.experiments.runner import run_trace
from repro.metrics.report import format_table
from repro.sim.engine import Environment
from repro.sim.sharded import sharding_available
from repro.workloads.commercial import COMMERCIAL_WORKLOADS
from repro.workloads.synthetic import SyntheticWorkload

__all__ = [
    "format_bench",
    "load_bench",
    "migrate_bench",
    "run_bench",
    "run_kernel_bench",
    "run_metrics_overhead_bench",
    "run_shard_bench",
    "validate_bench",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench/6"
BENCH_SCHEMA_V5 = "repro-bench/5"
BENCH_SCHEMA_V4 = "repro-bench/4"
BENCH_SCHEMA_V3 = "repro-bench/3"
BENCH_SCHEMA_V2 = "repro-bench/2"
BENCH_SCHEMA_V1 = "repro-bench/1"

#: Keys every valid snapshot (any schema version) must carry.
REQUIRED_KEYS = (
    "schema",
    "date",
    "python",
    "platform",
    "cpu_count",
    "requests",
    "repeats",
    "workloads",
    "events",
    "figures_sha256",
    "figures_identical",
    "results",
)


def _bench_job(workload_name: str, requests: int) -> Dict:
    """One limit-study workload pass, instrumented for the bench.

    Returns the engine event count and a figure tuple (mean, p90,
    total power for MD and HC-SD) — everything the harness needs to
    compute events/second and to verify serial/parallel identity.
    """
    start = time.perf_counter()
    workload = COMMERCIAL_WORKLOADS[workload_name]
    trace = workload.generate(requests)
    env = Environment()
    md = run_trace(env, build_md_system(env, workload), trace)
    events = env.total_events
    env = Environment()
    hcsd = run_trace(env, build_hcsd_system(env, workload), trace)
    events += env.total_events
    return {
        "workload": workload_name,
        "events": events,
        "wall_s": time.perf_counter() - start,
        "figures": (
            md.mean_response_ms,
            md.percentile(90),
            md.power.total_watts,
            hcsd.mean_response_ms,
            hcsd.percentile(90),
            hcsd.power.total_watts,
        ),
    }


def _jobs(workloads: Sequence[str], requests: int) -> List[Job]:
    return [
        Job(_bench_job, (name, requests), key=name) for name in workloads
    ]


def _figures_digest(outcomes: List[Dict]) -> str:
    payload = json.dumps(
        [[outcome["workload"], outcome["figures"]] for outcome in outcomes],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _timed_pass(
    workloads: Sequence[str], requests: int, workers: int
) -> Tuple[float, List[Dict]]:
    start = time.perf_counter()
    outcomes = sweep(_jobs(workloads, requests), n_workers=workers)
    return time.perf_counter() - start, outcomes


#: Kernel-microbenchmark shape: enough concurrent timeout cycles to
#: exercise the pooled-timeout direct-dispatch fast path without any
#: disk model in the loop.
KERNEL_PROCESSES = 50
KERNEL_TIMEOUTS = 2000


def _kernel_pass(processes: int, timeouts: int) -> int:
    """One pure-engine pass; returns the events scheduled.

    Each process cycles through ``timeouts`` awaited timeouts at a
    process-specific delay, so every firing takes the single-waiter
    direct-dispatch path and recycles its Timeout through the pool —
    the simulation-kernel hot loop with nothing else attached.
    """
    env = Environment()

    def cycle(delay: float):
        timeout = env.timeout
        for _ in range(timeouts):
            yield timeout(delay)

    for index in range(processes):
        env.process(cycle(0.5 + 0.25 * index))
    env.run()
    return env.total_events


def run_kernel_bench(
    processes: int = KERNEL_PROCESSES,
    timeouts: int = KERNEL_TIMEOUTS,
    repeats: int = 3,
) -> Dict:
    """Time the engine-only microbenchmark (best of ``repeats``)."""
    if processes < 1 or timeouts < 1:
        raise ValueError(
            f"processes and timeouts must be >= 1, got "
            f"{processes}/{timeouts}"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    wall = float("inf")
    events = 0
    for _ in range(repeats):
        start = time.perf_counter()
        events = _kernel_pass(processes, timeouts)
        wall = min(wall, time.perf_counter() - start)
    return {
        "processes": processes,
        "timeouts": timeouts,
        "events": events,
        "wall_s": round(wall, 6),
        "events_per_s": round(events / wall, 1),
    }


#: Shard-scaling cell shape: the busiest Figure 8 array size — a
#: 16-drive RAID-0 under a 4 ms open arrival stream — which is the
#: configuration the sharded kernel exists for (16 drive groups to
#: partition, a deep controller queue to overlap).
SHARD_COUNTS = (1, 2, 4)
SHARD_DISKS = 16
SHARD_INTERARRIVAL_MS = 4.0
SHARD_REQUESTS = 2000


def _shard_pass(requests: int, shards: int) -> Tuple[int, List]:
    """Run the shard-scaling cell once; returns (events, figures).

    The figures tuple deliberately covers every figure family a study
    derives from a run — mean, p90, total power and the full
    response-time CDF — so digest equality means the sharded kernel
    reproduced the *publication output*, not just a summary statistic.
    """
    env = Environment()
    system = build_raid0_system(env, SHARD_DISKS)
    workload = SyntheticWorkload(
        capacity_sectors=system.capacity_sectors(),
        mean_interarrival_ms=SHARD_INTERARRIVAL_MS,
        footprint_fraction=0.02,
        seed=99,
    )
    trace = workload.generate(requests)
    run = run_trace(env, system, trace, shards=shards)
    figures = [
        run.mean_response_ms,
        run.percentile(90),
        run.power.total_watts,
        list(run.response_cdf()),
    ]
    return env.total_events, figures


def _shard_digest(figures: List) -> str:
    payload = json.dumps(figures, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def run_shard_bench(
    requests: int = SHARD_REQUESTS,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    repeats: int = 3,
) -> Dict:
    """Time the sharded-kernel scaling curve; returns the v4 section.

    ``shards=1`` (the serial fast path) is always timed, best of
    ``repeats``.  Higher shard counts follow the host-honesty rule of
    the worker sweep: a count above ``cpu_count`` is *executed* once —
    its figure digest against the serial run is the correctness check,
    and that holds on any host — but its wall-clock is recorded as a
    skipped entry, because forked shards time-slicing one core measure
    scheduler contention, not the kernel.  Hosts without the ``fork``
    start method skip the sharded runs entirely.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    counts = list(shard_counts)
    if not counts or counts[0] != 1:
        counts = [1] + [count for count in counts if count != 1]
    cpu = os.cpu_count() or 1

    serial_wall = float("inf")
    events = 0
    serial_figures: Optional[List] = None
    for _ in range(repeats):
        start = time.perf_counter()
        events, serial_figures = _shard_pass(requests, 1)
        serial_wall = min(serial_wall, time.perf_counter() - start)
    digest = _shard_digest(serial_figures)

    identical = True
    results: List[Dict] = [
        {
            "shards": 1,
            "wall_s": round(serial_wall, 6),
            "events_per_s": round(events / serial_wall, 1),
            "speedup_vs_serial": 1.0,
        }
    ]
    for count in counts[1:]:
        if not sharding_available():
            results.append(
                {
                    "shards": count,
                    "skipped": True,
                    "reason": "fork start method unavailable",
                }
            )
            continue
        if count > cpu:
            _, figures = _shard_pass(requests, count)
            matches = _shard_digest(figures) == digest
            identical = identical and matches
            results.append(
                {
                    "shards": count,
                    "skipped": True,
                    "reason": f"exceeds cpu_count={cpu}",
                    "figures_identical": matches,
                }
            )
            continue
        wall = float("inf")
        matches = True
        for _ in range(repeats):
            start = time.perf_counter()
            _, figures = _shard_pass(requests, count)
            wall = min(wall, time.perf_counter() - start)
            matches = matches and _shard_digest(figures) == digest
        identical = identical and matches
        results.append(
            {
                "shards": count,
                "wall_s": round(wall, 6),
                "events_per_s": round(events / wall, 1),
                "speedup_vs_serial": round(serial_wall / wall, 3),
                "figures_identical": matches,
            }
        )

    return {
        "disks": SHARD_DISKS,
        "interarrival_ms": SHARD_INTERARRIVAL_MS,
        "requests": requests,
        "events": events,
        "figures_sha256": digest,
        "figures_identical": identical,
        "results": results,
    }


#: Metrics-overhead cell shape: one serial limit-study workload is
#: plenty to surface a hot-path regression, and keeps a smoke-sized
#: bench smoke sized.
METRICS_OVERHEAD_WORKLOAD = "websearch"
METRICS_OVERHEAD_REQUESTS = 2000


def run_metrics_overhead_bench(
    requests: int = METRICS_OVERHEAD_REQUESTS,
    workload: str = METRICS_OVERHEAD_WORKLOAD,
    repeats: int = 3,
) -> Dict:
    """Time one serial workload pass with live metrics off, then on.

    The "on" pass runs under an ambient
    :class:`~repro.obs.metrics.MetricsRegistry` — exactly what
    ``--metrics PATH`` installs — so the recorded overhead is what a
    metered production run pays.  Figures from both passes are
    digest-compared: metering must never perturb simulated time.  The
    cell is informational (non-gating); ``overhead_fraction`` is
    ``1 - on/off`` events/second and can go negative in timing noise.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if workload not in COMMERCIAL_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from "
            f"{sorted(COMMERCIAL_WORKLOADS)}"
        )
    from repro.obs.metrics import MetricsRegistry, metrics_session

    off_wall = float("inf")
    off_outcome: Dict = {}
    for _ in range(repeats):
        outcome = _bench_job(workload, requests)
        off_wall = min(off_wall, outcome["wall_s"])
        off_outcome = outcome
    on_wall = float("inf")
    on_outcome: Dict = {}
    for _ in range(repeats):
        with metrics_session(MetricsRegistry()):
            outcome = _bench_job(workload, requests)
        on_wall = min(on_wall, outcome["wall_s"])
        on_outcome = outcome
    events = off_outcome["events"]
    off_rate = events / off_wall
    on_rate = events / on_wall
    return {
        "workload": workload,
        "requests": requests,
        "events": events,
        "off_events_per_s": round(off_rate, 1),
        "on_events_per_s": round(on_rate, 1),
        "overhead_fraction": round(1.0 - on_rate / off_rate, 4),
        "figures_identical": (
            off_outcome["figures"] == on_outcome["figures"]
        ),
    }


def run_bench(
    requests: int = 6000,
    workers: int = 1,
    repeats: int = 3,
    workloads: Optional[Sequence[str]] = None,
) -> Dict:
    """Time the reference workload; returns the ``repro-bench/6`` dict.

    ``workers`` adds a second timed configuration beyond the serial
    baseline (pass 1, the default, to time only the baseline); the
    parallel pass's figures are checked against the serial pass's.
    Counts above the host's ``cpu_count`` are not timed — an
    oversubscribed pool measures contention, not parallelism — and are
    recorded as skipped entries instead.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    selected = list(workloads or COMMERCIAL_WORKLOADS)
    unknown = [name for name in selected if name not in COMMERCIAL_WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workloads {unknown}; choose from "
            f"{sorted(COMMERCIAL_WORKLOADS)}"
        )
    cpu = os.cpu_count() or 1
    worker_counts = [1]
    skipped = []
    resolved = resolve_workers(workers)
    if resolved > cpu:
        skipped.append(
            {
                "workers": resolved,
                "skipped": True,
                "reason": f"exceeds cpu_count={cpu}",
                "timed_as": cpu if cpu > 1 else 1,
            }
        )
        resolved = cpu
    if resolved > 1:
        worker_counts.append(resolved)

    results = []
    serial_digest: Optional[str] = None
    serial_wall: Optional[float] = None
    events = 0
    figures_identical = True
    workload_walls: Dict[str, float] = {}
    workload_events: Dict[str, int] = {}
    for count in worker_counts:
        wall = float("inf")
        outcomes: List[Dict] = []
        for _ in range(repeats):
            elapsed, outcomes = _timed_pass(selected, requests, count)
            wall = min(wall, elapsed)
            if count == 1:
                # Per-workload breakdown: each job times itself, so
                # the serial pass yields a noise-floor (min over
                # repeats) estimate per workload.
                for outcome in outcomes:
                    name = outcome["workload"]
                    job_wall = outcome["wall_s"]
                    if (
                        name not in workload_walls
                        or job_wall < workload_walls[name]
                    ):
                        workload_walls[name] = job_wall
                    workload_events[name] = outcome["events"]
        events = sum(outcome["events"] for outcome in outcomes)
        digest = _figures_digest(outcomes)
        if serial_digest is None:
            serial_digest = digest
            serial_wall = wall
        elif digest != serial_digest:
            figures_identical = False
        results.append(
            {
                "workers": count,
                "wall_s": round(wall, 6),
                "events_per_s": round(events / wall, 1),
                "speedup_vs_serial": round(serial_wall / wall, 3),
            }
        )
    results.extend(skipped)

    workload_results = [
        {
            "workload": name,
            "events": workload_events[name],
            "wall_s": round(workload_walls[name], 6),
            "events_per_s": round(
                workload_events[name] / workload_walls[name], 1
            ),
        }
        for name in selected
        if name in workload_walls
    ]

    return {
        "schema": BENCH_SCHEMA,
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "requests": requests,
        "repeats": repeats,
        "workloads": selected,
        "events": events,
        "figures_sha256": serial_digest,
        "figures_identical": figures_identical,
        "workload_results": workload_results,
        "kernel": run_kernel_bench(repeats=repeats),
        "results": results,
        # The scaling cell tracks the caller's request budget (capped
        # at its reference size) so a smoke-sized bench stays smoke
        # sized while the committed baseline records the full curve.
        "shard_scaling": run_shard_bench(
            requests=min(requests, SHARD_REQUESTS), repeats=repeats
        ),
        # Same budget rule for the metrics-overhead cell, and it
        # prefers a workload the caller actually selected.
        "metrics_overhead": run_metrics_overhead_bench(
            requests=min(requests, METRICS_OVERHEAD_REQUESTS),
            workload=(
                METRICS_OVERHEAD_WORKLOAD
                if METRICS_OVERHEAD_WORKLOAD in selected
                else selected[0]
            ),
            repeats=repeats,
        ),
    }


def format_bench(result: Dict) -> str:
    timed = [
        entry for entry in result["results"] if not entry.get("skipped")
    ]
    skipped = [
        entry for entry in result["results"] if entry.get("skipped")
    ]
    rows = [
        (
            entry["workers"],
            entry["wall_s"],
            entry["events_per_s"],
            entry["speedup_vs_serial"],
        )
        for entry in timed
    ]
    table = format_table(
        ["workers", "wall_s", "events_per_s", "speedup"],
        rows,
        title=(
            f"Benchmark: {result['requests']} requests x "
            f"{len(result['workloads'])} workloads (MD + HC-SD), "
            f"best of {result['repeats']}"
        ),
        float_format="{:.3f}",
    )
    footer = (
        f"engine events per pass: {result['events']}; "
        f"cpu_count: {result['cpu_count']}; "
        f"figures identical across worker counts: "
        f"{result['figures_identical']}"
    )
    lines = [table, footer]
    per_workload = result.get("workload_results") or []
    if per_workload:
        workload_table = format_table(
            ["workload", "events", "wall_s", "events_per_s"],
            [
                (
                    entry["workload"],
                    entry["events"],
                    entry["wall_s"],
                    entry["events_per_s"],
                )
                for entry in per_workload
            ],
            title="Serial pass by workload (best of repeats)",
            float_format="{:.3f}",
        )
        lines.append(workload_table)
    kernel = result.get("kernel")
    if kernel:
        lines.append(
            f"kernel microbench: {kernel['events']} events in "
            f"{kernel['wall_s']:.3f}s = {kernel['events_per_s']:.0f} "
            f"events/s ({kernel['processes']} processes x "
            f"{kernel['timeouts']} timeouts)"
        )
    shard_scaling = result.get("shard_scaling")
    if shard_scaling:
        shard_rows = [
            (
                entry["shards"],
                entry["wall_s"],
                entry["events_per_s"],
                entry["speedup_vs_serial"],
            )
            for entry in shard_scaling["results"]
            if not entry.get("skipped")
        ]
        lines.append(
            format_table(
                ["shards", "wall_s", "events_per_s", "speedup"],
                shard_rows,
                title=(
                    f"Sharded kernel: {shard_scaling['disks']}-drive "
                    f"RAID-0, {shard_scaling['requests']} requests, "
                    f"{shard_scaling['interarrival_ms']:g} ms arrivals"
                ),
                float_format="{:.3f}",
            )
        )
        lines.append(
            "sharded figures identical to serial: "
            f"{shard_scaling['figures_identical']}"
        )
        lines.extend(
            f"skipped shards={entry['shards']}: {entry['reason']}"
            + (
                " (figures verified identical)"
                if entry.get("figures_identical")
                else ""
            )
            for entry in shard_scaling["results"]
            if entry.get("skipped")
        )
    overhead = result.get("metrics_overhead")
    if overhead:
        lines.append(
            f"metrics overhead ({overhead['workload']}, "
            f"{overhead['requests']} requests, non-gating): "
            f"{overhead['off_events_per_s']:.0f} events/s off, "
            f"{overhead['on_events_per_s']:.0f} on = "
            f"{overhead['overhead_fraction'] * 100:.1f}% cost; "
            f"metered figures identical: "
            f"{overhead['figures_identical']}"
        )
    lines.extend(
        f"skipped workers={entry['workers']}: {entry['reason']}"
        for entry in skipped
    )
    return "\n".join(lines)


def validate_bench(snapshot: Dict, source: str = "snapshot") -> None:
    """Structural validation of a bench snapshot; raises ``ValueError``.

    Accepts every supported schema version — use :func:`migrate_bench`
    (or :func:`load_bench`, which validates *and* migrates) to
    normalise an older snapshot to the current schema.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"{source}: not a JSON object")
    schema = snapshot.get("schema")
    if schema is None:
        raise ValueError(f"{source}: missing 'schema' field")
    supported = (
        BENCH_SCHEMA,
        BENCH_SCHEMA_V5,
        BENCH_SCHEMA_V4,
        BENCH_SCHEMA_V3,
        BENCH_SCHEMA_V2,
        BENCH_SCHEMA_V1,
    )
    if schema not in supported:
        raise ValueError(
            f"{source}: unsupported schema {schema!r} (expected one "
            f"of {', '.join(supported)})"
        )
    missing = [key for key in REQUIRED_KEYS if key not in snapshot]
    if schema in (
        BENCH_SCHEMA,
        BENCH_SCHEMA_V5,
        BENCH_SCHEMA_V4,
        BENCH_SCHEMA_V3,
    ):
        missing.extend(
            key
            for key in ("workload_results", "kernel")
            if key not in snapshot
        )
    if (
        schema in (BENCH_SCHEMA, BENCH_SCHEMA_V5, BENCH_SCHEMA_V4)
        and "shard_scaling" not in snapshot
    ):
        missing.append("shard_scaling")
    if (
        schema in (BENCH_SCHEMA, BENCH_SCHEMA_V5)
        and "metrics_overhead" not in snapshot
    ):
        missing.append("metrics_overhead")
    if missing:
        raise ValueError(f"{source}: missing keys {missing}")
    if not isinstance(snapshot["results"], list) or not snapshot["results"]:
        raise ValueError(f"{source}: 'results' must be a non-empty list")
    for index, entry in enumerate(snapshot["results"]):
        if "workers" not in entry:
            raise ValueError(
                f"{source}: results[{index}] missing 'workers'"
            )
        if not entry.get("skipped") and "events_per_s" not in entry:
            raise ValueError(
                f"{source}: results[{index}] missing 'events_per_s'"
            )


def migrate_bench(snapshot: Dict) -> Dict:
    """Normalise a snapshot to the current ``repro-bench/6`` schema.

    Migrations chain version by version:

    * **v1 → v2** — the worker cap: v1 happily *timed* worker counts
      above ``cpu_count`` (measuring scheduler contention, not
      parallelism), where v2 records them as skipped entries.
      Migration demotes any oversubscribed timed entry to a skipped
      one — its wall-clock is untrustworthy.
    * **v2 → v3** — the per-workload serial breakdown and the kernel
      microbenchmark.  Neither can be reconstructed from an older
      run, so migrated snapshots carry an empty ``workload_results``
      list and a ``None`` kernel; consumers treat both as "not
      recorded".
    * **v3 → v4** — the sharded-kernel scaling curve.  Older runs
      never executed the sharded kernel, so migrated snapshots carry
      a ``None`` ``shard_scaling``.
    * **v4 → v5** — the metrics-overhead cell.  Older runs never
      timed the live-metrics registry, so migrated snapshots carry a
      ``None`` ``metrics_overhead``.
    * **v5 → v6** — a schema stamp only: the ``scheduler`` cell v6
      added is no longer written, so v6 has the v5 keys.

    The result is stamped with the schema it now satisfies plus the
    schema it ``migrated_from``.  Current-schema snapshots are
    returned as (copies of) themselves.
    """
    validate_bench(snapshot)
    migrated = dict(snapshot)
    original = migrated["schema"]
    if original == BENCH_SCHEMA:
        return migrated
    if migrated["schema"] == BENCH_SCHEMA_V1:
        cpu = migrated.get("cpu_count") or 1
        results = []
        for entry in migrated["results"]:
            if not entry.get("skipped") and entry["workers"] > cpu:
                results.append(
                    {
                        "workers": entry["workers"],
                        "skipped": True,
                        "reason": (
                            f"exceeds cpu_count={cpu} (untrusted v1 "
                            "timing dropped on migration)"
                        ),
                        "timed_as": cpu if cpu > 1 else 1,
                    }
                )
            else:
                results.append(dict(entry))
        migrated["results"] = results
        migrated["schema"] = BENCH_SCHEMA_V2
    if migrated["schema"] == BENCH_SCHEMA_V2:
        migrated["workload_results"] = []
        migrated["kernel"] = None
        migrated["schema"] = BENCH_SCHEMA_V3
    if migrated["schema"] == BENCH_SCHEMA_V3:
        migrated["shard_scaling"] = None
        migrated["schema"] = BENCH_SCHEMA_V4
    if migrated["schema"] == BENCH_SCHEMA_V4:
        migrated["metrics_overhead"] = None
        migrated["schema"] = BENCH_SCHEMA_V5
    if migrated["schema"] == BENCH_SCHEMA_V5:
        migrated["schema"] = BENCH_SCHEMA
    migrated["migrated_from"] = original
    return migrated


def load_bench(path: str) -> Dict:
    """Read, validate and migrate a bench snapshot from ``path``.

    Unknown or missing schemas raise ``ValueError`` (no more silently
    comparing incompatible snapshots); v1-v5 snapshots come back
    migrated to ``repro-bench/6``.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            snapshot = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON: {error}") from None
    validate_bench(snapshot, source=path)
    return migrate_bench(snapshot)


def write_bench(result: Dict, path: Optional[str] = None) -> str:
    """Write the snapshot; returns the path written."""
    if path is None:
        stamp = result["date"].replace("-", "")
        path = f"BENCH_{stamp}.json"
    with open(path, "w", encoding="ascii") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
