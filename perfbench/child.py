"""Run one workload in a fresh interpreter; ``run.py`` starts this.

Modes (each prints one JSON object as its last stdout line, except
``ready``, which prints ``ready`` when set-up is done and then the
seconds of one calibration loop)::

    child.py ready   WORKLOAD --workdir DIR
    child.py fixture serve    --workdir DIR --seed N [--smoke]
    child.py measure WORKLOAD --workdir DIR --seed N --seconds S
                      [--smoke] [--pin DIGEST]
    child.py profile WORKLOAD --workdir DIR --seed N [--smoke]

``measure`` alternates untraced serial and parallel passes for
``--seconds`` after one warm-up pass, checks every pass's figures, and
reports medians.  ``profile`` runs one warm-up and one serial pass
under cProfile and reports the per-layer ledger.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import statistics
import sys
import time
import traceback

import calibrate
import ledger
import loads

#: Serial/parallel pairs a measure run always completes.
MIN_PAIRS = {False: 3, True: 2}

#: Per-layer metric that carries a workload's serial/parallel ratio.
SPEEDUP_METRIC = {
    "limit": "experiments.sweep_speedup",
    "multi-arm": "experiments.sweep_speedup",
    "raid0": "sim.sharded.speedup",
}

def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _p99(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100)[98]


def measure(args) -> dict:
    workload = loads.make(args.workload, args.seed, args.smoke, args.workdir)
    # Sim workloads replay the same jobs in both kinds of pass, so the
    # parallel figures must equal the serial ones; serve's batch is a
    # different job set with a reference of its own.
    paired = args.workload != "serve"
    attempted = failed = 0
    errors = []

    def tally(run):
        nonlocal attempted, failed
        attempted += 1 + run.attempted
        failed += run.failed
        errors.extend(run.errors)

    tally(workload.warmup())
    passes = {"serial": [], "parallel": []}
    reference = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        for kind in passes:
            try:
                run = workload.run(kind, calibrate.loop_s)
            except Exception:  # noqa: BLE001 - a failed pass is counted
                attempted += 1
                failed += 1
                errors.append(f"{kind} pass raised:\n{traceback.format_exc()}")
                continue
            tally(run)
            expected = reference.setdefault(
                "serial" if paired else kind, run.figures
            )
            if run.figures != expected:
                failed += 1
                errors.append(f"{kind} pass figures differ from the first")
            passes[kind].append(run)
        elapsed = time.perf_counter() - start
        if rounds >= MIN_PAIRS[args.smoke] and (
            elapsed * (rounds + 1) / rounds > args.seconds
        ):
            break
        if elapsed > 120.0:
            # Keeps a slow host inside the 180 s a run may take.
            break
    serial, parallel = passes["serial"], passes["parallel"]
    if not serial or not parallel:
        raise RuntimeError("no pass completed:\n" + "\n".join(errors))

    figures = {
        "serial": reference["serial"],
        "parallel": reference.get("parallel", reference["serial"]),
    }
    run_digest = loads.digest(figures)
    if args.seed == 0:
        attempted += 1
        if run_digest != args.pin:
            failed += 1
            errors.append(
                f"figures digest {run_digest} != pinned {args.pin}"
            )

    hits_ms = [sum(phases) for run in serial for phases in run.hit_phases]
    phases = list(zip(*(p for run in serial for p in run.hit_phases)))
    loops = [loop for run in serial + parallel for _, loop in run.units]
    metrics = {
        "requests_per_s": _median(
            [run.requests / calibrate.reference_s(run.units) for run in serial]
        ),
        "job_p50_ms": _median(
            [
                calibrate.reference_s([job]) * 1000.0
                for run in serial
                for job in run.jobs
            ]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "workloads.generate_s": _median(
            [run.timers.get("generate_s", 0.0) for run in serial]
        ),
        "experiments.build_s": _median(
            [run.timers.get("build_s", 0.0) for run in serial]
        ),
        "experiments.run_trace_s": _median(
            [run.timers.get("run_trace_s", 0.0) for run in serial]
        ),
        "serve.submit_ms": _median(phases[0] if phases else []),
        "serve.worker_ms": _median(phases[1] if phases else []),
        "serve.result_ms": _median(phases[2] if phases else []),
        "serve.hit_p50_ms": _median(hits_ms),
        "serve.hit_p99_ms": _p99(hits_ms),
        "parallel_requests_per_s": _median(
            [run.requests / run.wall_s for run in parallel]
        ),
        "host.calibration_ms": _median(loops) * 1000.0,
        "experiments.sweep_speedup": 0.0,
        "sim.sharded.speedup": 0.0,
    }
    if args.workload in SPEEDUP_METRIC:
        metrics[SPEEDUP_METRIC[args.workload]] = _median(
            [s.wall_s / p.wall_s for s, p in zip(serial, parallel)]
        )
    for name in ledger.COUNTS:
        metrics[name] = serial[0].counts.get(name, 0.0)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": run_digest,
        "serial_digest": loads.digest(reference["serial"]),
        "serial_wall_s": _median([run.wall_s for run in serial]),
        "passes": {kind: len(runs) for kind, runs in passes.items()},
        "hits": len(hits_ms),
        "metrics": metrics,
    }


def profile(args) -> dict:
    import repro

    workload = loads.make(args.workload, args.seed, args.smoke, args.workdir)
    warm = workload.warmup()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run = workload.run("serial", loads.no_probe)
    profiler.disable()
    wall = time.perf_counter() - start
    split = ledger.attribute(
        pstats.Stats(profiler).stats, os.path.dirname(repro.__file__)
    )
    total = sum(entry["self_s"] for entry in split.values())
    metrics = {}
    for layer in ledger.LAYERS + ("other",):
        metrics[f"{layer}.self_frac"] = split[layer]["self_s"] / total
    for layer in ledger.LAYERS:
        metrics[f"{layer}.calls_per_request"] = (
            split[layer]["calls"] / run.ops
        )
    return {
        "attempted": 2 + warm.attempted + run.attempted,
        "failed": warm.failed + run.failed,
        "errors": warm.errors + run.errors,
        "serial_digest": loads.digest(run.figures),
        "wall_s": wall,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "mode", choices=("ready", "fixture", "measure", "profile")
    )
    parser.add_argument("workload", choices=loads.WORKLOADS)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin")
    args = parser.parse_args(argv)
    if args.mode == "ready":
        loads.set_up(args.workload, args.workdir)
        print("ready", flush=True)
        print(calibrate.loop_s(), flush=True)
        return 0
    if args.mode == "fixture":
        result = {"path": loads.write_serve_trace(
            args.workdir, args.seed, args.smoke
        )}
    elif args.mode == "measure":
        result = measure(args)
    else:
        result = profile(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
