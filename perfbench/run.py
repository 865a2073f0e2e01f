"""End-to-end benchmark of the repro simulator and its serve stack.

Run from the repository root::

    python3 perfbench/run.py [--workload all|NAME[,NAME...]] [--seed N]
                             [--seconds S] [--trace 0|1] [--smoke]
                             [--out PATH]

Each workload runs in fresh interpreters, one after another: five
set-up probes (``setup_s``), then one untraced process that alternates
serial and parallel passes for ``--seconds`` and reports the end-to-end
metrics, then -- with ``--trace 1`` -- one process that runs a serial
pass under cProfile for the per-layer ledger.  Every metric is printed
as ``<workload> <metric> <value> <unit>``; the last stdout line is one
JSON object holding the end-to-end metrics (``--trace 0``) or the
per-layer ones (``--trace 1``).  ``--out`` appends the full runs to a
JSON file that ``compare.py`` reads.  The exit code is 1 when any
output check failed, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULT_SCHEMA = "perfbench-runs/1"

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = {False: 5, True: 2}

#: Longest one child process may take before it is killed.
CHILD_TIMEOUT_S = 160.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def _stop(child: subprocess.Popen) -> None:
    """Kill the child's process group (it may have forked workers)."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()


def _child_args(mode, workload, args, workdir):
    return [
        sys.executable,
        str(CHILD),
        mode,
        workload,
        "--workdir",
        workdir,
        "--seed",
        str(args.seed),
    ] + (["--smoke"] if args.smoke else [])


def _child(command) -> dict:
    """Run a child process and return its JSON result."""
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(child)
        raise RuntimeError(f"{command[2]} timed out after {CHILD_TIMEOUT_S} s")
    _stop(child)
    if child.returncode != 0:
        raise RuntimeError(f"{command[2]} exited {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _setup_probe(command) -> float:
    """Reference seconds from launching a fresh interpreter until it is
    ready, calibrated by the loop the probe runs once it is ready."""
    start = time.perf_counter()
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    line = loop = ""
    try:
        ready, _, _ = select.select([child.stdout], [], [], CHILD_TIMEOUT_S)
        if ready:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            # Read the loop time from the same buffered stream: the
            # first readline may already hold both lines.
            loop = child.stdout.readline()
            child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        line = ""
    finally:
        _stop(child)
    if line.strip() != "ready" or not loop.strip() or child.returncode != 0:
        raise RuntimeError("set-up probe did not become ready")
    return calibrate.reference_s([(elapsed, float(loop))])


def run_workload(workload: str, args, pins: dict, workdir: str) -> dict:
    """All processes of one workload; returns its run record."""
    base = os.path.join(workdir, workload)
    os.makedirs(base)
    probes = [
        _setup_probe(_child_args("ready", workload, args, base))
        for _ in range(SETUP_PROBES[args.smoke])
    ]
    if workload == "serve":
        _child(_child_args("fixture", workload, args, base))
    pin_key = workload + (".smoke" if args.smoke else "")
    measure = _child_args("measure", workload, args, base) + [
        "--seconds",
        str(0 if args.smoke else args.seconds),
    ]
    if pins.get(pin_key):
        measure += ["--pin", pins[pin_key]]
    measured = _child(measure)
    metrics = dict(measured["metrics"])
    metrics["setup_s"] = statistics.median(probes)
    attempted, failed = measured["attempted"], measured["failed"]
    errors = list(measured["errors"])
    record = {
        "date": datetime.date.today().isoformat(),
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "digest": measured["digest"],
        "passes": measured["passes"],
        "hits": measured["hits"],
    }
    if args.trace:
        profiled = _child(_child_args("profile", workload, args, base))
        metrics.update(profiled["metrics"])
        metrics["trace.overhead_ratio"] = (
            profiled["wall_s"] / measured["serial_wall_s"]
        )
        attempted += profiled["attempted"] + 1
        failed += profiled["failed"]
        errors += profiled["errors"]
        if profiled["serial_digest"] != measured["serial_digest"]:
            failed += 1
            errors.append("traced pass figures differ from untraced ones")
    record.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        errors=errors,
        metrics=metrics,
    )
    return record


def _declared(manifest: dict, trace: int):
    """(name, unit, group) of every metric a run reports."""
    groups = ["end_to_end"] + (["per_layer"] if trace else [])
    return [
        (metric["name"], metric["unit"], group)
        for group in groups
        for metric in manifest[group]
    ]


def _append_runs(path: str, runs: list) -> None:
    document = {"schema": RESULT_SCHEMA, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("schema") != RESULT_SCHEMA:
            raise SystemExit(f"{path}: not a {RESULT_SCHEMA} file")
    document["runs"].extend(runs)
    document["host"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(temp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro simulator."
    )
    parser.add_argument(
        "--workload",
        default="all",
        help="all, or a comma-separated subset of the workloads in "
        "BENCHMARK.json",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs and two pass pairs; for the harness self-test",
    )
    parser.add_argument("--out", help="append the runs to this JSON file")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    workloads = [workload["name"] for workload in manifest["workloads"]]
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = workloads if args.workload == "all" else args.workload.split(",")
    unknown = sorted(set(names) - set(workloads))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    with open(HERE / "pins.json", encoding="utf-8") as handle:
        pins = json.load(handle)

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        runs = [run_workload(name, args, pins, workdir) for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    declared = _declared(manifest, args.trace)
    reported = {}
    for run in runs:
        for error in run["errors"]:
            print(f"{run['workload']}: FAILED: {error}", file=sys.stderr)
        prefix = "" if len(runs) == 1 else run["workload"] + "/"
        for name, unit, group in declared:
            value = run["metrics"][name]
            print(f"{run['workload']} {name} {value!r} {unit}")
            if group == ("per_layer" if args.trace else "end_to_end"):
                reported[prefix + name] = {"value": value, "unit": unit}
        print(
            f"{run['workload']} failed_fraction "
            f"{run['failed'] / run['attempted']!r} ratio"
        )
    if args.out:
        _append_runs(args.out, runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
