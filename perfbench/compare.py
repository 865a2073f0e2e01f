"""Compare two sets of benchmark runs metric by metric.

    python3 perfbench/compare.py A.json B.json [--write SNAPSHOT.json]
    python3 perfbench/compare.py SNAPSHOT.json

``A.json`` and ``B.json`` are files ``run.py --out`` appended runs to
(A is the baseline); a snapshot written by ``--write`` holds both sets.
For every workload and end-to-end metric of ``BENCHMARK.json`` the tool
prints each set's median and quartiles and a verdict:

* ``unresolved`` -- either set's quartile spread, as a share of its
  median, exceeds the metric's bound, and B's runs do not all read
  better than all of A's;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``same`` -- otherwise (an improvement is also ``same``).

It also checks that the deterministic per-layer counts are identical
between runs of the same workload and seed.  The exit code is 1 when
any verdict is not ``same`` or any count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from ledger import COUNTS

ROOT = Path(__file__).resolve().parent.parent
RUNS_SCHEMA = "perfbench-runs/1"
SNAPSHOT_SCHEMA = "perfbench-snapshot/1"


def deterministic(workload: str, metric: str) -> bool:
    """Whether ``metric`` must repeat exactly on ``workload``.

    Call counts repeat on the simulation workloads only: serve workers
    poll and write heartbeats on wall-clock intervals, so their call
    counts vary with timing.
    """
    if metric in COUNTS:
        return True
    return metric.endswith(".calls_per_request") and workload != "serve"


def load_sets(paths):
    """The run lists of the given files: two runs files or one snapshot."""
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        schema = document.get("schema")
        if schema == SNAPSHOT_SCHEMA:
            sets.extend(document["sets"])
        elif schema == RUNS_SCHEMA:
            sets.append(document)
        else:
            raise SystemExit(f"{path}: unknown schema {schema!r}")
    if len(sets) != 2:
        raise SystemExit(f"need exactly two sets of runs, got {len(sets)}")
    return sets


def summary(values):
    """(median, q1, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a, b, better: str, bound: float) -> str:
    median_a, q1_a, q3_a = summary(a)
    median_b, q1_b, q3_b = summary(b)
    spread = max((q3_a - q1_a) / median_a, (q3_b - q1_b) / median_b)
    if better == "lower":
        worse_by = (median_b - median_a) / median_a
        always_better = max(b) < min(a)
    else:
        worse_by = (median_a - median_b) / median_a
        always_better = min(b) > max(a)
    if spread > bound and not always_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "same"


def compare(sets, manifest):
    """Verdict rows and count mismatches for two sets of runs."""
    runs_a, runs_b = sets[0]["runs"], sets[1]["runs"]
    workloads = [w["name"] for w in manifest["workloads"]]
    rows = []
    for workload in workloads:
        a_runs = [run for run in runs_a if run["workload"] == workload]
        b_runs = [run for run in runs_b if run["workload"] == workload]
        if not a_runs or not b_runs:
            continue
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name] for run in a_runs]
            b = [run["metrics"][name] for run in b_runs]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": summary(a),
                    "b": summary(b),
                    "runs": [len(a), len(b)],
                    "verdict": verdict(
                        a, b, metric["better"], metric["bound"]
                    ),
                }
            )
    mismatches = []
    per_layer = [metric["name"] for metric in manifest["per_layer"]]
    for run_a in runs_a:
        for run_b in runs_b:
            if (run_a["workload"], run_a["seed"], run_a["smoke"]) != (
                run_b["workload"],
                run_b["seed"],
                run_b["smoke"],
            ):
                continue
            for name in per_layer:
                if not deterministic(run_a["workload"], name):
                    continue
                value_a = run_a["metrics"].get(name)
                value_b = run_b["metrics"].get(name)
                if value_a is not None and value_b is not None and (
                    value_a != value_b
                ):
                    mismatches.append(
                        f"{run_a['workload']} seed {run_a['seed']} {name}: "
                        f"{value_a!r} != {value_b!r}"
                    )
    return rows, mismatches


def _format(row) -> str:
    def cell(stats):
        median, q1, q3 = stats
        return f"{median:12.4f} [{q1:.4f}, {q3:.4f}]"

    change = (row["b"][0] - row["a"][0]) / row["a"][0] * 100.0
    return (
        f"{row['workload']:10s} {row['metric']:24s} {cell(row['a'])}  "
        f"{cell(row['b'])}  {change:+7.2f}%  "
        f"(bound {row['bound'] * 100:.0f}%) {row['verdict']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of perfbench runs."
    )
    parser.add_argument(
        "files", nargs="+", help="A.json B.json, or a snapshot"
    )
    parser.add_argument(
        "--write", help="write both sets and the verdicts to this snapshot"
    )
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    sets = load_sets(args.files)
    rows, mismatches = compare(sets, manifest)
    print(
        f"{'workload':10s} {'metric':24s} {'A median [q1, q3]':>33s}  "
        f"{'B median [q1, q3]':>33s}  change  verdict"
    )
    for row in rows:
        print(_format(row))
    for mismatch in mismatches:
        print(f"count differs: {mismatch}")
    print(
        "deterministic counts identical"
        if not mismatches
        else f"{len(mismatches)} deterministic counts differ"
    )
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "schema": SNAPSHOT_SCHEMA,
                    "sets": sets,
                    "comparison": rows,
                    "count_mismatches": mismatches,
                },
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")
    ok = not mismatches and all(row["verdict"] == "same" for row in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
