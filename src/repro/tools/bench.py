"""Results gate for the simulator: ``python -m repro bench``.

``python -m repro bench`` replays a fixed-seed reference workload — the
Figure 2 limit study (MD and HC-SD runs for every commercial workload)
— and writes a ``BENCH_<date>.json`` snapshot of the engine event count
and a digest of the figures.  ``bench --check BASELINE.json`` replays
exactly the baseline's requests and workloads and fails unless both
match.  The simulation is deterministic across hosts, Python versions
and worker counts, so a mismatch means the simulator's output changed.
Nothing here is timed: ``perfbench/`` measures speed.

The JSON schema (``repro-bench/6``)::

    {
      "schema": "repro-bench/6",
      "date": "2026-08-08",
      "requests": 6000,
      "workloads": ["financial", "websearch", "tpcc", "tpch"],
      "events": 203976,          # engine events per full pass
      "figures_sha256": "..."    # digest of the per-run figures
    }

Snapshots written while the bench still timed itself carry more keys
(``results``, ``kernel``, ``shard_scaling``, ...); the loader ignores
every key the gate does not read.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import re
from typing import Dict, List, Optional, Sequence

from repro.experiments.configs import build_hcsd_system, build_md_system
from repro.experiments.executor import Job, sweep
from repro.experiments.runner import run_trace
from repro.sim.engine import Environment
from repro.workloads.commercial import COMMERCIAL_WORKLOADS

__all__ = [
    "check_bench",
    "format_bench",
    "load_bench",
    "run_bench",
    "validate_bench",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench/6"

#: The snapshot fields the gate reads; loading ignores every other key.
GATED_KEYS = ("schema", "requests", "workloads", "events", "figures_sha256")

_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


def _bench_job(workload_name: str, requests: int) -> Dict:
    """One limit-study workload pass.

    Returns the engine event count and a figure tuple (mean, p90,
    total power for MD and HC-SD) — what the gate digests.
    """
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _problem(key: str, value) -> Optional[str]:
    """Why ``value`` cannot be the gated field ``key``, or ``None``."""
    if key == "schema":
        if value != BENCH_SCHEMA:
            return f"'schema' must be {BENCH_SCHEMA!r}"
    elif key == "requests":
        if not _is_int(value) or value < 1:
            return "'requests' must be an integer >= 1"
    elif key == "events":
        if not _is_int(value) or value < 0:
            return "'events' must be an integer >= 0"
    elif key == "workloads":
        if (
            not isinstance(value, list)
            or not value
            or not all(
                isinstance(name, str) and name in COMMERCIAL_WORKLOADS
                for name in value
            )
        ):
            return (
                "'workloads' must be a non-empty list of "
                f"{sorted(COMMERCIAL_WORKLOADS)}"
            )
    elif key == "figures_sha256":
        if not isinstance(value, str) or not _SHA256_HEX.fullmatch(value):
            return "'figures_sha256' must be 64 lowercase hex digits"
    return None


def _selected(
    requests: int, workloads: Optional[Sequence[str]]
) -> List[str]:
    """The workloads a pass replays (default all); raises ``ValueError``."""
    selected = list(workloads or COMMERCIAL_WORKLOADS)
    for key, value in (("requests", requests), ("workloads", selected)):
        problem = _problem(key, value)
        if problem:
            raise ValueError(f"{problem}, got {value!r}")
    return selected


def run_bench(
    requests: int = 6000,
    workloads: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> Dict:
    """Replay the reference workload; returns the ``repro-bench/6`` dict.

    The figures are identical for any ``workers`` count, so a
    multi-worker run checks the process-pool executor against the same
    digest.
    """
    selected = _selected(requests, workloads)
    outcomes = sweep(_jobs(selected, requests), n_workers=workers)
    return {
        "schema": BENCH_SCHEMA,
        "date": datetime.date.today().isoformat(),
        "requests": requests,
        "workloads": selected,
        "events": sum(outcome["events"] for outcome in outcomes),
        "figures_sha256": _figures_digest(outcomes),
    }


def format_bench(result: Dict) -> str:
    """Plain-text summary of a :func:`run_bench` result."""
    return "\n".join(
        [
            f"Bench: {result['requests']} requests x "
            f"{len(result['workloads'])} workloads (MD + HC-SD): "
            f"{', '.join(result['workloads'])}",
            f"engine events per pass: {result['events']}",
            f"figures sha256: {result['figures_sha256']}",
        ]
    )


def validate_bench(snapshot, source: str = "snapshot") -> None:
    """Check the :data:`GATED_KEYS` of ``snapshot``; raises ``ValueError``."""
    if not isinstance(snapshot, dict):
        raise ValueError(f"{source}: not a JSON object")
    for key in GATED_KEYS:
        if key not in snapshot:
            raise ValueError(f"{source}: missing {key!r}")
        problem = _problem(key, snapshot[key])
        if problem:
            raise ValueError(f"{source}: {problem}")


def load_bench(path: str) -> Dict:
    """Read and validate a bench snapshot from ``path``.

    Raises ``OSError`` when the file cannot be read and ``ValueError``,
    naming ``path``, for anything wrong with its contents.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        snapshot = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as error:  # includes UnicodeDecodeError
        raise ValueError(f"{path}: not valid UTF-8 JSON: {error}") from None
    validate_bench(snapshot, source=path)
    return snapshot


def check_bench(baseline: Dict, current: Dict) -> List[str]:
    """Problems that make ``current`` differ from ``baseline``.

    Both must be valid snapshots.  An empty list means the replay
    reproduced the baseline's figures and event count exactly.
    """
    replayed = ("requests", "workloads")
    if any(baseline[key] != current[key] for key in replayed):
        return [
            f"replayed {current['requests']} requests over "
            f"{current['workloads']}, but the baseline recorded "
            f"{baseline['requests']} over {baseline['workloads']}"
        ]
    problems = []
    if baseline["figures_sha256"] != current["figures_sha256"]:
        problems.append(
            "figure digest mismatch: baseline "
            f"{baseline['figures_sha256'][:12]}… vs current "
            f"{current['figures_sha256'][:12]}… — simulation output "
            "changed"
        )
    if baseline["events"] != current["events"]:
        problems.append(
            f"engine event count changed: baseline {baseline['events']} "
            f"vs current {current['events']}"
        )
    return problems


def write_bench(result: Dict, path: Optional[str] = None) -> str:
    """Write the snapshot; returns the path written."""
    if path is None:
        stamp = result["date"].replace("-", "")
        path = f"BENCH_{stamp}.json"
    with open(path, "w", encoding="ascii") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
