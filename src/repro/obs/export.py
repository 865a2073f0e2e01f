"""Trace exporters: Chrome trace-event (Perfetto) JSON and JSONL.

The Chrome trace-event format is the JSON array/object schema consumed
by ``chrome://tracing`` and https://ui.perfetto.dev: complete spans are
``"ph": "X"`` events with microsecond ``ts``/``dur``, instants are
``"ph": "i"``, and ``"ph": "M"`` metadata events give processes and
threads their names.  This exporter maps a span's ``(process, thread)``
track onto ``(pid, tid)``, so drives appear as processes and arm
assemblies as named threads — exactly the paper's per-arm view.

The JSONL exporter writes one self-describing JSON object per line
(schema ``repro-span/1``) for ad-hoc analysis with ``jq``/pandas.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = [
    "SPAN_JSONL_SCHEMA",
    "read_chrome_trace",
    "to_chrome_trace",
    "to_span_records",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_span_jsonl",
]

SPAN_JSONL_SCHEMA = "repro-span/1"

#: Simulated time is milliseconds; trace-event ``ts``/``dur`` are µs.
_US_PER_MS = 1000.0


def _track_ids(spans) -> Tuple[Dict[str, int], Dict[Tuple[str, str], int]]:
    """Deterministic pid/tid assignment, in first-seen span order."""
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    for span in spans:
        process, thread = span.track
        if process not in pids:
            pids[process] = len(pids) + 1
        if (process, thread) not in tids:
            tids[(process, thread)] = len(tids) + 1
    return pids, tids


def to_chrome_trace(tracer) -> Dict:
    """Build the trace-event JSON object for ``tracer``'s spans.

    Returns the ``{"traceEvents": [...], ...}`` object form (the
    variant that allows top-level metadata).
    """
    spans = tracer.spans
    pids, tids = _track_ids(spans)
    events: List[Dict] = []
    for process, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
    for (process, thread), tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pids[process],
                "tid": tid,
                "args": {"name": thread},
            }
        )
    for span in spans:
        process, thread = span.track
        event = {
            "name": span.name,
            "cat": span.cat,
            "pid": pids[process],
            "tid": tids[(process, thread)],
            "ts": span.ts * _US_PER_MS,
        }
        if span.dur is None:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = span.dur * _US_PER_MS
        if span.args:
            event["args"] = span.args
        events.append(event)
    trace = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "telemetry": tracer.telemetry.snapshot(),
            "dropped_spans": tracer.dropped_spans,
        },
    }
    return trace


def write_chrome_trace(tracer, path: str) -> str:
    """Write the Chrome trace-event JSON; returns the path written."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(tracer), handle, separators=(",", ":"))
        handle.write("\n")
    return path


def validate_chrome_trace(trace: Dict) -> List[str]:
    """Structural validation; returns a list of problems (empty = valid).

    Checks the invariants Perfetto's importer relies on: the
    ``traceEvents`` list, per-event phase codes, numeric ``ts``,
    ``dur`` on every complete (``X``) event, and a named track on
    every ``process_name``/``thread_name`` metadata event.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "i", "M", "C"):
            problems.append(f"{where}: unsupported ph {phase!r}")
            continue
        if "name" not in event:
            problems.append(f"{where}: missing name")
        if phase == "M":
            if event.get("name") in ("process_name", "thread_name") and not (
                isinstance(event.get("args"), dict)
                and isinstance(event["args"].get("name"), str)
                and isinstance(event.get("pid"), int)
                and isinstance(event.get("tid"), int)
            ):
                problems.append(
                    f"{where}: {event['name']} needs int pid and tid and "
                    "a string args.name"
                )
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} missing or not an int")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: ts missing or not numeric")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
    return problems


def read_chrome_trace(path: str):
    """Load an exported Chrome trace back into a :class:`Tracer`.

    The inverse of :func:`write_chrome_trace`, for post-hoc analysis
    (``python -m repro report --from-trace``): metadata events restore
    the ``(process, thread)`` track names, ``X``/``i`` events become
    spans/instants, and the embedded telemetry snapshot is merged into
    the tracer's registry.  A file that is not a valid export raises
    ``ValueError("<path>: …")``.

    Round-trip caveat: exported timestamps are ms × 1000 (trace-event
    µs), so reloaded ``ts``/``dur`` values can differ from the
    originals in the last float bit — analyses of a *loaded* trace
    should reconcile with a small tolerance rather than exactly.
    """
    from repro.obs.tracer import Span, Tracer

    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    problems = validate_chrome_trace(trace)
    if problems:
        raise ValueError(
            f"{path}: not a valid repro trace export: {problems[:3]}"
        )
    processes: Dict[int, str] = {}
    threads: Dict[Tuple[int, int], str] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") != "M":
            continue
        if event["name"] == "process_name":
            processes[event["pid"]] = event["args"]["name"]
        elif event["name"] == "thread_name":
            threads[(event["pid"], event["tid"])] = event["args"]["name"]
    other = trace.get("otherData", {})
    if not isinstance(other, dict):
        raise ValueError(f"{path}: otherData is not an object")
    dropped = other.get("dropped_spans", 0)
    if type(dropped) is not int or dropped < 0:
        raise ValueError(f"{path}: otherData.dropped_spans is not an int >= 0")
    tracer = Tracer()
    if "telemetry" in other:
        try:
            tracer.telemetry.merge_snapshot(other["telemetry"])
        except ValueError as error:
            raise ValueError(f"{path}: telemetry: {error}") from None
    tracer.dropped_spans = dropped
    for event in trace["traceEvents"]:
        phase = event.get("ph")
        if phase not in ("X", "i"):
            continue
        pid, tid = event["pid"], event["tid"]
        track = (
            processes.get(pid, f"process {pid}"),
            threads.get((pid, tid), f"thread {tid}"),
        )
        span = Span(
            event["name"],
            event.get("cat", "instant"),
            event["ts"] / _US_PER_MS,
            event["dur"] / _US_PER_MS if phase == "X" else None,
            track,
            event.get("args"),
        )
        tracer.spans.append(span)
    return tracer


def to_span_records(tracer) -> List[Dict]:
    """Spans as flat JSONL-ready records (schema ``repro-span/1``)."""
    records = []
    for span in tracer.spans:
        record = {
            "schema": SPAN_JSONL_SCHEMA,
            "name": span.name,
            "cat": span.cat,
            "ts_ms": span.ts,
            "dur_ms": span.dur,
            "process": span.track[0],
            "thread": span.track[1],
        }
        if span.args:
            record["args"] = span.args
        records.append(record)
    return records


def write_span_jsonl(tracer, path: str) -> str:
    """Write one JSON object per span; returns the path written."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in to_span_records(tracer):
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
    return path
