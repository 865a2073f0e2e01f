#!/usr/bin/env python
"""Trace the paper's limit study and export a Perfetto-ready trace.

Runs a scaled-down Figure 2 limit study (MD vs HC-SD on every
commercial workload) plus one multi-actuator HC-SD-SA(4) pass under an
ambient tracer, prints the recorded spans and the telemetry registry
(Prometheus text exposition), and writes Chrome trace-event JSON.  Drop the output on
https://ui.perfetto.dev to scrub the run: each drive is a process row,
each arm assembly a thread track, and every request decomposes into
queue / seek / rotation / transfer spans.

Tracing changes nothing: the script re-runs the study untraced and
shows the figure digests matching bit for bit.

Run:  python examples/trace_limit_study.py [requests]
"""

import sys

from repro.obs import (
    render_prometheus,
    to_chrome_trace,
    tracing,
    validate_chrome_trace,
)
from repro.obs.export import write_chrome_trace
from repro.obs.run import figures_digest, limit_study_figures
from repro.experiments.limit_study import run_limit_study

OUT = "limit_study_trace.json"


def main():
    requests = int(sys.argv[1]) if len(sys.argv) > 1 else 800

    with tracing() as tracer:
        results = run_limit_study(requests=requests)

    # -- what the tracer saw ------------------------------------------
    by_cat = ", ".join(
        f"{cat}={count}"
        for cat, count in sorted(tracer.spans_by_category().items())
    )
    print(f"spans recorded: {len(tracer.spans)} ({by_cat})")
    print(f"tracks: {len(tracer.tracks())} (process, thread) pairs")
    print()
    print(render_prometheus(tracer.telemetry))

    # -- determinism check: tracing changed no figure bit -------------
    traced_digest = figures_digest(limit_study_figures(results))
    untraced = run_limit_study(requests=requests)
    untraced_digest = figures_digest(limit_study_figures(untraced))
    match = "MATCH" if traced_digest == untraced_digest else "MISMATCH"
    print(f"figures sha256 traced:   {traced_digest}")
    print(f"figures sha256 untraced: {untraced_digest}  -> {match}")

    # -- export -------------------------------------------------------
    problems = validate_chrome_trace(to_chrome_trace(tracer))
    assert not problems, problems
    path = write_chrome_trace(tracer, OUT)
    print(f"\nwrote {path} — open it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
