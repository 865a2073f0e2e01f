"""``repro.obs`` — request-lifecycle tracing and telemetry.

The observability subsystem makes the paper's analytical decomposition
of response time (queue vs. seek vs. rotational latency vs. transfer,
§7.1–§7.2) directly visible from a single run instead of being
inferred from aggregate histograms after the fact.

Five pieces:

* :class:`~repro.obs.tracer.Tracer` — a low-overhead span recorder
  with per-request, per-drive and per-arm attribution.  The default
  everywhere is the zero-cost :class:`~repro.obs.tracer.NullTracer`,
  so untraced runs execute the exact same arithmetic (figures are
  bit-identical with tracing on or off).
* :class:`~repro.obs.registry.TelemetryRegistry` — counters, gauges
  and distribution collectors built on
  :class:`~repro.sim.stats.OnlineStats` /
  :class:`~repro.sim.stats.BucketHistogram`, mergeable across worker
  processes.
* :class:`~repro.obs.metrics.MetricsRegistry` — *live* operational
  metrics (Prometheus-style counters / gauges / fixed-bucket
  histograms with labeled families), a zero-cost
  :data:`~repro.obs.metrics.NULL_METRICS` default, text-exposition
  and JSONL exporters, and atomic per-worker snapshot files merged
  across serve processes (``python -m repro metrics [--watch]``).
* Exporters — Chrome trace-event / Perfetto JSON
  (:func:`~repro.obs.export.write_chrome_trace`) and a JSONL span log
  (:func:`~repro.obs.export.write_span_jsonl`), so a limit-study run
  opens in ``ui.perfetto.dev`` with drives as processes and arms as
  tracks.
* Analytics — :func:`~repro.obs.analysis.analyze` turns a recorded
  span stream into utilization, queue-depth timelines, per-request
  phase breakdowns and bottleneck attribution, with an exact (zero
  tolerance) reconciliation against the metrics pipeline;
  :mod:`repro.obs.report` renders it as text or self-contained HTML
  (``python -m repro report``).

See ``docs/observability.md`` for the span schema and a walkthrough.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.obs.analysis": (
            "TraceAnalysis",
            "analyze",
            "reconcile_with_collector",
        ),
        "repro.obs.export": (
            "read_chrome_trace",
            "to_chrome_trace",
            "validate_chrome_trace",
            "write_chrome_trace",
            "write_span_jsonl",
        ),
        "repro.obs.metrics": (
            "NULL_METRICS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "NullMetrics",
            "append_snapshot_jsonl",
            "current_metrics",
            "merge_worker_snapshots",
            "metrics_for",
            "metrics_session",
            "parse_prometheus",
            "render_prometheus",
            "set_current_metrics",
            "write_prometheus",
            "write_worker_snapshot",
        ),
        "repro.obs.registry": ("NULL_REGISTRY", "TelemetryRegistry"),
        "repro.obs.report": (
            "render_html",
            "render_text",
            "write_html_report",
        ),
        "repro.obs.tracer": (
            "NULL_TRACER",
            "PHASES",
            "NullTracer",
            "Span",
            "Tracer",
            "current_tracer",
            "set_current_tracer",
            "tracer_for",
            "tracing",
        ),
    },
)

__all__ = [
    "NULL_METRICS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NullTracer",
    "Span",
    "Tracer",
    "TelemetryRegistry",
    "TraceAnalysis",
    "analyze",
    "append_snapshot_jsonl",
    "current_metrics",
    "current_tracer",
    "merge_worker_snapshots",
    "metrics_for",
    "metrics_session",
    "parse_prometheus",
    "read_chrome_trace",
    "reconcile_with_collector",
    "render_html",
    "render_prometheus",
    "render_text",
    "set_current_metrics",
    "set_current_tracer",
    "to_chrome_trace",
    "tracer_for",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_html_report",
    "write_prometheus",
    "write_span_jsonl",
    "write_worker_snapshot",
]
