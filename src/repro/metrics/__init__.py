"""Measurement and reporting layer.

* :mod:`repro.metrics.collector` — attachable per-request collectors
  (response times, rotational latencies, percentiles).
* :mod:`repro.metrics.cdf` — the paper's response-time CDF buckets
  (5 … 200, 200+ ms) and rotational-latency PDF buckets (1 … 11 ms).
* :mod:`repro.metrics.report` — plain-text tables and bar charts for
  the artifact commands and the scorecard.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.metrics.cdf": (
            "RESPONSE_TIME_EDGES_MS",
            "ROTATIONAL_LATENCY_EDGES_MS",
            "response_time_cdf",
            "rotational_latency_pdf",
        ),
        "repro.metrics.collector": ("RequestCollector",),
        "repro.metrics.report": ("format_cdf_table", "format_table", "hbar"),
    },
)

__all__ = [
    "RESPONSE_TIME_EDGES_MS",
    "ROTATIONAL_LATENCY_EDGES_MS",
    "RequestCollector",
    "format_cdf_table",
    "format_table",
    "hbar",
    "response_time_cdf",
    "rotational_latency_pdf",
]
