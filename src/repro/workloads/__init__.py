"""Workload substrate: traces and generators.

* :mod:`repro.workloads.trace` — the in-memory trace container plus an
  ASCII on-disk format compatible in spirit with DiskSim's
  (transparently gzip-compressed for ``.gz`` paths).
* :mod:`repro.workloads.formats` — SPC-1 and blktrace readers, format
  detection, and the streaming ``convert``/``stat`` tools.
* :mod:`repro.workloads.streaming` — :class:`StreamingTrace`, the
  bounded-memory generator-backed trace for replaying files larger
  than RAM.
* :mod:`repro.workloads.synthetic` — the DiskSim-style synthetic
  generator used by the paper's §7.3 study (exponential inter-arrival;
  60 % reads, 20 % sequential).
* :mod:`repro.workloads.commercial` — seeded models of the four
  commercial traces (Financial, Websearch, TPC-C, TPC-H) calibrated to
  the published characteristics of Table 2.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.workloads.analysis": ("TraceProfile", "profile_trace"),
        "repro.workloads.closedloop": (
            "ClosedLoopClients",
            "ClosedLoopResult",
        ),
        "repro.workloads.commercial": (
            "COMMERCIAL_WORKLOADS",
            "CommercialWorkload",
            "FINANCIAL",
            "TPCC",
            "TPCH",
            "WEBSEARCH",
        ),
        "repro.workloads.formats": (
            "TRACE_FORMATS",
            "convert_trace",
            "detect_trace_format",
            "iter_trace_requests",
            "stat_trace",
            "write_trace_requests",
        ),
        "repro.workloads.streaming": ("StreamingTrace",),
        "repro.workloads.synthetic": ("SyntheticWorkload",),
        "repro.workloads.trace": (
            "Trace",
            "load_trace",
            "open_trace_text",
            "save_trace",
        ),
    },
)

__all__ = [
    "COMMERCIAL_WORKLOADS",
    "ClosedLoopClients",
    "ClosedLoopResult",
    "CommercialWorkload",
    "FINANCIAL",
    "StreamingTrace",
    "SyntheticWorkload",
    "TPCC",
    "TPCH",
    "TRACE_FORMATS",
    "Trace",
    "TraceProfile",
    "convert_trace",
    "detect_trace_format",
    "iter_trace_requests",
    "load_trace",
    "open_trace_text",
    "profile_trace",
    "save_trace",
    "stat_trace",
    "write_trace_requests",
    "WEBSEARCH",
]
