"""Simulation-as-a-service: a persistent job queue over the simulator.

The paper's "serve heavy traffic" story for this repo: clients submit
simulation jobs (``python -m repro submit``), N worker processes drain
a crash-safe on-disk queue (``python -m repro serve``), and results
land in a content-addressed cache keyed by ``(config digest, trace
digest, code version)`` — so a duplicate submission costs one cache
read, not one simulation, and returns byte-identical payloads.

* :mod:`repro.serve.jobs` — the job spec, its digests, and the job
  runner (replays in-memory workload traces or streamed trace files).
* :mod:`repro.serve.queue` — the persistent queue: atomic claim/ack
  via rename, lease-based crash-safe requeue, checksummed records
  with a ``corrupt/`` quarantine for torn files.
* :mod:`repro.serve.cache` — the content-addressed result store.
* :mod:`repro.serve.retry` — deterministic-jitter client backoff.
* :mod:`repro.serve.service` — worker loop (graceful SIGTERM drain),
  supervised multi-process ``serve``, and the submit/status/result
  client calls the CLI wraps.
"""

from repro import _lazy_namespace

__getattr__, __dir__ = _lazy_namespace(
    globals(),
    {
        "repro.serve.cache": ("ResultCache",),
        "repro.serve.jobs": (
            "JobSpec",
            "cache_key",
            "code_version",
            "run_job",
            "verify_result_payload",
        ),
        "repro.serve.queue": ("JobQueue",),
        "repro.serve.retry": ("backoff_delays", "call_with_retries"),
        "repro.serve.service": (
            "GracefulShutdown",
            "result",
            "serve",
            "status",
            "submit",
            "worker_loop",
        ),
    },
)

__all__ = [
    "GracefulShutdown",
    "JobQueue",
    "JobSpec",
    "ResultCache",
    "backoff_delays",
    "cache_key",
    "call_with_retries",
    "code_version",
    "result",
    "run_job",
    "serve",
    "status",
    "submit",
    "verify_result_payload",
    "worker_loop",
]
