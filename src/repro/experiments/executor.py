"""Process-parallel fan-out for independent simulation jobs.

Every experiment in this reproduction replays traces against many
independent (workload × configuration) pairs; each pair owns its own
:class:`~repro.sim.engine.Environment` and seeded RNG, so the jobs are
embarrassingly parallel.  :func:`sweep` is the shared fan-out point:
the experiment drivers describe their runs as :class:`Job` records and
receive results in job order, whatever the worker count.

Determinism guarantee
---------------------
``sweep`` returns *bit-identical* results for any ``n_workers``:

* results are collected with ``ProcessPoolExecutor.map``, which
  preserves submission order;
* each job regenerates its own trace from a fixed seed and builds a
  fresh environment inside the worker, so no state crosses jobs;
* jobs that cannot be pickled (e.g. closures over debug hooks) fall
  back to the deterministic in-process path with a warning rather than
  failing or changing semantics.

``n_workers=1`` (the default everywhere) never spawns processes, so
single-worker behaviour — including breakpoints, monkeypatching and
ad-hoc instrumentation inside job functions — is exactly the plain
serial call.

Observability
-------------
When an ambient tracer (:func:`repro.obs.tracing`) or an ambient
metrics registry (:func:`repro.obs.metrics_session`) is active, a
sweep transparently collects each job's spans, telemetry and live
metrics: a worker runs each job under fresh collectors and returns
the recorded payloads with its result, and the parent merges them
into the ambient collectors in job order
(:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` for both
registries).  In-process, the ambient collectors observe the jobs
directly, except that each job's tracer telemetry is gathered in a
fresh registry and merged the same way, so the merged telemetry is
identical for any worker count.  Neither tracing nor metrics ever
changes job *results*; the figures stay bit-identical to an
unobserved sweep.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Job", "resolve_workers", "sweep", "sweep_by_key"]


@dataclass(frozen=True)
class Job:
    """One independent unit of work: ``fn(*args, **kwargs)``.

    ``fn`` must be a module-level callable for multi-process runs (the
    standard pickle restriction); ``key`` is an optional identifier the
    driver uses to reassemble results and never affects execution.
    """

    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Any = None

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def resolve_workers(n_workers: Optional[int]) -> int:
    """Normalise a worker-count request: ``None``/``0`` = all cores."""
    if n_workers is None or n_workers == 0:
        return os.cpu_count() or 1
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0 or None, got {n_workers}")
    return n_workers


def _run_job(job: Job) -> Any:
    return job.run()


def _run_job_observed(job: Job, traced: bool, metered: bool) -> Tuple:
    """Worker-side wrapper: run ``job`` under fresh observability.

    Returns ``(result, trace_payload, metrics_snapshot)`` — the
    plain-data forms of everything the job recorded, ready to cross
    the process boundary.  A collector that was not requested is the
    null one, whose payload the parent's null collector ignores.
    """
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry
    from repro.obs.metrics import metrics_session
    from repro.obs.tracer import NULL_TRACER, Tracer, tracing

    with tracing(Tracer() if traced else NULL_TRACER) as tracer:
        registry = MetricsRegistry() if metered else NULL_METRICS
        with metrics_session(registry):
            result = job.run()
    return result, tracer.payload(), registry.snapshot()


def _run_job_in_process(job: Job) -> Any:
    """Run ``job`` under the ambient collectors, gathering the tracer's
    telemetry in a fresh registry merged back as a worker's would be."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    if not tracer.enabled:
        return job.run()
    telemetry, tracer.telemetry = tracer.telemetry, MetricsRegistry()
    try:
        return job.run()
    finally:
        job_telemetry, tracer.telemetry = tracer.telemetry, telemetry
        telemetry.merge_snapshot(job_telemetry.snapshot())


def _picklable(jobs: List[Job]) -> bool:
    import pickle

    try:
        pickle.dumps(jobs)
        return True
    except Exception:
        return False


def sweep(
    jobs: Iterable[Job],
    n_workers: int = 1,
    chunksize: int = 1,
) -> List[Any]:
    """Run ``jobs`` and return their results in job order.

    Parameters
    ----------
    jobs:
        The independent units of work.
    n_workers:
        ``1`` runs in-process (deterministic fallback, always
        available); ``> 1`` fans out across a
        :class:`~concurrent.futures.ProcessPoolExecutor`; ``None`` or
        ``0`` uses every core.
    chunksize:
        Batch size handed to each worker; raise above 1 when jobs are
        tiny relative to the pickling overhead.
    """
    job_list = list(jobs)
    workers = resolve_workers(n_workers)
    if workers > 1 and len(job_list) > 1 and not _picklable(job_list):
        warnings.warn(
            "sweep(): jobs are not picklable (closures or open handles "
            "in fn/args?); falling back to the in-process executor",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = 1
    if workers <= 1 or len(job_list) <= 1:
        return [_run_job_in_process(job) for job in job_list]
    from concurrent.futures import ProcessPoolExecutor

    from repro.obs.metrics import current_metrics
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    metrics = current_metrics()
    runs = job_list
    if tracer.enabled or metrics.enabled:
        # Fan out with per-worker collectors and merge the recorded
        # payloads back (in job order, so merged traces and metric
        # snapshots are deterministic for any worker count).
        runs = [
            Job(
                _run_job_observed,
                (job, tracer.enabled, metrics.enabled),
                key=job.key,
            )
            for job in job_list
        ]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(job_list))
    ) as pool:
        outputs = list(pool.map(_run_job, runs, chunksize=chunksize))
    if runs is job_list:
        return outputs
    results = []
    for result, trace_payload, metrics_snapshot in outputs:
        tracer.merge_payload(trace_payload)
        metrics.merge_snapshot(metrics_snapshot)
        results.append(result)
    return results


def sweep_by_key(
    jobs: Iterable[Job],
    n_workers: int = 1,
    chunksize: int = 1,
) -> Dict[Any, Any]:
    """Like :func:`sweep`, but returns ``{job.key: result}``.

    Keys must be unique and hashable; insertion order follows job
    order, so iterating the mapping reproduces the serial layout.
    """
    job_list = list(jobs)
    keys = [job.key for job in job_list]
    if len(set(keys)) != len(keys):
        raise ValueError("sweep_by_key() requires unique job keys")
    results = sweep(job_list, n_workers=n_workers, chunksize=chunksize)
    return dict(zip(keys, results))
