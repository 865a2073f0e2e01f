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
multi-process sweep transparently collects each worker's spans,
telemetry and live metrics: the job is wrapped so the worker runs it
under fresh collectors and ships the recorded payloads back with the
result, and the parent merges them into the ambient collectors in job
order — deterministic, and without re-running anything.  Neither
tracing nor metrics ever changes job *results*; the figures stay
bit-identical to an unobserved sweep.
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
    the process boundary.  Either side may be ``None`` when the
    corresponding collector was not requested.
    """
    from repro.obs.metrics import MetricsRegistry, metrics_session
    from repro.obs.tracer import Tracer, tracing

    trace_payload = None
    metrics_snapshot = None
    if traced and metered:
        with tracing(Tracer()) as tracer:
            with metrics_session(MetricsRegistry()) as registry:
                result = job.run()
        trace_payload = tracer.payload()
        metrics_snapshot = registry.snapshot()
    elif traced:
        with tracing(Tracer()) as tracer:
            result = job.run()
        trace_payload = tracer.payload()
    else:
        with metrics_session(MetricsRegistry()) as registry:
            result = job.run()
        metrics_snapshot = registry.snapshot()
    return result, trace_payload, metrics_snapshot


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
        # In-process: an active ambient tracer observes the jobs
        # directly, no wrapping required.
        return [job.run() for job in job_list]
    from concurrent.futures import ProcessPoolExecutor

    from repro.obs.metrics import current_metrics
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    metrics = current_metrics()
    if tracer.enabled or metrics.enabled:
        # Fan out with per-worker collectors and merge the recorded
        # payloads back (in job order, so merged traces and metric
        # snapshots are deterministic for any worker count).
        wrapped = [
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
            triples = list(
                pool.map(_run_job, wrapped, chunksize=chunksize)
            )
        results = []
        for result, trace_payload, metrics_snapshot in triples:
            if trace_payload is not None:
                tracer.merge_payload(trace_payload)
            if metrics_snapshot is not None:
                metrics.merge_snapshot(metrics_snapshot)
            results.append(result)
        return results
    with ProcessPoolExecutor(
        max_workers=min(workers, len(job_list))
    ) as pool:
        return list(pool.map(_run_job, job_list, chunksize=chunksize))


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
