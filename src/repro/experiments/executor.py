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
breakpoints, monkeypatching and ad-hoc instrumentation inside job
functions behave as in a plain serial loop.

Observability and request ids
-----------------------------
Every job runs through one wrapper, in-process or in a pool worker,
under a fresh request-id counter that starts at 0 and, where the
caller's run context (:func:`repro.obs.context.current`) carries an
enabled tracer or metrics registry, under a fresh one of each.  A
disabled collector passes through unchanged.  The caller then merges
each job's spans, telemetry and live metrics in job order
(:meth:`~repro.obs.tracer.Tracer.merge_payload`,
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`), shifting
the job's span ``req`` arguments by the ids drawn before it and
advancing its own counter by the job's count.  Merged traces,
telemetry and metrics are therefore identical for any worker count,
and every span carries the id a plain serial loop would have drawn.
Neither tracing nor metrics ever changes job *results*; the figures
stay bit-identical to an unobserved sweep.
"""

from __future__ import annotations

import itertools
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.context import current, using
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

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


def _run_job_observed(
    job: Job, traced: bool, metered: bool, max_spans: Optional[int]
) -> Tuple:
    """Run ``job`` under a fresh request-id counter and, where the
    caller's collector is enabled, a fresh tracer (capped at the
    caller's ``max_spans``) and registry.

    Returns ``(result, trace_payload, metrics_snapshot, ids_drawn)``:
    plain data, ready to cross the process boundary.  A payload is
    ``None`` where the caller's collector is disabled.
    """
    fields: Dict[str, Any] = {"request_ids": itertools.count()}
    if traced:
        fields["tracer"] = Tracer(max_spans)
    if metered:
        fields["metrics"] = MetricsRegistry()
    with using(**fields) as run:
        result = job.run()
    return (
        result,
        run.tracer.payload() if traced else None,
        run.metrics.snapshot() if metered else None,
        next(run.request_ids),
    )


def _merge(context, output: Tuple) -> Any:
    """Fold one job's :func:`_run_job_observed` output into the
    caller's ``context`` and return the job's result."""
    result, trace_payload, metrics_snapshot, drawn = output
    first_id = 0
    if drawn:
        ids = context.request_ids
        first_id = next(ids)
        deque(itertools.islice(ids, drawn - 1), maxlen=0)
    if trace_payload is not None:
        context.tracer.merge_payload(trace_payload, id_offset=first_id)
    if metrics_snapshot is not None:
        context.metrics.merge_snapshot(metrics_snapshot)
    return result


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
    context = current()
    traced = context.tracer.enabled
    metered = context.metrics.enabled
    max_spans = context.tracer.max_spans if traced else None
    if workers <= 1 or len(job_list) <= 1:
        return [
            _merge(
                context, _run_job_observed(job, traced, metered, max_spans)
            )
            for job in job_list
        ]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(workers, len(job_list))
    ) as pool:
        outputs = list(
            pool.map(
                _run_job_observed,
                job_list,
                itertools.repeat(traced),
                itertools.repeat(metered),
                itertools.repeat(max_spans),
                chunksize=chunksize,
            )
        )
    return [_merge(context, output) for output in outputs]


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
