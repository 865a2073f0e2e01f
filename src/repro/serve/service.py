"""Worker processes and client calls over the queue + cache.

The flow, end to end:

1. ``submit`` validates a :class:`~repro.serve.jobs.JobSpec`, computes
   its digests and cache key, and enqueues a pending record.
2. ``serve`` runs N :func:`worker_loop` processes under a supervisor
   that restarts crashed workers (nonzero exit) up to a cap.  Each
   worker claims jobs atomically, consults the result cache first — a
   duplicate submission is acked as a **cache hit** without
   simulating — and otherwise runs the simulation, stores the
   canonical payload, and acks with the job's wall time (plus request
   and chunk counts for a simulated job).  With ``metrics`` on, every
   job event is counted once, on the worker's live
   :class:`~repro.obs.metrics.MetricsRegistry`.
3. ``result`` reads a finished job's payload back from the cache via
   the cache key recorded in its outcome.

Every payload byte is determined by ``(config digest, trace digest,
code version)``; hits and misses of the same key return identical
bytes.  Cached payloads are integrity-checked before being served as
hits; a corrupt one is quarantined and the job re-simulated.

Robustness contract:

* SIGTERM/SIGINT drain a worker gracefully: the in-flight job is
  released back to ``pending`` with its attempt count intact, a final
  metrics snapshot is flushed, and the worker exits 0.
* The client calls accept ``retries``/``deadline_s`` and back off with
  deterministic jitter (:mod:`repro.serve.retry`) on transient errors.
* The worker paths are threaded with chaos failpoints
  (:mod:`repro.chaos.failpoints`) — free unless an injector is
  installed — so seeded campaigns can kill, hang, and starve workers
  at precise points.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.context import current, using
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    merge_worker_snapshots,
    write_worker_snapshot,
)
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    JobSpec,
    cache_key,
    code_version,
    result_payload_bytes,
    run_job,
    verify_result_payload,
)
from repro.serve.queue import (
    DEFAULT_LEASE_S,
    DEFAULT_MAX_ATTEMPTS,
    JobQueue,
)
from repro.serve.retry import call_with_retries

__all__ = [
    "GracefulShutdown",
    "merged_queue_metrics",
    "result",
    "serve",
    "status",
    "submit",
    "worker_loop",
]

_submit_counter = itertools.count()


class GracefulShutdown(BaseException):
    """Raised by the worker's SIGTERM/SIGINT handler to start a drain.

    A ``BaseException`` so a job-level ``except Exception`` cannot
    swallow the shutdown: it unwinds to :func:`worker_loop`, which
    releases the in-flight job and flushes metrics before exiting.
    """

    def __init__(self, signum: int):
        super().__init__(f"signal {signum}")
        self.signum = signum


def _cache_root(queue_dir: str, cache_dir: Optional[str]) -> str:
    return cache_dir or os.path.join(str(queue_dir), "cache")


def _count(
    registry, worker: str, name: str, help_text: str, amount: float = 1
) -> None:
    """Add ``amount`` to a per-worker counter of an enabled registry."""
    if registry.enabled:
        registry.counter(name, help_text, labels=("worker",)).labels(
            worker=worker
        ).inc(amount)


def _retry_counter(call_name: str):
    """An ``on_retry`` hook counting client retries on the ambient
    registry (no-op when metrics are disabled)."""

    def on_retry(attempt: int, error: BaseException) -> None:
        metrics = current().metrics
        if metrics.enabled:
            metrics.counter(
                "repro_client_retries_total",
                "Client calls retried after a transient error",
                labels=("call",),
            ).labels(call=call_name).inc()

    return on_retry


def submit(
    queue_dir: str,
    spec: JobSpec,
    cache_dir: Optional[str] = None,
    retries: int = 0,
    deadline_s: Optional[float] = None,
    retry_seed: int = 0,
) -> Dict:
    """Enqueue ``spec``; returns the pending record (with ``job_id``).

    The record carries the spec plus its three digests, so workers
    (and humans reading the queue directory) see the cache identity
    without recomputing trace digests.

    Transient ``OSError`` (ENOSPC, a flaky filesystem) is retried up
    to ``retries`` times with deterministic-jitter backoff under the
    ``deadline_s`` wall-clock budget.  The job id and record are
    computed once, so retries can never double-enqueue: the atomic
    write only places the record when it fully succeeds.
    """
    spec.validate()
    key = cache_key(spec)
    queue = JobQueue(queue_dir)
    job_id = (
        f"{int(time.time() * 1000):013d}-{key[:10]}-"
        f"{os.getpid()}-{next(_submit_counter)}"
    )
    record = {
        "job_id": job_id,
        "spec": spec.to_dict(),
        "cache_key": key,
        "config_digest": spec.config_digest(),
        "trace_digest": spec.trace_digest(),
        "code_version": code_version(),
        "submitted_at": time.time(),
        "already_cached": key in ResultCache(
            _cache_root(queue_dir, cache_dir)
        ),
    }
    call_with_retries(
        lambda: queue.enqueue(job_id, record),
        retries=retries,
        deadline_s=deadline_s,
        seed=retry_seed,
        retry_on=(OSError,),
        on_retry=_retry_counter("submit"),
    )
    metrics = current().metrics
    if metrics.enabled:
        metrics.counter(
            "repro_jobs_submitted_total", "Jobs enqueued by submit()"
        ).inc()
        if record["already_cached"]:
            metrics.counter(
                "repro_submit_already_cached_total",
                "Submissions whose result was already in the cache",
            ).inc()
    return record


def worker_loop(
    queue_dir: str,
    cache_dir: Optional[str] = None,
    poll_interval_s: float = 0.2,
    drain: bool = False,
    max_jobs: Optional[int] = None,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    owner: Optional[str] = None,
    metrics: bool = False,
    heartbeat_interval_s: float = 2.0,
    durable: bool = True,
    handle_signals: bool = False,
) -> Dict:
    """Claim-and-run until stopped; returns ``{"worker", "processed"}``.

    ``drain=True`` exits when no pending work remains (the CI/batch
    mode); otherwise the loop polls forever and is stopped by signal.
    ``max_jobs`` bounds the number of jobs this worker processes.

    ``metrics=True`` gives the worker a live :class:`MetricsRegistry`
    (installed in the run context for the duration, so replay/shard
    instrumentation lands in it too) and writes it atomically to
    ``<queue>/metrics/`` after every job and at least every
    ``heartbeat_interval_s`` seconds — the snapshot files a
    ``repro metrics``/``status --metrics`` reader merges.

    ``handle_signals=True`` (what ``serve`` passes its children)
    installs SIGTERM/SIGINT handlers that drain gracefully: the
    in-flight job is released back to ``pending`` with its attempt
    count preserved, a final metrics snapshot is flushed, and the loop
    returns normally.  A second signal falls through to the default
    disposition (hard kill).
    """
    queue = JobQueue(
        queue_dir,
        lease_s=lease_s,
        max_attempts=max_attempts,
        durable=durable,
    )
    cache = ResultCache(_cache_root(queue_dir, cache_dir))
    worker_name = owner or f"worker-{os.getpid()}"
    failpoints = current().failpoints
    if failpoints.enabled:
        failpoints.bind_worker(worker_name)
    registry: object = MetricsRegistry() if metrics else NULL_METRICS
    last_beat = 0.0
    in_flight = {"job_id": None}

    def on_signal(signum, frame):
        # Restore default dispositions first so a second signal kills
        # the worker outright instead of re-raising mid-unwind.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        raise GracefulShutdown(signum)

    previous_handlers = {}
    if handle_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, on_signal)

    def beat(force: bool = False) -> None:
        nonlocal last_beat
        now = time.time()
        if not force and now - last_beat < heartbeat_interval_s:
            return
        # Readers derive the heartbeat from the file's ``written_at``
        # and re-sample queue depth live (``merged_queue_metrics``).
        write_worker_snapshot(queue_dir, worker_name, registry, now=now)
        last_beat = now

    def count_quarantined() -> None:
        if queue.last_quarantined:
            _count(
                registry, worker_name, "repro_records_quarantined_total",
                "Torn/tampered queue records moved to corrupt/",
                len(queue.last_quarantined),
            )

    processed = 0
    with using(metrics=registry) if registry.enabled else using():
        if registry.enabled:
            beat(force=True)
        try:
            while True:
                requeued = queue.requeue_stale()
                count_quarantined()
                if requeued:
                    _count(
                        registry, worker_name, "repro_jobs_requeued_total",
                        "Stale claims returned to pending", len(requeued),
                    )
                if queue.last_requeue_failed:
                    _count(
                        registry, worker_name, "repro_jobs_failed_out_total",
                        "Jobs that exhausted max_attempts on requeue",
                        len(queue.last_requeue_failed),
                    )
                if registry.enabled:
                    claim_started = time.perf_counter()
                record = queue.claim(owner=worker_name)
                count_quarantined()
                if registry.enabled:
                    registry.histogram(
                        "repro_claim_latency_ms",
                        "Wall-clock latency of one claim attempt",
                        labels=("worker",),
                    ).labels(worker=worker_name).observe(
                        (time.perf_counter() - claim_started) * 1000.0
                    )
                if record is None:
                    if drain:
                        break
                    if registry.enabled:
                        beat()
                    time.sleep(poll_interval_s)
                    continue
                _count(
                    registry, worker_name, "repro_job_attempts_total",
                    "Claims processed (retries of one job each count)",
                )
                in_flight["job_id"] = record["job_id"]
                _process_one(record, queue, cache, worker_name, registry)
                in_flight["job_id"] = None
                processed += 1
                if registry.enabled:
                    beat(force=True)
                if max_jobs is not None and processed >= max_jobs:
                    break
        except GracefulShutdown:
            job_id = in_flight["job_id"]
            if job_id is not None and queue.release(job_id):
                _count(
                    registry, worker_name, "repro_jobs_released_total",
                    "In-flight jobs released on graceful shutdown",
                )
            count_quarantined()
        finally:
            if handle_signals:
                for signum, handler in previous_handlers.items():
                    try:
                        signal.signal(signum, handler)
                    except (ValueError, TypeError):
                        pass
            if registry.enabled:
                beat(force=True)
    return {"worker": worker_name, "processed": processed}


def _process_one(
    record: Dict,
    queue: JobQueue,
    cache: ResultCache,
    worker_name: str,
    registry: object = NULL_METRICS,
) -> None:
    job_id = record["job_id"]
    started = time.time()
    failpoints = current().failpoints
    try:
        if failpoints.enabled:
            failpoints.hit("service.job.before_run")
        spec = JobSpec.from_dict(record["spec"])
        key = cache_key(spec)
        cached = cache.get(key)
        if cached is not None:
            # Never serve bytes that fail their self-check: quarantine
            # and fall through to a fresh simulation of the same key.
            problem = verify_result_payload(cached)
            if problem is not None:
                cache.quarantine(key, problem)
                cached = None
                _count(
                    registry, worker_name, "repro_cache_corrupt_total",
                    "Cached payloads quarantined at hit time",
                )
        if cached is not None:
            _count(
                registry, worker_name, "repro_cache_hits_total",
                "Jobs answered from the result cache",
            )
            payload = json.loads(cached.decode("ascii"))
            outcome = {
                "status": "done",
                "cached": True,
                "cache_key": key,
                "figures_sha256": payload["figures_sha256"],
                "worker": worker_name,
                "wall_s": time.time() - started,
            }
        else:
            _count(
                registry, worker_name, "repro_cache_misses_total",
                "Jobs that had to be simulated",
            )
            payload, stats = run_job(spec)
            cache.put(key, result_payload_bytes(payload))
            outcome = {
                "status": "done",
                "cached": False,
                "cache_key": key,
                "figures_sha256": payload["figures_sha256"],
                "worker": worker_name,
                "wall_s": time.time() - started,
                "requests": stats["completed"],
                "chunks": stats["chunks"],
            }
        if failpoints.enabled:
            failpoints.hit("service.job.before_ack")
        _ack_safely(queue, job_id, outcome, "done", registry, worker_name)
        _count(
            registry, worker_name, "repro_jobs_completed_total",
            "Jobs acked done (cache hits included)",
        )
        if registry.enabled:
            wall = time.time() - started
            registry.histogram(
                "repro_job_wall_ms",
                "Wall-clock time from claim to ack",
                labels=("worker", "cached"),
            ).labels(
                worker=worker_name,
                cached="yes" if outcome["cached"] else "no",
            ).observe(wall * 1000.0)
    except Exception as error:  # noqa: BLE001 - worker must survive jobs
        _count(
            registry, worker_name, "repro_jobs_failed_total",
            "Jobs acked failed (the worker survived)",
        )
        outcome = {
            "status": "failed",
            "error": f"{type(error).__name__}: {error}",
            "worker": worker_name,
            "wall_s": time.time() - started,
        }
        _ack_safely(queue, job_id, outcome, "failed", registry, worker_name)


def _ack_safely(
    queue, job_id, outcome, state, registry, worker_name: str
) -> None:
    """Ack, tolerating a lease lost to requeue while the job ran.

    If the lease expired mid-run and another worker re-claimed the
    job, our claimed record is gone; the result (if any) is already in
    the content-addressed cache, so dropping the ack is harmless —
    count it and move on rather than killing the worker.
    """
    try:
        queue.ack(job_id, outcome, state=state)
    except ValueError:
        _count(
            registry, worker_name, "repro_jobs_lost_leases_total",
            "Acks dropped because the lease was re-claimed",
        )


def serve(
    queue_dir: str,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    poll_interval_s: float = 0.2,
    drain: bool = False,
    max_jobs: Optional[int] = None,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    metrics: bool = False,
    max_restarts: int = 0,
    durable: bool = True,
) -> List[int]:
    """Run ``workers`` worker processes over one queue.

    Returns the exit codes of every worker incarnation (restarts
    append, so ``len(codes) - workers`` is the restart count).
    ``workers=1`` with ``max_restarts=0`` runs the loop in-process (no
    child process), which keeps single-worker serving debuggable
    exactly like ``sweep(n_workers=1)``.

    The supervisor restarts a worker that exits nonzero (crash, chaos
    kill) up to ``max_restarts`` times across the pool; replacements
    are named ``worker-{i}r{attempt}`` so their metrics and leases are
    distinguishable from the incarnation they replace.  Gracefully
    drained workers (exit 0) are not restarted.

    Live metrics are enabled either explicitly (``metrics=True``) or
    by an enabled ambient registry (the ``--metrics PATH`` CLI path):
    each worker writes atomic snapshot files under
    ``<queue>/metrics/``, and after the workers exit the merged queue
    metrics are folded into the ambient registry so the caller's
    exporter sees the whole session.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_restarts < 0:
        raise ValueError(
            f"max_restarts must be >= 0, got {max_restarts}"
        )
    ambient = current().metrics
    want_metrics = metrics or ambient.enabled
    JobQueue(queue_dir, durable=durable)  # create the layout first
    ResultCache(_cache_root(queue_dir, cache_dir))
    if workers == 1 and max_restarts == 0:
        worker_loop(
            queue_dir,
            cache_dir=cache_dir,
            poll_interval_s=poll_interval_s,
            drain=drain,
            max_jobs=max_jobs,
            lease_s=lease_s,
            max_attempts=max_attempts,
            metrics=want_metrics,
            durable=durable,
        )
        codes = [0]
    else:
        import multiprocessing

        def spawn(index: int, attempt: int):
            name = f"worker-{index}" if attempt == 0 else (
                f"worker-{index}r{attempt}"
            )
            child = multiprocessing.Process(
                target=worker_loop,
                args=(queue_dir,),
                kwargs={
                    "cache_dir": cache_dir,
                    "poll_interval_s": poll_interval_s,
                    "drain": drain,
                    "max_jobs": max_jobs,
                    "lease_s": lease_s,
                    "max_attempts": max_attempts,
                    "owner": name,
                    "metrics": want_metrics,
                    "durable": durable,
                    "handle_signals": True,
                },
                name=f"repro-serve-{name}",
            )
            child.start()
            return {"index": index, "attempt": attempt, "child": child}

        active = [spawn(index, 0) for index in range(workers)]
        codes = []
        restarts = 0
        try:
            while active:
                for entry in list(active):
                    child = entry["child"]
                    child.join(0.05)
                    if child.is_alive():
                        continue
                    code = child.exitcode or 0
                    codes.append(code)
                    active.remove(entry)
                    if code != 0 and restarts < max_restarts:
                        restarts += 1
                        if ambient.enabled:
                            ambient.counter(
                                "repro_worker_restarts_total",
                                "Crashed workers restarted by serve()",
                            ).inc()
                        active.append(
                            spawn(
                                entry["index"], entry["attempt"] + 1
                            )
                        )
        except (KeyboardInterrupt, GracefulShutdown):
            for entry in active:
                entry["child"].terminate()
            for entry in active:
                entry["child"].join()
            raise
    if want_metrics and ambient.enabled:
        merged_queue_metrics(queue_dir, into=ambient)
    return codes


def merged_queue_metrics(
    queue_dir: str,
    into: Optional[MetricsRegistry] = None,
) -> Tuple[MetricsRegistry, List[Dict]]:
    """Merge a queue's per-worker metrics snapshots into one registry.

    On top of the file merge (counters/histograms add, gauges
    last-write-wins, per-worker heartbeat gauges derived from the
    snapshot timestamps) the queue depth gauges are re-sampled live,
    so a dashboard reflects the directory as it is *now*, not as of
    the last worker heartbeat.  Raises ``FileNotFoundError`` for a
    path that is not a queue.
    """
    queue = JobQueue(queue_dir, create=False)
    registry, workers = merge_worker_snapshots(queue_dir, into=into)
    depth = registry.gauge(
        "repro_queue_depth",
        "Jobs per queue state, re-sampled at merge time",
        labels=("state",),
    )
    for state, count in queue.counts().items():
        depth.labels(state=state).set(count)
    return registry, workers


def status(
    queue_dir: str,
    job_id: Optional[str] = None,
    metrics: bool = False,
    retries: int = 0,
    deadline_s: Optional[float] = None,
    retry_seed: int = 0,
) -> Dict:
    """Queue counts, or one job's full record when ``job_id`` given.

    ``metrics=True`` adds the merged live-metrics snapshot (and the
    per-worker heartbeat list) to the queue summary.  ``retries``
    backs off and retries transient errors — including ``ValueError``
    for a job that has not appeared yet, which makes a bounded-retry
    ``status`` double as "wait for the job to exist".
    """

    def attempt() -> Dict:
        queue = JobQueue(queue_dir, create=False)
        if job_id is not None:
            return queue.read(job_id)
        summary = {"queue": str(queue_dir), "counts": queue.counts()}
        summary["jobs"] = {
            state: queue.jobs(state) for state in ("claimed", "failed")
        }
        if metrics:
            registry, workers = merged_queue_metrics(queue_dir)
            summary["metrics"] = registry.snapshot()
            summary["workers"] = workers
        return summary

    return call_with_retries(
        attempt,
        retries=retries,
        deadline_s=deadline_s,
        seed=retry_seed,
        retry_on=(OSError, ValueError),
        on_retry=_retry_counter("status"),
    )


def result(
    queue_dir: str,
    job_id: str,
    cache_dir: Optional[str] = None,
    retries: int = 0,
    deadline_s: Optional[float] = None,
    retry_seed: int = 0,
) -> Tuple[Dict, Optional[bytes]]:
    """A finished job's ``(record, payload bytes)``.

    The payload is ``None`` while the job is still pending/claimed, or
    if its outcome was a failure.  ``retries`` retries transient
    errors (and not-yet-visible jobs) with deterministic backoff.
    """

    def attempt() -> Tuple[Dict, Optional[bytes]]:
        queue = JobQueue(queue_dir, create=False)
        record = queue.read(job_id)
        outcome = record.get("outcome") or {}
        key = outcome.get("cache_key")
        if record.get("state") != "done" or not key:
            return record, None
        cache = ResultCache(_cache_root(queue_dir, cache_dir))
        return record, cache.get(key)

    return call_with_retries(
        attempt,
        retries=retries,
        deadline_s=deadline_s,
        seed=retry_seed,
        retry_on=(OSError, ValueError),
        on_retry=_retry_counter("result"),
    )
