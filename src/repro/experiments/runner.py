"""The open-loop trace driver shared by every experiment.

Replays a trace against a storage system: each request is submitted at
its arrival time regardless of completions (an *open* system, like the
paper's trace-driven DiskSim runs), then the run continues until the
last request drains.  Returns the measurement collector, the power
breakdown, and run metadata.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.disk.request import IORequest, new_request
from repro.metrics.collector import RequestCollector
from repro.obs.context import current
from repro.power.accounting import PowerBreakdown, array_power
from repro.raid.array import DiskArray
from repro.sim.engine import Environment
from repro.workloads.streaming import StreamingTrace
from repro.workloads.trace import Trace, first_out_of_order

__all__ = ["ChunkProgress", "RunResult", "run_trace"]


@dataclass
class RunResult:
    """Everything an experiment needs from one simulation run."""

    label: str
    collector: RequestCollector
    power: PowerBreakdown
    elapsed_ms: float
    requests: int

    @property
    def mean_response_ms(self) -> float:
        return self.collector.mean_response_ms

    def response_cdf(self) -> List[float]:
        return self.collector.response_cdf()

    def rotational_pdf(self) -> List[float]:
        return self.collector.rotational_pdf()

    def percentile(self, q: float) -> float:
        return self.collector.response_percentile(q)


@dataclass
class ChunkProgress:
    """Telemetry for one completed chunk of a streamed replay.

    ``chunk`` holds exact per-chunk measurements (samples included, so
    chunk percentiles are exact); ``cumulative`` is a sample-free copy
    of the run's own collector once the chunk is folded into it — the
    exact running aggregate a progress consumer (e.g. a serve worker
    heartbeat) reads without waiting for the run to drain.
    """

    index: int
    completed: int
    simulated_ms: float
    chunk: RequestCollector
    cumulative: RequestCollector


def run_trace(
    env: Environment,
    system: DiskArray,
    trace: Trace,
    keep_samples: bool = True,
    label: Optional[str] = None,
    warmup_fraction: float = 0.0,
    shards: int = 1,
    on_chunk: Optional[Callable[[ChunkProgress], None]] = None,
    chunk_requests: Optional[int] = None,
) -> RunResult:
    """Replay ``trace`` against ``system`` and collect measurements.

    The trace's requests are cloned before submission, so the same
    trace object can be replayed against many configurations without
    cross-contamination of measurement fields.

    ``warmup_fraction`` discards the first fraction of completions
    from the collector (cold caches, parked arms), for steady-state
    measurements; power accounting always covers the whole run.

    ``shards`` > 1 runs the simulation on the sharded kernel
    (:mod:`repro.sim.sharded`): one forked engine shard per drive
    group, merged conservatively so every figure is bit-identical to
    the serial kernel.  Falls back to the serial kernel when fork is
    unavailable on the platform.

    ``trace`` may also be a
    :class:`~repro.workloads.streaming.StreamingTrace`: requests are
    then pulled from disk in bounded-memory chunks (``chunk_requests``,
    default: the stream's chunk size) and submitted without ever
    materializing the trace.  One producer serves both kinds of
    source — an in-memory trace is a single chunk — so the collector's
    figures are bit-identical to an in-memory replay of the same file.
    ``on_chunk``, if given, is called with a :class:`ChunkProgress`
    after every ``chunk_requests`` completions: each completion is
    recorded once, into that chunk's collector, which is then folded
    into the run's collector (:meth:`RequestCollector.fold`), so
    progress costs no second record per request.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    streamed = isinstance(trace, StreamingTrace)
    if streamed:
        if warmup_fraction > 0.0:
            raise ValueError(
                "warmup_fraction requires a known trace length; "
                "materialize the stream or use warmup_fraction=0"
            )
        if shards > 1:
            raise ValueError(
                "streamed replay runs on the serial kernel: the shard "
                "workers fork mid-run and cannot share one file "
                "cursor; use shards=1 (replay-level parallelism comes "
                "from the job service instead)"
            )
        chunk_size = chunk_requests or trace.chunk_requests
        if chunk_size < 1:
            raise ValueError(
                f"chunk_requests must be >= 1, got {chunk_size}"
            )
        # Each chunk is fresh from the reader; no clone needed.
        chunks: Iterable[List[IORequest]] = trace.iter_chunks(chunk_size)
        warmup_remaining = 0
    else:
        if on_chunk is not None or chunk_requests is not None:
            raise ValueError(
                "on_chunk/chunk_requests apply to StreamingTrace replays"
            )
        # A fresh copy of each request (new id, cleared measurements),
        # so one trace can be replayed against many systems.
        fresh: List[IORequest] = [
            new_request(
                request.lba,
                request.size,
                request.is_read,
                request.arrival_time,
                request.source_disk,
                request.background,
            )
            for request in trace
        ]
        # A Trace validates (or sorts) arrival order at construction,
        # but ``trace`` may be any iterable of requests.  The producer
        # below stamps each request's arrival at submission time, so an
        # out-of-order request would be *silently* submitted late with
        # a rewritten arrival time, corrupting every response-time
        # figure.  Fail loudly instead.
        index = first_out_of_order(fresh)
        if index is not None:
            raise ValueError(
                f"run_trace: trace arrival times not monotone at request "
                f"{index} ({fresh[index].arrival_time} after "
                f"{fresh[index - 1].arrival_time}); sort the trace first, "
                "e.g. Trace(requests, sort=True)"
            )
        chunks = (fresh,)
        warmup_remaining = int(len(fresh) * warmup_fraction)
    collector = RequestCollector(keep_samples=keep_samples)
    warmed_up = 0
    progress = None

    if warmup_remaining:
        def record(request: IORequest) -> None:
            nonlocal warmed_up
            if warmed_up < warmup_remaining:
                warmed_up += 1
                return
            collector.record(request)
        system.on_complete.append(record)
    elif on_chunk is not None:
        progress = _ChunkProgressRecorder(
            collector, on_chunk, env, chunk_size
        )
        system.on_complete.append(progress.record)
    else:
        # The default: no wrapper frame, the completion hook calls the
        # collector directly.
        system.on_complete.append(collector.record)

    submitted = 0
    chunks_read = 0
    peak_chunk = 0

    def producer():
        nonlocal submitted, chunks_read, peak_chunk
        timeout = env.timeout
        submit = system.submit
        for chunk in chunks:
            # Every request of a chunk is submitted before the next one
            # is read, so counting per chunk is exact once the run ends.
            submitted += len(chunk)
            chunks_read += 1
            if len(chunk) > peak_chunk:
                peak_chunk = len(chunk)
            for request in chunk:
                delay = request.arrival_time - env._now
                if delay > 0:
                    yield timeout(delay)
                request.arrival_time = env._now
                submit(request)

    # Every span a run records fires inside env.run(); scoping the run
    # by its label separates identically named drives of different
    # runs onto distinct exporter tracks (e.g. the HC-SD drive, which
    # is always called after its spec, across four workloads).
    run_label = label or system.label
    context = current()
    tracer = context.tracer
    metrics = context.metrics
    wall_start = time.perf_counter() if metrics.enabled else 0.0
    # Construct the sharded engine before the producer process exists:
    # it only validates here; the fork happens inside engine.run(), by
    # which point the producer must already be on the schedule (shard
    # workers purge it from their inherited copy).
    engine = None
    if shards > 1:
        from repro.sim.sharded import ShardedEngine, sharding_available

        if sharding_available():
            engine = ShardedEngine(env, system, shards)
    env.process(producer())
    with tracer.scope(run_label):
        if tracer.enabled:
            tracer.instant(
                "run-start",
                env.now,
                (system.label, "run"),
                args=(
                    {"trace": trace.name, "streamed": True}
                    if streamed
                    else {"requests": len(fresh)}
                ),
            )
        if engine is not None:
            engine.run()
        else:
            env.run()
        if tracer.enabled:
            tracer.instant(
                "run-end",
                env.now,
                (system.label, "run"),
                args={"requests": submitted, "elapsed_ms": env.now},
            )
    if progress is not None and progress.chunk.completed:
        progress.flush()
    mode = "streamed" if streamed else (
        "sharded" if engine is not None else "memory"
    )
    for registry in (tracer.telemetry, metrics):
        if registry.enabled:
            registry.counter(
                "repro_runs_total", "Completed replays", labels=("mode",)
            ).labels(mode=mode).inc()
            if streamed:
                registry.counter(
                    "repro_replay_chunks_total", "Streamed chunks replayed"
                ).inc(chunks_read)
                registry.counter(
                    "repro_replay_requests_total",
                    "Requests replayed from streams",
                ).inc(submitted)
    if tracer.enabled:
        telemetry = tracer.telemetry
        telemetry.summary("repro_run_elapsed_ms").observe(env.now)
        if collector.completed:
            telemetry.summary("repro_run_mean_response_ms").observe(
                collector.mean_response_ms
            )
    if metrics.enabled:
        # Wall-clock only — never simulated time — so figures stay
        # bit-identical with metrics on or off.
        wall_s = max(time.perf_counter() - wall_start, 1e-9)
        if streamed:
            metrics.gauge(
                "repro_replay_peak_chunk_requests",
                "Largest chunk of the last streamed replay",
            ).set(peak_chunk)
            metrics.gauge(
                "repro_replay_requests_per_s",
                "Wall-clock replay rate of the last streamed run",
            ).set(submitted / wall_s)
        metrics.histogram(
            "repro_run_wall_ms", "Wall-clock time of one replay"
        ).observe(wall_s * 1000.0)
    completed = collector.completed + warmed_up
    if completed != submitted:
        raise RuntimeError(
            f"run did not drain: {completed} of {submitted} "
            "requests completed"
        )
    elapsed = max(env.now, 1e-9)
    return RunResult(
        label=run_label,
        collector=collector,
        power=array_power(system.drives, elapsed),
        elapsed_ms=elapsed,
        requests=submitted,
    )


class _ChunkProgressRecorder:
    """Records a streamed run's completions chunk by chunk.

    Each completion is recorded once, into the current chunk's
    collector, which keeps samples (exact chunk percentiles).  Every
    ``size`` completions :meth:`flush` folds the chunk into the run's
    collector and hands both to ``on_chunk``, so progress memory is
    one chunk, not the trace.
    """

    def __init__(
        self,
        collector: RequestCollector,
        on_chunk: Callable[[ChunkProgress], None],
        env: Environment,
        size: int,
    ):
        self.collector = collector
        self.on_chunk = on_chunk
        self.env = env
        self.size = size
        self.index = 0
        self.chunk = RequestCollector(keep_samples=True)

    def record(self, request: IORequest) -> None:
        chunk = self.chunk
        chunk.record(request)
        if chunk.completed >= self.size:
            self.flush()

    def flush(self) -> None:
        collector = self.collector
        collector.fold(self.chunk)
        self.on_chunk(
            ChunkProgress(
                index=self.index,
                completed=collector.completed,
                simulated_ms=self.env.now,
                chunk=self.chunk,
                # merge() with an empty collector is an exact copy
                # without the samples.
                cumulative=collector.merge(
                    RequestCollector(keep_samples=False)
                ),
            )
        )
        self.index += 1
        self.chunk = RequestCollector(keep_samples=True)
