"""Cross-process telemetry collection through the experiment executor.

A multi-worker ``sweep`` under an ambient tracer must (a) return the
same results as the serial path and (b) deliver every worker's spans
and telemetry to the parent tracer, merged in job order.
"""

from repro.experiments.executor import Job, sweep
from repro.obs.tracer import current_tracer, tracing


def traced_job(tag, count):
    """Module-level (picklable) job that records spans and telemetry."""
    tracer = current_tracer()
    for index in range(count):
        tracer.span(
            "work", "transfer", float(index), 1.0, (tag, "worker")
        )
    tracer.telemetry.counter("repro_jobs_completed_total").inc()
    tracer.telemetry.summary("repro_job_count").observe(count)
    return f"{tag}:{count}"


JOBS = [
    Job(traced_job, ("alpha", 3), key="alpha"),
    Job(traced_job, ("beta", 2), key="beta"),
    Job(traced_job, ("gamma", 4), key="gamma"),
]


class TestWorkerTelemetryMerge:
    def test_serial_sweep_observed_directly(self):
        with tracing() as tracer:
            results = sweep(JOBS, n_workers=1)
        assert results == ["alpha:3", "beta:2", "gamma:4"]
        assert len(tracer.spans) == 9
        completed = tracer.telemetry.counter("repro_jobs_completed_total")
        assert completed.value == 3

    def test_parallel_sweep_merges_in_job_order(self):
        with tracing() as tracer:
            results = sweep(JOBS, n_workers=2)
        assert results == ["alpha:3", "beta:2", "gamma:4"]
        assert len(tracer.spans) == 9
        # Merge follows job order, not completion order.
        processes = [process for process, _ in tracer.tracks()]
        assert processes == ["alpha", "beta", "gamma"]
        families = tracer.telemetry.snapshot()["families"]
        (completed,) = families["repro_jobs_completed_total"]["series"]
        assert completed["value"] == 3
        (count,) = families["repro_job_count"]["series"]
        assert count["count"] == 3
        assert count["sum"] == 9

    def test_parallel_matches_serial_telemetry(self):
        with tracing() as serial:
            sweep(JOBS, n_workers=1)
        with tracing() as parallel:
            sweep(JOBS, n_workers=2)
        assert parallel.telemetry.snapshot() == serial.telemetry.snapshot()
        assert [s.to_tuple() for s in parallel.spans] == [
            s.to_tuple() for s in serial.spans
        ]

    def test_traced_study_telemetry_identical_for_any_worker_count(self):
        # Per-run summaries (repro_run_elapsed_ms, ...) merge through
        # the same per-job registries in-process and across workers,
        # so even their float means agree to the last bit.
        from repro.obs.run import trace_experiment

        serial = trace_experiment("limit_study", requests=120, n_workers=1)
        parallel = trace_experiment(
            "limit_study", requests=120, n_workers=2
        )
        assert (
            parallel.tracer.telemetry.snapshot()
            == serial.tracer.telemetry.snapshot()
        )

    def test_untraced_parallel_sweep_untouched(self):
        results = sweep(JOBS, n_workers=2)
        assert results == ["alpha:3", "beta:2", "gamma:4"]
        assert current_tracer().spans == []
