"""Cross-process telemetry collection through the experiment executor.

A multi-worker ``sweep`` under an ambient tracer must (a) return the
same results as the serial path and (b) deliver every worker's spans
and telemetry to the parent tracer, merged in job order, with the
request ids a serial run draws.
"""

import itertools

from repro.experiments.executor import Job, sweep
from repro.obs.context import current, using
from repro.obs.metrics import metrics_session
from repro.obs.tracer import Tracer, tracing
from tests.obs.test_metrics_determinism import ExplodingMetrics


def traced_job(tag, count):
    """Module-level (picklable) job that records spans and telemetry."""
    tracer = current().tracer
    for index in range(count):
        tracer.span(
            "work", "transfer", float(index), 1.0, (tag, "worker")
        )
    tracer.telemetry.counter("repro_jobs_completed_total").inc()
    tracer.telemetry.summary("repro_job_count").observe(count)
    return f"{tag}:{count}"


def held_spans_job(tag, count):
    """Record ``count`` spans and report how many the tracer kept."""
    traced_job(tag, count)
    return len(current().tracer.spans)


def id_job(count):
    """Draw ``count`` request ids, recording each as a span's ``req``."""
    from repro.disk.request import new_request

    tracer = current().tracer
    ids = []
    for _ in range(count):
        request = new_request(0, 8, True)
        ids.append(request.request_id)
        tracer.instant("draw", 0.0, ("ids", "draws"), {"req": ids[-1]})
    return ids


def metrics_job():
    """Report which registry the job sees."""
    return current().metrics


JOBS = [
    Job(traced_job, ("alpha", 3), key="alpha"),
    Job(traced_job, ("beta", 2), key="beta"),
    Job(traced_job, ("gamma", 4), key="gamma"),
]

ID_JOBS = [Job(id_job, (count,)) for count in (3, 0, 5, 2)]


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

    def test_job_tracer_keeps_the_callers_span_cap(self):
        jobs = [Job(held_spans_job, (tag, 6)) for tag in ("alpha", "beta")]
        for n_workers in (1, 2):
            with tracing(Tracer(max_spans=4)) as tracer:
                held = sweep(jobs, n_workers=n_workers)
            assert held == [4, 4]
            assert [span.track[0] for span in tracer.spans] == ["alpha"] * 4
            assert tracer.dropped_spans == 8

    def test_untraced_parallel_sweep_untouched(self):
        results = sweep(JOBS, n_workers=2)
        assert results == ["alpha:3", "beta:2", "gamma:4"]
        assert current().tracer.spans == []


class TestRequestIds:
    def test_traced_study_spans_identical_for_any_worker_count(self):
        from repro.obs.run import trace_experiment

        def spans(n_workers):
            with using(request_ids=itertools.count()):
                run = trace_experiment(
                    "limit_study",
                    requests=200,
                    n_workers=n_workers,
                    actuators=4,
                )
            return [span.to_tuple() for span in run.tracer.spans]

        serial = spans(1)
        assert any(item[6] and "req" in item[6] for item in serial)
        assert spans(2) == serial

    def test_jobs_draw_the_ids_of_a_serial_loop(self):
        with using(request_ids=itertools.count(7)):
            with tracing() as tracer:
                results = sweep(ID_JOBS, n_workers=2)
            following = next(current().request_ids)
        # Each job counts from 0 ...
        assert results == [[0, 1, 2], [], [0, 1, 2, 3, 4], [0, 1]]
        # ... and its spans carry the ids a serial loop draws.
        assert [span.args["req"] for span in tracer.spans] == list(
            range(7, 17)
        )
        assert following == 17

    def test_caller_counter_advances_by_the_ids_drawn(self):
        for n_workers in (1, 2):
            with using(request_ids=itertools.count()):
                sweep(ID_JOBS, n_workers=n_workers)
                assert next(current().request_ids) == 10

    def test_disabled_registry_reaches_the_job_unchanged(self):
        disabled = ExplodingMetrics()
        with metrics_session(disabled):
            (seen,) = sweep([Job(metrics_job)], n_workers=1)
        assert seen is disabled
