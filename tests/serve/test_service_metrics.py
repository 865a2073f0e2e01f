"""Live-metrics tests for the serve layer.

The acceptance property: a metered drain's merged worker snapshots
reconcile *exactly* with the queue's own accounting — completed
counters equal ``status`` done counts, and a duplicate submission
shows up as one cache hit — plus the hardening contract that
read-only commands on a missing queue fail with one actionable error
instead of conjuring directories.
"""

import os

import pytest

from repro.obs.metrics import (
    NullMetrics,
    load_worker_snapshots,
    metrics_session,
    parse_prometheus,
    render_prometheus,
)
from repro.serve.jobs import JobSpec
from repro.serve.queue import JobQueue
from repro.serve.service import (
    merged_queue_metrics,
    result,
    status,
    submit,
    worker_loop,
)

SMALL = dict(workload="websearch", requests=150)


def counter_total(registry, name):
    family = registry.counter(name, labels=("worker",))
    return sum(child.value for _, child in family.series())


class TestWorkerMetrics:
    def test_metered_drains_reconcile_with_status(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True, metrics=True, owner="alpha")
        second = submit(q, JobSpec(**SMALL))
        assert second["already_cached"]
        worker_loop(q, drain=True, metrics=True, owner="beta")

        registry, workers = merged_queue_metrics(q)
        summary = status(q)

        completed = counter_total(registry, "repro_jobs_completed_total")
        assert completed == summary["counts"]["done"] == 2
        assert counter_total(registry, "repro_cache_misses_total") == 1
        assert counter_total(registry, "repro_cache_hits_total") == 1
        attempts = counter_total(registry, "repro_job_attempts_total")
        assert attempts == 2
        # The reader re-samples queue depth live.
        depth = registry.gauge("repro_queue_depth", labels=("state",))
        assert depth.labels(state="done").value == 2
        assert depth.labels(state="pending").value == 0
        assert {w["worker"] for w in workers} == {"alpha", "beta"}

    def test_merged_snapshot_parses_as_prometheus(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True, metrics=True, owner="alpha")
        registry, _ = merged_queue_metrics(q)
        parsed = parse_prometheus(render_prometheus(registry))
        key = ("repro_jobs_completed_total", (("worker", "alpha"),))
        assert parsed[key] == 1.0

    def test_heartbeat_gauges_present(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True, metrics=True, owner="alpha")
        registry, workers = merged_queue_metrics(q)
        beat = registry.gauge(
            "repro_worker_heartbeat_timestamp", labels=("worker", "pid")
        )
        pid = str(os.getpid())
        assert beat.labels(worker="alpha", pid=pid).value > 0
        assert workers[0]["pid"] == os.getpid()

    def test_worker_files_leave_heartbeat_and_depth_to_readers(
        self, tmp_path
    ):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True, metrics=True, owner="alpha")
        (payload,) = load_worker_snapshots(q)
        families = payload["metrics"]["families"]
        assert "repro_worker_heartbeat_timestamp" not in families
        assert "repro_queue_depth" not in families
        registry, _ = merged_queue_metrics(q)
        beat = registry.gauge(
            "repro_worker_heartbeat_timestamp", labels=("worker", "pid")
        )
        assert beat.labels(worker="alpha", pid=str(os.getpid())).value == (
            payload["written_at"]
        )
        depth = registry.gauge("repro_queue_depth", labels=("state",))
        assert depth.labels(state="done").value == 1

    def test_job_wall_histogram_split_by_cached(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True, metrics=True, owner="alpha")
        submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True, metrics=True, owner="beta")
        registry, _ = merged_queue_metrics(q)
        wall = registry.histogram(
            "repro_job_wall_ms", labels=("worker", "cached")
        )
        miss = wall.labels(worker="alpha", cached="no")
        hit = wall.labels(worker="beta", cached="yes")
        assert miss.count == 1
        assert hit.count == 1

    def test_unmetered_worker_writes_no_snapshots(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True)
        assert not (q / "metrics").exists()
        registry, workers = merged_queue_metrics(q)
        assert workers == []
        # Only the live queue-depth samples exist (one per state,
        # including the corrupt quarantine state).
        assert registry.sample_count() == 5

    def test_status_metrics_flag_embeds_snapshot(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True, metrics=True, owner="alpha")
        summary = status(q, metrics=True)
        families = summary["metrics"]["families"]
        series = families["repro_jobs_completed_total"]["series"]
        assert series == [{"labels": {"worker": "alpha"}, "value": 1.0}]
        assert summary["workers"][0]["worker"] == "alpha"
        plain = status(q)
        assert "metrics" not in plain

    def test_submit_records_on_ambient_registry(self, tmp_path):
        q = tmp_path / "q"
        with metrics_session() as registry:
            submit(q, JobSpec(**SMALL))
        assert registry.counter("repro_jobs_submitted_total").value == 1
        worker_loop(q, drain=True)
        with metrics_session() as registry:
            submit(q, JobSpec(**SMALL))
        hits = registry.counter("repro_submit_already_cached_total")
        assert hits.value == 1

    def test_metered_figures_match_unmetered(self, tmp_path):
        plain_q = tmp_path / "plain"
        record = submit(plain_q, JobSpec(**SMALL))
        worker_loop(plain_q, drain=True)
        _, plain_payload = result(plain_q, record["job_id"])

        metered_q = tmp_path / "metered"
        record = submit(metered_q, JobSpec(**SMALL))
        worker_loop(metered_q, drain=True, metrics=True, owner="alpha")
        _, metered_payload = result(metered_q, record["job_id"])
        assert metered_payload == plain_payload  # byte-identical


class ExplodingMetrics(NullMetrics):
    def _boom(self, *args, **kwargs):
        raise AssertionError(
            "metrics accessor called despite enabled=False"
        )

    counter = gauge = histogram = labels = _boom
    inc = dec = set = observe = _boom


class TestZeroCostDisabled:
    def test_unmetered_worker_never_touches_registry(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        with metrics_session(ExplodingMetrics()):
            snapshot = worker_loop(q, drain=True)
        assert snapshot["processed"] == 1


class TestMissingQueueHardening:
    def test_status_missing_queue_raises(self, tmp_path):
        target = tmp_path / "nope"
        with pytest.raises(FileNotFoundError, match="no job queue"):
            status(target)
        assert not target.exists()  # no directories conjured

    def test_result_missing_queue_raises(self, tmp_path):
        target = tmp_path / "nope"
        with pytest.raises(FileNotFoundError, match="no job queue"):
            result(target, "some-job")
        assert not target.exists()

    def test_metrics_missing_queue_raises(self, tmp_path):
        target = tmp_path / "nope"
        with pytest.raises(FileNotFoundError, match="no job queue"):
            merged_queue_metrics(target)
        assert not target.exists()

    def test_partial_queue_dir_names_missing_parts(self, tmp_path):
        target = tmp_path / "half"
        target.mkdir()
        (target / "pending").mkdir()
        with pytest.raises(FileNotFoundError, match="missing"):
            JobQueue(target, create=False)

    def test_existing_queue_accepted_readonly(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        summary = status(q)
        assert summary["counts"]["pending"] == 1
