"""End-to-end tests for the serve subsystem: submit -> work -> result.

The load-bearing property: a duplicate (config, trace, code)
submission costs one simulation and one cache hit, and both return
byte-identical payloads.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    JOB_SCHEMA,
    JobSpec,
    cache_key,
    code_version,
    result_payload_bytes,
    run_job,
)
from repro.serve.queue import JobQueue
from repro.serve.service import result, status, submit, worker_loop

SMALL = dict(workload="websearch", requests=200)

#: Hostile JobSpec payloads: every field name plus stray keys, and
#: JSON values of every type beside values a valid spec would hold.
_SPEC_KEYS = st.one_of(
    st.sampled_from(sorted(JobSpec.__dataclass_fields__) + ["schema"]),
    st.text(max_size=6),
    st.integers(),
)
_SPEC_VALUES = st.one_of(
    st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats()
        | st.text(max_size=8),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=6,
    ),
    st.sampled_from(
        ["websearch", "tpcc", "hcsd", "md", "spc1", "t.trace", JOB_SCHEMA]
    ),
    st.integers(1, 8),
)


class TestJobSpec:
    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec().validate()
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec(workload="websearch", trace_path="x").validate()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            JobSpec(workload="nope").validate()

    def test_md_needs_workload(self):
        with pytest.raises(ValueError, match="HC-SD"):
            JobSpec(trace_path="t.trace", system="md").validate()

    def test_round_trip_dict(self):
        spec = JobSpec(**SMALL)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_fields_rejected(self):
        payload = JobSpec(**SMALL).to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown job fields"):
            JobSpec.from_dict(payload)

    def test_wrong_schema_rejected(self):
        payload = JobSpec(**SMALL).to_dict()
        payload["schema"] = "repro-job/999"
        with pytest.raises(ValueError, match="schema"):
            JobSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rpm", "fast"),
            ("rpm", -5400),
            ("rpm", 0),
            ("rpm", float("nan")),
            ("rpm", float("inf")),
            pytest.param("rpm", 10**400, id="rpm-huge-int"),
            ("rpm", True),
            ("seed", "x"),
            ("seed", 1.0),
            ("seed", False),
            ("actuators", 1.5),
            ("actuators", "2"),
            ("actuators", True),
            ("actuators", 0),
            ("requests", 10.5),
            ("requests", True),
            ("requests", "10"),
            ("disks", "3"),
            ("disks", 0),
            ("chunk_requests", None),
            ("system", ["hcsd"]),
            ("workload", ["websearch"]),
            ("trace_format", "csv"),
        ],
    )
    def test_bad_field_types_and_ranges_rejected(self, field, value):
        payload = JobSpec(**SMALL).to_dict()
        payload[field] = value
        with pytest.raises(ValueError):
            JobSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "overrides",
        [{"rpm": 5400}, {"rpm": 5400.0}, {"seed": 7}, {"seed": None}],
    )
    def test_numeric_fields_accept_json_numbers(self, overrides):
        payload = dict(JobSpec(**SMALL).to_dict(), **overrides)
        assert JobSpec.from_dict(payload).to_dict() == payload

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict(["websearch"])

    def test_unknown_keys_of_any_type_rejected(self):
        payload = JobSpec(**SMALL).to_dict()
        payload[3] = "x"
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown job fields"):
            JobSpec.from_dict(payload)

    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(_SPEC_KEYS, _SPEC_VALUES, max_size=12))
    def test_from_dict_returns_a_spec_or_raises_value_error(self, payload):
        try:
            spec = JobSpec.from_dict(payload)
        except ValueError:
            return
        assert JobSpec.from_dict(spec.to_dict()) == spec
        spec.config_digest()

    def test_chunk_size_excluded_from_cache_key(self):
        a = JobSpec(**SMALL, chunk_requests=100)
        b = JobSpec(**SMALL, chunk_requests=100000)
        assert cache_key(a) == cache_key(b)

    def test_config_changes_change_the_key(self):
        base = JobSpec(**SMALL)
        assert cache_key(base) != cache_key(
            JobSpec(workload="websearch", requests=201)
        )
        assert cache_key(base) != cache_key(
            JobSpec(**SMALL, actuators=2)
        )
        assert cache_key(base) != cache_key(
            JobSpec(workload="tpcc", requests=200)
        )

    def test_trace_digest_tracks_file_bytes(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0.0 0 100 8 R\n")
        spec = JobSpec(trace_path=str(path), requests=None)
        first = spec.trace_digest()
        path.write_text("0.0 0 100 8 W\n")
        assert spec.trace_digest() != first

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64


class TestRunJob:
    def test_payload_is_deterministic(self):
        spec = JobSpec(**SMALL)
        first, _ = run_job(spec)
        second, _ = run_job(spec)
        assert result_payload_bytes(first) == result_payload_bytes(second)

    def test_payload_carries_digests_not_paths(self, tmp_path):
        from repro.workloads.commercial import WEBSEARCH
        from repro.workloads.trace import save_trace

        path = tmp_path / "w.trace"
        save_trace(path, WEBSEARCH.generate(150))
        spec = JobSpec(trace_path=str(path), requests=None)
        payload, stats = run_job(spec)
        assert str(path) not in json.dumps(payload)
        assert payload["job"]["trace_digest"] == spec.trace_digest()
        assert stats["completed"] == 150
        assert stats["chunks"] >= 1

    def test_trace_job_chunking_does_not_change_figures(self, tmp_path):
        from repro.workloads.commercial import WEBSEARCH
        from repro.workloads.trace import save_trace

        path = tmp_path / "w.trace"
        save_trace(path, WEBSEARCH.generate(300))
        coarse, _ = run_job(
            JobSpec(trace_path=str(path), requests=None)
        )
        fine, _ = run_job(
            JobSpec(trace_path=str(path), requests=None,
                    chunk_requests=64)
        )
        assert coarse["figures_sha256"] == fine["figures_sha256"]
        assert result_payload_bytes(coarse) == result_payload_bytes(fine)


class TestTraceFileJobs:
    """A trace-file job reads exactly the records it replays."""

    def test_parsing_stops_at_requests(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(
            "0.0 0 0 8 R\n1.0 0 8 8 R\n2.0 0 16 8 R\nnot a record\n"
        )
        payload, stats = run_job(JobSpec(trace_path=str(path), requests=3))
        assert stats["completed"] == payload["figures"]["requests"] == 3
        with pytest.raises(ValueError, match=r"t\.trace:4: "):
            run_job(JobSpec(trace_path=str(path), requests=4))

    def test_truncated_replay_reports_skipped_lines(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry, metrics_session

        path = tmp_path / "t.trace"
        path.write_text(
            "# a\n0.0 0 0 8 R\n# b\n\n1.0 0 8 8 R\n# c\n2.0 0 16 8 R\n"
        )
        with metrics_session(MetricsRegistry()) as registry:
            run_job(JobSpec(trace_path=str(path), requests=2))
        family = registry.counter(
            "repro_trace_skipped_lines_total", labels=("reason",)
        )
        assert family.labels(reason="comments").value == 2
        assert family.labels(reason="blank").value == 1

    @pytest.mark.parametrize("arrival", ["nan", "inf"])
    def test_non_finite_arrival_fails_the_job(self, tmp_path, arrival):
        path = tmp_path / "t.spc"
        path.write_text(f"0,0,4096,R,0.0\n0,8,4096,R,{arrival}\n"
                        "0,16,4096,R,0.002\n")
        with pytest.raises(ValueError, match=r"t\.spc:2: .*finite"):
            run_job(JobSpec(trace_path=str(path), requests=None))


class TestService:
    def test_submit_enqueues_with_digests(self, tmp_path):
        record = submit(tmp_path / "q", JobSpec(**SMALL))
        assert record["cache_key"] == cache_key(JobSpec(**SMALL))
        assert not record["already_cached"]
        queue = JobQueue(tmp_path / "q")
        assert queue.counts()["pending"] == 1

    def test_duplicate_submission_one_run_one_hit(self, tmp_path):
        """The tentpole acceptance check, in-process."""
        q = tmp_path / "q"
        first = submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True)
        second = submit(q, JobSpec(**SMALL))
        assert second["already_cached"]
        worker_loop(q, drain=True)

        first_record = status(q, first["job_id"])
        second_record = status(q, second["job_id"])
        assert first_record["outcome"]["cached"] is False
        assert second_record["outcome"]["cached"] is True
        assert (
            first_record["outcome"]["figures_sha256"]
            == second_record["outcome"]["figures_sha256"]
        )
        _, payload_a = result(q, first["job_id"])
        _, payload_b = result(q, second["job_id"])
        assert payload_a == payload_b  # byte-identical
        assert payload_a is not None
        # One simulation ran: only the miss carries run statistics.
        assert "requests" in first_record["outcome"]
        assert "requests" not in second_record["outcome"]
        assert len(ResultCache(q / "cache")) == 1

    def test_failed_job_lands_in_failed_with_error(self, tmp_path):
        q = tmp_path / "q"
        queue = JobQueue(q)
        spec = JobSpec(trace_path=str(tmp_path / "missing.trace"),
                       requests=None)
        # Bypass submit's digest computation (the file must be
        # readable there); enqueue the raw record as a crashed client
        # might have.
        queue.enqueue("job-bad", {"job_id": "job-bad",
                                  "spec": spec.to_dict()})
        worker_loop(q, drain=True)
        record = status(q, "job-bad")
        assert record["state"] == "failed"
        assert "missing.trace" in record["outcome"]["error"]
        _, payload = result(q, "job-bad")
        assert payload is None

    def test_worker_telemetry_snapshot(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        submit(q, JobSpec(**SMALL))
        snapshot = worker_loop(q, drain=True)
        assert snapshot["processed"] == 2
        counters = snapshot["counters"]
        assert counters["jobs.cache_misses"] == 1
        assert counters["jobs.cache_hits"] == 1
        assert counters["jobs.completed"] == 2

    def test_max_jobs_bounds_the_loop(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        submit(q, JobSpec(workload="websearch", requests=201))
        snapshot = worker_loop(q, drain=True, max_jobs=1)
        assert snapshot["processed"] == 1
        assert JobQueue(q).counts()["pending"] == 1

    def test_status_summary_counts(self, tmp_path):
        q = tmp_path / "q"
        submit(q, JobSpec(**SMALL))
        summary = status(q)
        assert summary["counts"]["pending"] == 1
        assert summary["jobs"]["failed"] == []

    def test_result_before_completion_is_none(self, tmp_path):
        q = tmp_path / "q"
        record = submit(q, JobSpec(**SMALL))
        got, payload = result(q, record["job_id"])
        assert got["state"] == "pending"
        assert payload is None
