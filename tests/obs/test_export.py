"""Tests for the Chrome trace-event and JSONL exporters."""

import json

from repro.obs.export import (
    SPAN_JSONL_SCHEMA,
    to_chrome_trace,
    to_span_records,
    validate_chrome_trace,
    write_chrome_trace,
    write_span_jsonl,
)
from repro.obs.tracer import Tracer


def sample_tracer():
    tracer = Tracer()
    tracer.span("queue", "queue", 0.0, 2.0, ("drive-a", "queue"))
    tracer.span(
        "seek", "seek", 2.0, 1.5, ("drive-a", "arm 0"), args={"req": 1}
    )
    tracer.span("seek", "seek", 2.0, 0.5, ("drive-b", "arm 1"))
    tracer.instant("arm-select", 2.0, ("drive-a", "arm 0"))
    tracer.telemetry.counter("repro_drive_cache_read_hits_total").inc(4)
    return tracer


class TestChromeTrace:
    def test_validates_clean(self):
        assert validate_chrome_trace(to_chrome_trace(sample_tracer())) == []

    def test_metadata_names_processes_and_threads(self):
        trace = to_chrome_trace(sample_tracer())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert process_names == {"drive-a", "drive-b"}
        assert {"queue", "arm 0", "arm 1"} <= thread_names

    def test_tracks_map_to_stable_pid_tid(self):
        trace = to_chrome_trace(sample_tracer())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_name = {}
        for event in spans:
            by_name.setdefault(event["name"], []).append(event)
        seeks = by_name["seek"]
        assert seeks[0]["pid"] != seeks[1]["pid"]  # different drives
        queue = by_name["queue"][0]
        assert queue["pid"] == seeks[0]["pid"]  # same drive-a process
        assert queue["tid"] != seeks[0]["tid"]  # distinct threads

    def test_milliseconds_scale_to_microseconds(self):
        trace = to_chrome_trace(sample_tracer())
        seek = next(
            e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "seek"
        )
        assert seek["ts"] == 2000.0
        assert seek["dur"] == 1500.0

    def test_instants_are_thread_scoped(self):
        trace = to_chrome_trace(sample_tracer())
        instant = next(
            e for e in trace["traceEvents"] if e["ph"] == "i"
        )
        assert instant["s"] == "t"
        assert "dur" not in instant

    def test_args_pass_through(self):
        trace = to_chrome_trace(sample_tracer())
        seek = next(
            e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("args")
        )
        assert seek["args"] == {"req": 1}

    def test_other_data_carries_telemetry(self):
        trace = to_chrome_trace(sample_tracer())
        other = trace["otherData"]
        assert other["generator"] == "repro.obs"
        families = other["telemetry"]["families"]
        (hits,) = families["repro_drive_cache_read_hits_total"]["series"]
        assert hits["value"] == 4
        assert other["dropped_spans"] == 0

    def test_write_round_trips(self, tmp_path):
        path = write_chrome_trace(
            sample_tracer(), str(tmp_path / "trace.json")
        )
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert validate_chrome_trace(loaded) == []

    def test_empty_tracer_still_valid(self):
        trace = to_chrome_trace(Tracer())
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"] == []


class TestValidation:
    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]

    def test_bad_phase_reported(self):
        trace = {"traceEvents": [{"ph": "Z", "name": "x"}]}
        problems = validate_chrome_trace(trace)
        assert problems and "unsupported ph" in problems[0]

    def test_x_event_needs_dur(self):
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0.0}
            ]
        }
        problems = validate_chrome_trace(trace)
        assert any("dur" in problem for problem in problems)

    def test_non_numeric_ts_reported(self):
        trace = {
            "traceEvents": [
                {
                    "ph": "i",
                    "name": "x",
                    "pid": 1,
                    "tid": 1,
                    "ts": "soon",
                }
            ]
        }
        problems = validate_chrome_trace(trace)
        assert any("ts" in problem for problem in problems)


class TestJsonl:
    def test_records_schema_and_fields(self):
        records = to_span_records(sample_tracer())
        assert all(r["schema"] == SPAN_JSONL_SCHEMA for r in records)
        seek = next(r for r in records if r.get("args"))
        assert seek["name"] == "seek"
        assert seek["ts_ms"] == 2.0
        assert seek["dur_ms"] == 1.5
        assert seek["process"] == "drive-a"
        assert seek["thread"] == "arm 0"

    def test_instant_has_null_duration(self):
        records = to_span_records(sample_tracer())
        instant = next(r for r in records if r["name"] == "arm-select")
        assert instant["dur_ms"] is None

    def test_write_one_object_per_line(self, tmp_path):
        path = write_span_jsonl(
            sample_tracer(), str(tmp_path / "spans.jsonl")
        )
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == 4
        assert lines[0]["schema"] == SPAN_JSONL_SCHEMA
