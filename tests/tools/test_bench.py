"""Smoke tests for the benchmark harness (``python -m repro bench``).

Marked ``bench_smoke``: a tiny (500-request) pass that checks the
``repro-bench/6`` JSON schema and the harness's determinism promise
without timing anything meaningful.  Runs inside the tier-1 suite.
"""

import json
import os

import pytest

from repro.tools.bench import (
    BENCH_SCHEMA,
    format_bench,
    run_bench,
    write_bench,
)

REQUIRED_KEYS = {
    "schema",
    "date",
    "python",
    "platform",
    "cpu_count",
    "requests",
    "repeats",
    "workloads",
    "events",
    "figures_sha256",
    "figures_identical",
    "workload_results",
    "kernel",
    "results",
    "shard_scaling",
    "metrics_overhead",
}

RESULT_KEYS = {"workers", "wall_s", "events_per_s", "speedup_vs_serial"}

WORKLOAD_RESULT_KEYS = {"workload", "events", "wall_s", "events_per_s"}

KERNEL_KEYS = {"processes", "timeouts", "events", "wall_s", "events_per_s"}


@pytest.fixture(scope="module")
def smoke_result():
    return run_bench(
        requests=500,
        workers=1,
        repeats=1,
        workloads=("websearch",),
    )


@pytest.mark.bench_smoke
class TestBenchSmoke:
    def test_schema_keys(self, smoke_result):
        assert smoke_result["schema"] == BENCH_SCHEMA
        assert REQUIRED_KEYS <= set(smoke_result)
        for entry in smoke_result["results"]:
            if entry.get("skipped"):
                assert {"workers", "skipped", "reason"} <= set(entry)
            else:
                assert RESULT_KEYS <= set(entry)

    def test_serial_baseline_shape(self, smoke_result):
        assert smoke_result["requests"] == 500
        assert smoke_result["workloads"] == ["websearch"]
        assert smoke_result["cpu_count"] >= 1
        assert smoke_result["events"] > 0
        baseline = smoke_result["results"][0]
        assert baseline["workers"] == 1
        assert baseline["wall_s"] > 0
        assert baseline["events_per_s"] > 0
        assert baseline["speedup_vs_serial"] == 1.0
        assert smoke_result["figures_identical"] is True

    def test_snapshot_round_trips_as_json(self, smoke_result, tmp_path):
        path = write_bench(smoke_result, str(tmp_path / "BENCH_test.json"))
        with open(path, encoding="ascii") as handle:
            loaded = json.load(handle)
        assert loaded == smoke_result

    def test_default_path_uses_date_stamp(self, smoke_result, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_bench(smoke_result)
        stamp = smoke_result["date"].replace("-", "")
        assert path == f"BENCH_{stamp}.json"
        assert (tmp_path / path).exists()

    def test_workload_results_shape(self, smoke_result):
        per_workload = smoke_result["workload_results"]
        assert [e["workload"] for e in per_workload] == ["websearch"]
        entry = per_workload[0]
        assert WORKLOAD_RESULT_KEYS <= set(entry)
        assert entry["events"] > 0
        assert entry["wall_s"] > 0
        assert entry["events_per_s"] > 0
        # The serial pass is the sum of its per-workload jobs.
        assert (
            sum(e["events"] for e in per_workload)
            == smoke_result["events"]
        )

    def test_kernel_microbench_shape(self, smoke_result):
        kernel = smoke_result["kernel"]
        assert KERNEL_KEYS <= set(kernel)
        # Per process: one initialisation event, ``timeouts`` timeout
        # firings, one terminal event — deterministic regardless of
        # host speed.
        expected = kernel["processes"] * (kernel["timeouts"] + 2)
        assert kernel["events"] == expected
        assert kernel["wall_s"] > 0

    def test_shard_scaling_shape(self, smoke_result):
        section = smoke_result["shard_scaling"]
        assert section["disks"] == 16
        # The scaling cell tracks the (smaller) smoke request budget.
        assert section["requests"] == 500
        assert section["events"] > 0
        assert len(section["figures_sha256"]) == 64
        serial = section["results"][0]
        assert serial["shards"] == 1
        assert serial["wall_s"] > 0
        assert serial["speedup_vs_serial"] == 1.0
        assert [e["shards"] for e in section["results"]] == [1, 2, 4]

    def test_shard_scaling_bit_identity(self, smoke_result):
        # Every shard count that executed — timed or skipped-for-cpu —
        # must have reproduced the serial cell's figures exactly.
        section = smoke_result["shard_scaling"]
        executed = [
            e
            for e in section["results"]
            if "figures_identical" in e
        ]
        assert all(e["figures_identical"] for e in executed)
        assert section["figures_identical"] is True

    def test_oversubscribed_shards_not_timed(self, smoke_result):
        cpu = os.cpu_count() or 1
        for entry in smoke_result["shard_scaling"]["results"]:
            if entry["shards"] > cpu:
                assert entry["skipped"] is True
                assert "wall_s" not in entry
            elif not entry.get("skipped"):
                assert entry["wall_s"] > 0

    def test_metrics_overhead_shape(self, smoke_result):
        cell = smoke_result["metrics_overhead"]
        assert cell["workload"] == "websearch"
        # The cell tracks the (smaller) smoke request budget.
        assert cell["requests"] == 500
        assert cell["events"] > 0
        assert cell["off_events_per_s"] > 0
        assert cell["on_events_per_s"] > 0
        # Metering must never perturb simulated time.
        assert cell["figures_identical"] is True

    def test_format_mentions_throughput(self, smoke_result):
        text = format_bench(smoke_result)
        assert "events_per_s" in text
        assert "cpu_count" in text
        assert "kernel microbench" in text
        assert "websearch" in text
        assert "Sharded kernel" in text
        assert "sharded figures identical to serial: True" in text
        assert "metrics overhead" in text
        assert "metered figures identical: True" in text

    def test_oversubscribed_workers_not_timed(self):
        cpu = os.cpu_count() or 1
        result = run_bench(
            requests=300,
            workers=cpu + 3,
            repeats=1,
            workloads=("websearch",),
        )
        timed = [e for e in result["results"] if not e.get("skipped")]
        skipped = [e for e in result["results"] if e.get("skipped")]
        assert all(entry["workers"] <= cpu for entry in timed)
        assert len(skipped) == 1
        assert skipped[0]["workers"] == cpu + 3
        assert f"cpu_count={cpu}" in skipped[0]["reason"]
        assert f"skipped workers={cpu + 3}" in format_bench(result)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench(requests=500, repeats=0)
        with pytest.raises(ValueError, match="unknown workloads"):
            run_bench(requests=500, workloads=("nope",))
