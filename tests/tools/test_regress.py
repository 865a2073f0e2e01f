"""Tests for the bench regression gate (repro.tools.regress) and the
snapshot loader/validator/migrator (repro.tools.bench)."""

import json

import pytest

from repro.cli import main
from repro.tools.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_V1,
    BENCH_SCHEMA_V2,
    BENCH_SCHEMA_V3,
    BENCH_SCHEMA_V4,
    BENCH_SCHEMA_V5,
    load_bench,
    migrate_bench,
    validate_bench,
    write_bench,
)
from repro.tools.regress import CheckResult, compare_bench, format_check


def shard_scaling(**overrides):
    base = {
        "disks": 16,
        "interarrival_ms": 4.0,
        "requests": 2000,
        "events": 40000,
        "figures_sha256": "c" * 64,
        "figures_identical": True,
        "results": [
            {
                "shards": 1,
                "wall_s": 1.0,
                "events_per_s": 40000.0,
                "speedup_vs_serial": 1.0,
            },
            {
                "shards": 2,
                "skipped": True,
                "reason": "exceeds cpu_count=1",
                "figures_identical": True,
            },
        ],
    }
    base.update(overrides)
    return base


def snapshot(**overrides):
    base = {
        "schema": BENCH_SCHEMA,
        "date": "2026-08-06",
        "python": "3.11.0",
        "platform": "test",
        "cpu_count": 4,
        "requests": 6000,
        "repeats": 3,
        "workloads": ["financial", "websearch", "tpcc", "tpch"],
        "events": 1000,
        "figures_sha256": "a" * 64,
        "figures_identical": True,
        "workload_results": [
            {
                "workload": "websearch",
                "events": 250,
                "wall_s": 0.5,
                "events_per_s": 500.0,
            }
        ],
        "kernel": {
            "processes": 50,
            "timeouts": 2000,
            "events": 100050,
            "wall_s": 0.3,
            "events_per_s": 333500.0,
        },
        "results": [
            {
                "workers": 1,
                "wall_s": 2.0,
                "events_per_s": 500.0,
                "speedup_vs_serial": 1.0,
            }
        ],
        "shard_scaling": shard_scaling(),
        "metrics_overhead": {
            "workload": "websearch",
            "requests": 2000,
            "events": 250,
            "off_events_per_s": 500.0,
            "on_events_per_s": 495.0,
            "overhead_fraction": 0.01,
            "figures_identical": True,
        },
    }
    base.update(overrides)
    if base["schema"] not in (BENCH_SCHEMA, BENCH_SCHEMA_V5):
        # v1-v4 also predate the metrics-overhead cell.
        base.pop("metrics_overhead", None)
    if base["schema"] not in (BENCH_SCHEMA, BENCH_SCHEMA_V5,
                              BENCH_SCHEMA_V4):
        # v1/v2/v3 also predate the shard-scaling section.
        base.pop("shard_scaling", None)
    if base["schema"] in (BENCH_SCHEMA_V1, BENCH_SCHEMA_V2):
        # v1/v2 also predate the per-workload and kernel sections.
        base.pop("workload_results", None)
        base.pop("kernel", None)
    return base


class TestValidateBench:
    def test_valid_passes(self):
        validate_bench(snapshot())

    def test_not_a_dict(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            validate_bench([])

    def test_missing_schema(self):
        bad = snapshot()
        del bad["schema"]
        with pytest.raises(ValueError, match="missing 'schema'"):
            validate_bench(bad)

    def test_unsupported_schema(self):
        with pytest.raises(ValueError, match="unsupported schema"):
            validate_bench(snapshot(schema="repro-bench/9"))

    def test_missing_keys_listed(self):
        bad = snapshot()
        del bad["events"], bad["figures_sha256"]
        with pytest.raises(ValueError, match="events"):
            validate_bench(bad)

    def test_empty_results(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_bench(snapshot(results=[]))

    def test_entry_missing_workers(self):
        bad = snapshot(results=[{"events_per_s": 1.0}])
        with pytest.raises(ValueError, match="missing 'workers'"):
            validate_bench(bad)

    def test_timed_entry_needs_events_per_s(self):
        bad = snapshot(results=[{"workers": 1}])
        with pytest.raises(ValueError, match="events_per_s"):
            validate_bench(bad)

    def test_skipped_entry_needs_no_timing(self):
        validate_bench(
            snapshot(
                results=[
                    {"workers": 1, "events_per_s": 1.0},
                    {"workers": 8, "skipped": True, "reason": "x"},
                ]
            )
        )

    def test_source_named_in_error(self):
        with pytest.raises(ValueError, match="base.json"):
            validate_bench([], source="base.json")

    def test_v3_requires_workload_results_and_kernel(self):
        bad = snapshot()
        del bad["workload_results"], bad["kernel"]
        with pytest.raises(ValueError, match="workload_results"):
            validate_bench(bad)

    def test_v2_accepted_without_v3_keys(self):
        validate_bench(snapshot(schema=BENCH_SCHEMA_V2))

    def test_v3_accepted_without_shard_scaling(self):
        validate_bench(snapshot(schema=BENCH_SCHEMA_V3))

    def test_v4_requires_shard_scaling(self):
        bad = snapshot()
        del bad["shard_scaling"]
        with pytest.raises(ValueError, match="shard_scaling"):
            validate_bench(bad)

    def test_v4_accepted_without_metrics_overhead(self):
        validate_bench(snapshot(schema=BENCH_SCHEMA_V4))

    def test_v5_requires_metrics_overhead(self):
        bad = snapshot(schema=BENCH_SCHEMA_V5)
        del bad["metrics_overhead"]
        with pytest.raises(ValueError, match="metrics_overhead"):
            validate_bench(bad)

    def test_v5_accepted_without_scheduler(self):
        validate_bench(snapshot(schema=BENCH_SCHEMA_V5))

    def test_v6_scheduler_key_optional_and_ignored(self):
        # v6 snapshots written before the calendar queue was deleted
        # carry a ``scheduler`` cell; they still validate and load
        # unchanged, and newer ones omit it.
        validate_bench(snapshot())
        legacy = snapshot(scheduler={"processes": 50})
        assert migrate_bench(legacy) == legacy


class TestMigrateBench:
    def test_current_schema_returned_as_copy(self):
        original = snapshot()
        migrated = migrate_bench(original)
        assert migrated == original
        assert migrated is not original

    def test_v5_stamped_current(self):
        migrated = migrate_bench(snapshot(schema=BENCH_SCHEMA_V5))
        assert migrated["schema"] == BENCH_SCHEMA
        assert migrated["migrated_from"] == BENCH_SCHEMA_V5
        assert "scheduler" not in migrated
        # v5 sections survive the hop untouched.
        assert migrated["metrics_overhead"]["workload"] == "websearch"
        assert migrated["shard_scaling"]["disks"] == 16

    def test_v4_gains_null_metrics_overhead(self):
        migrated = migrate_bench(snapshot(schema=BENCH_SCHEMA_V4))
        assert migrated["schema"] == BENCH_SCHEMA
        assert migrated["migrated_from"] == BENCH_SCHEMA_V4
        assert migrated["metrics_overhead"] is None
        # v4 sections survive the hop untouched.
        assert migrated["shard_scaling"]["disks"] == 16

    def test_v3_gains_null_shard_scaling(self):
        migrated = migrate_bench(snapshot(schema=BENCH_SCHEMA_V3))
        assert migrated["schema"] == BENCH_SCHEMA
        assert migrated["migrated_from"] == BENCH_SCHEMA_V3
        assert migrated["shard_scaling"] is None
        assert migrated["metrics_overhead"] is None
        # v3 sections survive the hop untouched.
        assert migrated["kernel"]["processes"] == 50
        assert migrated["workload_results"]

    def test_v2_gains_empty_workload_and_kernel_sections(self):
        migrated = migrate_bench(snapshot(schema=BENCH_SCHEMA_V2))
        assert migrated["schema"] == BENCH_SCHEMA
        assert migrated["migrated_from"] == BENCH_SCHEMA_V2
        assert migrated["workload_results"] == []
        assert migrated["kernel"] is None
        assert migrated["shard_scaling"] is None

    def test_v1_chains_through_every_version_to_current(self):
        v1 = snapshot(
            schema=BENCH_SCHEMA_V1,
            cpu_count=2,
            results=[
                {"workers": 1, "wall_s": 2.0, "events_per_s": 500.0,
                 "speedup_vs_serial": 1.0},
                {"workers": 8, "wall_s": 3.0, "events_per_s": 300.0,
                 "speedup_vs_serial": 0.7},
            ],
        )
        migrated = migrate_bench(v1)
        assert migrated["schema"] == BENCH_SCHEMA
        assert migrated["migrated_from"] == BENCH_SCHEMA_V1
        assert migrated["results"][1]["skipped"] is True
        assert migrated["workload_results"] == []
        assert migrated["kernel"] is None
        assert migrated["shard_scaling"] is None
        assert migrated["metrics_overhead"] is None

    def test_v1_oversubscribed_entries_demoted(self):
        v1 = snapshot(
            schema=BENCH_SCHEMA_V1,
            cpu_count=2,
            results=[
                {"workers": 1, "wall_s": 2.0, "events_per_s": 500.0,
                 "speedup_vs_serial": 1.0},
                {"workers": 8, "wall_s": 3.0, "events_per_s": 300.0,
                 "speedup_vs_serial": 0.7},
            ],
        )
        migrated = migrate_bench(v1)
        assert migrated["schema"] == BENCH_SCHEMA
        assert migrated["migrated_from"] == BENCH_SCHEMA_V1
        serial, demoted = migrated["results"]
        assert serial["events_per_s"] == 500.0
        assert demoted["skipped"] is True
        assert demoted["workers"] == 8
        assert "cpu_count=2" in demoted["reason"]
        assert "wall_s" not in demoted

    def test_v1_within_cpu_budget_kept(self):
        v1 = snapshot(
            schema=BENCH_SCHEMA_V1,
            cpu_count=4,
            results=[
                {"workers": 2, "wall_s": 1.0, "events_per_s": 100.0,
                 "speedup_vs_serial": 1.5}
            ],
        )
        migrated = migrate_bench(v1)
        assert migrated["results"][0]["events_per_s"] == 100.0


class TestLoadBench:
    def test_round_trip(self, tmp_path):
        path = write_bench(snapshot(), str(tmp_path / "b.json"))
        assert load_bench(path) == snapshot()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_bench(str(path))

    def test_path_named_in_schema_error(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(snapshot(schema="repro-bench/0")))
        with pytest.raises(ValueError, match="old.json"):
            load_bench(str(path))

    def test_v1_loaded_migrated(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(snapshot(schema=BENCH_SCHEMA_V1)))
        loaded = load_bench(str(path))
        assert loaded["schema"] == BENCH_SCHEMA
        assert loaded["migrated_from"] == BENCH_SCHEMA_V1


class TestCompareBench:
    def test_identical_snapshots_pass(self):
        result = compare_bench(snapshot(), snapshot())
        assert result.ok
        assert result.digest_checked
        assert result.throughput_ratio == 1.0
        assert "PASSED" in format_check(result)

    def test_digest_mismatch_fails(self):
        result = compare_bench(
            snapshot(), snapshot(figures_sha256="b" * 64)
        )
        assert not result.ok
        assert any("digest mismatch" in p for p in result.problems)
        assert "FAILED" in format_check(result)

    def test_event_count_change_fails(self):
        result = compare_bench(snapshot(), snapshot(events=999))
        assert any("event count" in p for p in result.problems)

    def test_figures_not_identical_fails(self):
        result = compare_bench(
            snapshot(), snapshot(figures_identical=False)
        )
        assert any("determinism" in p for p in result.problems)

    def test_shard_figures_not_identical_fails(self):
        broken = snapshot(
            shard_scaling=shard_scaling(figures_identical=False)
        )
        result = compare_bench(snapshot(), broken)
        assert not result.ok
        assert any("bit-identity" in p for p in result.problems)

    def test_shard_cell_digest_mismatch_fails(self):
        drifted = snapshot(
            shard_scaling=shard_scaling(figures_sha256="d" * 64)
        )
        result = compare_bench(snapshot(), drifted)
        assert not result.ok
        assert any(
            "shard-scaling cell digest mismatch" in p
            for p in result.problems
        )

    def test_shard_digest_skipped_for_different_cell(self):
        smaller = snapshot(
            shard_scaling=shard_scaling(
                requests=400, figures_sha256="d" * 64
            )
        )
        result = compare_bench(snapshot(), smaller)
        assert result.ok

    def test_pre_v4_baseline_skips_shard_digest_with_note(self):
        result = compare_bench(
            snapshot(schema=BENCH_SCHEMA_V3), snapshot()
        )
        assert result.ok
        assert any("predates repro-bench/4" in n for n in result.notes)

    def test_different_requests_skips_digest(self):
        current = snapshot(
            requests=500, figures_sha256="b" * 64, events=7
        )
        result = compare_bench(snapshot(), current)
        assert result.ok
        assert not result.digest_checked
        assert any("digest not compared" in n for n in result.notes)
        assert "skipped" in format_check(result)

    def test_throughput_below_tolerance_fails(self):
        slow = snapshot(
            results=[
                {"workers": 1, "wall_s": 10.0, "events_per_s": 100.0,
                 "speedup_vs_serial": 1.0}
            ]
        )
        result = compare_bench(snapshot(), slow, tolerance=0.5)
        assert not result.ok
        assert result.throughput_ratio == pytest.approx(0.2)
        assert any("regressed" in p for p in result.problems)

    def test_zero_tolerance_disables_gate(self):
        slow = snapshot(
            results=[
                {"workers": 1, "wall_s": 10.0, "events_per_s": 100.0,
                 "speedup_vs_serial": 1.0}
            ]
        )
        result = compare_bench(snapshot(), slow, tolerance=0)
        assert result.ok
        assert result.throughput_ratio == pytest.approx(0.2)

    def test_missing_serial_entry_noted(self):
        headless = snapshot(
            results=[{"workers": 8, "skipped": True, "reason": "x"}]
        )
        result = compare_bench(snapshot(), headless)
        assert result.throughput_ratio is None
        assert any("not compared" in n for n in result.notes)

    def test_invalid_baseline_is_a_problem(self):
        result = compare_bench({"schema": "repro-bench/9"}, snapshot())
        assert not result.ok
        assert any("baseline invalid" in p for p in result.problems)

    def test_invalid_current_is_a_problem(self):
        result = compare_bench(snapshot(), {})
        assert any("current run invalid" in p for p in result.problems)

    def test_v1_baseline_migrated_and_noted(self):
        result = compare_bench(
            snapshot(schema=BENCH_SCHEMA_V1), snapshot()
        )
        assert result.ok
        assert any("migrated from" in n for n in result.notes)

    def test_platform_difference_noted(self):
        result = compare_bench(snapshot(), snapshot(platform="other"))
        assert result.ok
        assert any("platform differs" in n for n in result.notes)

    def test_cpu_count_mismatch_is_a_note_not_a_problem(self):
        result = compare_bench(snapshot(), snapshot(cpu_count=1))
        assert result.ok
        assert any("cpu_count differs" in n for n in result.notes)
        assert any("throughput gate disabled" in n for n in result.notes)

    def test_cpu_count_mismatch_noted_with_gate_off(self):
        result = compare_bench(
            snapshot(), snapshot(cpu_count=1), tolerance=0
        )
        assert result.ok
        assert any("cpu_count differs" in n for n in result.notes)

    def test_cpu_count_mismatch_skips_throughput_gate(self):
        # Even a catastrophic apparent slowdown is not gated when the
        # hosts differ — the gate auto-disables with a note while the
        # correctness gates stay armed.
        slow = snapshot(
            cpu_count=1,
            results=[
                {"workers": 1, "wall_s": 100.0, "events_per_s": 10.0,
                 "speedup_vs_serial": 1.0}
            ],
        )
        result = compare_bench(snapshot(), slow, tolerance=0.5)
        assert result.ok
        assert not any("regressed" in p for p in result.problems)
        assert any("cpu_count differs" in n for n in result.notes)

    def test_cpu_count_mismatch_still_gates_digest(self):
        # Host differences never excuse a digest mismatch.
        bad = snapshot(cpu_count=1, figures_sha256="f" * 64)
        result = compare_bench(snapshot(), bad)
        assert not result.ok
        assert any("digest mismatch" in p for p in result.problems)

    def test_kernel_throughput_noted(self):
        result = compare_bench(snapshot(), snapshot())
        assert any("kernel microbench" in n for n in result.notes)

    def test_kernel_note_absent_for_migrated_baseline(self):
        result = compare_bench(
            snapshot(schema=BENCH_SCHEMA_V2), snapshot()
        )
        assert result.ok
        assert not any("kernel microbench" in n for n in result.notes)

    def test_empty_checkresult_is_ok(self):
        assert CheckResult().ok


@pytest.mark.bench_smoke
class TestBenchCheckCli:
    def baseline_from_run(self, tmp_path):
        from repro.tools.bench import run_bench

        result = run_bench(
            requests=300, workers=1, repeats=1, workloads=("websearch",)
        )
        return result, write_bench(result, str(tmp_path / "base.json"))

    def test_check_against_matching_baseline(self, tmp_path, capsys):
        _, path = self.baseline_from_run(tmp_path)
        code = main(
            [
                "bench", "--check", path, "--repeats", "1",
                "--workloads", "websearch", "--tolerance", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench check PASSED (figure digest identical)" in out

    def test_check_adopts_baseline_requests(self, tmp_path, capsys):
        # No --requests on the command line: the checker reruns at the
        # baseline's request count so digests stay comparable.
        _, path = self.baseline_from_run(tmp_path)
        assert (
            main(
                [
                    "bench", "--check", path, "--repeats", "1",
                    "--workloads", "websearch", "--tolerance", "0",
                ]
            )
            == 0
        )
        assert "digest identical" in capsys.readouterr().out

    def test_check_digest_mismatch_exits_nonzero(self, tmp_path, capsys):
        result, _ = self.baseline_from_run(tmp_path)
        result["figures_sha256"] = "0" * 64
        doctored = str(tmp_path / "doctored.json")
        write_bench(result, doctored)
        with pytest.raises(SystemExit):
            main(
                [
                    "bench", "--check", doctored, "--repeats", "1",
                    "--workloads", "websearch", "--tolerance", "0",
                ]
            )
        assert "digest mismatch" in capsys.readouterr().out

    def test_check_bad_baseline_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-bench/9"}')
        with pytest.raises(SystemExit, match="bench --check"):
            main(["bench", "--check", str(bad), "--repeats", "1"])
