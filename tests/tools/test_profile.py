"""Smoke tests for ``python -m repro profile`` (repro.tools.profile).

Marked ``bench_smoke`` like the bench tests: profiling runs real
simulation passes, so these stay tiny.
"""

import json

import pytest

from repro.cli import main
from repro.tools.profile import (
    format_compare,
    format_profile,
    run_compare,
    run_profile,
)

ENTRY_KEYS = {
    "function",
    "file",
    "line",
    "ncalls",
    "primitive_calls",
    "tottime_s",
    "cumtime_s",
}


@pytest.mark.bench_smoke
class TestRunProfile:
    def test_kernel_target_shape(self):
        result = run_profile(target="kernel", top=5)
        assert result["target"] == "kernel"
        assert result["requests"] is None
        assert result["total_calls"] > 0
        assert result["total_time_s"] > 0
        assert 0 < len(result["entries"]) <= 5
        for entry in result["entries"]:
            assert ENTRY_KEYS <= set(entry)

    def test_kernel_profile_sees_the_engine_loop(self):
        result = run_profile(target="kernel", top=10)
        functions = {entry["function"] for entry in result["entries"]}
        assert "run" in functions or "_kernel_pass" in functions

    def test_bench_target_respects_workload_selection(self):
        result = run_profile(
            target="bench", requests=100, workloads=["websearch"], top=5
        )
        assert result["requests"] == 100
        assert result["entries"]

    def test_sort_orders_entries(self):
        result = run_profile(target="kernel", top=50, sort="tottime")
        times = [entry["tottime_s"] for entry in result["entries"]]
        assert times == sorted(times, reverse=True)

    def test_result_is_json_serialisable(self):
        result = run_profile(target="kernel", top=3)
        assert json.loads(json.dumps(result)) == result

    def test_single_shard_is_the_classic_kernel_row(self):
        from repro.tools.bench import KERNEL_PROCESSES, KERNEL_TIMEOUTS

        result = run_profile(target="kernel", top=3)
        assert result["shards"] == 1
        rows = result["kernel_shards"]
        assert len(rows) == 1
        row = rows[0]
        assert row["shard"] == 0
        assert row["processes"] == KERNEL_PROCESSES
        assert row["timeouts"] == KERNEL_TIMEOUTS
        # Deterministic event count of the classic microbenchmark:
        # per process, one initialisation, ``timeouts`` firings, one
        # terminal event.
        assert row["events"] == KERNEL_PROCESSES * (KERNEL_TIMEOUTS + 2)
        assert row["wall_s"] > 0

    def test_shard_rows_partition_the_kernel(self):
        from repro.tools.bench import KERNEL_PROCESSES, KERNEL_TIMEOUTS

        result = run_profile(target="kernel", top=3, shards=4)
        rows = result["kernel_shards"]
        assert [row["shard"] for row in rows] == [0, 1, 2, 3]
        assert (
            sum(row["processes"] for row in rows) == KERNEL_PROCESSES
        )
        for row in rows:
            expected = row["processes"] * (KERNEL_TIMEOUTS + 2)
            assert row["events"] == expected

    def test_bench_target_has_no_shard_rows(self):
        result = run_profile(
            target="bench", requests=100, workloads=["websearch"], top=3
        )
        assert result["shards"] is None
        assert result["kernel_shards"] is None

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown profile target"):
            run_profile(target="nope")
        with pytest.raises(ValueError, match="unknown sort key"):
            run_profile(target="kernel", sort="calls")
        with pytest.raises(ValueError, match="top"):
            run_profile(target="kernel", top=0)
        with pytest.raises(ValueError, match="requests"):
            run_profile(requests=0)
        with pytest.raises(ValueError, match="unknown workloads"):
            run_profile(requests=100, workloads=["nope"])
        with pytest.raises(ValueError, match="shards"):
            run_profile(target="kernel", shards=0)

    def test_format_mentions_total(self):
        result = run_profile(target="kernel", top=3)
        text = format_profile(result)
        assert "Profile: kernel" in text
        assert "total:" in text
        assert "cumtime_s" in text


@pytest.mark.bench_smoke
class TestRunCompare:
    @pytest.fixture(scope="class")
    def baseline_path(self, tmp_path_factory):
        from repro.tools.bench import run_bench, write_bench

        result = run_bench(
            requests=200, workers=1, repeats=1, workloads=("websearch",)
        )
        directory = tmp_path_factory.mktemp("compare")
        return write_bench(result, str(directory / "base.json"))

    def test_cells_cover_workloads_and_kernel(self, baseline_path):
        result = run_compare(baseline_path)
        names = [cell["cell"] for cell in result["cells"]]
        assert names == ["workload:websearch", "kernel"]
        for cell in result["cells"]:
            assert cell["baseline_events_per_s"] > 0
            assert cell["current_events_per_s"] > 0
            assert cell["delta_fraction"] is not None
        assert result["requests"] == 200
        assert result["baseline_schema"] == "repro-bench/6"

    def test_result_is_json_serialisable(self, baseline_path):
        result = run_compare(baseline_path)
        assert json.loads(json.dumps(result)) == result

    def test_migrated_baseline_skips_unrecorded_cells(self, tmp_path):
        from repro.tools.bench import (
            BENCH_SCHEMA_V2,
            load_bench,
            run_bench,
            write_bench,
        )

        snapshot = run_bench(
            requests=200, workers=1, repeats=1, workloads=("websearch",)
        )
        # Demote the fresh snapshot to v2, which predates the
        # per-workload and kernel cells: neither is re-timed.
        snapshot["schema"] = BENCH_SCHEMA_V2
        del snapshot["workload_results"], snapshot["kernel"]
        path = write_bench(snapshot, str(tmp_path / "v2.json"))
        assert load_bench(path)["kernel"] is None
        result = run_compare(path)
        assert result["cells"] == []
        assert result["baseline_schema"] == BENCH_SCHEMA_V2

    def test_format_lists_every_cell(self, baseline_path):
        result = run_compare(baseline_path)
        text = format_compare(result)
        assert "Per-cell events/s vs" in text
        assert "workload:websearch" in text
        assert "kernel" in text
        assert "%" in text

    def test_bad_inputs_rejected(self, baseline_path, tmp_path):
        with pytest.raises(ValueError, match="repeats"):
            run_compare(baseline_path, repeats=0)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            run_compare(str(bad))


@pytest.mark.bench_smoke
class TestProfileCli:
    def test_cli_table_output(self, capsys):
        assert main(["profile", "--target", "kernel", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Profile: kernel" in out

    def test_cli_json_output(self, capsys):
        code = main(["profile", "--target", "kernel", "--top", "3",
                     "--json"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["target"] == "kernel"
        assert len(result["entries"]) == 3
        assert len(result["kernel_shards"]) == 1

    def test_cli_shards_flag_reaches_the_profiler(self, capsys):
        code = main(["profile", "--target", "kernel", "--top", "3",
                     "--json", "--shards", "2"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["shards"] == 2
        assert [r["shard"] for r in result["kernel_shards"]] == [0, 1]

    def test_cli_unknown_workload_exits_cleanly(self):
        with pytest.raises(SystemExit, match="profile:"):
            main(["profile", "--requests", "100", "--workloads", "nope"])

    def test_cli_compare_table(self, tmp_path, capsys):
        from repro.tools.bench import run_bench, write_bench

        result = run_bench(
            requests=200, workers=1, repeats=1, workloads=("websearch",)
        )
        path = write_bench(result, str(tmp_path / "base.json"))
        assert main(["profile", "--compare", path]) == 0
        out = capsys.readouterr().out
        assert "Per-cell events/s vs" in out
        assert "workload:websearch" in out

    def test_cli_compare_json(self, tmp_path, capsys):
        from repro.tools.bench import run_bench, write_bench

        snapshot = run_bench(
            requests=200, workers=1, repeats=1, workloads=("websearch",)
        )
        path = write_bench(snapshot, str(tmp_path / "base.json"))
        assert main(["profile", "--compare", path, "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["baseline_path"] == path
        assert [c["cell"] for c in result["cells"]][0] == (
            "workload:websearch"
        )

    def test_cli_compare_missing_file_exits_cleanly(self):
        with pytest.raises(SystemExit, match="profile --compare"):
            main(["profile", "--compare", "/no/such/base.json"])
