"""Smoke tests for ``python -m repro profile`` (repro.tools.profile).

Profiling runs real simulation passes, so these stay tiny: one
100-request websearch pass.
"""

import json

import pytest

from repro.cli import main
from repro.tools.profile import format_profile, run_profile

ENTRY_KEYS = {
    "function",
    "file",
    "line",
    "ncalls",
    "primitive_calls",
    "tottime_s",
    "cumtime_s",
}

SMALL = ["--requests", "100", "--workloads", "websearch"]


@pytest.fixture(scope="module")
def profiled():
    return run_profile(requests=100, workloads=["websearch"], top=10)


class TestRunProfile:
    def test_result_shape(self, profiled):
        assert profiled["requests"] == 100
        assert profiled["total_calls"] > 0
        assert profiled["total_time_s"] > 0
        assert 0 < len(profiled["entries"]) <= 10
        for entry in profiled["entries"]:
            assert ENTRY_KEYS <= set(entry)

    def test_bench_target_respects_workload_selection(self, profiled):
        calls = {
            entry["function"]: entry["ncalls"]
            for entry in profiled["entries"]
        }
        # One selected workload: one pass, replayed on MD and HC-SD.
        assert calls["_bench_job"] == 1
        assert calls["run_trace"] == 2

    def test_sort_orders_entries(self):
        result = run_profile(
            requests=100, workloads=["websearch"], top=50, sort="tottime"
        )
        times = [entry["tottime_s"] for entry in result["entries"]]
        assert times == sorted(times, reverse=True)

    def test_result_is_json_serialisable(self, profiled):
        assert json.loads(json.dumps(profiled)) == profiled

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown sort key"):
            run_profile(sort="calls")
        with pytest.raises(ValueError, match="top"):
            run_profile(top=0)
        with pytest.raises(ValueError, match="requests"):
            run_profile(requests=0)
        with pytest.raises(ValueError, match="workloads"):
            run_profile(requests=100, workloads=["nope"])

    def test_format_mentions_total(self, profiled):
        text = format_profile(profiled)
        assert "Profile: bench pass (100 requests/workload)" in text
        assert "total:" in text
        assert "cumtime_s" in text


class TestProfileCli:
    def test_cli_table_output(self, capsys):
        assert main(["profile", *SMALL, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Profile: bench pass" in out

    def test_cli_json_output(self, capsys):
        assert main(["profile", *SMALL, "--top", "3", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["requests"] == 100
        assert len(result["entries"]) == 3

    def test_cli_unknown_workload_exits_cleanly(self):
        with pytest.raises(SystemExit, match="profile:"):
            main(["profile", "--requests", "100", "--workloads", "nope"])
