"""Tests for the command-line interface."""

import argparse
import importlib
import inspect

import pytest

from repro.cli import STUDIES, TRACEABLE, build_parser, main

ARTIFACTS = {
    artifact: study
    for study in STUDIES.values()
    for artifact in study.artifacts
}


def subcommands(parser):
    (action,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return list(action.choices)


class TestParser:
    def test_every_artifact_has_a_subcommand(self):
        parser = build_parser()
        assert list(ARTIFACTS) == [
            "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9",
        ]
        assert subcommands(parser)[:len(ARTIFACTS)] == list(ARTIFACTS)
        for name, study in ARTIFACTS.items():
            args = parser.parse_args([name])
            if study.driver is not None:
                assert args.requests == 4000

    def test_requests_flag(self):
        parser = build_parser()
        args = parser.parse_args(["fig2", "--requests", "123"])
        assert args.requests == 123

    def test_simulate_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["simulate"])
        assert args.workload == "websearch"
        assert args.actuators == 1
        assert args.rpm is None
        assert not args.md

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig3", "--workers", "-1"], "--workers: must be >= 0"),
            (["fig3", "--requests", "0"], "--requests: must be >= 1"),
            (["fig3", "--shards", "0"], "--shards: must be >= 1"),
            (["trace", "limit_study", "--workers", "-2"],
             "--workers: must be >= 0"),
            (["report", "limit_study", "--requests", "0"],
             "--requests: must be >= 1"),
            (["fig3", "--requests", "many"], "invalid int value"),
            (["trace", "limit_study", "--actuators", "0"],
             "--actuators: must be >= 1"),
            (["report", "limit_study", "--actuators", "0"],
             "--actuators: must be >= 1"),
            (["simulate", "--actuators", "0"], "--actuators: must be >= 1"),
            (["simulate", "--rpm", "-5"], "--rpm: must be finite and > 0"),
            (["serve", "--max-jobs", "0"], "--max-jobs: must be >= 1"),
            (["serve", "--poll-interval", "-1"],
             "--poll-interval: must be finite and > 0"),
            (["serve", "--workers", "0"], "--workers: must be >= 1"),
            (["serve", "--lease-timeout", "0"],
             "--lease-timeout: must be finite and > 0"),
            (["serve", "--max-attempts", "0"], "--max-attempts: must be >= 1"),
            (["serve", "--max-restarts", "-1"],
             "--max-restarts: must be >= 0"),
            (["chaos", "--jobs", "0"], "--jobs: must be >= 1"),
            (["chaos", "--workers", "0"], "--workers: must be >= 1"),
            (["chaos", "--requests", "0"], "--requests: must be >= 1"),
            (["chaos", "--max-attempts", "0"],
             "--max-attempts: must be >= 1"),
            (["chaos", "--max-restarts", "-2"],
             "--max-restarts: must be >= 0"),
            (["chaos", "--lease-timeout", "-1"],
             "--lease-timeout: must be finite and > 0"),
            (["chaos", "--recovery-timeout", "nan"],
             "--recovery-timeout: must be finite and > 0"),
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(
        self, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args(argv)
        assert stop.value.code == 2
        (error,) = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert message in error

    @pytest.mark.parametrize(
        "command, default",
        [("fig3", 4000), ("bench", 6000), ("profile", 2000),
         ("faults", 2000)],
    )
    def test_requests_help_shows_the_command_default(
        self, command, default, capsys
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"requests per simulation run (default {default})" in (
            help_text
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--workers", "2"],
            ["fig9", "--trace", "t.json"],
            ["fig5", "--shards", "2"],
            ["bench", "--shards", "4"],
            ["simulate", "--workers", "2"],
            ["trace", "stat", "F", "--requests", "5"],
            ["trace", "limit_study", "--sort"],
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args(argv)
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_trace_experiments_are_the_traceable_ones(self):
        from repro.obs.run import TRACEABLE_EXPERIMENTS

        assert TRACEABLE == tuple(TRACEABLE_EXPERIMENTS)


class TestStudyTable:
    def test_study_flags_match_driver_parameters(self):
        parser = build_parser()
        for name, study in STUDIES.items():
            module = importlib.import_module(f"repro.experiments.{name}")
            parameters = set()
            if study.driver is not None:
                driver = getattr(module, study.driver)
                parameters = set(inspect.signature(driver).parameters)
            for artifact in study.artifacts:
                args = vars(parser.parse_args([artifact]))
                for flag, parameter in (
                    ("requests", "requests"),
                    ("workers", "n_workers"),
                    ("shards", "shards"),
                ):
                    assert (flag in args) == (parameter in parameters), (
                        artifact, flag,
                    )
                simulates = study.driver is not None
                assert ("trace" in args) == simulates, artifact
                assert ("metrics" in args) == simulates, artifact

    def test_all_runs_each_study_once(self, monkeypatch, capsys):
        calls = {}
        for name, study in STUDIES.items():
            if study.driver is None:
                continue
            module = importlib.import_module(f"repro.experiments.{name}")
            driver = getattr(module, study.driver)

            def counted(*args, _driver=driver, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _driver(*args, **kwargs)

            monkeypatch.setattr(module, study.driver, counted)
        assert main(["all", "--requests", "200"]) == 0
        combined = capsys.readouterr().out
        assert calls == {
            name: 1 for name, study in STUDIES.items() if study.driver
        }

        expected = []
        for name, study in ARTIFACTS.items():
            scale = ["--requests", "200"] if study.driver else []
            assert main([name, *scale]) == 0
            banner = "=" * 72
            expected.append(f"{banner}\n{name}\n{banner}\n")
            expected.append(capsys.readouterr().out + "\n")
        assert combined == "".join(expected)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        listed = out.replace(",", " ").split()
        for name in subcommands(build_parser()):
            assert name in listed
        assert out.startswith(f"artifacts: {', '.join(ARTIFACTS)}\n")

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "barracuda-es-750" in out
        assert "6600" in out or "6599" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "financial" in out
        assert "5334945" in out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "$67.7-$80.8" in out
        assert "0.40" in out

    def test_workloads(self, capsys):
        assert main(["workloads", "--requests", "500"]) == 0
        out = capsys.readouterr().out
        for name in ("financial", "websearch", "tpcc", "tpch"):
            assert name in out

    def test_simulate_small(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--workload",
                    "tpch",
                    "--actuators",
                    "2",
                    "--requests",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SA(2)" in out
        assert "power_W" in out

    def test_simulate_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["simulate", "--workload", "nope", "--requests", "10"])

    @pytest.mark.parametrize("passed, status", [(True, 0), (False, 1)])
    def test_scorecard_exits_1_when_a_claim_fails(
        self, monkeypatch, capsys, passed, status
    ):
        from repro.experiments import scorecard

        def one_row(requests, n_workers):
            return [
                scorecard.Criterion("Fig. 2", 1, "a claim", passed, "numbers")
            ]

        monkeypatch.setattr(scorecard, "run_scorecard", one_row)
        try:
            code = main(["scorecard", "--requests", "2000"])
        except SystemExit as stop:
            code = stop.code
        assert code == status
        assert ("FAIL" in capsys.readouterr().out) is not passed

    def test_scorecard_rejects_scales_its_claims_cannot_hold_at(
        self, capsys
    ):
        from repro import cli
        from repro.experiments import scorecard

        assert cli._SCORECARD_MIN_REQUESTS == scorecard.MIN_REQUESTS
        with pytest.raises(SystemExit) as stop:
            main(["scorecard", "--requests", "1999"])
        assert stop.value.code == 2
        assert "must be >= 2000" in capsys.readouterr().err

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--requests", "400"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2 [websearch]" in out
        assert "200+" in out


class TestResults:
    def test_results_to_stdout(self, capsys):
        assert main(["results", "--requests", "300"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction results" in out
        assert "## table1" in out
        assert "## fig8" in out

    def test_results_to_file(self, tmp_path, capsys):
        target = tmp_path / "results.md"
        assert (
            main(["results", "--requests", "300", "-o", str(target)]) == 0
        )
        text = target.read_text()
        assert text.count("## ") == 10
        assert "barracuda-es-750" in text
        assert "wrote" in capsys.readouterr().out


class TestFaults:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["faults"])
        assert args.requests == 2000
        assert args.fault_seed == 101
        assert args.plan is None
        assert args.validate is None

    def test_study_runs_end_to_end(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert (
            main(
                [
                    "faults",
                    "--requests",
                    "120",
                    "--emit-plan",
                    str(plan_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Reliability study" in out
        assert "MTTDL" in out
        assert "4xHC-SD-RAID5" in out
        assert plan_path.exists()

    def test_replay_emitted_plan(self, tmp_path, capsys):
        from repro.experiments.reliability_study import default_fault_plan
        from repro.faults.plan import write_fault_plan

        plan_path = tmp_path / "plan.json"
        write_fault_plan(default_fault_plan(7, 480.0), str(plan_path))
        assert (
            main(["faults", "--requests", "120", "--plan", str(plan_path)])
            == 0
        )
        assert "faulted" in capsys.readouterr().out

    def test_validate_good_plan(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan, write_fault_plan

        plan_path = tmp_path / "plan.json"
        write_fault_plan(FaultPlan.empty(), str(plan_path))
        assert main(["faults", "--validate", str(plan_path)]) == 0
        assert "valid fault plan" in capsys.readouterr().out

    def test_validate_bad_plan_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 3, "events": 1}')
        with pytest.raises(SystemExit):
            main(["faults", "--validate", str(bad)])
        assert "INVALID" in capsys.readouterr().out

    def test_missing_plan_file_errors(self):
        with pytest.raises(SystemExit, match="faults --plan"):
            main(["faults", "--plan", "/nonexistent/plan.json"])
