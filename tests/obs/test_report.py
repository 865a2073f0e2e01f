"""Tests for trace-analysis rendering and the ``repro report`` CLI."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.experiments.configs import build_hcsd_system
from repro.experiments.runner import run_trace
from repro.obs.analysis import TraceAnalysis, analyze
from repro.obs.export import read_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    render_html,
    render_text,
    report_sections,
    write_html_report,
)
from repro.obs.tracer import Span, tracing
from repro.sim.engine import Environment
from repro.workloads.commercial import COMMERCIAL_WORKLOADS


@pytest.fixture(scope="module")
def traced_run():
    workload = COMMERCIAL_WORKLOADS["websearch"]
    trace = workload.generate(200)
    with tracing() as tracer:
        env = Environment()
        run = run_trace(env, build_hcsd_system(env, workload), trace)
    return tracer, run


def synthetic_analysis():
    spans = [
        Span("wait", "queue", 0.0, 1.0, ("d", "queue"), {"req": 0}),
        Span("seek", "seek", 1.0, 2.0, ("d", "arm 0"), {"req": 0}),
        Span("rot", "rotation", 3.0, 4.0, ("d", "arm 0"), {"req": 0}),
        Span("req", "array", 0.0, 7.0, ("d", "io"), None),
    ]
    telemetry = MetricsRegistry()
    telemetry.counter("repro_runs_total", labels=("mode",)).labels(
        mode="memory"
    ).inc()
    telemetry.gauge("repro_queue_depth").set(2.0)
    telemetry.summary("repro_run_elapsed_ms").observe(7.0)
    return TraceAnalysis(spans, telemetry=telemetry.snapshot())


class TestSections:
    def test_all_sections_present(self, traced_run):
        tracer, _ = traced_run
        sections = report_sections(analyze(tracer))
        titles = [title for title, _, _ in sections]
        assert any("Bottleneck attribution" in t for t in titles)
        assert any("utilization" in t for t in titles)
        assert any("Queue depth" in t for t in titles)
        assert any("In-flight" in t for t in titles)
        assert any("reconciliation" in t for t in titles)

    def test_reconciliation_rows_exact_on_live_run(self, traced_run):
        tracer, _ = traced_run
        sections = dict(
            (title, rows)
            for title, _, rows in report_sections(analyze(tracer))
        )
        rows = next(
            rows for title, rows in sections.items()
            if "reconciliation" in title
        )
        assert rows
        assert all(row[-1] == "exact" for row in rows)

    def test_rows_match_headers(self):
        for _, headers, rows in report_sections(synthetic_analysis()):
            for row in rows:
                assert len(row) == len(headers)


class TestRenderText:
    def test_contains_verdict_and_tables(self, traced_run):
        tracer, _ = traced_run
        text = render_text(analyze(tracer), title="T")
        assert text.startswith("T")
        assert "primary service-phase bottleneck: rotation" in text
        assert "Bottleneck attribution" in text
        assert "exact" in text

    def test_telemetry_rendered(self):
        text = render_text(synthetic_analysis())
        assert 'repro_runs_total{mode="memory"} 1' in text
        assert "repro_queue_depth 2" in text
        assert "repro_run_elapsed_ms_count 1" in text

    def test_dropped_spans_warning(self):
        analysis = synthetic_analysis()
        analysis.dropped_spans = 5
        assert "WARNING: 5 spans dropped" in render_text(analysis)

    def test_empty_trace_renders(self):
        text = render_text(TraceAnalysis([]))
        assert "(none)" in text


class TestRenderHtml:
    def test_self_contained_document(self, traced_run):
        tracer, _ = traced_run
        document = render_html(analyze(tracer), title="R <html>")
        assert document.startswith("<!DOCTYPE html>")
        assert document.rstrip().endswith("</html>")
        assert "R &lt;html&gt;" in document
        assert "<script" not in document
        assert "http://" not in document and "https://" not in document

    def test_bar_column_rendered_as_css(self):
        document = render_html(synthetic_analysis())
        assert 'class="bar"' in document
        assert "width:100.0%" in document

    def test_cells_escaped(self):
        analysis = TraceAnalysis(
            [Span("s", "seek", 0.0, 1.0, ("<d>", "arm 0"), None)]
        )
        document = render_html(analysis)
        assert "&lt;d&gt;" in document
        assert "<d>" not in document

    def test_write_html_report(self, tmp_path, traced_run):
        tracer, _ = traced_run
        target = tmp_path / "report.html"
        assert write_html_report(analyze(tracer), str(target)) == str(
            target
        )
        assert target.read_text().startswith("<!DOCTYPE html>")


class TestChromeRoundTrip:
    def test_analysis_survives_export(self, tmp_path, traced_run):
        tracer, run = traced_run
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        restored = analyze(read_chrome_trace(str(path)))
        # µs round-trip may wobble the last float bit but no more.
        reports = restored.reconcile(tolerance_ms=1e-6)
        assert reports
        assert all(report.ok for report in reports)
        assert len(restored.breakdowns) == run.requests
        assert restored.attribution.top_service_phase == "rotation"

    def test_telemetry_survives_export(self, tmp_path, traced_run):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        restored = read_chrome_trace(str(path))
        runs = restored.telemetry.counter("repro_runs_total", labels=("mode",))
        assert runs.labels(mode="memory").value == 1


class TestReportCli:
    def test_live_experiment_to_stdout(self, capsys):
        assert main(["report", "limit_study", "--requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "Bottleneck attribution" in out
        assert "exact" in out

    def test_scope_filter_and_outputs(self, tmp_path, capsys):
        text_path = tmp_path / "report.txt"
        html_path = tmp_path / "report.html"
        assert (
            main(
                [
                    "report", "limit_study", "--requests", "200",
                    "--scope", "HC-SD",
                    "-o", str(text_path),
                    "--html", str(html_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote" in out
        text = text_path.read_text()
        assert "[scope HC-SD]" in text
        assert "MD-websearch" not in text
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_from_trace(self, tmp_path, traced_run, capsys):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        assert main(["report", "--from-trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rotation" in out

    def test_experiment_and_trace_mutually_exclusive(self, capsys):
        for argv, message in (
            (["report"], "one of the arguments experiment --from-trace "
             "is required"),
            (["report", "limit_study", "--from-trace", "x.json"],
             "argument --from-trace: not allowed with argument experiment"),
        ):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--requests", "5"), ("--workers", "2"),
                        ("--actuators", "3"), ("--workers", "1")]
    )
    def test_from_trace_takes_no_run_flags(self, flag, value, capsys):
        # Either order; a flag given at its default value counts too.
        for argv, message in (
            (["report", "--from-trace", "t.json", flag, value],
             f"argument {flag}: not allowed with argument --from-trace"),
            (["report", flag, value, "--from-trace", "t.json"],
             f"argument --from-trace: not allowed with argument {flag}"),
        ):
            with pytest.raises(SystemExit) as stop:
                build_parser().parse_args(argv)
            assert stop.value.code == 2
            assert message in capsys.readouterr().err

    def test_live_report_reads_run_flags(self):
        args = build_parser().parse_args(
            ["report", "limit_study", "--requests", "5", "--workers", "2",
             "--actuators", "3"]
        )
        assert (args.requests, args.workers, args.actuators) == (5, 2, 3)

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["report", "nope"])
        assert stop.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_bad_trace_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="report:"):
            main(["report", "--from-trace", str(bad)])

    @pytest.mark.parametrize(
        "case",
        [
            "not an object",
            "otherData not an object",
            "old telemetry format",
            "telemetry not a snapshot",
            "dropped_spans not an int",
            "process_name without args",
            "thread_name without a name",
        ],
    )
    def test_malformed_export_is_one_line_error(
        self, tmp_path, traced_run, case
    ):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        trace = json.loads(path.read_text())
        other = trace["otherData"]
        events = trace["traceEvents"]
        if case == "not an object":
            trace = [trace]
        elif case == "otherData not an object":
            trace["otherData"] = []
        elif case == "old telemetry format":
            other["telemetry"] = {"counters": {"x": "a"}}
        elif case == "telemetry not a snapshot":
            other["telemetry"] = []
        elif case == "dropped_spans not an int":
            other["dropped_spans"] = "none"
        elif case == "process_name without args":
            next(e for e in events if e["name"] == "process_name").pop(
                "args"
            )
        else:
            next(e for e in events if e["name"] == "thread_name")[
                "args"
            ].pop("name")
        path.write_text(json.dumps(trace))
        where = re.escape(str(path))
        with pytest.raises(ValueError, match=f"^{where}: "):
            read_chrome_trace(str(path))
        with pytest.raises(SystemExit, match=f"^report: {where}: "):
            main(["report", "--from-trace", str(path)])
