"""Command-line interface: regenerate paper artifacts and run sweeps.

Usage (``python -m repro <command> ...``)::

    python -m repro list                      # every command
    python -m repro table1
    python -m repro fig5 --requests 6000
    python -m repro all --requests 2000
    python -m repro workloads                 # trace-model summaries
    python -m repro simulate --workload websearch --actuators 4
    python -m repro fig5 --workers 4          # fan runs out over processes
    python -m repro bench                     # write BENCH_<date>.json
    python -m repro bench --check BENCH_X.json   # figures-digest gate
    python -m repro profile --top 10          # cProfile the bench pass
    python -m repro trace limit_study --out trace.json   # Perfetto trace
    python -m repro fig5 --trace fig5.json    # trace a study's runs
    python -m repro report limit_study --html report.html   # analytics
    python -m repro report --from-trace trace.json          # post hoc
    python -m repro trace convert in.spc out.trace.gz --sort
    python -m repro trace stat out.trace.gz   # streaming profile
    python -m repro serve --queue q --workers 4 --drain
    python -m repro submit --queue q --workload websearch
    python -m repro status --queue q          # or: status --queue q ID
    python -m repro status --queue q --metrics   # + merged worker metrics
    python -m repro result --queue q ID -o payload.json
    python -m repro serve --queue q --drain --metrics m.prom
    python -m repro metrics --queue q         # merged Prometheus snapshot
    python -m repro metrics --queue q --watch # live terminal dashboard
    python -m repro fig5 --metrics fig5.prom  # meter a study's runs
    python -m repro chaos --seed 0            # seeded chaos campaign
    python -m repro chaos --scenarios kill,torn-write --report out.json
    python -m repro chaos --validate plan.json   # schema-check a plan

The paper's evaluation is seven studies rendered as ten artifacts.
:data:`STUDIES` names each study's driver, the shared flags it reads
and one renderer per artifact; the artifact subcommands, ``all`` and
``results`` are generated from it, and ``all``/``results`` run each
study once.  Every command takes only the flags its handler reads.

Every artifact command prints the plain-text tables of its study, and
``scorecard`` checks every paper-shape claim.  ``--trace PATH`` (on
each command that simulates) records a request-lifecycle trace of the
command (Chrome trace-event JSON, loadable in ui.perfetto.dev) without
changing any figure; the dedicated ``trace`` subcommand runs a named
experiment with richer per-arm instrumentation, and ``report`` turns a
traced run (or a previously exported trace) into utilization,
queue-depth and bottleneck-attribution analytics.  ``--metrics PATH``
works the same way for live operational metrics: the command runs
under an ambient :class:`~repro.obs.metrics.MetricsRegistry` and
writes a Prometheus text exposition (or a JSONL snapshot for a
``.jsonl`` path) on exit, again without changing any figure; the
``metrics`` subcommand reads the merged per-worker snapshots of a
serve queue, one-shot or as a ``--watch`` dashboard.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import sys
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["main"]


def _show(*formatters: str) -> Callable:
    """A renderer printing the study module's ``formatters`` applied to
    the driver's output, a blank line apart."""

    def render(module, *outputs) -> None:
        print("\n\n".join(
            getattr(module, name)(*outputs) for name in formatters
        ))

    return render


def _charts(figure: str, runs_by_workload) -> None:
    """One ASCII response-time CDF chart per workload."""
    from repro.metrics.cdf import RESPONSE_TIME_EDGES_MS
    from repro.metrics.plot import ascii_chart

    labels = [f"{edge:g}" for edge in RESPONSE_TIME_EDGES_MS] + ["200+"]
    for name, runs in runs_by_workload:
        series = [(label, run.response_cdf()) for label, run in runs]
        print()
        print(ascii_chart(labels, series, title=f"{figure} [{name}] (chart)"))


def _fig2(module, results) -> None:
    print(module.format_figure2(results))
    _charts("Figure 2", (
        (name, [("MD", result.md), ("HC-SD", result.hcsd)])
        for name, result in results.items()
    ))


def _fig5(module, results) -> None:
    _show("format_figure5_cdf", "format_figure5_pdf")(module, results)
    _charts("Figure 5", (
        (name, [
            (result.label(n), run)
            for n, run in sorted(result.by_actuators.items())
        ] + [("MD", result.md)])
        for name, result in results.items()
    ))


class Study(NamedTuple):
    """One study of ``repro.experiments``: how to run and render it."""

    #: Attribute of the study module that runs the study, or ``None``
    #: for tables computed by the renderers themselves.
    driver: Optional[str]
    #: Shared flags the driver reads (see :data:`_PARAMETERS`).
    flags: Tuple[str, ...]
    #: Artifact name -> renderer(module, *driver outputs).
    artifacts: Dict[str, Callable]

    @property
    def command_flags(self) -> Tuple[str, ...]:
        """The flags of the study's commands: the driver's, plus
        ``--trace`` and ``--metrics`` when it simulates."""
        return self.flags + _INSTRUMENT_FLAGS if self.driver else ()


_DRIVER_FLAGS = ("requests", "workers", "shards")
_INSTRUMENT_FLAGS = ("trace", "metrics")

#: Study module (under ``repro.experiments``) -> :class:`Study`, in
#: artifact order.  Modules are imported only when a command runs.
STUDIES: Dict[str, Study] = {
    "technology": Study(None, (), {
        "table1": _show("format_table1"),
        "table2": _show("format_table2"),
    }),
    "limit_study": Study("run_limit_study", _DRIVER_FLAGS, {
        "fig2": _fig2,
        "fig3": _show("format_figure3"),
    }),
    "bottleneck": Study("run_bottleneck_study", ("requests", "workers"), {
        "fig4": _show("format_figure4"),
    }),
    "parallel_study": Study("run_parallel_study", ("requests", "workers"), {
        "fig5": _fig5,
    }),
    "rpm_study": Study("run_rpm_study", _DRIVER_FLAGS, {
        "fig6": _show("format_figure6"),
        "fig7": _show("format_figure7"),
    }),
    "raid_study": Study("run_raid_study", _DRIVER_FLAGS, {
        "fig8": _show("format_figure8_performance", "format_figure8_power"),
    }),
    "cost_study": Study(None, (), {
        "fig9": _show("format_table9a", "format_figure9b"),
    }),
}

#: Shared flag -> the driver parameter it sets.
_PARAMETERS = {
    "requests": "requests", "workers": "n_workers", "shards": "shards",
}


def _run_study(name: str, args) -> Tuple:
    """Import study ``name`` and run its driver once; returns the module
    and the driver's outputs (none for a driverless study)."""
    study = STUDIES[name]
    module = importlib.import_module(f"repro.experiments.{name}")
    if study.driver is None:
        return module, ()
    kwargs = {_PARAMETERS[flag]: getattr(args, flag) for flag in study.flags}
    return module, (getattr(module, study.driver)(**kwargs),)


def _renders(args) -> Iterator[Tuple[str, Callable[[], None]]]:
    """(artifact, render) for every artifact, running each study once."""
    for name, study in STUDIES.items():
        module, outputs = _run_study(name, args)
        for artifact, render in study.artifacts.items():
            yield artifact, functools.partial(render, module, *outputs)


def _artifact(study: str, artifact: str, args) -> None:
    module, outputs = _run_study(study, args)
    STUDIES[study].artifacts[artifact](module, *outputs)


def _all(args) -> None:
    for name, render in _renders(args):
        print("=" * 72)
        print(name)
        print("=" * 72)
        render()
        print()


def _list(args) -> None:
    artifacts = [
        name for study in STUDIES.values() for name in study.artifacts
    ]
    print("artifacts:", ", ".join(artifacts))
    others = [name for name in args.commands if name not in artifacts]
    print("other commands:", ", ".join(others))


def _results(args) -> None:
    """Write a self-contained markdown results report."""
    import contextlib
    import io

    sections = []
    for name, render in _renders(args):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            render()
        sections.append((name, buffer.getvalue().rstrip()))

    lines = [
        "# Reproduction results",
        "",
        "Regenerated tables and figures of *Intra-Disk Parallelism: An "
        "Idea Whose Time Has Come* (ISCA 2008).",
        "",
        f"Scale: {args.requests} requests per simulation run.",
        "",
    ]
    for name, body in sections:
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(body)
        lines.append("```")
        lines.append("")
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(text)} bytes)")
    else:
        print(text)


def _workloads(args) -> None:
    from repro.workloads.analysis import profile_trace
    from repro.workloads.commercial import COMMERCIAL_WORKLOADS

    for workload in COMMERCIAL_WORKLOADS.values():
        trace = workload.generate(args.requests)
        profile = profile_trace(trace)
        print(profile.describe())
        print()


def _scorecard(args) -> None:
    from repro.experiments.scorecard import (
        format_scorecard,
        run_scorecard,
    )

    criteria = run_scorecard(requests=args.requests, n_workers=args.workers)
    print(format_scorecard(criteria))
    if not all(criterion.passed for criterion in criteria):
        raise SystemExit(1)


def _faults(args) -> None:
    """Fault injection and the reliability study (§8 of the paper)."""
    from repro.experiments.reliability_study import (
        default_fault_plan,
        format_mttdl_table,
        format_reliability_cdfs,
        format_reliability_summary,
        run_reliability_study,
    )
    from repro.faults.plan import load_fault_plan, write_fault_plan

    if args.validate:
        from repro.tools.validate import validate_fault_plan_file

        problems = validate_fault_plan_file(args.validate)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            raise SystemExit(1)
        print(f"{args.validate}: valid fault plan")
        return

    plan = None
    if args.plan:
        try:
            plan = load_fault_plan(args.plan)
        except (OSError, ValueError) as error:
            raise SystemExit(f"faults --plan: {error}")
    if args.emit_plan:
        horizon_ms = args.requests * 4.0
        emitted = plan if plan is not None else default_fault_plan(
            args.fault_seed, horizon_ms
        )
        write_fault_plan(emitted, args.emit_plan)
        print(f"wrote {args.emit_plan} ({len(emitted)} events)")

    result = run_reliability_study(
        requests=args.requests,
        fault_seed=args.fault_seed,
        plan=plan,
        n_workers=args.workers,
        shards=args.shards,
    )
    print(format_reliability_summary(result))
    print()
    print(format_reliability_cdfs(result))
    print()
    print(format_mttdl_table(result))


def _chaos(args) -> None:
    """Seeded chaos campaign against a live serve queue (and the
    plan plumbing mirroring ``repro faults``)."""
    import json
    import tempfile

    from repro.chaos.campaign import resolve_scenarios, run_campaign
    from repro.chaos.plan import ChaosPlan, load_chaos_plan, write_chaos_plan

    if args.validate:
        from repro.tools.validate import validate_chaos_plan_file

        problems = validate_chaos_plan_file(args.validate)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            raise SystemExit(1)
        print(f"{args.validate}: valid chaos plan")
        return

    scenarios = (
        args.scenarios.split(",") if args.scenarios else None
    )
    try:
        kinds = resolve_scenarios(scenarios)
        plan = None
        if args.plan:
            plan = load_chaos_plan(args.plan)
        if args.emit_plan:
            emitted = plan if plan is not None else ChaosPlan.generate(
                args.seed, scenarios=kinds, workers=args.workers,
                lease_s=args.lease_timeout,
            )
            write_chaos_plan(emitted, args.emit_plan)
            print(f"wrote {args.emit_plan} ({len(emitted)} events)")
            plan = emitted
    except (OSError, ValueError) as error:
        raise SystemExit(f"chaos: {error}")

    queue_dir = args.queue or tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        campaign = run_campaign(
            queue_dir,
            seed=args.seed,
            scenarios=kinds,
            plan=plan,
            jobs=args.jobs,
            workers=args.workers,
            requests=args.requests,
            lease_s=args.lease_timeout,
            max_attempts=args.max_attempts,
            max_restarts=args.max_restarts,
            recovery_timeout_s=args.recovery_timeout,
            durable=args.fsync,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"chaos: {error}")
    report = campaign.to_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report}")
    counters = report["counters"]
    print(
        f"chaos: seed={report['seed']} queue={queue_dir} "
        f"plan={counters['plan_events']} events, "
        f"{counters['applied_events']} applied"
    )
    print(
        f"chaos: {counters['submitted']} submitted "
        f"(+{counters['resubmitted']} recovery resubmits), "
        f"{counters['chaos_restarts']} worker restart(s), "
        f"{counters['recovery_rounds']} recovery round(s), "
        f"{counters['quarantined_records']} record(s) + "
        f"{counters['quarantined_cache_payloads']} cache payload(s) "
        f"quarantined"
    )
    for name, held in report["invariants"].items():
        print(f"invariant {name}: {'OK' if held else 'VIOLATED'}")
    if not campaign.ok:
        for violation in campaign.violations:
            print(f"VIOLATION: {violation}")
        raise SystemExit(1)


def _bench(args) -> None:
    from repro.tools.bench import (
        check_bench,
        format_bench,
        load_bench,
        run_bench,
        write_bench,
    )

    baseline = None
    workloads = None
    if args.check:
        try:
            baseline = load_bench(args.check)
        except (OSError, ValueError) as error:
            raise SystemExit(f"bench --check: {error}")
        # Replay exactly what the baseline recorded, so its digest is
        # always compared.
        args.requests = baseline["requests"]
        workloads = baseline["workloads"]
    try:
        result = run_bench(
            requests=args.requests,
            workloads=workloads,
            workers=args.workers,
        )
    except ValueError as error:
        raise SystemExit(f"bench: {error}")
    print(format_bench(result))
    if baseline is None or args.output:
        print(f"wrote {write_bench(result, args.output)}")
    if baseline is not None:
        problems = check_bench(baseline, result)
        if problems:
            print("bench check FAILED")
            print("\n".join(f"  problem: {item}" for item in problems))
            raise SystemExit(1)
        print("bench check PASSED (figure digest identical)")


def _profile(args) -> None:
    from repro.tools.profile import format_profile, run_profile

    try:
        result = run_profile(
            requests=args.requests,
            workloads=args.workloads,
            top=args.top,
            sort=args.sort,
        )
    except ValueError as error:
        raise SystemExit(f"profile: {error}")
    if args.json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(format_profile(result))


def _report_analysis(args) -> None:
    """Trace analytics: utilization, queueing, bottleneck attribution."""
    from repro.obs.analysis import analyze
    from repro.obs.report import render_text, write_html_report

    if args.from_trace:
        from repro.obs.export import read_chrome_trace

        try:
            tracer = read_chrome_trace(args.from_trace)
        except (OSError, ValueError) as error:
            raise SystemExit(f"report: {error}")
        title = f"Trace analysis: {args.from_trace}"
        # Exported timestamps round-trip through µs floats; allow the
        # last-bit wobble instead of failing the exactness check.
        tolerance = 1e-6
    else:
        from repro.obs.run import trace_experiment

        requests, workers, actuators = (
            default if getattr(args, dest) is None else getattr(args, dest)
            for dest, default in _TRACED_RUN_DEFAULTS.items()
        )
        run = trace_experiment(
            args.experiment,
            requests=requests,
            n_workers=workers,
            actuators=actuators,
        )
        tracer = run.tracer
        title = f"Trace analysis: {args.experiment} ({requests} requests)"
        tolerance = 0.0
    analysis = analyze(tracer)
    if args.scope:
        analysis = analysis.filter(args.scope)
        title += f" [scope {args.scope}]"
    text = render_text(analysis, title=title, tolerance_ms=tolerance)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.html:
        path = write_html_report(
            analysis, args.html, title=title, tolerance_ms=tolerance
        )
        print(f"wrote {path}")
    failed = [
        report
        for report in analysis.reconcile(tolerance_ms=tolerance)
        if not report.ok
    ]
    if failed:
        for report in failed:
            print(f"reconciliation FAILED: {report.summary()}")
        raise SystemExit(1)


def _trace_convert(args) -> None:
    """``repro trace convert SRC DST``: trace-format interop."""
    from repro.workloads.formats import convert_trace

    try:
        summary = convert_trace(
            args.src,
            args.dst,
            in_format=args.in_format,
            out_format=args.out_format,
            sort=args.sort,
            limit=args.limit,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"trace convert: {error}")
    skipped = summary["skipped"]
    extras = f", skipped {skipped}" if skipped else ""
    print(
        f"wrote {summary['dst']} ({summary['requests']} requests, "
        f"{summary['in_format']} -> {summary['out_format']}"
        f"{', sorted' if summary['sorted'] else ''}{extras})"
    )


def _trace_stat(args) -> None:
    """``repro trace stat PATH``: streaming trace profile."""
    import json

    from repro.workloads.formats import stat_trace

    try:
        summary = stat_trace(args.path, args.in_format)
    except (OSError, ValueError) as error:
        raise SystemExit(f"trace stat: {error}")
    print(json.dumps(summary, indent=2, sort_keys=True))
    if not summary["monotone"]:
        print(
            "warning: arrivals are not monotone; convert with --sort "
            "before replay",
            file=sys.stderr,
        )


def _trace(args) -> None:
    from repro.obs.export import write_chrome_trace, write_span_jsonl
    from repro.obs.run import trace_experiment

    run = trace_experiment(
        args.experiment,
        requests=args.requests,
        n_workers=args.workers,
        actuators=args.actuators,
    )
    tracer = run.tracer
    for line in run.summary:
        print(line)
    categories = ", ".join(
        f"{cat}={count}"
        for cat, count in sorted(tracer.spans_by_category().items())
    )
    print(f"spans: {len(tracer.spans)} ({categories})")
    if tracer.dropped_spans:
        print(f"dropped spans (max_spans cap): {tracer.dropped_spans}")
    print(f"figures sha256: {run.figures_sha256}")
    if args.format == "jsonl":
        path = write_span_jsonl(tracer, args.out)
    else:
        path = write_chrome_trace(tracer, args.out)
    print(f"wrote {path}")


def _spec_from_args(args) -> "JobSpec":
    from repro.serve.jobs import JobSpec

    return JobSpec(
        workload=args.workload,
        trace_path=args.trace_file,
        trace_format=args.in_format,
        system=args.system,
        requests=args.requests,
        actuators=args.actuators,
        rpm=args.rpm,
        seed=args.seed,
        disks=args.disks,
        chunk_requests=args.chunk_requests,
    )


def _serve(args) -> None:
    from repro.serve.service import serve

    try:
        codes = serve(
            args.queue,
            workers=args.workers,
            poll_interval_s=args.poll_interval,
            drain=args.drain,
            max_jobs=args.max_jobs,
            lease_s=args.lease_timeout,
            max_attempts=args.max_attempts,
            max_restarts=args.max_restarts,
            durable=args.fsync,
        )
    except ValueError as error:
        raise SystemExit(f"serve: {error}")
    print(f"serve: {len(codes)} worker(s) exited {codes}")
    if any(codes):
        raise SystemExit(1)


def _submit(args) -> None:
    import json

    from repro.serve.service import submit

    try:
        record = submit(
            args.queue,
            _spec_from_args(args),
            retries=args.retries,
            deadline_s=args.deadline,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"submit: {error}")
    print(json.dumps(record, indent=2, sort_keys=True))


def _status(args) -> None:
    import json

    from repro.serve.service import status

    try:
        summary = status(
            args.queue,
            args.job_id,
            metrics=args.include_metrics,
            retries=args.retries,
            deadline_s=args.deadline,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"status: {error}")
    print(json.dumps(summary, indent=2, sort_keys=True))


def _result(args) -> None:
    import json

    from repro.serve.service import result

    try:
        record, payload = result(
            args.queue,
            args.job_id,
            retries=args.retries,
            deadline_s=args.deadline,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"result: {error}")
    if payload is None:
        state = record.get("state")
        outcome = record.get("outcome") or {}
        detail = outcome.get("error", "no payload yet")
        raise SystemExit(
            f"result: job {args.job_id} is {state}: {detail}"
        )
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(payload)
        print(f"wrote {args.output} ({len(payload)} bytes)")
    else:
        print(json.dumps(json.loads(payload), indent=2, sort_keys=True))


def _metrics(args) -> None:
    """``repro metrics --queue Q``: merged worker-metrics snapshot."""
    import json
    import time

    from repro.obs.dashboard import format_dashboard, watch_metrics
    from repro.obs.metrics import render_prometheus, write_prometheus
    from repro.serve.service import merged_queue_metrics

    if args.watch:
        try:
            frames = watch_metrics(
                args.queue,
                interval_s=args.interval,
                iterations=args.iterations,
            )
        except (OSError, ValueError) as error:
            raise SystemExit(f"metrics: {error}")
        print(f"metrics: watched {frames} frame(s)")
        return
    try:
        registry, workers = merged_queue_metrics(args.queue)
    except (OSError, ValueError) as error:
        raise SystemExit(f"metrics: {error}")
    if args.format == "prom":
        text = render_prometheus(registry)
    elif args.format == "json":
        text = (
            json.dumps(registry.snapshot(), indent=2, sort_keys=True)
            + "\n"
        )
    else:
        text = (
            format_dashboard(
                registry,
                workers=workers,
                title=f"queue {args.queue}",
                now=time.time(),
            )
            + "\n"
        )
    if args.output:
        if args.format == "prom":
            write_prometheus(registry, args.output)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        print(
            f"wrote {args.output} ({registry.sample_count()} series)"
        )
    else:
        print(text, end="")


def _simulate(args) -> None:
    from repro.experiments.configs import (
        build_hcsd_system,
        build_md_system,
    )
    from repro.experiments.runner import run_trace
    from repro.metrics.report import format_table
    from repro.sim.engine import Environment
    from repro.workloads.commercial import COMMERCIAL_WORKLOADS

    try:
        workload = COMMERCIAL_WORKLOADS[args.workload]
    except KeyError:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(COMMERCIAL_WORKLOADS)}"
        )
    trace = workload.generate(args.requests)
    rows = []
    if args.md:
        env = Environment()
        result = run_trace(env, build_md_system(env, workload), trace,
                           shards=args.shards)
        rows.append(
            ("MD", result.mean_response_ms, result.percentile(90),
             result.power.total_watts)
        )
    env = Environment()
    system = build_hcsd_system(
        env, workload, actuators=args.actuators, rpm=args.rpm
    )
    result = run_trace(env, system, trace, shards=args.shards)
    rows.append(
        (
            system.label,
            result.mean_response_ms,
            result.percentile(90),
            result.power.total_watts,
        )
    )
    print(
        format_table(
            ["system", "mean_ms", "p90_ms", "power_W"],
            rows,
            title=f"{workload.name}: {args.requests} requests",
            float_format="{:.2f}",
        )
    )


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type``: an int >= ``low``, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its errors
    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type``: a finite float > 0, else a usage error."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


_positive_float.__name__ = "float"  # argparse names the type in its errors

#: The flags several commands share; each command adds the ones it
#: reads with :func:`_add_flags`.
_SHARED_FLAGS = {
    "requests": dict(
        type=_int_at_least(1),
        default=4000,
        help="requests per simulation run (default %(default)s)",
    ),
    "workers": dict(
        type=_int_at_least(0),
        default=1,
        help=(
            "worker processes for independent runs (default 1 = "
            "in-process; 0 = all cores); results are identical for "
            "any worker count"
        ),
    ),
    "shards": dict(
        type=_int_at_least(1),
        default=1,
        help=(
            "engine shards per simulation (default 1 = serial "
            "kernel); > 1 partitions each run's drives across "
            "forked event-loop shards, composing with --workers; "
            "figures are bit-identical for any shard count (see "
            "docs/parallelism.md)"
        ),
    ),
    "trace": dict(
        metavar="PATH",
        default=None,
        help=(
            "record a request-lifecycle trace of this command and "
            "write Chrome trace-event JSON to PATH (open in "
            "ui.perfetto.dev); figures are unchanged"
        ),
    ),
    "metrics": dict(
        metavar="PATH",
        default=None,
        help=(
            "collect live operational metrics for this command and "
            "write them to PATH on exit (Prometheus text exposition; "
            "a .jsonl suffix appends one JSON snapshot line instead); "
            "figures are unchanged"
        ),
    ),
    "queue": dict(
        metavar="DIR",
        default="queue",
        help="job-queue directory (default ./queue)",
    ),
    "retries": dict(
        type=int,
        default=0,
        help=(
            "retry transient queue errors this many times with "
            "deterministic-jitter exponential backoff (default 0)"
        ),
    ),
    "deadline": dict(
        type=float,
        default=None,
        help=(
            "wall-clock budget in seconds for the call including "
            "retries (default: none)"
        ),
    ),
}


def _add_flags(command, *flags: str, **defaults) -> None:
    """Add the named shared flags to ``command``; ``defaults``
    overrides their defaults (``requests=6000``)."""
    for flag in flags:
        command.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
    command.set_defaults(**defaults)


#: Experiments ``trace``/``report`` can run; the keys of
#: ``repro.obs.run.TRACEABLE_EXPERIMENTS`` (not imported here, so
#: ``repro --help`` loads only the CLI).
TRACEABLE = (
    "limit_study", "parallel_study", "bottleneck", "rpm_study", "rebuild",
)
_TRACE_FORMATS = ("disksim", "spc1", "blktrace")


#: Defaults of the traced-run flags.
_TRACED_RUN_DEFAULTS = {"requests": 1000, "workers": 1, "actuators": 4}


class _ReportSource(argparse.Action):
    """Store a ``report`` flag that only one source of report reads.

    ``--from-trace`` analyses a finished trace, so the traced-run flags
    may not go with it, in either order.  argparse's groups cannot tie
    options to one member of a group, so each flag checks the others.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest == "from_trace":
            others = list(_TRACED_RUN_DEFAULTS)
        else:
            others = ["from_trace"]
        for dest in others:
            if getattr(namespace, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                raise argparse.ArgumentError(
                    self, f"not allowed with argument {flag}"
                )
        setattr(namespace, self.dest, values)


def _add_traced_run_flags(command, action="store") -> None:
    """``--requests``/``--workers``/``--actuators`` of a traced run."""
    defaults = _TRACED_RUN_DEFAULTS
    command.add_argument(
        "--requests",
        type=_int_at_least(1),
        default=defaults["requests"],
        action=action,
        help="requests per traced run (default 1000)",
    )
    command.add_argument(
        "--workers",
        type=_int_at_least(0),
        default=defaults["workers"],
        action=action,
        help=(
            "worker processes (default 1; 0 = all cores); worker "
            "traces are merged, figures identical for any count"
        ),
    )
    command.add_argument(
        "--actuators",
        type=_int_at_least(1),
        default=defaults["actuators"],
        action=action,
        help=(
            "arm count of the supplementary HC-SD-SA(n) runs "
            "(limit_study) and RAID members (rebuild); default 4"
        ),
    )


def _add_trace_commands(sub) -> None:
    trace = sub.add_parser(
        "trace",
        help=(
            "run an experiment with request-lifecycle tracing and "
            "export the trace"
        ),
    )
    tools = trace.add_subparsers(dest="experiment", required=True)
    for name in TRACEABLE:
        run = tools.add_parser(
            name, help=f"trace {name} and export the trace"
        )
        run.set_defaults(handler=_trace)
        run.add_argument(
            "-o",
            "--out",
            default="trace.json",
            help="output path (default trace.json)",
        )
        run.add_argument(
            "--format",
            choices=("chrome", "jsonl"),
            default="chrome",
            help=(
                "chrome = trace-event JSON for Perfetto (default); "
                "jsonl = one span per line"
            ),
        )
        _add_traced_run_flags(run)
        _add_flags(run, "metrics")

    convert = tools.add_parser(
        "convert", help="convert a trace file to another format"
    )
    convert.set_defaults(handler=_trace_convert)
    convert.add_argument("src", metavar="SRC", help="trace file to read")
    convert.add_argument("dst", metavar="DST", help="trace file to write")
    convert.add_argument(
        "--in-format",
        choices=_TRACE_FORMATS,
        default=None,
        help="input trace format (default: detect from the file suffix)",
    )
    convert.add_argument(
        "--out-format",
        choices=("disksim", "spc1"),
        default=None,
        help=(
            "output format (default: detect from the destination "
            "suffix; blktrace is read-only)"
        ),
    )
    convert.add_argument(
        "--sort",
        action="store_true",
        help=(
            "sort converted requests by arrival time (materializes "
            "the trace in memory; required before replaying a "
            "non-monotone trace)"
        ),
    )
    convert.add_argument(
        "--limit",
        type=int,
        default=None,
        help="convert at most this many requests",
    )

    stat = tools.add_parser(
        "stat", help="profile a trace file in one streaming pass"
    )
    stat.set_defaults(handler=_trace_stat)
    stat.add_argument("path", metavar="PATH", help="trace file to profile")
    stat.add_argument(
        "--in-format",
        choices=_TRACE_FORMATS,
        default=None,
        help="trace format (default: detect from the file suffix)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Intra-Disk Parallelism' (ISCA 2008): "
            "regenerate paper artifacts and run custom simulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(
        name: str, handler: Callable, help_text: str, *flags, **defaults
    ):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        _add_flags(command, *flags, **defaults)
        return command

    for study_name, study in STUDIES.items():
        for name in study.artifacts:
            add_command(
                name,
                functools.partial(_artifact, study_name, name),
                f"regenerate paper artifact {name}",
                *study.command_flags,
            )
    every_study_flag = [
        flag for flag in _SHARED_FLAGS
        if any(flag in study.command_flags for study in STUDIES.values())
    ]
    add_command(
        "all", _all, "regenerate every table and figure", *every_study_flag
    )
    results = add_command(
        "results",
        _results,
        "write a markdown report of every artifact",
        *every_study_flag,
    )
    results.add_argument(
        "-o",
        "--output",
        default=None,
        help="output file (default: stdout)",
    )
    add_command(
        "workloads", _workloads, "summarise the trace models", "requests"
    )
    bench = add_command(
        "bench",
        _bench,
        "replay the fixed-seed limit study and record its figures digest",
        "requests",
        "workers",
        *_INSTRUMENT_FLAGS,
        # The reference benchmark workload is the 6000-request limit study.
        requests=6000,
    )
    bench.add_argument(
        "-o",
        "--output",
        default=None,
        help="output JSON path (default: BENCH_<date>.json in cwd)",
    )
    bench.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help=(
            "replay a baseline BENCH_*.json snapshot's requests and "
            "workloads (--requests is ignored) and exit non-zero "
            "unless its figure digest and event count match"
        ),
    )
    profile = add_command(
        "profile",
        _profile,
        "cProfile one serial bench pass per workload",
        "requests",
        *_INSTRUMENT_FLAGS,
        # A profiled pass is ~4x slower than a timed one; default smaller.
        requests=2000,
    )
    profile.add_argument(
        "--top",
        type=int,
        default=25,
        help="entries to report (default 25)",
    )
    profile.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "ncalls"],
        default="cumulative",
        help="ranking key (default cumulative)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit the profile as JSON instead of a table",
    )
    profile.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        default=None,
        help="subset of commercial workloads to profile (default: all)",
    )
    add_command(
        "scorecard",
        _scorecard,
        "check every paper-shape claim; exit 1 if any fails",
        "requests",
        "workers",
        *_INSTRUMENT_FLAGS,
    )
    faults = add_command(
        "faults",
        _faults,
        "replay a seeded fault plan: degraded CDFs + MTTDL table",
        *_DRIVER_FLAGS,
        *_INSTRUMENT_FLAGS,
        # The reliability cells run with an aggressive retry policy and
        # a structural failure mid-run; 2000 requests keeps it quick.
        requests=2000,
    )
    faults.add_argument(
        "--plan",
        metavar="PATH",
        default=None,
        help=(
            "replay this fault-plan JSON instead of the default "
            "seeded plan"
        ),
    )
    faults.add_argument(
        "--emit-plan",
        metavar="PATH",
        default=None,
        help="write the plan the study replays to PATH, then run",
    )
    faults.add_argument(
        "--fault-seed",
        type=int,
        default=101,
        help="seed for the generated fault plan (default 101)",
    )
    faults.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help=(
            "schema-check a fault-plan JSON and exit (non-zero if "
            "invalid); no simulation runs"
        ),
    )

    chaos = sub.add_parser(
        "chaos",
        help=(
            "run a seeded, invariant-checked chaos campaign against "
            "the serve stack (worker kills, torn writes, ENOSPC, "
            "clock skew, hangs)"
        ),
    )
    chaos.set_defaults(handler=_chaos)
    chaos.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help=(
            "queue directory to campaign against (default: a fresh "
            "temporary directory; never point this at a production "
            "queue)"
        ),
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="chaos-plan and job-spec seed (default 0)",
    )
    chaos.add_argument(
        "--scenarios",
        metavar="KINDS",
        default=None,
        help=(
            "comma-separated fault kinds: kill, torn-write, enospc, "
            "clock-skew, hang (default: all)"
        ),
    )
    chaos.add_argument(
        "--plan",
        metavar="PATH",
        default=None,
        help="replay this chaos-plan JSON instead of generating one",
    )
    chaos.add_argument(
        "--emit-plan",
        metavar="PATH",
        default=None,
        help="write the plan the campaign replays to PATH, then run",
    )
    chaos.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help=(
            "schema-check a chaos-plan JSON and exit (non-zero if "
            "invalid); no campaign runs"
        ),
    )
    chaos.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the JSON campaign report (plan, applied events, "
        "invariants, counters) to PATH",
    )
    chaos.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=4,
        help="unique job specs to submit (default 4)",
    )
    chaos.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=2,
        help="serve worker processes (default 2)",
    )
    chaos.add_argument(
        "--requests",
        type=_int_at_least(1),
        default=150,
        help="requests per job spec (default 150; campaigns exercise "
        "the queue, not the simulator)",
    )
    chaos.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=2.0,
        help="claim lease in seconds (default 2; short so hang/skew "
        "faults force requeues within the campaign)",
    )
    chaos.add_argument(
        "--max-attempts",
        type=_int_at_least(1),
        default=8,
        help="requeue attempts before a job is failed (default 8)",
    )
    chaos.add_argument(
        "--max-restarts",
        type=_int_at_least(0),
        default=6,
        help="supervisor restarts of crashed workers (default 6)",
    )
    chaos.add_argument(
        "--recovery-timeout",
        type=_positive_float,
        default=120.0,
        help="recovery-phase wall-clock budget in seconds (default "
        "120; exceeding it is an invariant violation)",
    )
    chaos.add_argument(
        "--fsync",
        action="store_true",
        help="run the queue with durable (fsynced) writes; off by "
        "default to keep campaigns fast",
    )
    _add_flags(chaos, "metrics")

    listing = sub.add_parser("list", help="list available artifacts")
    listing.set_defaults(handler=_list)

    _add_trace_commands(sub)

    report = sub.add_parser(
        "report",
        help=(
            "trace analytics: per-arm utilization, queue depth, "
            "phase breakdowns and bottleneck attribution, as text "
            "and/or self-contained HTML"
        ),
    )
    report.set_defaults(handler=_report_analysis)
    source = report.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "experiment",
        nargs="?",
        choices=TRACEABLE,
        help="experiment to trace and analyse",
    )
    source.add_argument(
        "--from-trace",
        metavar="PATH",
        default=None,
        action=_ReportSource,
        help=(
            "analyse a previously exported Chrome trace-event JSON "
            "instead of running an experiment (takes none of "
            "--requests/--workers/--actuators)"
        ),
    )
    report.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the plain-text report here (default: stdout)",
    )
    report.add_argument(
        "--html",
        metavar="PATH",
        default=None,
        help="also write a self-contained HTML report to PATH",
    )
    report.add_argument(
        "--scope",
        default=None,
        help=(
            "restrict the analysis to run scopes with this process "
            "prefix (e.g. 'HC-SD' or 'MD-websearch')"
        ),
    )
    _add_traced_run_flags(report, action=_ReportSource)
    # ``None`` marks a run flag as not given; the handler applies the
    # defaults.
    report.set_defaults(**dict.fromkeys(_TRACED_RUN_DEFAULTS))
    _add_flags(report, "metrics")

    serve = sub.add_parser(
        "serve",
        help=(
            "run N worker processes over a persistent on-disk job "
            "queue (crash-safe claims, content-addressed result cache)"
        ),
    )
    serve.set_defaults(handler=_serve)
    _add_flags(serve, "queue")
    serve.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=2,
        help="worker processes (default 2; 1 runs in-process)",
    )
    serve.add_argument(
        "--drain",
        action="store_true",
        help="exit when the queue is empty instead of polling forever",
    )
    serve.add_argument(
        "--max-jobs",
        type=_int_at_least(1),
        default=None,
        help="jobs per worker before it exits (default: unlimited)",
    )
    serve.add_argument(
        "--poll-interval",
        type=_positive_float,
        default=0.2,
        help="idle polling interval in seconds (default 0.2)",
    )
    serve.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=3600.0,
        help=(
            "seconds before a claimed job from a crashed worker is "
            "requeued (default 3600)"
        ),
    )
    serve.add_argument(
        "--max-attempts",
        type=_int_at_least(1),
        default=3,
        help="requeue attempts before a job is failed (default 3)",
    )
    serve.add_argument(
        "--max-restarts",
        type=_int_at_least(0),
        default=0,
        help=(
            "restart a crashed (nonzero-exit) worker up to this many "
            "times across the pool (default 0; gracefully drained "
            "workers are never restarted)"
        ),
    )
    serve.add_argument(
        "--no-fsync",
        dest="fsync",
        action="store_false",
        default=True,
        help=(
            "skip fsync on queue record writes (faster, but records "
            "may be lost or torn on power failure; fine for "
            "scratch/test queues)"
        ),
    )
    _add_flags(serve, "metrics")

    submit = sub.add_parser(
        "submit",
        help=(
            "submit a simulation job to a queue directory; duplicate "
            "(config, trace, code) submissions hit the result cache"
        ),
    )
    submit.set_defaults(handler=_submit)
    _add_flags(submit, "queue")
    submit.add_argument(
        "--workload",
        default=None,
        help=(
            "generated workload to replay: financial | websearch | "
            "tpcc | tpch (mutually exclusive with --trace-file)"
        ),
    )
    submit.add_argument(
        "--trace-file",
        metavar="PATH",
        default=None,
        help=(
            "replay this trace file (disksim/spc1/blktrace, "
            "optionally .gz) via the streaming pipeline"
        ),
    )
    submit.add_argument(
        "--in-format",
        choices=_TRACE_FORMATS,
        default=None,
        help="trace-file format (default: detect from suffix)",
    )
    submit.add_argument(
        "--system",
        choices=("hcsd", "md"),
        default="hcsd",
        help="system to simulate (default hcsd)",
    )
    submit.add_argument(
        "--requests",
        type=int,
        default=4000,
        help=(
            "requests for --workload jobs, or a replay limit for "
            "--trace-file jobs (default 4000)"
        ),
    )
    submit.add_argument(
        "--actuators",
        type=_int_at_least(1),
        default=1,
        help="arm assemblies (1-4)",
    )
    submit.add_argument(
        "--rpm",
        type=_positive_float,
        default=None,
        help="override spindle RPM",
    )
    submit.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload generator seed override",
    )
    submit.add_argument(
        "--disks",
        type=int,
        default=1,
        help=(
            "drives the replayed trace addresses are wrapped onto "
            "(trace-file jobs; default 1)"
        ),
    )
    submit.add_argument(
        "--chunk-requests",
        type=int,
        default=65536,
        help=(
            "streamed replay chunk size (execution knob; excluded "
            "from the cache key; default 65536)"
        ),
    )
    _add_flags(submit, "retries", "deadline", "metrics")

    status_cmd = sub.add_parser(
        "status",
        help="queue counts, or one job's record with a job id",
    )
    status_cmd.set_defaults(handler=_status)
    _add_flags(status_cmd, "queue")
    status_cmd.add_argument(
        "job_id",
        nargs="?",
        default=None,
        help="job id to inspect (default: whole-queue summary)",
    )
    status_cmd.add_argument(
        "--metrics",
        dest="include_metrics",
        action="store_true",
        help=(
            "include the merged worker-metrics snapshot and worker "
            "heartbeats in the summary"
        ),
    )
    _add_flags(status_cmd, "retries", "deadline")

    result_cmd = sub.add_parser(
        "result",
        help="fetch a finished job's canonical result payload",
    )
    result_cmd.set_defaults(handler=_result)
    _add_flags(result_cmd, "queue")
    result_cmd.add_argument("job_id", help="job id to fetch")
    result_cmd.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the payload bytes here (default: pretty-print)",
    )
    _add_flags(result_cmd, "retries", "deadline")

    metrics_cmd = sub.add_parser(
        "metrics",
        help=(
            "merged live-metrics snapshot of a serve queue: one-shot "
            "table/Prometheus/JSON, or a --watch terminal dashboard"
        ),
    )
    metrics_cmd.set_defaults(handler=_metrics)
    _add_flags(metrics_cmd, "queue")
    metrics_cmd.add_argument(
        "--watch",
        action="store_true",
        help=(
            "poll the queue's worker snapshots and redraw a terminal "
            "dashboard until interrupted"
        ),
    )
    metrics_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="--watch refresh interval in seconds (default 2)",
    )
    metrics_cmd.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="--watch frame count (default: until interrupted)",
    )
    metrics_cmd.add_argument(
        "--format",
        choices=("table", "prom", "json"),
        default="table",
        help=(
            "one-shot output: human table (default), Prometheus text "
            "exposition, or the JSON snapshot"
        ),
    )
    metrics_cmd.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the snapshot here instead of stdout",
    )

    simulate = add_command(
        "simulate",
        _simulate,
        "run one custom configuration",
        "requests",
        "shards",
        *_INSTRUMENT_FLAGS,
    )
    simulate.add_argument(
        "--workload",
        default="websearch",
        help="financial | websearch | tpcc | tpch",
    )
    simulate.add_argument(
        "--actuators",
        type=_int_at_least(1),
        default=1,
        help="arm assemblies (1-4)",
    )
    simulate.add_argument(
        "--rpm",
        type=_positive_float,
        default=None,
        help="override spindle RPM",
    )
    simulate.add_argument(
        "--md",
        action="store_true",
        help="also simulate the original multi-disk array",
    )
    listing.set_defaults(commands=tuple(sub.choices))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)

    def invoke() -> None:
        if metrics_path:
            import time

            from repro.obs.metrics import (
                append_snapshot_jsonl,
                metrics_session,
                write_prometheus,
            )

            with metrics_session() as registry:
                args.handler(args)
            if str(metrics_path).endswith(".jsonl"):
                append_snapshot_jsonl(
                    registry,
                    metrics_path,
                    now=time.time(),
                    meta={"command": args.command},
                )
            else:
                write_prometheus(registry, metrics_path)
            print(
                f"wrote {metrics_path} "
                f"({registry.sample_count()} series)"
            )
        else:
            args.handler(args)

    if trace_path:
        from repro.obs.export import write_chrome_trace
        from repro.obs.tracer import tracing

        with tracing() as tracer:
            invoke()
        write_chrome_trace(tracer, trace_path)
        print(f"wrote {trace_path} ({len(tracer.spans)} spans)")
    else:
        invoke()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
