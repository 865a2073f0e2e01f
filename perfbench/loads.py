"""The four benchmark workloads and what one timed pass of each runs.

Every workload alternates two kinds of pass, ``serial`` and
``parallel``, and returns a :class:`Pass` for each.  A pass carries the
host time of each timed unit with the calibration loop measured just
before it (see :mod:`calibrate`), the latency of each job a client
waited for, coarse timers around the public ``repro`` calls it made,
deterministic model counts, and the figures whose bit-identity
``child.py`` checks.

Generator seeds are ``paper seed + seed``, so ``seed=0`` replays the
paper's own streams and the digests in ``pins.json`` apply.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.disk.scheduler import SPTFScheduler
from repro.experiments.configs import (
    build_hcsd_drive,
    build_hcsd_system,
    build_md_system,
    build_raid0_system,
)
from repro.experiments.executor import Job, sweep
from repro.experiments.runner import run_trace
from repro.sim.engine import Environment
from repro.workloads.commercial import COMMERCIAL_WORKLOADS
from repro.workloads.synthetic import SyntheticWorkload

#: Worker or shard processes a parallel pass uses: the core count of
#: the 2-CPU host the benchmark was sized on.  The driving process
#: never starts more.
PARALLEL = 2

#: Per-workload sizes.  ``smoke`` keeps every pass well under a second
#: for the harness self-test.  At full size a 20 s run times at least
#: ~20 calibrated units per end-to-end metric on the reference host
#: (see :mod:`calibrate`): 8 jobs per serial pass on limit and
#: multi-arm, ~19 serial replays on raid0, 6 misses per pass on serve.
#: Serve's hits per pass give ~1,000 per run, enough for a p99.
SIZES = {
    False: {
        "limit": 12000,
        "multi-arm": 8000,
        "raid0": 10000,
        "serve_trace": 40000,
        "serve_miss": 10000,
        "serve_hits": 200,
        "serve_batch": 5000,
    },
    True: {
        "limit": 600,
        "multi-arm": 400,
        "raid0": 2000,
        "serve_trace": 4000,
        "serve_miss": 1000,
        "serve_hits": 20,
        "serve_batch": 500,
    },
}

#: §7.3 synthetic generator as Figure 8 drives it.
RAID_DISKS = 16
RAID_ACTUATORS = 2
RAID_INTERARRIVAL_MS = 1.0
RAID_FOOTPRINT = 0.02
RAID_SEED = 99

#: Trace-file jobs of the serve workload: (actuators, rpm).
SERVE_MISS_CONFIGS = tuple(
    (actuators, rpm) for actuators in (1, 2, 4) for rpm in (None, 5400.0)
)
SERVE_TRACE_WORKLOAD = "tpcc"

#: ``(host seconds, calibration loop seconds just before)``.
Unit = Tuple[float, float]


@dataclasses.dataclass
class Pass:
    """What one pass measured and produced."""

    wall_s: float
    #: Simulated requests the throughput metric counts, and the timed
    #: units they took: the whole pass, except on serve's closed loop,
    #: where only cache misses simulate.
    requests: int
    units: List[Unit]
    #: Operations the per-layer call counts are divided by: simulated
    #: requests, or client jobs on serve.
    ops: int
    #: Each uncached simulation job a client waited for.
    jobs: List[Unit]
    figures: list
    #: Operations attempted and failed inside the pass (serve jobs and
    #: hit checks); the pass itself is counted by ``child.py``.
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    timers: Dict[str, float] = dataclasses.field(default_factory=dict)
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Serve only: each cache hit's phase latencies (submit, worker,
    #: result) in host ms.
    hit_phases: List[Tuple[float, float, float]] = dataclasses.field(
        default_factory=list
    )


def digest(figures) -> str:
    payload = json.dumps(figures, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _run_figures(run) -> list:
    return [
        run.mean_response_ms,
        run.percentile(90),
        run.power.total_watts,
        list(run.response_cdf()),
    ]


# -- simulation jobs (module level so sweep() can pickle them) ------------


def commercial_job(
    workload: str,
    system: str,
    requests: int,
    seed: int,
    actuators: int = 1,
    queue: str = "fcfs",
) -> Dict:
    """Generate one commercial trace and replay it on one system."""
    start = time.perf_counter()
    source = COMMERCIAL_WORKLOADS[workload]
    trace = source.generate(requests, seed=source.seed + seed)
    generated = time.perf_counter()
    env = Environment()
    if system == "md":
        array = build_md_system(env, source)
    else:
        array = build_hcsd_system(
            env,
            source,
            actuators=actuators,
            scheduler=SPTFScheduler() if queue == "sptf" else None,
        )
    built = time.perf_counter()
    run = run_trace(env, array, trace)
    done = time.perf_counter()
    return _job_outcome(
        run, env, array, (generated - start, built - generated, done - built)
    )


def raid0_job(requests: int, seed: int, shards: int) -> Dict:
    """Figure 8's heaviest cell: 16 x SA(2) RAID-0 under 1 ms arrivals."""
    start = time.perf_counter()
    env = Environment()
    array = build_raid0_system(env, RAID_DISKS, actuators=RAID_ACTUATORS)
    built = time.perf_counter()
    trace = SyntheticWorkload(
        capacity_sectors=array.capacity_sectors(),
        mean_interarrival_ms=RAID_INTERARRIVAL_MS,
        footprint_fraction=RAID_FOOTPRINT,
        seed=RAID_SEED + seed,
    ).generate(requests)
    generated = time.perf_counter()
    run = run_trace(env, array, trace, shards=shards)
    done = time.perf_counter()
    return _job_outcome(
        run, env, array, (generated - built, built - start, done - generated)
    )


def _job_outcome(run, env, array, timers) -> Dict:
    collector = run.collector
    return {
        "figures": _run_figures(run),
        "requests": run.requests,
        "events": env.total_events,
        "physical": sum(
            drive.stats.requests_completed for drive in array.drives
        ),
        "cache_hits": collector.cache_hits,
        "completed": collector.completed,
        "generate_s": timers[0],
        "build_s": timers[1],
        "run_trace_s": timers[2],
    }


def _sim_pass(outcomes: List[Dict], wall: float, units, jobs) -> Pass:
    requests = sum(outcome["requests"] for outcome in outcomes)
    completed = sum(outcome["completed"] for outcome in outcomes)
    return Pass(
        wall_s=wall,
        requests=requests,
        units=units,
        ops=requests,
        jobs=jobs,
        figures=[outcome["figures"] for outcome in outcomes],
        timers={
            name: sum(outcome[name] for outcome in outcomes)
            for name in ("generate_s", "build_s", "run_trace_s")
        },
        counts={
            "sim.events_per_request": sum(
                outcome["events"] for outcome in outcomes
            )
            / requests,
            "disk.cache.hit_ratio": sum(
                outcome["cache_hits"] for outcome in outcomes
            )
            / completed,
            "raid.physical_per_logical": sum(
                outcome["physical"] for outcome in outcomes
            )
            / requests,
        },
    )


def no_probe() -> float:
    """The probe of untimed passes: runs no calibration loop."""
    return 1.0


def _timed(probe: Callable[[], float], call):
    """``(result, (host seconds, loop seconds))`` of one timed unit."""
    loop = probe()
    start = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - start, loop)


class SimWorkload:
    """A fixed list of independent simulation jobs.

    The serial pass runs them in-process one after another, each job a
    timed unit; the parallel pass hands the same jobs to
    ``sweep(n_workers=2)``, whose figures must be bit-identical.
    """

    def __init__(self, jobs: List[Job]):
        self.jobs = jobs

    def warmup(self) -> Pass:
        return self.run("serial", no_probe)

    def run(self, kind: str, probe: Callable[[], float]) -> Pass:
        start = time.perf_counter()
        if kind == "parallel":
            outcomes, unit = _timed(
                probe, lambda: sweep(self.jobs, n_workers=PARALLEL)
            )
            return _sim_pass(
                outcomes, time.perf_counter() - start, [unit], []
            )
        outcomes = []
        units = []
        for job in self.jobs:
            outcome, unit = _timed(probe, job.run)
            outcomes.append(outcome)
            units.append(unit)
        return _sim_pass(outcomes, time.perf_counter() - start, units, units)


class Raid0Workload:
    """One RAID-0 replay, serial kernel against ``shards=2``."""

    def __init__(self, requests: int, seed: int):
        self.requests = requests
        self.seed = seed

    def warmup(self) -> Pass:
        return self.run("serial", no_probe)

    def run(self, kind: str, probe: Callable[[], float]) -> Pass:
        shards = PARALLEL if kind == "parallel" else 1
        start = time.perf_counter()
        outcome, unit = _timed(
            probe, lambda: raid0_job(self.requests, self.seed, shards)
        )
        return _sim_pass(
            [outcome],
            time.perf_counter() - start,
            [unit],
            [unit] if shards == 1 else [],
        )


# -- serve -----------------------------------------------------------------


def serve_trace_path(workdir: str, smoke: bool) -> str:
    requests = SIZES[smoke]["serve_trace"]
    return os.path.join(workdir, f"{SERVE_TRACE_WORKLOAD}-{requests}.spc1.gz")


def write_serve_trace(workdir: str, seed: int, smoke: bool) -> str:
    """Write the serve workload's gzip SPC-1 trace fixture."""
    from repro.workloads.formats import write_trace_requests

    path = serve_trace_path(workdir, smoke)
    source = COMMERCIAL_WORKLOADS[SERVE_TRACE_WORKLOAD]
    trace = source.generate(
        SIZES[smoke]["serve_trace"], seed=source.seed + seed
    )
    write_trace_requests(path, trace, "spc1", name=trace.name)
    return path


class ServeWorkload:
    """One closed-loop client against metered serve workers.

    The serial pass submits each trace-file spec once (cache misses,
    each drained in-process by ``worker_loop``), then resubmits them
    round-robin one at a time (cache hits).  The parallel pass drains a
    batch of workload jobs with ``serve(workers=2)``.  Every pass gets
    fresh queue and cache directories under ``workdir``.
    """

    def __init__(self, workdir: str, seed: int, smoke: bool):
        from repro.serve import JobSpec

        sizes = SIZES[smoke]
        self.workdir = workdir
        self.hits = sizes["serve_hits"]
        trace_path = serve_trace_path(workdir, smoke)
        fixture = COMMERCIAL_WORKLOADS[SERVE_TRACE_WORKLOAD]
        self.misses = [
            JobSpec(
                trace_path=trace_path,
                trace_format="spc1",
                requests=sizes["serve_miss"],
                disks=fixture.disks,
                actuators=actuators,
                rpm=rpm,
            )
            for actuators, rpm in SERVE_MISS_CONFIGS
        ]
        self.batch = [
            JobSpec(
                workload=name,
                requests=sizes["serve_batch"],
                actuators=actuators,
                seed=workload.seed + seed,
            )
            for name, workload in COMMERCIAL_WORKLOADS.items()
            for actuators in (1, 4)
        ]
        self._passes = 0

    def warmup(self) -> Pass:
        """A short serial pass: one small miss and a few hits."""
        small = dataclasses.replace(self.misses[0], requests=500)
        return self._in_fresh_queue(
            self._closed_loop, no_probe, [small], 4
        )

    def run(self, kind: str, probe: Callable[[], float]) -> Pass:
        if kind == "parallel":
            return self._in_fresh_queue(self._batch, probe)
        return self._in_fresh_queue(
            self._closed_loop, probe, self.misses, self.hits
        )

    def _in_fresh_queue(self, phase, *args) -> Pass:
        self._passes += 1
        queue = os.path.join(self.workdir, f"queue-{self._passes}")
        shutil.rmtree(queue, ignore_errors=True)
        try:
            return phase(queue, *args)
        finally:
            shutil.rmtree(queue, ignore_errors=True)

    def _closed_loop(self, queue: str, probe, misses, hits: int) -> Pass:
        from repro.serve import result, submit, verify_result_payload
        from repro.serve import worker_loop

        def one_job(spec):
            record = submit(queue, spec)
            submitted = time.perf_counter()
            worker_loop(queue, drain=True, metrics=True)
            worked = time.perf_counter()
            final, payload = result(queue, record["job_id"])
            return final, payload, submitted, worked

        attempted = failed = 0
        errors: List[str] = []
        units: List[Unit] = []
        miss_bytes: List[Optional[bytes]] = []
        figures: List[Optional[str]] = []
        requests = 0
        cache_hits = 0.0
        start = time.perf_counter()
        for spec in misses:
            (final, payload, _, _), unit = _timed(
                probe, lambda: one_job(spec)
            )
            units.append(unit)
            attempted += 1
            outcome = final.get("outcome") or {}
            problem = _payload_problem(payload, verify_result_payload)
            if final.get("state") != "done" or outcome.get("cached"):
                problem = problem or f"miss ended {final.get('state')}"
            if problem:
                failed += 1
                errors.append(f"miss {spec.actuators}/{spec.rpm}: {problem}")
                miss_bytes.append(None)
                figures.append(None)
                continue
            miss_bytes.append(payload)
            body = json.loads(payload)
            figures.append(body["figures_sha256"])
            requests += outcome["requests"]
            cache_hits += (
                body["figures"]["cache_hit_fraction"] * outcome["requests"]
            )
        hits_done = 0
        phases: List[Tuple[float, float, float]] = []
        for index in range(hits):
            slot = index % len(misses)
            began = time.perf_counter()
            final, payload, submitted, worked = one_job(misses[slot])
            ended = time.perf_counter()
            phases.append(
                (
                    (submitted - began) * 1000.0,
                    (worked - submitted) * 1000.0,
                    (ended - worked) * 1000.0,
                )
            )
            attempted += 1
            outcome = final.get("outcome") or {}
            if not outcome.get("cached"):
                failed += 1
                errors.append(f"hit {index}: answered without the cache")
            elif payload is None or payload != miss_bytes[slot]:
                failed += 1
                errors.append(f"hit {index}: bytes differ from the miss")
            elif verify_result_payload(payload) is not None:
                failed += 1
                errors.append(f"hit {index}: payload fails verification")
            else:
                hits_done += 1
        jobs = len(misses) + hits
        return Pass(
            wall_s=time.perf_counter() - start,
            requests=requests,
            units=units,
            ops=jobs,
            jobs=units,
            figures=figures,
            attempted=attempted,
            failed=failed,
            errors=errors,
            counts={
                "disk.cache.hit_ratio": (
                    cache_hits / requests if requests else 0.0
                ),
                "serve.hit_fraction": hits_done / jobs,
            },
            hit_phases=phases,
        )

    def _batch(self, queue: str, probe) -> Pass:
        from repro.serve import result, serve, submit, verify_result_payload

        def drain_batch():
            records = [submit(queue, spec) for spec in self.batch]
            codes = serve(queue, workers=PARALLEL, drain=True, metrics=True)
            finals = [result(queue, record["job_id"]) for record in records]
            return codes, finals

        attempted = failed = 0
        errors: List[str] = []
        figures: List[Optional[str]] = []
        requests = 0
        start = time.perf_counter()
        (codes, finals), unit = _timed(probe, drain_batch)
        wall = time.perf_counter() - start
        if any(codes):
            failed += 1
            errors.append(f"serve exit codes {codes}")
        for spec, (final, payload) in zip(self.batch, finals):
            attempted += 1
            problem = _payload_problem(payload, verify_result_payload)
            if final.get("state") != "done":
                problem = problem or f"job ended {final.get('state')}"
            if problem:
                failed += 1
                errors.append(f"batch {spec.workload}: {problem}")
                figures.append(None)
                continue
            figures.append(json.loads(payload)["figures_sha256"])
            requests += final["outcome"]["requests"]
        return Pass(
            wall_s=wall,
            requests=requests,
            units=[unit],
            ops=len(self.batch),
            jobs=[],
            figures=figures,
            attempted=attempted,
            failed=failed,
            errors=errors,
        )


def _payload_problem(payload: Optional[bytes], verify) -> Optional[str]:
    if payload is None:
        return "no payload"
    return verify(payload)


# -- construction and set-up -------------------------------------------------


WORKLOADS = ("limit", "multi-arm", "raid0", "serve")


def make(name: str, seed: int, smoke: bool, workdir: str):
    """The workload object for ``name``."""
    sizes = SIZES[smoke]
    if name == "limit":
        return SimWorkload(
            [
                Job(commercial_job, (workload, system, sizes["limit"], seed))
                for workload in COMMERCIAL_WORKLOADS
                for system in ("md", "hcsd")
            ]
        )
    if name == "multi-arm":
        return SimWorkload(
            [
                Job(
                    commercial_job,
                    (workload, "hcsd", sizes["multi-arm"], seed),
                    {"actuators": 4, "queue": queue},
                )
                for workload in COMMERCIAL_WORKLOADS
                for queue in ("fcfs", "sptf")
            ]
        )
    if name == "raid0":
        return Raid0Workload(sizes["raid0"], seed)
    if name == "serve":
        return ServeWorkload(workdir, seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def set_up(name: str, workdir: str) -> None:
    """What a fresh interpreter does before its first pass of ``name``:
    build every system the workload uses once, which fills the drives'
    zone tables; serve also creates its queue and cache and digests the
    code tree for the first cache key."""
    if name in ("limit", "multi-arm"):
        for workload in COMMERCIAL_WORKLOADS.values():
            if name == "limit":
                build_md_system(Environment(), workload)
                build_hcsd_system(Environment(), workload)
            else:
                build_hcsd_system(Environment(), workload, actuators=4)
    elif name == "raid0":
        build_raid0_system(
            Environment(), RAID_DISKS, actuators=RAID_ACTUATORS
        )
    elif name == "serve":
        from repro.serve import JobQueue, ResultCache, code_version

        queue = os.path.join(workdir, f"setup-{os.getpid()}")
        JobQueue(queue)
        ResultCache(os.path.join(queue, "cache"))
        code_version()
        for actuators, rpm in SERVE_MISS_CONFIGS:
            build_hcsd_drive(Environment(), actuators=actuators, rpm=rpm)
        shutil.rmtree(queue, ignore_errors=True)
    else:
        raise ValueError(f"unknown workload {name!r}")
