"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these probe the reproduction's own modelling
decisions and the related-work alternatives of paper §5, at 2,500
requests per run:

* MA/MC relaxations provide little benefit over base SA(n) (§7.2's
  reported negative result).
* Arm angular placement: equal spacing beats co-located mounts.
* Queue-scheduler sweep: FCFS vs SSTF vs SPTF vs C-LOOK on HC-SD.
* Cache-size sensitivity: 8 MB → 64 MB is negligible (paper §7.1).
* Idle-arm pre-positioning: disabling it strands assemblies.
* Freeblock scheduling, DRPM and MAID against intra-disk parallelism.
* The MD→HC-SD migration layout and the seek-curve functional form.
"""

import dataclasses
import random

from repro.core.extensions import OverlappedParallelDisk
from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.drive import ConventionalDrive
from repro.disk.drpm import DynamicRpmDrive
from repro.disk.freeblock import FreeblockDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import (
    FCFSScheduler,
    ForegroundFirstScheduler,
    make_scheduler,
)
from repro.disk.seek import TwoPhaseSeekModel
from repro.disk.specs import BARRACUDA_ES
from repro.experiments.configs import build_hcsd_drive, build_hcsd_system
from repro.experiments.runner import run_trace
from repro.power.accounting import array_power
from repro.raid.array import DiskArray
from repro.raid.layout import ConcatLayout, InterleavedConcatLayout, JBODLayout
from repro.raid.maid import MaidArray
from repro.sim.engine import Environment
from repro.workloads.commercial import WEBSEARCH

REQUESTS = 2500


def _produce(env, target, requests):
    """Submit each request to ``target`` at its arrival time."""
    for request in requests:
        delay = request.arrival_time - env.now
        if delay > 0:
            yield env.timeout(delay)
        target.submit(request)


def test_ma_mc_relaxations():
    """MA and MC relaxations: little benefit over base SA(n)."""
    workload = WEBSEARCH
    trace = workload.generate(REQUESTS)
    rows = {}
    for label, factory in (
        (
            "SA(2) base",
            lambda env: ParallelDisk(
                env,
                dataclasses.replace(BARRACUDA_ES, actuators=2),
                config=DashConfig(arm_assemblies=2),
                scheduler=FCFSScheduler(),
            ),
        ),
        (
            "SA(2)+MA",
            lambda env: OverlappedParallelDisk(
                env,
                dataclasses.replace(BARRACUDA_ES, actuators=2),
                config=DashConfig(arm_assemblies=2),
                channels=1,
                scheduler=FCFSScheduler(),
            ),
        ),
        (
            "SA(2)+MA+MC",
            lambda env: OverlappedParallelDisk(
                env,
                dataclasses.replace(BARRACUDA_ES, actuators=2),
                config=DashConfig(arm_assemblies=2),
                channels=2,
                scheduler=FCFSScheduler(),
            ),
        ),
    ):
        # The websearch trace addresses per-source-disk space; the
        # concat layout flattens it onto the one drive, as the HC-SD
        # system builder does.
        env = Environment()
        layout = ConcatLayout(
            [workload.disk_capacity_sectors] * workload.disks
        )
        system = DiskArray(env, [factory(env)], layout, label=label)
        rows[label] = run_trace(env, system, trace)
    base = rows["SA(2) base"].mean_response_ms
    for label in ("SA(2)+MA", "SA(2)+MA+MC"):
        assert rows[label].mean_response_ms < base * 1.6, label


def test_queue_schedulers():
    """Queue-policy sweep on the HC-SD drive."""
    workload = WEBSEARCH
    trace = workload.generate(REQUESTS)
    rows = {}
    for policy in ("fcfs", "sstf", "sptf", "clook"):
        env = Environment()
        system = build_hcsd_system(
            env, workload, scheduler=make_scheduler(policy)
        )
        rows[policy] = run_trace(env, system, trace)
    # Position-aware policies must beat FCFS under overload.
    assert rows["sptf"].mean_response_ms < rows["fcfs"].mean_response_ms
    assert rows["sstf"].mean_response_ms < rows["fcfs"].mean_response_ms


def test_cache_size():
    """Paper §7.1: growing the cache 8 MB → 64 MB changes little."""
    workload = WEBSEARCH
    trace = workload.generate(REQUESTS)
    rows = {}
    for label, cache_bytes in (("8MB", 8 * 10**6), ("64MB", 64 * 10**6)):
        env = Environment()
        system = build_hcsd_system(env, workload, cache_bytes=cache_bytes)
        rows[label] = run_trace(env, system, trace)
    small = rows["8MB"].mean_response_ms
    big = rows["64MB"].mean_response_ms
    assert abs(big - small) < 0.35 * small


def test_idle_arm_preposition():
    """Idle-arm pre-positioning is what keeps extra arms useful."""
    workload = WEBSEARCH
    trace = workload.generate(REQUESTS)
    rows = {}
    for label, enabled in (("on", True), ("off", False)):
        env = Environment()
        system = build_hcsd_system(env, workload, actuators=4)
        system.drives[0].preposition_idle_arms = enabled
        rows[label] = run_trace(env, system, trace)
    on_run = rows["on"]
    off_run = rows["off"]
    assert on_run.mean_response_ms <= off_run.mean_response_ms


def test_arm_placement():
    """Diagonal (equally spaced) mounts vs co-located mounts."""
    workload = WEBSEARCH
    trace = workload.generate(REQUESTS)
    rows = {}
    for label, angles in (
        ("diagonal", None),  # default equal spacing
        ("colocated", [0.0, 0.02]),
    ):
        env = Environment()
        system = build_hcsd_system(env, workload, actuators=2)
        if angles is not None:
            for arm, angle in zip(system.drives[0].arms, angles):
                arm.mount_angle = angle
        rows[label] = run_trace(env, system, trace)
    assert (
        rows["diagonal"].collector.mean_rotational_ms
        < rows["colocated"].collector.mean_rotational_ms
    )


def test_freeblock_vs_spare_arm():
    """Freeblock scheduling vs a spare actuator for background work.

    Paper §5: freeblock scheduling can only service background I/O
    that fits inside a foreground rotational-latency window, which
    restricts how much background work completes; an intra-disk
    parallel drive services the same background queue with otherwise
    idle hardware and no deadline.
    """
    spec = BARRACUDA_ES
    count = max(400, REQUESTS // 4)

    def build_workload(geometry_sectors):
        rng = random.Random(17)
        # Foreground: moderate random load over a short-stroked region.
        region = geometry_sectors // 50
        foreground = [
            IORequest(
                lba=rng.randrange(region),
                size=8,
                is_read=False,
                arrival_time=index * 12.0,
            )
            for index in range(count)
        ]
        # Background: a scrub sweep across the same region.
        background = [
            IORequest(
                lba=(index * 4096) % region,
                size=64,
                is_read=True,
                background=True,
            )
            for index in range(count)
        ]
        return foreground, background

    results = {}

    # Conventional drive with freeblock scheduling.
    env = Environment()
    freeblock = FreeblockDrive(env, spec, scheduler=FCFSScheduler())
    foreground, background = build_workload(freeblock.geometry.total_sectors)
    for request in background:
        freeblock.submit(request)
    env.process(_produce(env, freeblock, foreground))
    env.run()
    horizon = env.now
    results["freeblock"] = {"background_done": freeblock.freeblock_serviced}

    # 2-actuator overlapped drive, background on spare capacity.
    env = Environment()
    parallel = OverlappedParallelDisk(
        env,
        dataclasses.replace(spec, actuators=2),
        config=DashConfig(arm_assemblies=2),
        channels=2,
        scheduler=ForegroundFirstScheduler(),
    )
    foreground, background = build_workload(parallel.geometry.total_sectors)
    done = []
    parallel.on_complete.append(done.append)
    for request in background:
        parallel.submit(request)
    env.process(_produce(env, parallel, foreground))
    env.run(until=horizon)  # same time budget as the freeblock run
    results["intra-disk SA(2)"] = {
        "background_done": sum(
            1
            for r in done
            if r.background and r.completion_time is not None
        )
    }
    # The spare-arm drive completes at least as much background work;
    # freeblock is limited by what fits in rotational windows.
    assert (
        results["intra-disk SA(2)"]["background_done"]
        >= results["freeblock"]["background_done"]
    )


def test_drpm_vs_static_low_rpm():
    """DRPM (dynamic RPM) vs a static low-RPM intra-disk design.

    The paper's §5 positions multi-RPM disks as the incumbent power
    knob.  On a bursty light workload DRPM sleeps between bursts; the
    static 4200-RPM SA(4) design simply is cheap all the time while
    holding service latency via its extra actuators.
    """
    spec = BARRACUDA_ES
    bursts = max(10, REQUESTS // 100)

    def build_trace(geometry_sectors):
        rng = random.Random(31)
        region = geometry_sectors // 50
        trace = []
        clock = 0.0
        for _ in range(bursts):
            for _ in range(20):  # a burst of 20 requests, 5 ms apart
                clock += 5.0
                trace.append(
                    IORequest(
                        lba=rng.randrange(region),
                        size=8,
                        is_read=False,
                        arrival_time=clock,
                    )
                )
            clock += 2000.0  # 2 s of idleness between bursts
        return trace

    rows = {}

    env = Environment()
    drpm = DynamicRpmDrive(env, spec, scheduler=FCFSScheduler())
    trace = build_trace(drpm.geometry.total_sectors)
    done = []
    drpm.on_complete.append(done.append)
    env.process(_produce(env, drpm, [r.clone() for r in trace]))
    env.run()
    rows["DRPM 7200-4200"] = {
        "mean_ms": sum(r.response_time for r in done) / len(done),
        "transitions": drpm.transitions,
    }

    env = Environment()
    static = ParallelDisk(
        env,
        dataclasses.replace(spec, actuators=4).with_rpm(4200),
        config=DashConfig(arm_assemblies=4),
        scheduler=FCFSScheduler(),
    )
    done = []
    static.on_complete.append(done.append)
    env.process(_produce(env, static, [r.clone() for r in trace]))
    env.run()
    rows["SA(4)@4200 static"] = {
        "mean_ms": sum(r.response_time for r in done) / len(done),
    }
    drpm_row = rows["DRPM 7200-4200"]
    static_row = rows["SA(4)@4200 static"]
    # Both save power vs an always-on 13 W-class drive; DRPM pays for
    # wake-ups in latency, the static design does not.
    assert drpm_row["transitions"] > 0
    assert static_row["mean_ms"] < drpm_row["mean_ms"]


def test_migration_layout():
    """MD→HC-SD data layout: sequential concatenation vs interleaving.

    The paper concatenates the source disks' address spaces for lack of
    layout information (§7.1).  This ablation checks how much that
    choice matters by also striping the source spaces across the drive
    in 1 MB units.
    """
    workload = WEBSEARCH
    trace = workload.generate(REQUESTS)
    spaces = [workload.disk_capacity_sectors] * workload.disks
    rows = {}
    for label, layout in (
        ("concat (paper)", ConcatLayout(spaces)),
        ("interleaved 1MB", InterleavedConcatLayout(spaces, unit=2048)),
    ):
        env = Environment()
        drive = build_hcsd_drive(env, actuators=2)
        system = DiskArray(env, [drive], layout, label=label)
        rows[label] = run_trace(env, system, trace)
    concat = rows["concat (paper)"].mean_response_ms
    interleaved = rows["interleaved 1MB"].mean_response_ms
    # The qualitative story must not hinge on the layout choice:
    # both land in the same ballpark.
    assert 0.3 * concat <= interleaved <= 3.0 * concat


def test_seek_model():
    """Seek-curve robustness: empirical three-point fit vs the
    physics-based two-phase (bang-bang) model.

    The reproduction's conclusions must not hinge on the seek-curve
    functional form; both models are fitted to the same published
    anchor points.
    """
    workload = WEBSEARCH
    trace = workload.generate(REQUESTS)
    rows = {}
    for label, physical in (("three-point", False), ("two-phase", True)):
        env = Environment()
        system = build_hcsd_system(env, workload, actuators=2)
        drive = system.drives[0]
        if physical:
            drive.seek_model = TwoPhaseSeekModel.fit_published(
                drive.spec.seek_track_to_track_ms,
                drive.spec.seek_average_ms,
                drive.spec.seek_full_stroke_ms,
                drive.geometry.cylinders,
            )
        rows[label] = run_trace(env, system, trace)
    empirical = rows["three-point"].mean_response_ms
    physical = rows["two-phase"].mean_response_ms
    assert 0.5 * empirical <= physical <= 2.0 * empirical


def test_maid_spin_down():
    """MAID spin-down vs an always-on archive array (related work §5).

    A cold archival access pattern (long lulls between small bursts)
    lets MAID park most spindles: large power savings, paid for with
    multi-second first-access latency — the opposite trade from
    intra-disk parallelism, which keeps one drive hot and fast.
    """
    disks = 4
    bursts = max(8, REQUESTS // 300)

    def build_members(env):
        return [
            ConventionalDrive(
                env, BARRACUDA_ES, scheduler=FCFSScheduler(),
                label=f"archive-{i}",
            )
            for i in range(disks)
        ]

    def archive_trace(capacity):
        rng = random.Random(41)
        trace = []
        clock = 0.0
        for _ in range(bursts):
            disk = rng.randrange(disks)
            for _ in range(5):
                clock += 50.0
                trace.append(
                    IORequest(
                        lba=rng.randrange(capacity - 64),
                        size=32,
                        is_read=True,
                        arrival_time=clock,
                        source_disk=disk,
                    )
                )
            clock += 30_000.0  # half a minute of silence
        return trace

    rows = {}

    env = Environment()
    members = build_members(env)
    capacity = members[0].geometry.total_sectors
    plain = DiskArray(
        env, members, JBODLayout([capacity] * disks), label="always-on"
    )
    done = []
    plain.on_complete.append(done.append)
    env.process(_produce(env, plain, archive_trace(capacity)))
    env.run()
    rows["always-on"] = {
        "mean_ms": sum(r.response_time for r in done) / len(done),
        "watts": array_power(members, env.now).total_watts,
    }

    env = Environment()
    members = build_members(env)
    maid = MaidArray(
        env,
        members,
        JBODLayout([capacity] * disks),
        spin_down_idle_ms=5_000.0,
        spin_up_ms=6_000.0,
    )
    done = []
    maid.on_complete.append(done.append)
    env.process(_produce(env, maid, archive_trace(capacity)))
    env.run()
    rows["MAID"] = {
        "mean_ms": sum(r.response_time for r in done) / len(done),
        "watts": maid.average_power_watts(),
        "spin_ups": maid.total_spin_ups(),
    }
    # MAID must save substantial power on a cold pattern...
    assert rows["MAID"]["watts"] < 0.6 * rows["always-on"]["watts"]
    # ...at a clear first-access latency cost.
    assert rows["MAID"]["mean_ms"] > 5 * rows["always-on"]["mean_ms"]
    assert rows["MAID"]["spin_ups"] > 0
