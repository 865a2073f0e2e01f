"""Storage-system factories for the paper's configurations.

Three system shapes cover every experiment:

* **MD** — the original multi-disk array a trace was collected on
  (Table 2): one drive per source disk, JBOD routing.
* **HC-SD / HC-SD-SA(n)** — the single high-capacity
  Barracuda-ES-class drive, optionally with ``n`` actuators, reduced
  RPM, latency-scaling hooks, or a different cache; trace source-disk
  address spaces are concatenated onto it (§7.1).
* **RAID-0 arrays** of conventional or intra-disk-parallel drives for
  the synthetic study (§7.3).

Queue policy: drives keep FCFS *queue* order while the multi-actuator
drives apply SPTF to the *arm choice* for each request, exactly the
role the paper gives SPTF ("the SPTF-based disk arm scheduler has
flexibility in choosing that arm assembly which minimises the overall
positioning time", §7.2).  The paper's HC-SD rotational-latency PDFs
are spread across a full revolution, which shows its disk queue was
not rotation-reordered; queue-level SPTF is available through the
``scheduler_factory`` argument and is studied in the scheduler-sweep
ablation test.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.scheduler import FCFSScheduler, QueueScheduler
from repro.disk.specs import BARRACUDA_ES, DriveSpec
from repro.raid.array import DiskArray
from repro.raid.layout import ConcatLayout, JBODLayout, Raid0Layout
from repro.sim.engine import Environment
from repro.workloads.commercial import CommercialWorkload

__all__ = [
    "build_hcsd_drive",
    "build_hcsd_system",
    "build_md_system",
    "build_raid0_system",
]


def build_md_system(
    env: Environment, workload: CommercialWorkload
) -> DiskArray:
    """The original array of ``workload`` (Table 2): JBOD of MD drives."""
    spec = workload.md_drive_spec()
    drives = [
        ParallelDisk(
            env,
            spec,
            config=DashConfig(),
            scheduler=FCFSScheduler(),
            label=f"md-{workload.name}-{index}",
        )
        for index in range(workload.disks)
    ]
    layout = JBODLayout(
        [workload.disk_capacity_sectors] * workload.disks
    )
    return DiskArray(env, drives, layout, label=f"MD-{workload.name}")


def build_hcsd_drive(
    env: Environment,
    actuators: int = 1,
    rpm: Optional[float] = None,
    seek_scale: float = 1.0,
    rotation_scale: float = 1.0,
    cache_bytes: Optional[int] = None,
    spec: Optional[DriveSpec] = None,
    scheduler: Optional[QueueScheduler] = None,
    label: Optional[str] = None,
) -> ParallelDisk:
    """The HC-SD drive, with every §7 design knob.

    ``actuators`` > 1 yields HC-SD-SA(n); ``rpm`` overrides the spindle
    speed (reduced-RPM study); the scales implement the limit study;
    ``cache_bytes`` the cache-sensitivity experiment.
    """
    base = spec or BARRACUDA_ES
    if rpm is not None:
        base = base.with_rpm(rpm)
    if cache_bytes is not None:
        base = base.with_cache_bytes(cache_bytes)
    if actuators != 1:
        base = dataclasses.replace(base, actuators=actuators)
    return ParallelDisk(
        env,
        base,
        config=DashConfig(arm_assemblies=actuators),
        scheduler=scheduler or FCFSScheduler(),
        seek_scale=seek_scale,
        rotation_scale=rotation_scale,
        label=label,
    )


def build_hcsd_system(
    env: Environment,
    workload: CommercialWorkload,
    actuators: int = 1,
    rpm: Optional[float] = None,
    seek_scale: float = 1.0,
    rotation_scale: float = 1.0,
    cache_bytes: Optional[int] = None,
    scheduler: Optional[QueueScheduler] = None,
) -> DiskArray:
    """HC-SD(-SA(n)) hosting a workload's full dataset (§7.1 layout).

    The source disks' address spaces are concatenated sequentially onto
    the single drive, exactly as the paper lays the MD data out on
    HC-SD.
    """
    drive = build_hcsd_drive(
        env,
        actuators=actuators,
        rpm=rpm,
        seek_scale=seek_scale,
        rotation_scale=rotation_scale,
        cache_bytes=cache_bytes,
        scheduler=scheduler,
    )
    required = workload.disks * workload.disk_capacity_sectors
    if required > drive.geometry.total_sectors:
        raise ValueError(
            f"{workload.name}: dataset ({required} sectors) exceeds the "
            f"HC-SD capacity ({drive.geometry.total_sectors} sectors)"
        )
    layout = ConcatLayout(
        [workload.disk_capacity_sectors] * workload.disks
    )
    suffix = f"-SA({actuators})" if actuators > 1 else ""
    rpm_suffix = f"/{rpm:g}" if rpm is not None else ""
    return DiskArray(
        env,
        [drive],
        layout,
        label=f"HC-SD{suffix}{rpm_suffix}-{workload.name}",
    )


def build_raid0_system(
    env: Environment,
    disks: int,
    actuators: int = 1,
    spec: Optional[DriveSpec] = None,
    stripe_unit: int = 128,
) -> DiskArray:
    """A RAID-0 array of ``disks`` drives for the synthetic study (§7.3).

    Conventional (``actuators=1``) and intra-disk-parallel members use
    the same underlying spec — same recording technology, platter
    count, RPM and cache — as the paper requires for a fair comparison.
    """
    base = spec or BARRACUDA_ES
    drives = [
        ParallelDisk(
            env,
            dataclasses.replace(base, actuators=actuators)
            if actuators != 1
            else base,
            config=DashConfig(arm_assemblies=actuators),
            scheduler=FCFSScheduler(),
            label=f"raid0-{index}-SA({actuators})",
        )
        for index in range(disks)
    ]
    layout = Raid0Layout(
        disk_count=disks,
        disk_capacity=drives[0].geometry.total_sectors,
        stripe_unit=stripe_unit,
    )
    kind = f"SA({actuators})" if actuators > 1 else "HC-SD"
    return DiskArray(env, drives, layout, label=f"{disks}x{kind}")
