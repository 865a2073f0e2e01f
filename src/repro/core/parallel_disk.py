"""The multi-actuator intra-disk parallel drive — HC-SD-SA(n).

``ParallelDisk`` is the drive of :mod:`repro.disk.drive` laid out along
the A, S and H dimensions of the DASH taxonomy.  It keeps the paper's
two conventional restrictions (§7.2) — one arm assembly in motion, one
head transferring — and serves through the conventional drive's own
path (SA(1) *is* the conventional drive): for each request the SPTF arm
search picks *whichever idle assembly minimises positioning time*.
The assemblies sit at distinct angular mounts and cylinders, so the
nearest wins on both seek and rotation; this is the mechanism behind
the paper's Figure 5, whose rotational-latency tail shortens from a
full revolution toward ``period / n``.  The relaxations of the two
restrictions live in :mod:`repro.core.extensions`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.taxonomy import DashConfig
from repro.disk.actuator import ArmAssembly
from repro.disk.drive import ConventionalDrive, DriveStats
from repro.disk.scheduler import QueueScheduler
from repro.disk.specs import DriveSpec
from repro.sim.engine import Environment

__all__ = ["ParallelDisk"]


class ParallelDisk(ConventionalDrive):
    """A drive with ``config.arm_assemblies`` independent actuators.

    Parameters
    ----------
    env, spec, scheduler, seek_scale, rotation_scale, cache_segments:
        As for :class:`~repro.disk.drive.ConventionalDrive`.
    config:
        The DASH configuration.  ``disk_stacks`` must be 1 here — the
        D-dimension is realised by :func:`repro.core.factory.build_dash_drive`
        as an array of stacks.
    """

    def __init__(
        self,
        env: Environment,
        spec: DriveSpec,
        config: Optional[DashConfig] = None,
        scheduler: Optional[QueueScheduler] = None,
        seek_scale: float = 1.0,
        rotation_scale: float = 1.0,
        cache_segments: int = 16,
        label: Optional[str] = None,
        retry_policy=None,
    ):
        config = config or DashConfig(arm_assemblies=spec.actuators)
        if config.disk_stacks != 1:
            raise ValueError(
                "ParallelDisk models a single stack; use build_dash_drive() "
                f"for {config.notation}"
            )
        super().__init__(
            env,
            spec,
            scheduler=scheduler,
            seek_scale=seek_scale,
            rotation_scale=rotation_scale,
            cache_segments=cache_segments,
            label=label or f"{spec.name}-{config.notation}",
            retry_policy=retry_policy,
        )
        self.config = config
        if config.surfaces > self.geometry.surfaces:
            raise ValueError(
                f"{config.notation}: cannot access {config.surfaces} "
                f"surfaces in parallel on a {self.geometry.surfaces}-surface "
                "drive"
            )
        self.surfaces = config.surfaces
        head_offsets = config.head_offset_angles()
        start = self.geometry.cylinders // 2
        self.arms = [
            ArmAssembly(
                arm_id=index,
                mount_angle=angle,
                initial_cylinder=start,
                head_offsets=head_offsets,
            )
            for index, angle in enumerate(config.arm_mount_angles())
        ]
        if len(self.arms) != len(self.stats.per_arm_seek_ms):
            # The DASH config may request more (or fewer) assemblies
            # than the spec advertises; re-preallocate so per-arm stats
            # are shaped by the actual arm count.
            self.stats = DriveStats.for_arms(len(self.arms))

    # -- graceful degradation (paper §8) --------------------------------------
    @property
    def healthy_arm_count(self) -> int:
        return sum(1 for arm in self.arms if not arm.failed)

    def deconfigure_arm(self, arm_id: int) -> None:
        """Remove a (failing) assembly from service permanently.

        Models the paper's reliability answer (§8): SMART-style sensors
        predict an impending head/assembly failure and firmware
        deconfigures the component, degrading the drive gracefully to
        SA(n-1) behaviour instead of failing outright.  At least one
        healthy assembly must remain.
        """
        matches = [arm for arm in self.arms if arm.arm_id == arm_id]
        if not matches:
            raise ValueError(
                f"no arm with id {arm_id}; have "
                f"{[arm.arm_id for arm in self.arms]}"
            )
        arm = matches[0]
        if arm.failed:
            return
        if self.healthy_arm_count <= 1:
            raise ValueError(
                "cannot deconfigure the last healthy arm assembly"
            )
        arm.failed = True
        if self.tracer.enabled:
            self.tracer.instant(
                "arm-deconfigured",
                self.env.now,
                (self.label, f"arm {arm.arm_id}"),
                args={
                    "arm": arm.arm_id,
                    "healthy_remaining": self.healthy_arm_count,
                },
            )
            telemetry = self.tracer.telemetry
            telemetry.counter("repro_arms_deconfigured_total").inc()
            telemetry.gauge("repro_arms_healthy").set(self.healthy_arm_count)

    # -- diagnostics ----------------------------------------------------------
    def arm_report(self) -> List[dict]:
        """Per-arm utilisation summary (requests, seeks, seek time)."""
        return [
            {
                "arm_id": arm.arm_id,
                "mount_angle": arm.mount_angle,
                "requests": arm.requests_serviced,
                "seeks": arm.seeks,
                "seek_time_ms": arm.seek_time_ms,
                "cylinder": arm.cylinder,
                "failed": arm.failed,
            }
            for arm in self.arms
        ]
