"""The multi-actuator intra-disk parallel drive — HC-SD-SA(n).

``ParallelDisk`` extends the conventional drive of
:mod:`repro.disk.drive` with the A, S and H dimensions of the DASH
taxonomy while retaining the paper's two conventional restrictions
(§7.2):

1. only a single arm assembly may be in motion at any time, and
2. only a single head may transfer data over the channel.

Requests are therefore still serviced one at a time, but for each
request the SPTF-based arm scheduler chooses *whichever idle assembly
minimises the overall positioning time* — the assemblies sit at
distinct angular mounts and distinct cylinders, so the nearest one wins
on both seek and rotational latency.  This is the mechanism behind the
paper's Figure 5: the rotational-latency PDF tail shortens from a full
revolution toward ``period / n``.

The relaxations of the two restrictions (multiple arms in motion,
multiple channels) live in :mod:`repro.core.extensions`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.actuator import ArmAssembly
from repro.core.taxonomy import DashConfig
from repro.disk.drive import ConventionalDrive, DriveStats
from repro.disk.geometry import PhysicalAddress
from repro.disk.request import IORequest
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
        head_offsets = config.head_offset_angles()
        start = self.geometry.cylinders // 2
        self.arms: List[ArmAssembly] = [
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
        #: Enable firmware-style pre-positioning of idle assemblies
        #: (see :meth:`_preposition`); the knob exists for ablation.
        self.preposition_idle_arms = True
        #: Count of background repositioning moves performed.
        self.repositions = 0

    # -- arm selection ------------------------------------------------------
    @property
    def actuator_count(self) -> int:
        return len(self.arms)

    def best_arm_for(
        self,
        request: IORequest,
        at_time: float,
        include_busy: bool = False,
        address: Optional[PhysicalAddress] = None,
    ) -> Tuple[ArmAssembly, float, float, int]:
        """The (arm, seek, rotation, head) minimising positioning time.

        Considers every arm that is idle at ``at_time``; in the base
        SA(n) drive service is serialised, so all arms are idle at each
        decision point.  With ``include_busy`` the search ignores
        busy/idle state — used by the overlapped extensions to judge
        whether waiting for a busy arm would beat dispatching now.
        ``address`` lets callers pass an already-decoded target.
        """
        if address is None:
            cylinder, sector_angle = self.geometry.decode_target(request.lba)
        else:
            cylinder = address.cylinder
            sector_angle = self.geometry.sector_angle(address)
        return self._best_arm(cylinder, sector_angle, at_time, include_busy)

    def _best_arm(
        self,
        cylinder: int,
        sector_angle: float,
        at_time: float,
        include_busy: bool = False,
    ) -> Tuple[ArmAssembly, float, float, int]:
        """SPTF arm search over an already-decoded target.

        Arms are scanned in ``arm_id`` order with a strict improvement
        test, so ties go to the lowest id — the same total order as the
        documented ``(total, arm_id)`` key.
        """
        seek_time = self.seek_model.seek_time
        spindle = self.spindle
        latency_to = spindle.latency_to
        period = spindle._period_ms
        phase = spindle.phase
        seek_scale = self.seek_scale
        rotation_scale = self.rotation_scale
        best: Optional[Tuple[float, ArmAssembly, float, float, int]] = None
        for arm in self.arms:
            if arm.failed:
                # Deconfigured assemblies never serve again; SPTF
                # degrades transparently to the survivors (and
                # ``is_idle`` alone would not exclude them for the
                # overlapped extensions' ``include_busy`` searches).
                continue
            if not include_busy and at_time < arm.busy_until:
                continue
            seek = seek_time(arm.cylinder, cylinder) * seek_scale
            angles = arm._head_angles
            if len(angles) == 1:
                # Single head per surface (every evaluated design):
                # Spindle.latency_to inlined, operation for operation,
                # saving the best_head_latency and latency_to frames on
                # each arm evaluation.
                platter = (phase + (at_time + seek) / period) % 1.0
                gap = (sector_angle - platter - angles[0]) % 1.0
                if gap >= 1.0:  # float quirk: (-1e-18) % 1.0 == 1.0
                    gap = 0.0
                rotation = gap * period
                head = 0
            else:
                rotation, head = arm.best_head_latency(
                    latency_to, at_time + seek, sector_angle
                )
            rotation *= rotation_scale
            total = seek + rotation
            if best is None or total < best[0]:
                best = (total, arm, seek, rotation, head)
        if best is None:
            raise RuntimeError("no idle arm available")
        _, arm, seek, rotation, head = best
        return arm, seek, rotation, head

    def positioning_estimate(self, request: IORequest) -> float:
        if request.is_read and self.cache.contains(request.lba, request.size):
            return 0.0
        target = self._target_cache.get(request.request_id)
        if target is None:
            target = self.geometry.decode_target(request.lba)
            self._target_cache[request.request_id] = target
        cylinder, sector_angle = target
        _, seek, rotation, _ = self._best_arm(
            cylinder, sector_angle, self.env._now
        )
        return seek + rotation

    def _preposition(self, active_arm: ArmAssembly, target_cylinder: int) -> None:
        """Background repositioning of a stranded idle assembly.

        A far-away assembly can never win the SPTF arm choice: its seek
        penalty exceeds the largest possible rotational gain (one
        revolution).  Drive firmware therefore shuttles idle assemblies
        toward the active region while the servicing arm is stationary
        (rotational-latency and transfer phases) — the servicing arm
        stops moving once its seek ends, so the single-arm-in-motion
        restriction is preserved for *servicing* seeks.

        The move's VCM activity is billed to the seek-mode energy,
        which is why the paper sees the fraction of non-zero-seek
        requests (and seek power) grow with actuator count (§7.2).
        """
        if not self.preposition_idle_arms:
            return
        now = self.env._now
        # First-maximal scan in arm_id order: the same arm max() with an
        # abs-distance key would pick, without the candidate list.
        farthest = None
        farthest_distance = -1
        for arm in self.arms:
            if arm is active_arm or arm.failed or now < arm.busy_until:
                continue
            distance = arm.cylinder - target_cylinder
            if distance < 0:
                distance = -distance
            if distance > farthest_distance:
                farthest_distance = distance
                farthest = arm
        if farthest is None:
            return
        move = (
            self.seek_model.seek_time(farthest.cylinder, target_cylinder)
            * self.seek_scale
        )
        # Only shuttle assemblies whose seek handicap exceeds the
        # typical rotational stake (half a revolution): any farther and
        # the assembly can rarely win the SPTF arm choice.
        if move <= self.spindle.average_latency_ms:
            return
        farthest.busy_until = now + move
        farthest.move_to(target_cylinder)
        farthest.seek_time_ms += move
        farthest.seeks += 1
        self.stats.seek_ms += move
        self.stats.record_arm_seek(farthest.arm_id, move)
        self.repositions += 1
        if self.tracer.enabled:
            self.tracer.span(
                "preposition",
                "seek",
                now,
                move,
                (self.label, f"arm {farthest.arm_id}"),
                args={"to_cylinder": target_cylinder},
            )
            self.tracer.telemetry.counter("arms.repositions").inc()

    # -- service ------------------------------------------------------------
    def _service_media(self, request: IORequest, overhead: float):
        spec = self.spec
        (
            cylinder,
            sector_angle,
            spt,
            track_crossings,
            cylinder_crossings,
            end_cylinder,
            end_sector,
            end_spt,
        ) = self.geometry.service_plan(request.lba, request.size)
        settle = 0.0 if request.is_read else spec.write_settle_ms
        # The head is ready overhead (+ settle) + seek after now;
        # evaluate the rotational gap for that instant so the charged
        # latency matches the platter's true phase.
        arm, seek, rotation, _head = self._best_arm(
            cylinder, sector_angle, self.env._now + overhead + settle
        )
        seek += settle
        if self.tracer.enabled:
            # Annotate the SPTF arm decision: which assembly won, what
            # it cost, and how contested the choice was — the per-arm
            # view behind the paper's Figure 5 latency shortening.
            now = self.env.now
            self.tracer.instant(
                "arm-select",
                now,
                (self.label, f"arm {arm.arm_id}"),
                args={
                    "req": request.request_id,
                    "arm": arm.arm_id,
                    "seek_ms": seek,
                    "rotation_ms": rotation,
                    "idle_arms": sum(
                        1 for a in self.arms if a.is_idle(now)
                    ),
                },
            )
            self.tracer.telemetry.counter(
                f"arms.selected.{arm.arm_id}"
            ).inc()
        self._preposition(arm, cylinder)

        # Seek, rotation (estimated at decision time for the instant the
        # head comes ready) and transfer are all fixed here, so one
        # combined timeout reaches the same completion instant as
        # yielding per phase at a third of the engine-event cost.  With
        # ``m`` surfaces streaming simultaneously (S-dimension) the
        # streaming time divides by ``m`` and intra-cylinder head
        # switches disappear (see :meth:`_transfer_time`).
        m = self.config.surfaces
        # Spindle.transfer_time inlined (``(sectors / spt) * period``):
        # service_plan already validated the request bounds, so the
        # method's argument checks — and its frame — are redundant here.
        if m <= 1:
            transfer = (request.size / spt) * self.spindle._period_ms
            transfer += (
                track_crossings - cylinder_crossings
            ) * spec.head_switch_ms
            transfer += cylinder_crossings * spec.seek_track_to_track_ms
        else:
            transfer = (
                (request.size / spt) * self.spindle._period_ms / m
                + cylinder_crossings * spec.seek_track_to_track_ms
            )
        penalty = (
            self._media_retry_penalty(request) if self._armed_faults else 0.0
        )
        if self.tracer.enabled:
            self._record_phase_spans(
                request,
                self.env.now,
                overhead,
                seek,
                rotation,
                transfer,
                arm.arm_id,
                retry=penalty,
            )
        total = overhead + seek + rotation + transfer + penalty
        # Stamped before the timeout (every phase is fixed here and the
        # request is unobserved while in service) so the sharded kernel
        # can report the completion, fields included, at dispatch.
        request.seek_time = seek
        request.rotational_latency = rotation
        request.transfer_time = transfer
        request.arm_id = arm.arm_id
        if self.dispatch_listener is not None:
            self.dispatch_listener(request, total)
        yield self.env.timeout(total)
        # Post-service accounting with stats bound once and the
        # record_arm_seek / record_service / move_to bodies inlined
        # (drives preallocate per_arm_seek_ms at construction, and
        # geometry end cylinders are always non-negative, so the
        # methods' resize/validation branches cannot fire here).
        stats = self.stats
        stats.transfer_ms += overhead
        stats.seek_ms += seek
        stats.per_arm_seek_ms[arm.arm_id] += seek
        if seek > 0.0:
            stats.nonzero_seeks += 1
        stats.rotational_latency_ms += rotation
        if penalty > 0.0:
            stats.rotational_latency_ms += penalty
        stats.transfer_ms += transfer
        stats.sectors_transferred += request.size

        arm.requests_serviced += 1
        arm.seek_time_ms += seek
        if seek > 0.0:
            arm.seeks += 1
        arm.cylinder = end_cylinder
        self._current_cylinder = end_cylinder
        self._update_cache_planned(request, end_sector, end_spt)

    def min_service_ms(self) -> float:
        """Conservative lookahead, tightened for surface parallelism.

        With ``m`` surfaces streaming simultaneously the one-sector
        media floor shrinks to ``period / (max_spt * m)`` (head-switch
        and track-to-track terms only ever add).  Per-shard arm
        scheduling does not weaken the bound: whichever arm the SPTF
        pick selects, its seek and rotation are non-negative.
        """
        bus_ms = (512 / self.spec.bus_bytes_per_s) * 1000.0
        max_spt = max(
            zone.sectors_per_track for zone in self.geometry.zones
        )
        media_ms = self.spindle.period_ms / (
            max_spt * max(1, self.config.surfaces)
        )
        return self.spec.controller_overhead_ms + min(bus_ms, media_ms)

    def _transfer_time(self, request: IORequest) -> float:
        """Transfer time, accelerated by surface-level parallelism.

        With ``m`` surfaces readable simultaneously (S-dimension) the
        streaming time divides by ``m`` and intra-cylinder head
        switches disappear; the paper assumes the data channel has
        sufficient bandwidth for all evaluated designs (§4).
        """
        m = self.config.surfaces
        if m <= 1:
            return super()._transfer_time(request)
        spt, _, cylinder_crossings = self.geometry.transfer_geometry(
            request.lba, request.size
        )
        return (
            self.spindle.transfer_time(request.size, spt) / m
            + cylinder_crossings * self.spec.seek_track_to_track_ms
        )

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
            self.tracer.telemetry.counter("arms.deconfigured").inc()
            self.tracer.telemetry.gauge("arms.healthy").set(
                self.healthy_arm_count
            )

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
