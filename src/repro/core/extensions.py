"""Relaxations of the SA(n) restrictions (technical-report designs).

The paper's base HC-SD-SA(n) design keeps two conventional-drive
restrictions: one arm in motion at a time, one head transferring at a
time.  §7.2 notes two evaluated extensions that relax them —

* **MA** — multiple arm assemblies may be in motion simultaneously, so
  one request's seek can overlap another's rotation/transfer;
* **MC** — multiple data channels, so transfers themselves overlap —

and reports that both "provide little benefit over the HC-SD-SA(n)
design".  :class:`OverlappedParallelDisk` implements both so the
MA/MC ablation test can reproduce that negative result.

Unlike the serialised base drive, this model dispatches one service
*process per request*: a request grabs an idle arm, seeks and waits out
its rotational latency concurrently with other arms, then contends for
one of ``channels`` data channels to transfer.  If the channel was busy
when the sector arrived under the head, the platter has rotated past
and the request pays a re-alignment wait.
"""

from __future__ import annotations

from typing import Optional

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.actuator import ArmAssembly
from repro.disk.request import IORequest
from repro.disk.scheduler import QueueScheduler
from repro.disk.specs import DriveSpec
from repro.sim.engine import Environment
from repro.sim.resources import Resource

__all__ = ["OverlappedParallelDisk"]

_FAR_FUTURE = float("inf")


class OverlappedParallelDisk(ParallelDisk):
    """SA(n) with the MA relaxation, and MC when ``channels > 1``.

    Parameters
    ----------
    channels:
        Number of concurrently usable data channels (1 reproduces the
        MA-only design; ``n`` arms with ``n`` channels is the full MC
        design).
    """

    def __init__(
        self,
        env: Environment,
        spec: DriveSpec,
        config: Optional[DashConfig] = None,
        channels: int = 1,
        scheduler: Optional[QueueScheduler] = None,
        seek_scale: float = 1.0,
        rotation_scale: float = 1.0,
        cache_segments: int = 16,
        label: Optional[str] = None,
        retry_policy=None,
    ):
        if channels <= 0:
            raise ValueError(f"channels must be positive, got {channels}")
        self._channels_requested = channels
        super().__init__(
            env,
            spec,
            config=config,
            scheduler=scheduler,
            seek_scale=seek_scale,
            rotation_scale=rotation_scale,
            cache_segments=cache_segments,
            label=label,
            retry_policy=retry_policy,
        )
        self.channel = Resource(env, capacity=channels)
        self.channels = channels

    # -- dispatch loop -------------------------------------------------------
    def _serve_loop(self):
        # The Resource is created after the base constructor starts this
        # process; the first real work happens at time 0 via an event,
        # by which point __init__ has finished.
        while True:
            while not self._pending or not self._has_idle_arm():
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
            request = self.scheduler.select(self._pending, self._context())
            if request.is_read and self.cache.lookup_read(
                request.lba, request.size
            ):
                self._pending.remove(request)
                self._cylinder_cache.pop(request.request_id, None)
                request.start_service = self.env.now
                self.env.process(self._run_cache_hit(request))
                continue
            cylinder, sector_angle = self.geometry.decode_target(request.lba)
            arm, seek, rotation, _head, spare, move = self._best_arm(
                cylinder,
                sector_angle,
                self.env.now + self.spec.controller_overhead_ms,
            )
            if self._should_wait_for_better_arm(
                request, seek + rotation
            ):
                # A busy assembly would position far faster than any
                # idle one; hold the request until an arm frees rather
                # than burn a long seek — otherwise overlap degenerates
                # into "every request gets whatever arm is left".
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
                continue
            self._pending.remove(request)
            self._cylinder_cache.pop(request.request_id, None)
            request.start_service = self.env.now
            arm.busy_until = _FAR_FUTURE
            self._preposition(spare, move, cylinder)
            self.env.process(
                self._run_media(request, arm, seek, rotation)
            )

    def _should_wait_for_better_arm(
        self, request: IORequest, idle_cost: float
    ) -> bool:
        now = self.env.now
        if all(arm.is_idle(now) for arm in self.arms):
            return False
        _, seek, rotation, _ = self.best_arm_for(
            request, now, include_busy=True
        )
        best_cost = seek + rotation
        return idle_cost > best_cost + self.spindle.average_latency_ms

    def _has_idle_arm(self) -> bool:
        now = self.env.now
        return any(arm.is_idle(now) for arm in self.arms)

    def _notify_arm_free(self, arm: ArmAssembly) -> None:
        arm.busy_until = self.env.now
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    # -- per-request service processes ----------------------------------------
    def _run_cache_hit(self, request: IORequest):
        overhead = self.spec.controller_overhead_ms
        bus_ms = (request.size * 512 / self.spec.bus_bytes_per_s) * 1000.0
        with self.channel.request() as grant:
            yield grant
            yield self.env.timeout(overhead + bus_ms)
        request.cache_hit = True
        request.transfer_time = bus_ms
        self.stats.transfer_ms += overhead + bus_ms
        self.stats.cache_hits += 1
        self._complete(request)

    def _run_media(
        self,
        request: IORequest,
        arm: ArmAssembly,
        seek: float,
        rotation: float,
    ):
        overhead = self.spec.controller_overhead_ms
        (
            _cylinder,
            sector_angle,
            spt,
            track_crossings,
            cylinder_crossings,
            end_cylinder,
            end_sector,
            end_spt,
        ) = self.geometry.service_plan(request.lba, request.size)

        yield self.env.timeout(overhead + seek)
        self.stats.transfer_ms += overhead
        self.stats.seek_ms += seek
        self.stats.record_arm_seek(arm.arm_id, seek)
        if seek > 0.0:
            self.stats.nonzero_seeks += 1

        yield self.env.timeout(rotation)
        self.stats.rotational_latency_ms += rotation

        arrived_at_channel = self.env.now
        with self.channel.request() as grant:
            yield grant
            # If the channel was contended, the sector has rotated past;
            # wait for it to come around to this arm's best head again.
            # (No charge when the grant was immediate — the head is
            # still aligned from the rotation wait.)
            if self.env.now > arrived_at_channel:
                realign, _head = arm.best_head_latency(
                    self.spindle.latency_to, self.env.now, sector_angle
                )
                realign *= self.rotation_scale
                if realign > 1e-9:
                    yield self.env.timeout(realign)
                    self.stats.rotational_latency_ms += realign
                    rotation += realign
            transfer = self._transfer_time(
                request.size, spt, track_crossings, cylinder_crossings
            )
            # An armed media fault costs its retry revolutions after the
            # transfer, as in the serialised drive's combined timeout;
            # adding 0.0 on the healthy path is a float identity.
            penalty = (
                self._media_retry_penalty(request)
                if self._armed_faults
                else 0.0
            )
            yield self.env.timeout(transfer + penalty)
        self.stats.transfer_ms += transfer
        if penalty > 0.0:
            # The platter spins under a waiting head during retries.
            self.stats.rotational_latency_ms += penalty
        self.stats.sectors_transferred += request.size

        request.seek_time = seek
        request.rotational_latency = rotation
        request.transfer_time = transfer
        request.arm_id = arm.arm_id
        arm.record_service(seek)
        arm.move_to(end_cylinder)
        self._current_cylinder = end_cylinder
        self._update_cache_planned(request, end_sector, end_spt)
        self._complete(request)
        self._notify_arm_free(arm)
