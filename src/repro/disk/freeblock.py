"""Freeblock scheduling (Lumb, Schindler & Ganger, FAST '02).

The related-work alternative the paper discusses (§5): a conventional
drive can service *background* I/O "for free" inside the rotational
latency windows of foreground requests — the head would otherwise sit
idle while the platter brings the target sector around.

The defining restriction, which the paper contrasts with intra-disk
parallelism, is the **deadline**: a background access only qualifies
if its entire excursion —

    seek to the background track
    + rotational latency there
    + transfer
    + seek back to the foreground track

— completes strictly within the foreground request's rotational
latency window.  Otherwise the foreground request would miss its
sector and pay a whole extra revolution.  An intra-disk parallel drive
has no such deadline: a spare arm assembly services background work
whenever it is idle.

:class:`FreeblockDrive` implements the conventional-drive flavour.
Background requests go to a separate queue; each foreground media
access tries to squeeze the best-fitting background request into its
rotational window.  Background requests that never fit simply wait
(they are best-effort), and any still pending at the end of a run can
be drained explicitly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import QueueScheduler
from repro.disk.specs import DriveSpec
from repro.sim.engine import Environment, Event

__all__ = ["FreeblockDrive"]


class FreeblockDrive(ConventionalDrive):
    """A conventional drive with freeblock background scheduling.

    Submit background work with requests whose ``background`` flag is
    set (or via :meth:`submit_background`).  Foreground requests are
    serviced exactly as on :class:`ConventionalDrive`; background
    requests are opportunistically folded into foreground rotational
    latency windows.

    Parameters
    ----------
    guard_ms:
        Safety margin subtracted from each rotational window before
        fitting background work (models prediction error in real
        freeblock systems).
    max_candidates:
        How many queued background requests are examined per window.
    """

    def __init__(
        self,
        env: Environment,
        spec: DriveSpec,
        scheduler: Optional[QueueScheduler] = None,
        guard_ms: float = 0.2,
        max_candidates: int = 16,
        **kwargs,
    ):
        if guard_ms < 0:
            raise ValueError(f"guard_ms must be non-negative, got {guard_ms}")
        if max_candidates <= 0:
            raise ValueError(
                f"max_candidates must be positive, got {max_candidates}"
            )
        super().__init__(env, spec, scheduler=scheduler, **kwargs)
        self.guard_ms = guard_ms
        self.max_candidates = max_candidates
        self._background: List[IORequest] = []
        #: Completed-in-window background request count.
        self.freeblock_serviced = 0
        #: Windows in which no background request fitted.
        self.windows_missed = 0

    # -- submission -----------------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        if request.background:
            return self.submit_background(request)
        return super().submit(request)

    def submit_background(self, request: IORequest) -> Event:
        """Queue best-effort work for rotational-window servicing."""
        if request.lba + request.size > self.geometry.total_sectors:
            raise ValueError(
                f"{request} exceeds drive capacity "
                f"({self.geometry.total_sectors} sectors)"
            )
        request.background = True
        completion = self.env.event()
        self._completions[request.request_id] = completion
        self._background.append(request)
        return completion

    @property
    def background_queue_depth(self) -> int:
        return len(self._background)

    # -- the freeblock window -------------------------------------------------
    def _service_media(self, request: IORequest, overhead: float):
        """Foreground service with background work in the rotational gap.

        The excursion replaces part of the rotational wait; the
        foreground request's completion time is *unchanged* — that is
        the whole point of freeblock scheduling.
        """
        # One service_plan pass replaces the former to_physical /
        # sector_angle / transfer_geometry / end-decode quartet (same
        # zone tables, same formulas — the per-phase charges are
        # bit-identical to the piecewise lookups).
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
        # Single-arm by construction: the one assembly seeks, and parks
        # where the transfer ends (the SPTF estimate reads its cylinder).
        arm = self.arms[0]
        seek = (
            self.seek_model.seek_time(arm.cylinder, cylinder)
            * self.seek_scale
        )
        yield self.env.timeout(overhead + seek)
        self.stats.transfer_ms += overhead
        self.stats.seek_ms += seek
        self.stats.record_arm_seek(request.arm_id, seek)
        if seek > 0.0:
            self.stats.nonzero_seeks += 1

        rotation = (
            self.spindle.latency_to(self.env.now, sector_angle)
            * self.rotation_scale
        )
        window = rotation - self.guard_ms
        plan = self._plan_background(cylinder, window)
        if plan is not None:
            yield from self._run_background(plan, rotation)
        else:
            if self._background:
                self.windows_missed += 1
            yield self.env.timeout(rotation)
            self.stats.rotational_latency_ms += rotation

        transfer = self._transfer_time(
            request.size, spt, track_crossings, cylinder_crossings
        )
        yield self.env.timeout(transfer)
        self.stats.transfer_ms += transfer
        self.stats.sectors_transferred += request.size

        request.seek_time = seek
        request.rotational_latency = rotation
        request.transfer_time = transfer
        arm.cylinder = end_cylinder
        self._current_cylinder = end_cylinder
        self._update_cache_planned(request, end_sector, end_spt)

    def _plan_background(
        self, foreground_cylinder: int, window_ms: float
    ) -> Optional[Tuple[IORequest, float, float, float, float]]:
        """Find the background request that best uses the window.

        Returns ``(request, seek_out, rotation, transfer, seek_back)``
        or ``None`` when nothing fits.  "Best" = largest total
        excursion that still fits — freeblock throughput is maximised
        by filling windows as completely as possible.
        """
        if window_ms <= 0 or not self._background:
            return None
        best = None
        for candidate in self._background[: self.max_candidates]:
            plan = self._excursion(candidate, foreground_cylinder)
            total = plan[0] + plan[1] + plan[2] + plan[3]
            if total <= window_ms and (
                best is None or total > best[1]
            ):
                best = (candidate, total, plan)
        if best is None:
            return None
        candidate, _total, (seek_out, rotation, transfer, seek_back) = best
        return candidate, seek_out, rotation, transfer, seek_back

    def _excursion(
        self, candidate: IORequest, foreground_cylinder: int
    ) -> Tuple[float, float, float, float]:
        # Candidate pricing runs up to ``max_candidates`` times per
        # foreground window, so the one-pass service_plan (in place of
        # three separate decodes plus transfer_geometry) matters; the
        # phase charges are bit-identical to the piecewise lookups.
        (
            cylinder,
            sector_angle,
            spt,
            track_crossings,
            cylinder_crossings,
            end_cylinder,
            _end_sector,
            _end_spt,
        ) = self.geometry.service_plan(candidate.lba, candidate.size)
        seek_out = (
            self.seek_model.seek_time(foreground_cylinder, cylinder)
            * self.seek_scale
        )
        rotation = (
            self.spindle.latency_to(self.env.now + seek_out, sector_angle)
            * self.rotation_scale
        )
        transfer = self._transfer_time(
            candidate.size, spt, track_crossings, cylinder_crossings
        )
        seek_back = (
            self.seek_model.seek_time(end_cylinder, foreground_cylinder)
            * self.seek_scale
        )
        return seek_out, rotation, transfer, seek_back

    def _run_background(self, plan, foreground_rotation: float):
        request, seek_out, rotation, transfer, seek_back = plan
        self._background.remove(request)
        request.start_service = self.env.now
        excursion = seek_out + rotation + transfer + seek_back
        yield self.env.timeout(excursion)
        # Mode accounting: the VCM is active for the excursion seeks
        # even though the *foreground* clock only sees its rotational
        # window; energy must reflect the extra arm activity.
        self.stats.seek_ms += seek_out + seek_back
        self.stats.record_arm_seek(request.arm_id, seek_out + seek_back)
        self.stats.transfer_ms += transfer
        self.stats.rotational_latency_ms += rotation
        self.stats.sectors_transferred += request.size
        request.seek_time = seek_out
        request.rotational_latency = rotation
        request.transfer_time = transfer
        self._complete(request)
        self.freeblock_serviced += 1
        # The remainder of the foreground window still has to elapse.
        remainder = foreground_rotation - excursion
        if remainder > 0:
            yield self.env.timeout(remainder)
            self.stats.rotational_latency_ms += remainder

    # -- draining ---------------------------------------------------------------
    def drain_background(self) -> int:
        """Promote all queued background work to foreground service.

        Used at the end of a run to account for work that never fitted
        a window.  Returns how many requests were promoted.
        """
        promoted = self._background[:]
        self._background.clear()
        for request in promoted:
            self._pending.append(request)
        if promoted and self._wakeup is not None and (
            not self._wakeup.triggered
        ):
            self._wakeup.succeed()
        return len(promoted)
