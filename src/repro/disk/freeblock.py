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
Foreground requests are served by :class:`ConventionalDrive`'s own
code: pricing, media faults, spans and accounting.  Background
requests go to a separate queue; each foreground media access tries
to squeeze the best-fitting background request into the rotational
window the base drive priced for it.  Background requests that never
fit simply wait (they are best-effort), and any still pending at the
end of a run can be drained explicitly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

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
    serviced by :class:`ConventionalDrive`'s code, so without
    background work every request and statistic is the conventional
    drive's; background requests are opportunistically folded into
    foreground rotational latency windows.

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
    def submit(
        self,
        request: IORequest,
        done: Optional[Callable[[IORequest], None]] = None,
    ) -> Optional[Event]:
        if request.background:
            return self.submit_background(request, done)
        return super().submit(request, done)

    def submit_background(
        self,
        request: IORequest,
        done: Optional[Callable[[IORequest], None]] = None,
    ) -> Optional[Event]:
        """Queue best-effort work for rotational-window servicing.

        Completion is reported as :meth:`submit` reports it: through
        ``done`` when given, else through the returned event.
        """
        if request.lba + request.size > self.geometry.total_sectors:
            raise ValueError(
                f"{request} exceeds drive capacity "
                f"({self.geometry.total_sectors} sectors)"
            )
        request.background = True
        completion = None
        if done is None:
            completion = self.env.event()
            done = completion.settle
        self._completions[request.request_id] = done
        self._background.append(request)
        return completion

    @property
    def background_queue_depth(self) -> int:
        return len(self._background)

    # -- the freeblock window -------------------------------------------------
    def _service_media(self, request: IORequest, overhead: float):
        """Foreground service with background work in the rotational gap.

        The base drive prices, stamps and times the foreground access;
        its first yield is the access's one combined timeout, so the
        rotational window is fixed by then.  The excursion starts when
        the foreground seek ends, replaces part of the rotational wait
        and finishes by its own timeout: the foreground request's
        completion time is *unchanged*, which is the whole point of
        freeblock scheduling.
        """
        service = super()._service_media(request, overhead)
        completion = next(service)
        if self._background:
            self._fill_window(request, overhead)
        yield completion
        yield from service

    def _fill_window(self, request: IORequest, overhead: float) -> None:
        """Start the background excursion that best fits ``request``'s
        priced rotational window, or count the window as missed."""
        # The head reaches the foreground track ``ready`` after now.
        ready = overhead + request.seek_time
        start = self.env.now + ready
        plan = self._plan_background(
            self.geometry.cylinder_of_lba(request.lba),
            request.rotational_latency - self.guard_ms,
            start,
        )
        if plan is None:
            self.windows_missed += 1
            return
        background, seek_out, rotation, transfer, seek_back = plan
        self._background.remove(background)
        background.start_service = start
        background.seek_time = seek_out
        background.rotational_latency = rotation
        background.transfer_time = transfer
        excursion = seek_out + rotation + transfer + seek_back
        finished = self.env.timeout(ready + excursion, plan)
        finished.callbacks.append(self._finish_excursion)

    def _finish_excursion(self, event: Event) -> None:
        background, seek_out, rotation, transfer, seek_back = event.value
        # Mode accounting: the VCM is active for the excursion seeks and
        # the channel for its transfer, inside the foreground window the
        # base drive bills as rotational time; move that share over so
        # the energy reflects the extra arm activity.
        stats = self.stats
        moved = seek_out + seek_back
        stats.seek_ms += moved
        stats.record_arm_seek(background.arm_id, moved)
        stats.transfer_ms += transfer
        stats.rotational_latency_ms -= moved + transfer
        stats.sectors_transferred += background.size
        self._complete(background)
        self.freeblock_serviced += 1

    def _plan_background(
        self, foreground_cylinder: int, window_ms: float, start: float
    ) -> Optional[Tuple[IORequest, float, float, float, float]]:
        """Find the background request that best uses the window.

        The excursion leaves ``foreground_cylinder`` at ``start``.
        Returns ``(request, seek_out, rotation, transfer, seek_back)``
        or ``None`` when nothing fits.  "Best" = largest total
        excursion that still fits — freeblock throughput is maximised
        by filling windows as completely as possible.
        """
        if window_ms <= 0:
            return None
        best = None
        for candidate in self._background[: self.max_candidates]:
            plan = self._excursion(candidate, foreground_cylinder, start)
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
        self, candidate: IORequest, foreground_cylinder: int, start: float
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
            self.spindle.latency_to(start + seek_out, sector_angle)
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
