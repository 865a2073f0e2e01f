"""The array controller: logical requests in, per-drive requests out.

A :class:`DiskArray` owns a set of member drives and a
:class:`~repro.raid.layout.Layout`.  A request that its layout locates
on exactly one drive extent (every JBOD and concatenated request, a
RAID-0 request inside one stripe unit) is handed to that drive itself.
Any other request is translated into physical slices, one
:func:`~repro.disk.request.new_request` each, issued to the member
drives (phase by phase, for RAID-5 read-modify-write; each slice
through :meth:`DiskArray._slice_attempts` when a retry policy is set),
and finished by :meth:`DiskArray._finish` when the last slice
completes: the timing fields come from the slice that finished last,
so response-time metrics reflect the critical path, and
``media_error`` and ``retries`` from every slice.  A one-slice request,
served in place or not, is finished by the drive calling the array's
finisher, and every logical completion is settled
(:meth:`~repro.sim.engine.Event.settle`), so a completion nobody waits
on costs no engine event.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest, new_request
from repro.faults.errors import DataLossError
from repro.faults.policy import RetryPolicy
from repro.obs.context import current
from repro.raid.layout import (
    ConcatLayout,
    JBODLayout,
    Layout,
    Raid0Layout,
    Slice,
)
from repro.sim.engine import Environment, Event

__all__ = ["DiskArray"]


class DiskArray:
    """A storage system composed of member drives behind one layout.

    Parameters
    ----------
    env:
        Simulation environment shared with the member drives.
    drives:
        Member drives, in layout order.  Any object with the drive
        interface (``submit``, ``stats``, ``geometry``) works, so
        arrays of :class:`~repro.core.parallel_disk.ParallelDisk` are
        built exactly the same way (§7.3).
    layout:
        Address translation; its ``disk_count`` must match.
    retry_policy:
        Optional :class:`~repro.faults.policy.RetryPolicy`.  When set,
        every logical request runs through the coordinating process,
        and each of its slices is resubmitted when its physical request
        comes back with an unrecovered media error (up to
        ``max_attempts`` submissions, with linear backoff), with
        deadline misses counted against ``timeout_ms``.  When ``None``
        (the default) each slice is submitted once, and single-extent
        and one-slice requests skip the coordinating process.
    """

    def __init__(
        self,
        env: Environment,
        drives: Sequence[ConventionalDrive],
        layout: Layout,
        label: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if not drives:
            raise ValueError("array needs at least one drive")
        if layout.disk_count != len(drives):
            raise ValueError(
                f"layout expects {layout.disk_count} drives, got {len(drives)}"
            )
        self.env = env
        self.drives: List[ConventionalDrive] = list(drives)
        self.layout = layout
        self.label = label or f"array[{len(drives)}x{drives[0].label}]"
        self.requests_completed = 0
        #: Observability (read like the drives': the run context's
        #: tracer).  The array records logical-request envelopes,
        #: slice fan-out, degraded mapping and rebuild rows.
        self.tracer = current().tracer
        #: Callbacks invoked with each completed *logical* request.
        self.on_complete: List[Callable[[IORequest], None]] = []
        self._outstanding: Dict[int, Event] = {}
        self._failed_disk: Optional[int] = None
        #: Fraction of a RAID-5 rebuild completed (set by rebuild()).
        self.rebuild_progress: float = 0.0
        self.retry_policy = retry_policy
        self._rebuild_active = False
        #: Degraded-mode accounting: when the current degradation
        #: started (None while healthy) and total degraded residency.
        self.degraded_since: Optional[float] = None
        self.degraded_ms: float = 0.0
        self.rebuild_started_ms: Optional[float] = None
        self.rebuild_finished_ms: Optional[float] = None
        #: Robustness counters (all zero on a fault-free run).
        self.drive_failures = 0
        self.slice_retries = 0
        self.deadline_misses = 0
        self.unrecovered_requests = 0
        self.aborted_requests = 0
        self._external_feedback = False
        #: The layout's ``locate``, for the layouts whose single-extent
        #: requests ``submit`` serves in place on the healthy,
        #: policy-free path.  Exact-type check: a layout subclass may
        #: override ``map_request``, so it keeps the slice path.
        self._locate: Optional[Callable] = (
            layout.locate
            if type(layout) in (JBODLayout, ConcatLayout, Raid0Layout)
            else None
        )
        #: Logical LBA of each request served in place, by request id,
        #: until its drive completion restores it.
        self._logical_lba: Dict[int, int] = {}

    # -- drive-like interface -------------------------------------------------
    @property
    def disk_count(self) -> int:
        return len(self.drives)

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    @property
    def needs_lockstep(self) -> bool:
        """True when the controller reacts to completions with new work.

        The sharded kernel (:mod:`repro.sim.sharded`) keys its window
        protocol off this: a retry policy resubmits slices after a
        completion reports a media error, and a multi-phase layout
        (RAID-5 read-modify-write, rebuild traffic) issues phase-1
        writes only once phase-0 reads complete.  Either way drive work
        is created *in reaction to* drive completions, so shards must
        advance in bounded lockstep windows.  Feedback-free
        configurations — every single-phase layout without a retry
        policy, including degraded/aborted runs on non-redundant
        layouts — can run each shard to exhaustion in one window.

        External actors that react to simulated time with array-level
        state changes (a fault injector that fails whole drives or
        starts rebuilds) must call :meth:`declare_external_feedback`
        so their reactions also interleave exactly.
        """
        return (
            self.retry_policy is not None
            or self.layout.feedback_phases
            or self._external_feedback
        )

    def declare_external_feedback(self) -> None:
        """Force lockstep windows under the sharded kernel.

        Called by components outside the array — the fault injector,
        for one — whose mid-run reactions (``fail_drive``, ``rebuild``)
        read or abort in-flight completions and therefore must observe
        them in strict global time order.
        """
        self._external_feedback = True

    def capacity_sectors(self) -> int:
        return self.layout.capacity_sectors()

    def submit(self, request: IORequest) -> Event:
        """Issue a logical request; returns its completion event."""
        locate = self._locate
        if (
            locate is not None
            and self._failed_disk is None
            and self.retry_policy is None
        ):
            location = locate(
                request.lba, request.size, request.source_disk
            )
            if location is not None:
                # One drive extent: the drive serves the logical request
                # itself at the physical address.
                disk, physical = location
                logical = request.lba
                request.lba = physical
                try:
                    self.drives[disk].submit(request, self._finish_in_place)
                except ValueError:
                    # The member rejected the extent: leave the request
                    # as the caller built it.
                    request.lba = logical
                    raise
                self._logical_lba[request.request_id] = logical
                completion = Event(self.env)
                self._outstanding[request.request_id] = completion
                return completion
            # A fanned-out or invalid extent: map it (and let the
            # layout raise its own error).
        slices = self._map(request)
        self._check_capacity(request, slices)
        # Direct Event construction: one logical completion per submit,
        # so the env.event() factory frame is pure overhead.
        completion = Event(self.env)
        self._outstanding[request.request_id] = completion
        if len(slices) == 1 and self.retry_policy is None:
            # One physical slice (a RAID-1 read, a layout subclass's
            # map) needs no coordinating process or AllOf barrier — the
            # drive calls the finisher at the slice's completion
            # instant, as it does for a request served in place.
            piece = slices[0]
            self.drives[piece.disk].submit(
                new_request(
                    piece.lba,
                    piece.size,
                    piece.is_read,
                    self.env._now,
                    piece.disk,
                    request.background,
                ),
                lambda physical: self._finish(
                    request, completion, [physical], 1, 1
                ),
            )
        else:
            self.env.process(self._run(request, slices, completion))
        return completion

    def _check_capacity(
        self, request: IORequest, slices: List[Slice]
    ) -> None:
        """Reject a mapping with a slice past its member's last sector.

        The check and error of the member's ``submit``, made before
        anything is registered, so a rejected request leaves nothing
        outstanding.
        """
        for piece in slices:
            capacity = self.drives[piece.disk].geometry.total_sectors
            if piece.lba + piece.size > capacity:
                raise ValueError(
                    f"{request}: {piece} exceeds drive capacity "
                    f"({capacity} sectors)"
                )

    def _finish_in_place(self, request: IORequest) -> None:
        """Complete a logical request its drive serviced in place.

        The drive calls this at the completion instant, having stamped
        the measurements; restore the logical address (also on a
        request a member failure already aborted) and ``start_service``
        as :meth:`_finish` leaves them.
        """
        request.lba = self._logical_lba.pop(request.request_id)
        completion = self._outstanding.pop(request.request_id, None)
        if completion is None:
            # Failed with DataLossError (member loss) while the drive
            # still had it; the late drive completion is a no-op.
            return
        request.start_service = request.arrival_time
        if request.media_error:
            self._count_unrecovered()
        self.requests_completed += 1
        if self.tracer.enabled:
            self._record_logical_span(request, slices=1, phases=1)
        completion.settle(request)
        for callback in self.on_complete:
            callback(request)

    def _finish(
        self,
        request: IORequest,
        completion: Event,
        physicals: List[IORequest],
        slices: int,
        phases: int,
    ) -> None:
        """Complete a fanned-out logical request from its slices.

        ``physicals`` holds the final physical request of every slice.
        The timing fields come from the one that finished last (the
        critical path); ``media_error`` and ``retries`` from all of
        them, so no slice's unrecovered error is hidden.
        """
        if completion.triggered:
            # The logical request was already failed (member loss on a
            # non-redundant layout) while slices were still in flight;
            # the late slice completion is a no-op.
            return
        last = max(physicals, key=lambda physical: physical.completion_time)
        request.completion_time = self.env._now
        if request.start_service is None:
            request.start_service = request.arrival_time
        request.seek_time = last.seek_time
        request.rotational_latency = last.rotational_latency
        request.transfer_time = last.transfer_time
        request.cache_hit = last.cache_hit
        request.arm_id = last.arm_id
        request.retries += sum(physical.retries for physical in physicals)
        if any(physical.media_error for physical in physicals):
            request.media_error = True
            self._count_unrecovered()
        self.requests_completed += 1
        self._outstanding.pop(request.request_id, None)
        if self.tracer.enabled:
            self._record_logical_span(request, slices=slices, phases=phases)
        completion.settle(request)
        for callback in self.on_complete:
            callback(request)

    def _count_unrecovered(self) -> None:
        self.unrecovered_requests += 1
        if self.tracer.enabled:
            self.tracer.telemetry.counter(
                "repro_array_unrecovered_requests_total"
            ).inc()

    def _record_logical_span(
        self, request: IORequest, slices: int, phases: int
    ) -> None:
        """Envelope span for one completed logical request."""
        self.tracer.span(
            "request",
            "array",
            request.arrival_time,
            self.env.now - request.arrival_time,
            (self.label, "requests"),
            args={
                "req": request.request_id,
                "rw": "R" if request.is_read else "W",
                "slices": slices,
                "phases": phases,
                "degraded": self._failed_disk is not None,
            },
        )

    def _map(self, request: IORequest) -> List[Slice]:
        if self._failed_disk is not None:
            from repro.raid.layout import Raid5Layout, degraded_raid5_map

            if isinstance(self.layout, Raid5Layout):
                slices = degraded_raid5_map(
                    self.layout,
                    request.lba,
                    request.size,
                    request.is_read,
                    self._failed_disk,
                )
                if self.tracer.enabled:
                    self.tracer.instant(
                        "degraded-map",
                        self.env.now,
                        (self.label, "requests"),
                        args={
                            "req": request.request_id,
                            "failed_disk": self._failed_disk,
                            "slices": len(slices),
                        },
                    )
                    self.tracer.telemetry.counter(
                        "repro_array_degraded_requests_total"
                    ).inc()
                return slices
            raise RuntimeError(
                f"{self.label}: drive {self._failed_disk} failed and the "
                f"layout {type(self.layout).__name__} has no redundancy"
            )
        return self.layout.map_request(
            request.lba, request.size, request.is_read, request.source_disk
        )

    # -- degraded mode and rebuild (RAID-5) --------------------------------
    @property
    def failed_disk(self) -> Optional[int]:
        return self._failed_disk

    def fail_drive(self, index: int) -> None:
        """Mark one member failed; subsequent I/O runs degraded.

        Only redundant layouts (RAID-5) can continue; a second failure
        is unrecoverable and rejected.
        """
        if not 0 <= index < len(self.drives):
            raise ValueError(
                f"index {index} out of range [0, {len(self.drives)})"
            )
        if self._failed_disk is not None:
            raise RuntimeError(
                "array already degraded: a second failure loses data"
            )
        self._failed_disk = index
        self.drive_failures += 1
        self.degraded_since = self.env.now
        if self.tracer.enabled:
            self.tracer.instant(
                "drive-failure",
                self.env.now,
                (self.label, "faults"),
                args={"drive": index, "outstanding": len(self._outstanding)},
            )
            self.tracer.telemetry.counter(
                "repro_array_drive_failures_total"
            ).inc()
        from repro.raid.layout import Raid5Layout

        if not isinstance(self.layout, Raid5Layout):
            self._abort_outstanding(index)

    def _abort_outstanding(self, index: int) -> None:
        """Deterministically fail every in-flight logical request.

        Without redundancy the data on the failed member is gone *now*;
        waiting for later submits to trip over ``_map`` would leave the
        in-flight requests hanging forever (their drive events resolve,
        but the data they carry is unrecoverable).  Each completion
        event fails with :class:`DataLossError` at the failure instant;
        the events are marked defused so fire-and-forget submitters
        don't crash the engine, while processes waiting on them get the
        exception thrown in as usual.
        """
        aborted = [
            (request_id, event)
            for request_id, event in self._outstanding.items()
            if not event.triggered
        ]
        self._outstanding.clear()
        for request_id, completion in aborted:
            completion.fail(DataLossError(
                f"{self.label}: drive {index} failed with no redundancy "
                f"(request {request_id} lost)"
            ))
            completion.defused = True
        self.aborted_requests += len(aborted)
        if self.tracer.enabled and aborted:
            self.tracer.telemetry.counter(
                "repro_array_aborted_requests_total"
            ).inc(len(aborted))

    def degraded_time_ms(self, now: Optional[float] = None) -> float:
        """Total degraded-mode residency up to ``now`` (default: current
        simulated time), including an open degradation."""
        total = self.degraded_ms
        if self.degraded_since is not None:
            at = self.env.now if now is None else now
            total += max(0.0, at - self.degraded_since)
        return total

    @property
    def rebuild_window_ms(self) -> Optional[float]:
        """Duration of the last completed rebuild, if any."""
        if self.rebuild_started_ms is None or self.rebuild_finished_ms is None:
            return None
        return self.rebuild_finished_ms - self.rebuild_started_ms

    def rebuild(self, replacement: ConventionalDrive):
        """Rebuild the failed member onto ``replacement``.

        Returns the simulation process; yield it (or run the
        environment) to completion.  The rebuild streams row by row:
        read the row extent from every survivor, reconstruct, write to
        the replacement.  On completion the replacement takes the
        failed member's slot and the array leaves degraded mode.
        """
        from repro.raid.layout import Raid5Layout

        if self._failed_disk is None:
            raise RuntimeError("no failed drive to rebuild")
        if not isinstance(self.layout, Raid5Layout):
            raise RuntimeError("rebuild requires a RAID-5 layout")
        if self._rebuild_active:
            raise RuntimeError(
                f"{self.label}: rebuild already in progress "
                f"(progress {self.rebuild_progress:.0%})"
            )
        self._rebuild_active = True
        self.rebuild_started_ms = self.env.now
        self.rebuild_finished_ms = None
        if self.tracer.enabled:
            self.tracer.instant(
                "rebuild-start",
                self.env.now,
                (self.label, "rebuild"),
                args={"failed_disk": self._failed_disk},
            )
            self.tracer.telemetry.counter("repro_rebuilds_started_total").inc()
        return self.env.process(self._rebuild_wrapper(replacement))

    def _rebuild_wrapper(self, replacement: ConventionalDrive):
        # try/finally so an interrupted or crashed rebuild releases the
        # guard instead of wedging the array in "rebuild in progress".
        try:
            yield from self._rebuild_process(replacement)
        finally:
            self._rebuild_active = False

    def _rebuild_process(self, replacement: ConventionalDrive):
        layout = self.layout
        failed = self._failed_disk
        unit = layout.stripe_unit
        rows = layout.disk_capacity // unit
        self.rebuild_progress = 0.0
        tracer = self.tracer
        for row in range(rows):
            row_start = self.env.now
            physical = row * unit
            reads = []
            for member, drive in enumerate(self.drives):
                if member == failed:
                    continue
                reads.append(
                    drive.submit(
                        IORequest(
                            lba=physical,
                            size=unit,
                            is_read=True,
                            arrival_time=self.env.now,
                        )
                    )
                )
            yield self.env.all_of(reads)
            reconstruct_done = self.env.now
            write = replacement.submit(
                IORequest(
                    lba=physical,
                    size=unit,
                    is_read=False,
                    arrival_time=self.env.now,
                )
            )
            yield write
            self.rebuild_progress = (row + 1) / rows
            if tracer.enabled:
                track = (self.label, "rebuild")
                tracer.span(
                    "reconstruct",
                    "rebuild",
                    row_start,
                    reconstruct_done - row_start,
                    track,
                    args={"row": row},
                )
                tracer.span(
                    "rebuild-write",
                    "rebuild",
                    reconstruct_done,
                    self.env.now - reconstruct_done,
                    track,
                    args={"row": row, "progress": self.rebuild_progress},
                )
                tracer.telemetry.counter("repro_rebuild_rows_total").inc()
                tracer.telemetry.gauge("repro_rebuild_progress").set(
                    self.rebuild_progress
                )
        self.drives[failed] = replacement
        self._failed_disk = None
        self.rebuild_finished_ms = self.env.now
        if self.degraded_since is not None:
            self.degraded_ms += self.env.now - self.degraded_since
            self.degraded_since = None
        if tracer.enabled:
            tracer.instant(
                "rebuild-complete",
                self.env.now,
                (self.label, "rebuild"),
                args={
                    "rows": rows,
                    "window_ms": self.rebuild_window_ms,
                },
            )
            tracer.telemetry.gauge("repro_array_degraded_ms").set(
                self.degraded_ms
            )

    def _run(self, request: IORequest, slices: List[Slice], completion: Event):
        """Coordinating process of a fanned-out request.

        Issues each phase's slices at once and waits for all of them
        before the next phase.  Without a retry policy a slice is one
        physical request; with one, it runs through
        :meth:`_slice_attempts`, which resubmits unrecovered media
        errors and accounts per-attempt deadline misses.
        """
        policy = self.retry_policy
        phases = sorted({piece.phase for piece in slices})
        physicals: List[IORequest] = []
        for phase in phases:
            events = []
            for piece in slices:
                if piece.phase != phase:
                    continue
                if policy is None:
                    physical = new_request(
                        piece.lba,
                        piece.size,
                        piece.is_read,
                        self.env._now,
                        piece.disk,
                        request.background,
                    )
                    events.append(self.drives[piece.disk].submit(physical))
                else:
                    events.append(
                        self.env.process(self._slice_attempts(request, piece))
                    )
            result = yield self.env.all_of(events)
            physicals.extend(result[event] for event in result.events)
        self._finish(request, completion, physicals, len(slices), len(phases))

    def _slice_attempts(self, request: IORequest, piece: Slice):
        """Issue one slice, retrying unrecovered media errors.

        Returns the physical request of the final attempt, whose
        retries :meth:`_finish` counts; the retries of the attempts
        before it are added to ``request`` here.  A media access cannot
        be cancelled mid-revolution, so a deadline miss is *recorded*
        (firmware-command-timeout style) while the slice is still
        awaited — response times stay physical and the miss count feeds
        the reliability report.
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            physical = new_request(
                piece.lba,
                piece.size,
                piece.is_read,
                self.env._now,
                piece.disk,
                request.background,
            )
            event = self.drives[piece.disk].submit(physical)
            if policy.timeout_ms is not None:
                deadline = self.env.timeout(policy.timeout_ms)
                outcome = yield self.env.any_of([event, deadline])
                if event not in outcome:
                    self.deadline_misses += 1
                    if self.tracer.enabled:
                        self.tracer.instant(
                            "deadline-miss",
                            self.env.now,
                            (self.label, "faults"),
                            args={
                                "req": request.request_id,
                                "disk": piece.disk,
                                "attempt": attempt,
                                "timeout_ms": policy.timeout_ms,
                            },
                        )
                        self.tracer.telemetry.counter(
                            "repro_array_deadline_misses_total"
                        ).inc()
                    yield event
            else:
                yield event
            if not physical.media_error or attempt >= policy.max_attempts:
                return physical
            request.retries += physical.retries
            attempt += 1
            self.slice_retries += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "slice-retry",
                    self.env.now,
                    (self.label, "faults"),
                    args={
                        "req": request.request_id,
                        "disk": piece.disk,
                        "attempt": attempt,
                    },
                )
                self.tracer.telemetry.counter(
                    "repro_array_slice_retries_total"
                ).inc()
            if policy.backoff_ms > 0.0:
                yield self.env.timeout(policy.backoff_ms * (attempt - 1))

    # -- aggregate statistics ---------------------------------------------------
    def total_sectors_transferred(self) -> int:
        return sum(drive.stats.sectors_transferred for drive in self.drives)

    def total_busy_ms(self) -> float:
        return sum(drive.stats.busy_ms for drive in self.drives)

    def stats_by_drive(self) -> List[dict]:
        return [
            {
                "label": drive.label,
                "requests": drive.stats.requests_completed,
                "seek_ms": drive.stats.seek_ms,
                "rotational_ms": drive.stats.rotational_latency_ms,
                "transfer_ms": drive.stats.transfer_ms,
                "cache_hits": drive.stats.cache_hits,
            }
            for drive in self.drives
        ]
