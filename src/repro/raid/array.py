"""The array controller: logical requests in, per-drive requests out.

A :class:`DiskArray` owns a set of member drives and a
:class:`~repro.raid.layout.Layout`.  Each submitted logical request is
translated into physical slices, issued to the member drives (phase by
phase, for RAID-5 read-modify-write), and completed when the last slice
finishes.  The logical request's measurement fields are stamped from
the slice that finished last, so response-time metrics reflect the
critical path.  Identity layouts (JBOD, concatenation) instead hand the
logical request itself to its one drive extent.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest, release_request
from repro.faults.errors import DataLossError
from repro.faults.policy import RetryPolicy
from repro.obs.tracer import tracer_for
from repro.raid.layout import ConcatLayout, JBODLayout, Layout, Slice
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
        every logical request runs through a coordinating process that
        resubmits slices whose physical request came back with an
        unrecovered media error (up to ``max_attempts`` submissions,
        with linear backoff) and counts deadline misses against
        ``timeout_ms``.  When ``None`` (the default) the request path
        is exactly the policy-free fast path — bit-identical to the
        pre-robustness controller.
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
        #: Observability (resolved like the drives: ``env.tracer`` or
        #: the ambient tracer).  The array records logical-request
        #: envelopes, slice fan-out, degraded mapping and rebuild rows.
        self.tracer = tracer_for(env)
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
        #: Pre-resolved identity translation for the passthrough
        #: layouts (JBOD routes by source disk unchanged; concatenation
        #: lands ``base[source] + lba`` on drive 0) as ``(sources,
        #: capacities, bases or None)``.  ``submit`` uses it to serve
        #: the logical request in place on the healthy, policy-free
        #: path; anything it cannot validate falls back to ``_map`` so
        #: error behaviour is unchanged.  Exact-type checks: a layout
        #: subclass may override mapping.
        self._fast_map: Optional[tuple] = None
        if type(layout) is JBODLayout:
            capacities = list(layout.disk_capacities)
            self._fast_map = (len(capacities), capacities, None)
        elif type(layout) is ConcatLayout:
            capacities = list(layout.source_capacities)
            self._fast_map = (
                len(capacities), capacities, list(layout._bases)
            )

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
        fast = self._fast_map
        if (
            fast is not None
            and self._failed_disk is None
            and self.retry_policy is None
        ):
            sources, capacities, bases = fast
            source = request.source_disk
            if 0 <= source < sources and (
                request.lba + request.size <= capacities[source]
            ):
                completion = Event(self.env)
                self._outstanding[request.request_id] = completion
                if bases is None:
                    drive = self.drives[source]
                else:
                    drive = self.drives[0]
                    request.lba += bases[source]
                drive.submit(request).callbacks.append(
                    self._finish_in_place
                )
                return completion
            # Out-of-range extent: let the layout raise its own error.
        slices = self._map(request)
        # Direct Event construction: one logical completion per submit,
        # so the env.event() factory frame is pure overhead.
        completion = Event(self.env)
        self._outstanding[request.request_id] = completion
        if self.retry_policy is not None:
            # Robust path: a coordinating process that can resubmit
            # slices and account deadline misses.  Never taken unless
            # a policy was configured, so the default request path is
            # byte-for-byte the policy-free controller.
            self.env.process(self._run_retry(request, slices, completion))
        elif len(slices) == 1:
            # One physical slice (an unstriped RAID-0 access, a layout
            # subclass's identity map) needs no coordinating process or
            # AllOf barrier — a completion callback on the drive event
            # finishes the logical request at the same simulated
            # instant.
            piece = slices[0]
            physical = request.clone_slice(
                piece.lba,
                piece.size,
                piece.is_read,
                self.env._now,
                piece.disk,
            )
            self.drives[piece.disk].submit(physical).callbacks.append(
                lambda event: self._finish_single(
                    request, physical, completion
                )
            )
        else:
            self.env.process(self._run(request, slices, completion))
        return completion

    def _finish_in_place(self, event: Event) -> None:
        """Complete a logical request its drive serviced in place.

        The drive stamped the measurements; restore the logical address
        and ``start_service`` as :meth:`_finish_single` leaves them.
        """
        request = event.value
        bases = self._fast_map[2]
        if bases is not None:
            request.lba -= bases[request.source_disk]
        completion = self._outstanding.pop(request.request_id, None)
        if completion is None:
            # Failed with DataLossError (member loss) while the drive
            # still had it; the late drive completion is a no-op.
            return
        request.start_service = request.arrival_time
        self.requests_completed += 1
        if self.tracer.enabled:
            self._record_logical_span(request, slices=1, phases=1)
        completion.succeed(request)
        for callback in self.on_complete:
            callback(request)

    def _finish_single(
        self,
        request: IORequest,
        physical: IORequest,
        completion: Event,
    ) -> None:
        """Complete a one-slice logical request from its physical twin."""
        if completion.triggered:
            # The logical request was already failed (member loss on a
            # non-redundant layout) while the physical slice was still
            # in flight; the late slice completion is a no-op.
            return
        request.completion_time = self.env._now
        if request.start_service is None:
            request.start_service = request.arrival_time
        request.seek_time = physical.seek_time
        request.rotational_latency = physical.rotational_latency
        request.transfer_time = physical.transfer_time
        request.cache_hit = physical.cache_hit
        request.arm_id = physical.arm_id
        request.media_error = physical.media_error
        request.retries += physical.retries
        # The slice's measurements are copied out and the drive has
        # dropped it from every structure; recycle the shell so the
        # next clone_slice reuses it instead of allocating.
        release_request(physical)
        self.requests_completed += 1
        self._outstanding.pop(request.request_id, None)
        if self.tracer.enabled:
            self._record_logical_span(request, slices=1, phases=1)
        completion.succeed(request)
        for callback in self.on_complete:
            callback(request)

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
                        "array.degraded_requests"
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
            self.tracer.telemetry.counter("array.drive_failures").inc()
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
                "array.aborted_requests"
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
            self.tracer.telemetry.counter("rebuild.started").inc()
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
                tracer.telemetry.counter("rebuild.rows").inc()
                tracer.telemetry.gauge("rebuild.progress").set(
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
            tracer.telemetry.gauge("array.degraded_ms").set(self.degraded_ms)

    def _run(self, request: IORequest, slices: List[Slice], completion: Event):
        phases = sorted({piece.phase for piece in slices})
        last_done: Optional[IORequest] = None
        for phase in phases:
            events = []
            for piece in slices:
                if piece.phase != phase:
                    continue
                physical = request.clone_slice(
                    piece.lba,
                    piece.size,
                    piece.is_read,
                    self.env.now,
                    piece.disk,
                )
                events.append(self.drives[piece.disk].submit(physical))
            if events:
                result = yield self.env.all_of(events)
                finished = [result[event] for event in result.events]
                last_done = max(
                    finished, key=lambda r: r.completion_time
                )
        if completion.triggered:
            # Aborted mid-flight by a member failure on a
            # non-redundant layout; nothing left to complete.
            return
        request.completion_time = self.env.now
        if request.start_service is None:
            request.start_service = request.arrival_time
        if last_done is not None:
            request.seek_time = last_done.seek_time
            request.rotational_latency = last_done.rotational_latency
            request.transfer_time = last_done.transfer_time
            request.cache_hit = last_done.cache_hit
            request.arm_id = last_done.arm_id
            request.media_error = last_done.media_error
            request.retries += last_done.retries
        self.requests_completed += 1
        self._outstanding.pop(request.request_id, None)
        if self.tracer.enabled:
            self._record_logical_span(
                request, slices=len(slices), phases=len(phases)
            )
        completion.succeed(request)
        for callback in self.on_complete:
            callback(request)

    # -- retry-policy request path ------------------------------------------
    def _run_retry(
        self, request: IORequest, slices: List[Slice], completion: Event
    ):
        """Coordinating process used when a :class:`RetryPolicy` is set.

        Identical phase structure to :meth:`_run`, but each slice runs
        through :meth:`_slice_attempts`, which resubmits on unrecovered
        media errors and accounts per-attempt deadline misses.
        """
        phases = sorted({piece.phase for piece in slices})
        last_done: Optional[IORequest] = None
        any_media_error = False
        for phase in phases:
            attempts = [
                self.env.process(self._slice_attempts(request, piece))
                for piece in slices
                if piece.phase == phase
            ]
            if attempts:
                result = yield self.env.all_of(attempts)
                finished = [result[event] for event in result.events]
                any_media_error = any_media_error or any(
                    r.media_error for r in finished
                )
                last_done = max(
                    finished, key=lambda r: r.completion_time
                )
        if completion.triggered:
            return
        request.completion_time = self.env.now
        if request.start_service is None:
            request.start_service = request.arrival_time
        if last_done is not None:
            request.seek_time = last_done.seek_time
            request.rotational_latency = last_done.rotational_latency
            request.transfer_time = last_done.transfer_time
            request.cache_hit = last_done.cache_hit
            request.arm_id = last_done.arm_id
        if any_media_error:
            request.media_error = True
            self.unrecovered_requests += 1
            if self.tracer.enabled:
                self.tracer.telemetry.counter(
                    "array.unrecovered_requests"
                ).inc()
        self.requests_completed += 1
        self._outstanding.pop(request.request_id, None)
        if self.tracer.enabled:
            self._record_logical_span(
                request, slices=len(slices), phases=len(phases)
            )
        completion.succeed(request)
        for callback in self.on_complete:
            callback(request)

    def _slice_attempts(self, request: IORequest, piece: Slice):
        """Issue one slice, retrying unrecovered media errors.

        Returns the physical request of the final attempt.  A media
        access cannot be cancelled mid-revolution, so a deadline miss
        is *recorded* (firmware-command-timeout style) while the slice
        is still awaited — response times stay physical and the miss
        count feeds the reliability report.
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            physical = request.clone(
                lba=piece.lba,
                size=piece.size,
                is_read=piece.is_read,
                arrival_time=self.env.now,
                source_disk=piece.disk,
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
                            "array.deadline_misses"
                        ).inc()
                    yield event
            else:
                yield event
            request.retries += physical.retries
            if not physical.media_error or attempt >= policy.max_attempts:
                return physical
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
                self.tracer.telemetry.counter("array.slice_retries").inc()
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
