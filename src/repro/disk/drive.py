"""The disk-drive service model: one spindle, ``n`` arm assemblies.

A :class:`ConventionalDrive` is a discrete-event process that services
one request at a time, exactly as the paper describes the baseline
(§2): for every media access, the request is *serialised* through
controller overhead, seek, rotational latency, and transfer.  It owns
one arm assembly at mount angle 0, the DASH ``D1A1S1H1`` point (§4);
:class:`repro.core.parallel_disk.ParallelDisk` lays out ``n`` under the
same two restrictions (§7.2), so both serve through the one path here,
whose SPTF arm search reduces with one arm to seek plus rotational wait.

The drive exposes two hooks that implement the paper's limit-study
methodology (§7.1): ``seek_scale`` and ``rotation_scale`` multiply the
computed seek time and rotational latency (½, ¼, or 0), matching the
paper's artificial modification of the simulator's latencies.

Mode accounting (idle / seek / rotational latency / transfer) feeds the
power model in :mod:`repro.power`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.disk.actuator import ArmAssembly
from repro.disk.cache import DiskCache
from repro.disk.geometry import DiskGeometry
from repro.disk.request import IORequest
from repro.disk.rotation import Spindle
from repro.disk.scheduler import (
    FCFSScheduler,
    QueueScheduler,
    SchedulingContext,
    SPTFScheduler,
)
from repro.disk.seek import SeekModel
from repro.disk.specs import DriveSpec
from repro.faults.policy import (
    DEFAULT_MEDIA_RETRY,
    ArmedMediaFault,
    RetryPolicy,
)
from repro.obs.tracer import tracer_for
from repro.sim.engine import Environment, Event

__all__ = ["ConventionalDrive", "DriveStats"]


@dataclass
class DriveStats:
    """Aggregate per-drive activity, split by operating mode.

    Times are total milliseconds spent in each mode across the run.
    ``idle_time(elapsed)`` derives idle residency, which dominates MD
    power in the paper's Figure 3.
    """

    seek_ms: float = 0.0
    rotational_latency_ms: float = 0.0
    transfer_ms: float = 0.0
    requests_completed: int = 0
    reads_completed: int = 0
    cache_hits: int = 0
    sectors_transferred: int = 0
    #: Per-arm seek-time totals (index = arm id).  Drives preallocate
    #: one slot per actuator at construction, so the list shape depends
    #: only on the configuration — not on which arms happened to seek —
    #: and stats stay merge/compare-stable across worker processes.
    per_arm_seek_ms: List[float] = field(default_factory=lambda: [0.0])
    #: Requests whose seek time was non-zero (paper §7.2 reports this
    #: fraction rising with actuator count for Websearch).
    nonzero_seeks: int = 0
    #: Media errors consumed (injected faults that hit an access).
    media_errors: int = 0
    #: Retry revolutions spent recovering media errors.
    media_retries: int = 0
    #: Media errors that survived the retry budget (surfaced to the
    #: layer above as ``request.media_error``).
    unrecovered_errors: int = 0
    #: Total time spent in retry revolutions (+ backoff).  Billed into
    #: ``rotational_latency_ms`` as well — the platter really is
    #: spinning under a waiting head — so mode/power accounting stays
    #: exact; this field just keeps the retry share visible.
    retry_ms: float = 0.0

    @classmethod
    def for_arms(cls, arms: int) -> "DriveStats":
        """Stats with ``per_arm_seek_ms`` preallocated for ``arms``."""
        return cls(per_arm_seek_ms=[0.0] * max(1, arms))

    @property
    def busy_ms(self) -> float:
        return self.seek_ms + self.rotational_latency_ms + self.transfer_ms

    def idle_ms(self, elapsed_ms: float) -> float:
        return max(0.0, elapsed_ms - self.busy_ms)

    def mode_fractions(self, elapsed_ms: float) -> Dict[str, float]:
        """Residency fraction per mode over ``elapsed_ms``."""
        if elapsed_ms <= 0:
            return {"idle": 1.0, "seek": 0.0, "rotational": 0.0,
                    "transfer": 0.0}
        return {
            "idle": self.idle_ms(elapsed_ms) / elapsed_ms,
            "seek": self.seek_ms / elapsed_ms,
            "rotational": self.rotational_latency_ms / elapsed_ms,
            "transfer": self.transfer_ms / elapsed_ms,
        }

    def record_arm_seek(self, arm_id: int, seek_ms: float) -> None:
        if arm_id >= len(self.per_arm_seek_ms):
            # Only reachable when stats were built without preallocation
            # (e.g. hand-constructed in tests); drives size the list at
            # construction so the shape never varies run to run.
            self.per_arm_seek_ms.extend(
                [0.0] * (arm_id + 1 - len(self.per_arm_seek_ms))
            )
        self.per_arm_seek_ms[arm_id] += seek_ms


class ConventionalDrive:
    """A drive attached to a simulation environment, serving through
    its arm assemblies (:attr:`arms`).

    Parameters
    ----------
    env:
        The simulation environment.
    spec:
        Drive specification (geometry, mechanics, cache).
    scheduler:
        Queue scheduling policy; defaults to SPTF as in the paper.
    seek_scale / rotation_scale:
        Limit-study multipliers applied to computed seek times and
        rotational latencies (1.0 = realistic; 0.5/0.25/0.0 reproduce
        the paper's (1/2)S … R=0 experiments).
    cache_segments:
        Segment count for the on-board cache.
    """

    def __init__(
        self,
        env: Environment,
        spec: DriveSpec,
        scheduler: Optional[QueueScheduler] = None,
        seek_scale: float = 1.0,
        rotation_scale: float = 1.0,
        cache_segments: int = 16,
        label: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if seek_scale < 0 or rotation_scale < 0:
            raise ValueError("latency scales must be non-negative")
        self.env = env
        self.spec = spec
        self.label = label or spec.name
        self.scheduler = scheduler or SPTFScheduler()
        self.seek_scale = seek_scale
        self.rotation_scale = rotation_scale
        #: Budget for in-place media-error retries (each retry costs a
        #: platter revolution plus the policy's backoff).
        self.retry_policy = retry_policy or DEFAULT_MEDIA_RETRY
        #: Media faults armed by a fault injector, consumed by the
        #: next matching media access.  Empty on the healthy path,
        #: which therefore pays one truthiness check and nothing else.
        self._armed_faults: List[ArmedMediaFault] = []

        self.geometry: DiskGeometry = spec.build_geometry()
        self.seek_model: SeekModel = spec.build_seek_model(self.geometry)
        self.spindle: Spindle = spec.build_spindle()
        # Each physical drive spins at its own phase: without this,
        # the members of an array would be rotationally synchronised
        # and parallel accesses to the same sector (RAID mirroring,
        # parity reconstruction) would be artificially free.  The
        # phase derives from the label plus a per-environment
        # occurrence counter, so runs stay deterministic (fresh
        # environment ⇒ fresh counters) and same-labelled members of
        # one array still decorrelate.
        counters = getattr(env, "_drive_label_counts", None)
        if counters is None:
            counters = {}
            env._drive_label_counts = counters
        occurrence = counters.get(self.label, 0)
        counters[self.label] = occurrence + 1
        seed_text = f"{self.label}#{occurrence}".encode()
        self.spindle.phase = (zlib.crc32(seed_text) % 9973) / 9973.0
        self.cache: DiskCache = spec.build_cache(segments=cache_segments)
        start = self.geometry.cylinders // 2
        #: Arm assemblies in ``arm_id`` order: one at mount angle 0
        #: (DASH ``D1A1S1H1``) unless a subclass lays out more.
        self.arms: List[ArmAssembly] = [
            ArmAssembly(arm_id=0, mount_angle=0.0, initial_cylinder=start)
        ]
        #: Surfaces streaming simultaneously (the DASH S dimension).
        self.surfaces = 1
        #: Enable firmware-style pre-positioning of idle assemblies
        #: (see :meth:`_preposition`); the knob exists for ablation.
        self.preposition_idle_arms = True
        #: Count of background repositioning moves performed.
        self.repositions = 0

        self.stats = DriveStats.for_arms(getattr(spec, "actuators", 1))
        #: Observability: resolved once at construction (``env.tracer``
        #: or the ambient tracer; the zero-cost null tracer otherwise).
        #: Every instrumentation site below is guarded by
        #: ``tracer.enabled`` so untraced hot paths pay one attribute
        #: load and a branch, nothing more.
        self.tracer = tracer_for(env)
        if self.tracer.enabled:
            self._wire_cache_telemetry()
        #: Callbacks invoked with each completed request.
        self.on_complete: List[Callable[[IORequest], None]] = []
        #: Optional hook called as ``listener(request, total_ms)`` at
        #: dispatch, after every service phase duration (and therefore
        #: the completion instant ``now + total_ms``) is fixed and the
        #: request's measurement fields are stamped, but before the
        #: service timeout is issued.  The sharded kernel uses this to
        #: report scheduled completions to the controller ahead of
        #: their firing; ``None`` (the default) costs one attribute
        #: load and a branch per service.
        self.dispatch_listener: Optional[
            Callable[[IORequest, float], None]
        ] = None

        self._pending: List[IORequest] = []
        #: Request id -> completer: the ``done`` callable given to
        #: :meth:`submit`, or the ``settle`` of the event it returned.
        self._completions: Dict[int, Callable[[IORequest], None]] = {}
        self._wakeup: Optional[Event] = None
        #: End cylinder of the last media access, whichever arm served
        #: it: the head position the queue schedulers see.
        self._current_cylinder = start
        self._cylinder_cache: Dict[int, int] = {}
        # SPTF re-estimates every windowed candidate at every dispatch
        # decision; a queued request's decoded target never changes, so
        # memoise it for the (common) case of surviving several scans.
        self._target_cache: Dict[int, Tuple[int, float]] = {}
        # One reusable context object per drive: schedulers only read
        # it, and allocating a fresh one per decision showed up in the
        # dispatch profile.  ``_context()`` refreshes the mutable field.
        self._scheduling_context = SchedulingContext(
            current_cylinder=self._current_cylinder,
            cylinder_of=self._cylinder_of,
            positioning_time=self.positioning_estimate,
        )
        self._server = env.process(self._serve_loop())

    # -- public API --------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self._pending)

    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet completed."""
        return len(self._completions)

    @property
    def current_cylinder(self) -> int:
        return self._current_cylinder

    @property
    def actuator_count(self) -> int:
        return len(self.arms)

    def submit(
        self,
        request: IORequest,
        done: Optional[Callable[[IORequest], None]] = None,
    ) -> Optional[Event]:
        """Queue a request.

        Without ``done``, returns an event that triggers on completion
        with the request as its value (settled in place when nothing
        waits on it; see :meth:`~repro.sim.engine.Event.settle`).  With
        ``done``, no event is created: the drive calls ``done(request)``
        at the completion instant and returns ``None``.
        """
        if request.lba + request.size > self.geometry.total_sectors:
            raise ValueError(
                f"{request} exceeds drive capacity "
                f"({self.geometry.total_sectors} sectors)"
            )
        completion = None
        if done is None:
            # Direct Event construction: submit runs once per physical
            # request, so the env.event() factory frame is worth
            # skipping.
            completion = Event(self.env)
            done = completion.settle
        self._completions[request.request_id] = done
        self._pending.append(request)
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()
        return completion

    def min_service_ms(self) -> float:
        """Provable lower bound on any single service duration (> 0).

        This is the conservative lookahead of the sharded kernel: no
        request dispatched at time ``t`` can complete before ``t +
        min_service_ms()``.  Every service path pays the controller
        overhead plus at least the cheaper of one sector over the bus
        (the cache-hit floor) or one sector streamed off the fastest
        zone by ``m`` parallel surfaces; seek, settle, rotation (of
        any arm) and retries only add, and the limit-study scales can
        only shrink terms the bound already excludes.
        """
        bus_ms = (512 / self.spec.bus_bytes_per_s) * 1000.0
        max_spt = max(
            zone.sectors_per_track for zone in self.geometry.zones
        )
        media_ms = self.spindle.period_ms / (max_spt * self.surfaces)
        return self.spec.controller_overhead_ms + min(bus_ms, media_ms)

    def inject_media_error(
        self, attempts: int = 1, lba: Optional[int] = None
    ) -> None:
        """Arm a media error for the next matching media access.

        ``attempts`` is how many read attempts fail before the sector
        yields (a transient error recovers within a small budget; a
        latent sector error is sized to exceed any budget).  With
        ``lba`` set, only an access covering that sector consumes the
        fault; otherwise the next media access does.
        """
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if lba is not None and not 0 <= lba < self.geometry.total_sectors:
            raise ValueError(
                f"lba {lba} outside [0, {self.geometry.total_sectors})"
            )
        self._armed_faults.append(ArmedMediaFault(attempts=attempts, lba=lba))
        if self.tracer.enabled:
            self.tracer.telemetry.counter("repro_faults_armed_total").inc()

    def _media_retry_penalty(self, request: IORequest) -> float:
        """Consume an armed fault hitting ``request``; returns the
        retry time it costs (0.0 when no fault matches).

        Each retry waits one full revolution — the damaged sector must
        come back under the head — plus the policy's backoff.  Errors
        whose severity exceeds the retry budget leave the request
        marked ``media_error`` for the layer above.  The full
        revolution is charged unscaled: the limit-study knobs shrink
        *positioning*, not the physics of a re-read.
        """
        fault = None
        for candidate in self._armed_faults:
            if (
                candidate.lba is None
                or request.lba <= candidate.lba < request.end_lba
            ):
                fault = candidate
                break
        if fault is None:
            return 0.0
        self._armed_faults.remove(fault)
        policy = self.retry_policy
        retries = min(fault.attempts, policy.max_retries)
        penalty = retries * (self.spindle.period_ms + policy.backoff_ms)
        unrecovered = fault.attempts > retries
        self.stats.media_errors += 1
        self.stats.media_retries += retries
        self.stats.retry_ms += penalty
        request.retries += retries
        if unrecovered:
            request.media_error = True
            self.stats.unrecovered_errors += 1
        if self.tracer.enabled:
            telemetry = self.tracer.telemetry
            telemetry.counter("repro_faults_media_errors_total").inc()
            telemetry.counter("repro_faults_retries_total").inc(retries)
            if unrecovered:
                telemetry.counter("repro_faults_unrecovered_total").inc()
        return penalty

    # -- arm selection ------------------------------------------------------
    def best_arm_for(
        self,
        request: IORequest,
        at_time: float,
        include_busy: bool = False,
    ) -> Tuple[ArmAssembly, float, float, int]:
        """The (arm, seek, rotation, head) minimising positioning time.

        Considers every arm that is idle at ``at_time``; this drive
        serialises service, so all arms are idle at each decision
        point.  With ``include_busy`` the search ignores
        busy/idle state — used by the overlapped extensions to judge
        whether waiting for a busy arm would beat dispatching now.
        """
        cylinder, sector_angle = self.geometry.decode_target(request.lba)
        arm, seek, rotation, head, _, _ = self._best_arm(
            cylinder, sector_angle, at_time, include_busy
        )
        return arm, seek, rotation, head

    def _best_arm(
        self,
        cylinder: int,
        sector_angle: float,
        at_time: float,
        include_busy: bool = False,
    ) -> Tuple[
        ArmAssembly, float, float, int, Optional[ArmAssembly], float
    ]:
        """SPTF arm search over an already-decoded target, in one scan.

        Returns ``(arm, seek, rotation, head, spare, spare_seek)``.
        Arms are scanned in ``arm_id`` order with a strict improvement
        test, so ties go to the lowest id — the same total order as the
        documented ``(total, arm_id)`` key.  ``spare`` is the assembly
        :meth:`_preposition` would shuttle toward ``cylinder``: the
        first, in ``arm_id`` order, of the arms farthest from it among
        those idle now (not at ``at_time``) other than the winner, or
        ``None``; ``spare_seek`` is its already-priced seek.  This is
        the one loop that prices and ranks arms.
        """
        seek_model = self.seek_model
        memo = seek_model._memo
        spindle = self.spindle
        period = spindle._period_ms
        phase = spindle.phase
        seek_scale = self.seek_scale
        rotation_scale = self.rotation_scale
        now = self.env._now
        best = None
        best_total = best_seek = best_rotation = 0.0
        best_head = 0
        # The two farthest arms idle now, each the first in arm_id
        # order at its distance: the spare is the first unless it won.
        far = far_next = None
        far_distance = far_next_distance = -1
        far_seek = far_next_seek = 0.0
        for arm in self.arms:
            if arm.failed:
                # Deconfigured assemblies never serve again; SPTF
                # degrades transparently to the survivors (and
                # ``is_idle`` alone would not exclude them for the
                # overlapped extensions' ``include_busy`` searches).
                continue
            busy_until = arm.busy_until
            if at_time < busy_until and not include_busy:
                continue
            # SeekModel.seek_time inlined over its shared distance
            # table; a miss goes through the method so the table fills
            # exactly as it always has.
            distance = arm.cylinder - cylinder
            if distance < 0:
                distance = -distance
            if distance:
                seek = memo.get(distance)
                if seek is None:
                    seek = seek_model.seek_time(arm.cylinder, cylinder)
                seek *= seek_scale
            else:
                seek = 0.0
            if now >= busy_until:
                if distance > far_distance:
                    far_next = far
                    far_next_distance = far_distance
                    far_next_seek = far_seek
                    far = arm
                    far_distance = distance
                    far_seek = seek
                elif distance > far_next_distance:
                    far_next = arm
                    far_next_distance = distance
                    far_next_seek = seek
            if best is not None and seek >= best_total:
                # Rotation is never negative: this arm cannot win.
                continue
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
                    spindle.latency_to, at_time + seek, sector_angle
                )
            rotation *= rotation_scale
            total = seek + rotation
            if best is None or total < best_total:
                best = arm
                best_total = total
                best_seek = seek
                best_rotation = rotation
                best_head = head
        if best is None:
            raise RuntimeError("no idle arm available")
        if far is best:
            far = far_next
            far_seek = far_next_seek
        return best, best_seek, best_rotation, best_head, far, far_seek

    def positioning_estimate(self, request: IORequest) -> float:
        """Estimated seek + rotational latency if dispatched right now.

        The best arm's estimate, used by SPTF; cache hits estimate to
        zero so they are always preferred.
        """
        if request.is_read and self.cache.contains(request.lba, request.size):
            return 0.0
        target = self._target_cache.get(request.request_id)
        if target is None:
            target = self.geometry.decode_target(request.lba)
            self._target_cache[request.request_id] = target
        cylinder, sector_angle = target
        _, seek, rotation, _, _, _ = self._best_arm(
            cylinder, sector_angle, self.env._now
        )
        return seek + rotation

    def _preposition(
        self,
        spare: Optional[ArmAssembly],
        move: float,
        target_cylinder: int,
    ) -> None:
        """Background repositioning of a stranded idle assembly.

        A far-away assembly can never win the SPTF arm choice: its seek
        penalty exceeds the largest possible rotational gain (one
        revolution).  Drive firmware therefore shuttles idle assemblies
        toward the active region while the servicing arm is stationary
        (rotational-latency and transfer phases) — the servicing arm
        stops moving once its seek ends, so the single-arm-in-motion
        restriction is preserved for *servicing* seeks.

        ``spare`` and ``move`` are the farthest idle assembly and its
        seek to ``target_cylinder``, as :meth:`_best_arm` found them.
        The move's VCM activity is billed to the seek-mode energy,
        which is why the paper sees the fraction of non-zero-seek
        requests (and seek power) grow with actuator count (§7.2).
        """
        # Only shuttle assemblies whose seek handicap exceeds the
        # typical rotational stake (half a revolution): any farther and
        # the assembly can rarely win the SPTF arm choice.
        if (
            spare is None
            or not self.preposition_idle_arms
            or move <= self.spindle.average_latency_ms
        ):
            return
        now = self.env._now
        spare.busy_until = now + move
        spare.move_to(target_cylinder)
        spare.seek_time_ms += move
        spare.seeks += 1
        self.stats.seek_ms += move
        self.stats.record_arm_seek(spare.arm_id, move)
        self.repositions += 1
        if self.tracer.enabled:
            self.tracer.span(
                "preposition",
                "seek",
                now,
                move,
                (self.label, f"arm {spare.arm_id}"),
                args={"to_cylinder": target_cylinder},
            )
            self.tracer.telemetry.counter("repro_arm_repositions_total").inc()

    # -- internals ----------------------------------------------------------
    def _cylinder_of(self, request: IORequest) -> int:
        cached = self._cylinder_cache.get(request.request_id)
        if cached is None:
            cached = self.geometry.cylinder_of_lba(request.lba)
            self._cylinder_cache[request.request_id] = cached
        return cached

    def _context(self) -> SchedulingContext:
        context = self._scheduling_context
        context.current_cylinder = self._current_cylinder
        return context

    def _wire_cache_telemetry(self) -> None:
        """Route cache events into the tracer's telemetry registry."""
        counter = self.tracer.telemetry.counter
        by_kind = {
            kind: counter(f"repro_drive_cache_{name}_total").labels()
            for kind, name in (
                ("hit", "read_hits"),
                ("miss", "read_misses"),
                ("install_write", "write_installs"),
                ("invalidate", "invalidations"),
            )
        }

        def listener(kind: str, lba: int, size: int) -> None:
            by_kind[kind].inc()

        self.cache.listener = listener

    def _span_args(self, request: IORequest) -> Dict:
        return {
            "req": request.request_id,
            "lba": request.lba,
            "sectors": request.size,
            "rw": "R" if request.is_read else "W",
        }

    def _serve_loop(self):
        # When this drive class runs the stock _service, its body is
        # inlined below: every media/cache-hit resume then traverses
        # one generator frame fewer, and no _service generator is
        # created per request.  Subclasses overriding _service (the
        # DRPM model) keep the delegating call.
        flat = type(self)._service is ConventionalDrive._service
        # Exact-type check: FCFS keeps no cross-call state, so picking
        # the sole queued request without the select frame is safe.  A
        # stateful policy (VSCAN tracks sweep direction) must see every
        # selection, single-element queues included.
        fcfs = type(self.scheduler) is FCFSScheduler
        env = self.env
        pending = self._pending
        select = self.scheduler.select
        while True:
            while not pending:
                self._wakeup = Event(env)
                yield self._wakeup
                self._wakeup = None
            if fcfs and len(pending) == 1:
                request = pending.pop()
            else:
                request = select(pending, self._context())
                pending.remove(request)
            # The decode memos fill only under position-aware policies;
            # guarding keeps the FCFS path to two truth tests.
            if self._cylinder_cache:
                self._cylinder_cache.pop(request.request_id, None)
            if self._target_cache:
                self._target_cache.pop(request.request_id, None)
            if not flat:
                yield from self._service(request)
                continue
            # -- stock _service, inlined -------------------------------
            request.start_service = env._now
            if self.tracer.enabled:
                self.tracer.span(
                    "queue",
                    "queue",
                    request.arrival_time,
                    env.now - request.arrival_time,
                    (self.label, "queue"),
                    args=self._span_args(request),
                )
            overhead = self.spec.controller_overhead_ms
            if request.is_read and self.cache.lookup_read(
                request.lba, request.size
            ):
                yield from self._service_cache_hit(request, overhead)
            else:
                yield from self._service_media(request, overhead)
            self._complete(request)

    def _service(self, request: IORequest):
        request.start_service = self.env._now
        if self.tracer.enabled:
            self.tracer.span(
                "queue",
                "queue",
                request.arrival_time,
                self.env.now - request.arrival_time,
                (self.label, "queue"),
                args=self._span_args(request),
            )
        overhead = self.spec.controller_overhead_ms
        if request.is_read and self.cache.lookup_read(
            request.lba, request.size
        ):
            yield from self._service_cache_hit(request, overhead)
        else:
            yield from self._service_media(request, overhead)
        self._complete(request)

    def _service_cache_hit(self, request: IORequest, overhead: float):
        bus_ms = (request.size * 512 / self.spec.bus_bytes_per_s) * 1000.0
        total = overhead + bus_ms
        if self.tracer.enabled:
            self.tracer.span(
                "cache-hit",
                "cache",
                self.env.now,
                total,
                (self.label, "cache"),
                args=self._span_args(request),
            )
        # The completion instant is fixed here, so the measurement
        # fields can be stamped before the timeout: nothing observes
        # the request while it is in service, and the sharded kernel
        # needs a fully described completion at dispatch time.
        request.cache_hit = True
        request.transfer_time = bus_ms
        if self.dispatch_listener is not None:
            self.dispatch_listener(request, total)
        yield self.env.timeout(total)
        self.stats.transfer_ms += total
        self.stats.cache_hits += 1

    def _service_media(self, request: IORequest, overhead: float):
        spec = self.spec
        now = self.env._now
        lba = request.lba
        size = request.size
        is_read = request.is_read
        (
            cylinder,
            sector_angle,
            spt,
            track_crossings,
            cylinder_crossings,
            end_cylinder,
            end_sector,
            end_spt,
        ) = self.geometry.service_plan(lba, size)
        settle = 0.0 if is_read else spec.write_settle_ms
        # The head is ready overhead (+ settle) + seek after now;
        # evaluate the rotational gap for that instant so the charged
        # latency matches the platter's true phase.  The same scan
        # finds the idle assembly _preposition would shuttle.
        arm, seek, rotation, _head, spare, move = self._best_arm(
            cylinder, sector_angle, now + overhead + settle
        )
        seek += settle
        traced = self.tracer.enabled
        if traced:
            # Annotate the SPTF arm decision: which assembly won, what
            # it cost, and how contested the choice was — the per-arm
            # view behind the paper's Figure 5 latency shortening.
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
                "repro_arm_selections_total", labels=("arm",)
            ).labels(arm=arm.arm_id).inc()
        period = self.spindle._period_ms
        # _preposition's half-revolution threshold, tested here first
        # so the common no-move case costs no frame.
        if spare is not None and move > period / 2.0:
            self._preposition(spare, move, cylinder)

        # Seek, rotation (estimated at decision time for the instant the
        # head comes ready) and transfer are all fixed here, so one
        # combined timeout reaches the same completion instant as
        # yielding per phase at a third of the engine-event cost.  With
        # ``m`` surfaces streaming simultaneously (S-dimension) the
        # streaming time divides by ``m`` and intra-cylinder head
        # switches disappear (see :meth:`_transfer_time`).
        m = self.surfaces
        # _transfer_time inlined, with Spindle.transfer_time inlined in
        # turn (``(sectors / spt) * period``): service_plan already
        # validated the request bounds, so the method's argument checks
        # — and both frames — are redundant here.
        if m <= 1:
            transfer = (size / spt) * period
            if track_crossings:
                # Adding the zero switch terms of a one-track transfer
                # is a float identity, so skipping them moves nothing.
                transfer += (
                    track_crossings - cylinder_crossings
                ) * spec.head_switch_ms
                transfer += cylinder_crossings * spec.seek_track_to_track_ms
        else:
            transfer = (
                (size / spt) * period / m
                + cylinder_crossings * spec.seek_track_to_track_ms
            )
        # Armed media faults are rare; the healthy path pays only the
        # emptiness check, and adding 0.0 to the combined timeout is a
        # float identity, so fault support changes no healthy figure.
        penalty = (
            self._media_retry_penalty(request) if self._armed_faults else 0.0
        )
        if traced:
            self._record_phase_spans(
                request,
                now,
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
        stats.transfer_ms += overhead  # overhead billed as transfer
        stats.seek_ms += seek
        stats.per_arm_seek_ms[arm.arm_id] += seek
        stats.rotational_latency_ms += rotation
        if penalty > 0.0:
            # The platter spins under a waiting head during retries, so
            # the time is rotational residency for mode/power purposes.
            stats.rotational_latency_ms += penalty
        stats.transfer_ms += transfer
        stats.sectors_transferred += size

        arm.requests_serviced += 1
        arm.seek_time_ms += seek
        if seek > 0.0:
            stats.nonzero_seeks += 1
            arm.seeks += 1
        arm.cylinder = end_cylinder
        self._current_cylinder = end_cylinder
        # _update_cache_planned inlined: one cache call per service.
        cache = self.cache
        if is_read:
            cache.install_read(lba, size, end_spt - end_sector - 1)
        elif cache.cache_writes:
            cache.install_write(lba, size)
        else:
            cache.invalidate(lba, size)

    def _record_phase_spans(
        self,
        request: IORequest,
        start: float,
        overhead: float,
        seek: float,
        rotation: float,
        transfer: float,
        arm_id: int,
        retry: float = 0.0,
    ) -> None:
        """Emit the per-phase service spans on the servicing arm's track.

        Every phase duration is fixed at dispatch (the drives issue one
        combined timeout), so the spans can be recorded prospectively —
        recording schedules no engine events and cannot perturb the run.
        """
        tracer = self.tracer
        track = (self.label, f"arm {arm_id}")
        args = self._span_args(request)
        at = start
        if overhead > 0.0:
            tracer.span("overhead", "overhead", at, overhead, track, args)
            at += overhead
        if seek > 0.0:
            tracer.span("seek", "seek", at, seek, track, args)
            at += seek
        if rotation > 0.0:
            tracer.span("rotation", "rotation", at, rotation, track, args)
            at += rotation
        tracer.span("transfer", "transfer", at, transfer, track, args)
        if retry > 0.0:
            tracer.span(
                "media-retry", "retry", at + transfer, retry, track, args
            )

    def _transfer_time(
        self,
        size: int,
        spt: int,
        track_crossings: int,
        cylinder_crossings: int,
    ) -> float:
        """Media transfer time of ``size`` sectors laid out as given.

        ``size / spt`` revolutions plus a head switch per track crossing
        and a track-to-track seek per cylinder crossing.  With ``m``
        surfaces streaming at once (S-dimension) the streaming time
        divides by ``m`` and intra-cylinder head switches disappear; the
        paper assumes the channel has the bandwidth for it (§4).
        """
        spec = self.spec
        m = self.surfaces
        if m > 1:
            return (
                self.spindle.transfer_time(size, spt) / m
                + cylinder_crossings * spec.seek_track_to_track_ms
            )
        time = self.spindle.transfer_time(size, spt)
        time += (track_crossings - cylinder_crossings) * spec.head_switch_ms
        time += cylinder_crossings * spec.seek_track_to_track_ms
        return time

    def _update_cache_planned(
        self, request: IORequest, end_sector: int, end_spt: int
    ) -> None:
        """Install a serviced request in the on-board cache.

        ``end_sector``/``end_spt`` locate the request's last sector (the
        end-of-transfer decode ``geometry.service_plan`` already did):
        a read installs read-ahead up to the end of that track.  A
        track's sectors are consecutive LBAs on the disk, so that room
        never runs past the disk's last sector.
        """
        cache = self.cache
        if request.is_read:
            cache.install_read(
                request.lba, request.size, end_spt - end_sector - 1
            )
        elif cache.cache_writes:
            cache.install_write(request.lba, request.size)
        else:
            cache.invalidate(request.lba, request.size)

    def _complete(self, request: IORequest) -> None:
        """Finish ``request`` at the instant its service timeout fires.

        The :attr:`on_complete` callbacks run first, in registration
        order, and then the request's completer (``done`` or its
        completion event's ``settle``), so an observer sees the request
        as the drive left it before the layer above finishes it.
        """
        request.completion_time = self.env._now
        stats = self.stats
        stats.requests_completed += 1
        if request.is_read:
            stats.reads_completed += 1
        done = self._completions.pop(request.request_id)
        for callback in self.on_complete:
            callback(request)
        done(request)
