"""Conservative parallel discrete-event simulation of one experiment.

``ShardedEngine`` partitions a :class:`~repro.raid.array.DiskArray`
simulation into one engine shard per drive group.  Each shard is a
forked worker process that inherits the fully constructed environment
and simulates *only its own drives* — generators, seek/rotation
tables, spindle phases, armed faults and all — while the parent keeps
the controller: the producer, the array's mapping/completion logic,
retry policies, fault replay and rebuild.  The two sides exchange
events over per-shard queues and the controller merges completions
deterministically, so the figures are bit-identical to the serial
kernel (see ``docs/parallelism.md`` for the full derivation).

Protocol sketch
---------------

* **Lookahead.**  ``L = min(drive.min_service_ms())`` over the array:
  no request dispatched at ``t`` can complete before ``t + L`` (drive
  geometry gives a positive floor — controller overhead plus one
  sector over the bus or off the fastest zone).
* **Dispatch-time completion reports.**  Drives stamp every
  measurement field *at dispatch* (all phase durations are fixed
  then), so a shard can describe a completion — time, fields and all —
  the moment it is scheduled, before it fires.
* **Windows.**  The controller's window limit is
  ``min(pending-submission floors t+L, reported completion times)``.
  Everything at or below the limit is known, so reported completions
  up to the limit are injected into the controller schedule (ordered by
  ``(time, priority, seq)`` — completion time, then dispatch time,
  then submission sequence) and the controller drains its own events
  up to the limit in global time order.  Shards then advance to the
  limit; with feedback (retry resubmission, RAID-5 phase-1 writes,
  drive-failure aborts) a shard additionally *holds* before firing an
  unacknowledged completion, so controller reactions always reach it
  in its local future.
* **Run-ahead.**  Feedback-free runs (``array.needs_lockstep`` false)
  degenerate to two rounds: ship every submission, let all shards run
  to exhaustion in parallel at full serial-kernel speed, then inject
  and drain.  This is the speedup path for the paper's big RAID sweeps.

Workers are forked, never spawned: they must inherit the exact
pre-run state (spindle phases, RNG-free but counter-derived labels,
armed faults).  When ``fork`` is unavailable the caller falls back to
the serial kernel.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from heapq import heapify
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import metrics_for
from repro.sim.engine import NORMAL, URGENT, Environment, Event

__all__ = [
    "ShardedEngine",
    "conservative_lookahead",
    "shard_drive_groups",
    "sharding_available",
]

_INF = float("inf")


def sharding_available() -> bool:
    """True when fork-based shard workers can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def shard_drive_groups(drive_count: int, shards: int) -> List[List[int]]:
    """Partition drive indices into ``shards`` striped groups.

    Striping (drive ``i`` goes to shard ``i % shards``) balances RAID
    workloads, where adjacent stripe units land on adjacent drives.
    """
    if drive_count < 1:
        raise ValueError(f"drive_count must be >= 1, got {drive_count}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, drive_count)
    return [list(range(s, drive_count, shards)) for s in range(shards)]


def conservative_lookahead(drives: Sequence) -> float:
    """The provable PDES lookahead for an array: min service floor."""
    lookahead = min(drive.min_service_ms() for drive in drives)
    if not lookahead > 0.0:
        raise ValueError(
            f"conservative lookahead must be positive, got {lookahead}"
        )
    return lookahead


# ---------------------------------------------------------------------------
# Controller-side proxies
# ---------------------------------------------------------------------------


class _ShardProxy:
    """Controller-side stand-in for a drive owned by a shard worker.

    Submissions and fault arming are validated against the *shadow*
    (the real drive object the worker forked from) and forwarded as
    cross-shard messages; everything else — label, spec, geometry,
    stats — delegates to the shadow, whose final state is copied back
    from the worker when the run finishes.
    """

    def __init__(self, engine: "ShardedEngine", shard: int, index: int,
                 shadow: Any):
        self._engine = engine
        self._shard = shard
        self._index = index
        self._shadow = shadow

    def submit(self, request: Any) -> Event:
        # Mirror ConventionalDrive.submit's eager capacity check so a
        # bad extent raises in the submitting frame, as serially.
        if request.lba + request.size > self._shadow.geometry.total_sectors:
            raise ValueError(
                f"{request} exceeds drive capacity "
                f"({self._shadow.geometry.total_sectors} sectors)"
            )
        return self._engine._submit(self._shard, self._index, request)

    def inject_media_error(
        self, attempts: int = 1, lba: Optional[int] = None
    ) -> None:
        # Same validation as the real drive, then forward; the worker
        # arms the fault (and counts it) at the same simulated instant.
        shadow = self._shadow
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if lba is not None and not (
            0 <= lba < shadow.geometry.total_sectors
        ):
            raise ValueError(
                f"lba {lba} outside [0, {shadow.geometry.total_sectors})"
            )
        self._engine._control(
            self._shard, self._index, ("media_error", attempts, lba)
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._shadow, name)


class _ShardArmProxy(_ShardProxy):
    """Proxy flavour for multi-actuator drives (``deconfigure_arm``).

    Defined as a subclass so ``hasattr(drive, "deconfigure_arm")`` duck
    checks (the fault injector's) resolve exactly as they would on the
    real drive class.
    """

    def deconfigure_arm(self, arm_id: int) -> None:
        shadow = self._shadow
        matches = [arm for arm in shadow.arms if arm.arm_id == arm_id]
        if not matches:
            raise ValueError(
                f"no arm with id {arm_id}; have "
                f"{[arm.arm_id for arm in shadow.arms]}"
            )
        arm = matches[0]
        if arm.failed:
            return
        if shadow.healthy_arm_count <= 1:
            raise ValueError(
                "cannot deconfigure the last healthy arm assembly"
            )
        # Update the shadow silently (no telemetry: the worker records
        # the event once) so controller-side guards — the injector's
        # healthy_arm_count check for a later failure — see live state.
        arm.failed = True
        self._engine._control(
            self._shard, self._index, ("deconfigure_arm", arm_id)
        )


# ---------------------------------------------------------------------------
# Shard worker (runs in a forked child process)
# ---------------------------------------------------------------------------


def _shard_worker_main(
    conn: Any,
    env: Environment,
    drives: List[Any],
    lockstep: bool,
) -> None:
    """Event loop of one shard: simulate ``drives``, nothing else.

    The worker inherits the pre-run environment by fork.  It first
    narrows the inherited schedule to its own drives' serve loops, then
    answers ``advance`` rounds: apply submissions/control ops shipped
    by the controller, run the local schedule up to the window bound,
    and report every *scheduled* completion (known in full at
    dispatch).  In lockstep mode it refuses to fire a completion the
    controller has not acknowledged, so controller feedback can never
    arrive in the shard's local past.
    """
    try:
        # -- narrow the inherited schedule to this shard's drives.
        # At fork time nothing has run: the schedule holds only the
        # Initialize events of processes created before the run (drive
        # serve loops, the trace producer, fault replay).  Keep our
        # serve loops; the controller runs everything else.
        servers = {drive._server for drive in drives}
        env._queue[:] = [
            entry
            for entry in env._queue
            if entry[3].callbacks
            and getattr(entry[3].callbacks[0], "__self__", None) in servers
        ]
        heapify(env._queue)
        env._stale_events = 0

        # -- per-process observability: fresh span/telemetry state, and
        # re-wire the construction-time cache counters which captured
        # Counter objects from the pre-fork registry.
        tracer = drives[0].tracer
        if tracer.enabled:
            tracer.clear()
            for drive in drives:
                drive._wire_cache_telemetry()

        drive_by_index: Dict[int, Any] = {}
        index_of: Dict[int, int] = {}
        server_to_drive = {drive._server: drive for drive in drives}

        seq_of: Dict[int, int] = {}       # request_id -> submission seq
        consumed: List[int] = []          # seqs whose submission fired
        scheduled: List[Tuple] = []       # completion reports this round
        held: Dict[Any, Tuple[float, int]] = {}  # drive -> (time, seq)
        eid_base = env._eid

        def make_listener(drive: Any) -> Callable:
            def listener(request: Any, total: float) -> None:
                seq = seq_of.pop(request.request_id, None)
                if seq is None:
                    return
                dispatch = env._now
                completes = dispatch + total
                scheduled.append((
                    seq,
                    completes,
                    dispatch,
                    request.seek_time,
                    request.rotational_latency,
                    request.transfer_time,
                    request.cache_hit,
                    request.arm_id,
                    request.media_error,
                    request.retries,
                ))
                if lockstep:
                    held[drive] = (completes, seq)
            return listener

        for drive in drives:
            drive.dispatch_listener = make_listener(drive)

        def apply_submission(seq: int, index: int, request: Any,
                             at: float) -> None:
            drive = drive_by_index[index]

            def fire(_event: Event, d=drive, r=request, s=seq) -> None:
                consumed.append(s)
                d.submit(r)

            event = Event(env)
            event._ok = True
            event.callbacks.append(fire)
            env.schedule_at(event, at)

        def apply_control(index: int, op: Tuple, at: float) -> None:
            drive = drive_by_index[index]

            def fire(_event: Event, d=drive, o=op) -> None:
                if o[0] == "media_error":
                    d.inject_media_error(attempts=o[1], lba=o[2])
                elif o[0] == "deconfigure_arm":
                    d.deconfigure_arm(o[1])
                else:  # pragma: no cover - protocol safety
                    raise RuntimeError(f"unknown control op {o[0]!r}")

            event = Event(env)
            event._ok = True
            event.callbacks.append(fire)
            # Urgent: state changes apply before same-instant dispatches,
            # matching the serial replay process firing first.
            env.schedule_at(event, at, URGENT)

        def advance(bound: float) -> None:
            queue = env._queue
            if not lockstep:
                env.run_bounded(bound)
                return
            while queue:
                head_time = queue[0][0]
                if head_time > bound:
                    break
                if held:
                    hold_min = min(at for at, _seq in held.values())
                    if head_time >= hold_min:
                        # Only break for the held completion itself:
                        # same-time events scheduled before it still
                        # fire, exactly as serially.
                        waiter = queue[0][3]._waiter
                        drive = server_to_drive.get(waiter)
                        if drive is not None:
                            hold = held.get(drive)
                            if hold is not None and head_time >= hold[0]:
                                break
                env.step()

        # -- handshake: learn our drive indices, then serve rounds.
        message = conn.recv()
        if message[0] != "bind":  # pragma: no cover - protocol safety
            raise RuntimeError(f"expected bind, got {message[0]!r}")
        for index, position in zip(message[1], range(len(drives))):
            drive_by_index[index] = drives[position]
            index_of[position] = index

        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "advance":
                _, bound, subs, controls, acks = message
                for seq in acks:
                    for drive, (at, held_seq) in list(held.items()):
                        if held_seq == seq:
                            del held[drive]
                            break
                for seq, index, request, at in subs:
                    seq_of[request.request_id] = seq
                    apply_submission(seq, index, request, at)
                for index, op, at in controls:
                    apply_control(index, op, at)
                advance(bound)
                idle = not env._queue and not held
                conn.send((
                    "report",
                    consumed,
                    scheduled,
                    idle,
                    env._now,
                    env._eid - eid_base,
                ))
                consumed = []
                scheduled = []
            elif kind == "finish":
                state = []
                for position, drive in enumerate(drives):
                    arms = getattr(drive, "arms", None)
                    arm_state = None
                    if arms is not None:
                        arm_state = [
                            (
                                arm.cylinder,
                                arm.busy_until,
                                arm.failed,
                                arm.requests_serviced,
                                arm.seek_time_ms,
                                arm.seeks,
                            )
                            for arm in arms
                        ]
                    state.append((
                        index_of[position],
                        drive.stats,
                        arm_state,
                        getattr(drive, "repositions", 0),
                    ))
                payload = tracer.payload() if tracer.enabled else None
                conn.send((
                    "done", state, payload, env._eid - eid_base, env._now
                ))
                return
            else:  # pragma: no cover - protocol safety
                raise RuntimeError(f"unknown message {kind!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# Controller-side coordinator
# ---------------------------------------------------------------------------


class _Pending:
    """One submitted-but-not-yet-injected physical request."""

    __slots__ = ("seq", "shard", "index", "request", "completion",
                 "submitted", "state", "report")

    def __init__(self, seq, shard, index, request, completion, submitted):
        self.seq = seq
        self.shard = shard
        self.index = index
        self.request = request
        self.completion = completion
        self.submitted = submitted
        #: "shipped" -> "queued" (floor dropped) -> "scheduled".
        self.state = "shipped"
        self.report: Optional[Tuple] = None


class ShardedEngine:
    """Drive a ``DiskArray`` run across forked engine shards.

    Usage (what :func:`repro.experiments.runner.run_trace` does)::

        engine = ShardedEngine(env, system, shards=4)
        engine.run()          # replaces env.run(); blocks to completion

    The constructor only validates; ``run()`` forks the workers, swaps
    the array's member drives for cross-shard proxies, runs the window
    protocol to exhaustion, then restores the drives with their final
    worker-side state (stats, arm state, merged trace payloads) so
    everything downstream — power accounting, reliability reports,
    ``repro report`` — reads exactly what the serial kernel would have
    produced.
    """

    def __init__(self, env: Environment, system: Any, shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not system.drives:
            raise ValueError("sharded run needs at least one drive")
        if not sharding_available():
            raise RuntimeError(
                "sharded execution requires the fork start method; "
                "use the serial kernel on this platform"
            )
        self.env = env
        self.system = system
        self.groups = shard_drive_groups(len(system.drives), shards)
        self.shards = len(self.groups)
        self.lookahead = conservative_lookahead(system.drives)
        self.lockstep = bool(system.needs_lockstep)
        self.windows = 0
        self.window_stall_ms = 0.0
        self.backlog_peak = 0
        self.shard_events: List[int] = [0] * self.shards
        # Wall-clock metrics only: live metrics never touch simulated
        # time, so figures stay bit-identical with metrics on or off.
        self._metrics = metrics_for(env)
        self._seq = 0
        self._pending: Dict[int, _Pending] = {}
        self._scheduled: Dict[int, _Pending] = {}
        #: Per drive index: an injected completion time the shard has
        #: not yet confirmed firing.  A request queued behind it
        #: dispatches no earlier, so its (still unreported) completion
        #: is bounded below by this plus the lookahead — the floor
        #: that keeps the window sound between acknowledging a
        #: completion and receiving the follow-on dispatch report.
        #: Cleared when a report arrives for a window whose bound
        #: covered the completion: by then the shard has fired it and
        #: reported any dispatch it triggered.
        self._unresolved: Dict[int, float] = {}
        self._outbox_subs: List[List[Tuple]] = [[] for _ in self.groups]
        self._outbox_ctls: List[List[Tuple]] = [[] for _ in self.groups]
        self._outbox_acks: List[List[int]] = [[] for _ in self.groups]
        self._runahead_shipped = False
        self._shard_of_drive: Dict[int, int] = {
            index: shard
            for shard, group in enumerate(self.groups)
            for index in group
        }

    # -- proxy callbacks ----------------------------------------------------
    def _submit(self, shard: int, index: int, request: Any) -> Event:
        if self._runahead_shipped:
            # Run-ahead shipped the complete submission schedule in the
            # first window; a later submission means the controller
            # reacted to a completion in a run classified feedback-free.
            raise RuntimeError(
                "drive submission after the run-ahead window: this run "
                "needs lockstep but was classified feedback-free "
                "(is an external actor missing declare_external_feedback?)"
            )
        completion = Event(self.env)
        seq = self._seq
        self._seq += 1
        record = _Pending(
            seq, shard, index, request, completion, self.env._now
        )
        self._pending[seq] = record
        self._outbox_subs[shard].append(
            (seq, index, request, self.env._now)
        )
        return completion

    def _control(self, shard: int, index: int, op: Tuple) -> None:
        self._outbox_ctls[shard].append((index, op, self.env._now))

    # -- window protocol ----------------------------------------------------
    def _window_limit(self) -> float:
        """Everything below this time is known to the controller."""
        if not self.lockstep:
            # Run-ahead: with no feedback the window is unbounded —
            # the whole submission schedule ships at once and shards
            # run to exhaustion in parallel.
            return _INF
        limit = _INF
        lookahead = self.lookahead
        unresolved = self._unresolved
        for record in self._pending.values():
            if record.state == "shipped":
                # Not yet applied in the shard: it dispatches no
                # earlier than its submission time.
                floor = record.submitted + lookahead
            else:
                # Consumed but queued behind the drive's in-flight
                # request.  While that request's completion is still
                # unacknowledged it bounds the limit itself (it is in
                # the scheduled set); once injected, the queued
                # request dispatches at or after it, so the unresolved
                # injection time + L is the conservative floor until
                # the shard confirms the follow-on dispatch.
                at = unresolved.get(record.index)
                if at is None:
                    continue
                floor = at + lookahead
            if floor < limit:
                limit = floor
        for record in self._scheduled.values():
            if record.report[1] < limit:
                limit = record.report[1]
        return limit

    def _inject(self, record: _Pending) -> None:
        """Materialise one shard completion in the controller schedule."""
        (_seq, completes, _dispatch, seek, rotation, transfer, cache_hit,
         arm_id, media_error, retries) = record.report
        request = record.request
        request.seek_time = seek
        request.rotational_latency = rotation
        request.transfer_time = transfer
        request.cache_hit = cache_hit
        request.arm_id = arm_id
        request.media_error = media_error
        request.retries = retries
        request.completion_time = completes
        completion = record.completion
        completion._ok = True
        completion._value = request
        # A fresh sequence number places the completion after events
        # already scheduled for the same instant — where the serial
        # kernel's completion timeout (scheduled at dispatch) sits
        # relative to work created later at that time.
        self.env.schedule_at(completion, completes, NORMAL)
        self._outbox_acks[record.shard].append(record.seq)
        self._unresolved[record.index] = completes
        del self._scheduled[record.seq]

    def _inject_ready(self) -> float:
        """Inject every known-safe completion; return the final limit."""
        while True:
            limit = self._window_limit()
            ready = [
                record
                for record in self._scheduled.values()
                if record.report[1] <= limit
            ]
            if not ready:
                return limit
            # Deterministic merge: completion time, then dispatch time,
            # then submission sequence — the serial kernel's order for
            # simultaneous completions (its completion timeouts take
            # event ids in dispatch order, and dispatches in submission
            # order).
            ready.sort(key=lambda r: (r.report[1], r.report[2], r.seq))
            for record in ready:
                self._inject(record)

    def _drain(self, limit: float) -> None:
        """Fire controller events up to ``limit`` in global time order.

        Proxy submissions created mid-drain add new lookahead floors,
        so the bound is re-evaluated as the queue advances; it can only
        tighten, and only above the time already reached.
        """
        env = self.env
        queue = env._queue
        seq_before = self._seq
        while queue and queue[0][0] <= limit:
            env.step()
            if self._seq != seq_before:
                seq_before = self._seq
                fresh = self._window_limit()
                if fresh < limit:
                    limit = fresh

    def run(self) -> None:
        """Run the simulation to exhaustion across the shards."""
        env = self.env
        system = self.system
        self._eid_at_entry = env._eid
        context = multiprocessing.get_context("fork")
        workers: List[Any] = []
        channels: List[Any] = []
        # Fork first: workers must inherit the untouched pre-run state.
        for group in self.groups:
            drives = [system.drives[index] for index in group]
            parent_conn, child_conn = context.Pipe()
            worker = context.Process(
                target=_shard_worker_main,
                args=(child_conn, env, drives, self.lockstep),
                daemon=True,
            )
            worker.start()
            child_conn.close()
            workers.append(worker)
            channels.append(parent_conn)
        originals = list(system.drives)
        swapped: Dict[int, _ShardProxy] = {}
        try:
            for shard, group in enumerate(self.groups):
                channels[shard].send(("bind", group))
            for index, drive in enumerate(originals):
                proxy_class = (
                    _ShardArmProxy
                    if hasattr(drive, "deconfigure_arm")
                    else _ShardProxy
                )
                proxy = proxy_class(
                    self, self._shard_of_drive[index], index, drive
                )
                system.drives[index] = proxy
                swapped[index] = proxy
            self._rounds(channels)
            self._finish(channels, originals, swapped)
        finally:
            for index, proxy in swapped.items():
                if system.drives[index] is proxy:
                    system.drives[index] = originals[index]
            for conn in channels:
                conn.close()
            for worker in workers:
                worker.join(timeout=30.0)
                if worker.is_alive():  # pragma: no cover - safety net
                    worker.terminate()
                    worker.join(timeout=5.0)

    def _rounds(self, channels: List[Any]) -> None:
        env = self.env
        idle = [False] * self.shards
        high_water = env._now
        while True:
            limit = self._inject_ready()
            self._drain(limit)
            if env._now > high_water:
                high_water = env._now
            bound = self._window_limit()
            if (
                not self._pending
                and not self._scheduled
                and not env._queue
                and all(idle)
            ):
                break
            self.windows += 1
            # Any unresolved injection this window's bound covers will
            # have fired (its ack ships below) and reported its
            # follow-on dispatch by the time the reports are in.
            resolving = [
                index
                for index, completes in self._unresolved.items()
                if completes <= bound
            ]
            for shard, conn in enumerate(channels):
                conn.send((
                    "advance",
                    bound,
                    self._outbox_subs[shard],
                    self._outbox_ctls[shard],
                    self._outbox_acks[shard],
                ))
                self._outbox_subs[shard] = []
                self._outbox_ctls[shard] = []
                self._outbox_acks[shard] = []
            if not self.lockstep:
                self._runahead_shipped = True
            stall_start = time.perf_counter()
            for shard, conn in enumerate(channels):
                message = self._recv(conn, shard)
                if message[0] != "report":  # pragma: no cover - safety
                    raise RuntimeError(
                        f"shard {shard}: expected report, got {message[0]!r}"
                    )
                _, consumed, scheduled, shard_idle, clock, events = message
                idle[shard] = shard_idle
                self.shard_events[shard] = events
                for seq in consumed:
                    record = self._pending.get(seq)
                    if record is not None and record.state == "shipped":
                        record.state = "queued"
                for report in scheduled:
                    record = self._pending.pop(report[0])
                    record.state = "scheduled"
                    record.report = report
                    self._scheduled[record.seq] = record
            for index in resolving:
                self._unresolved.pop(index, None)
            if len(self._scheduled) > self.backlog_peak:
                self.backlog_peak = len(self._scheduled)
            stall_ms = (time.perf_counter() - stall_start) * 1000.0
            self.window_stall_ms += stall_ms
            if self._metrics.enabled:
                self._metrics.histogram(
                    "repro_shard_window_stall_ms",
                    "Wall-clock wait for all shard reports, per window",
                ).observe(stall_ms)
        env._now = high_water

    def _finish(
        self,
        channels: List[Any],
        originals: List[Any],
        swapped: Dict[int, _ShardProxy],
    ) -> None:
        env = self.env
        system = self.system
        tracer = originals[0].tracer
        final_now = env._now
        for shard, conn in enumerate(channels):
            conn.send(("finish",))
            message = self._recv(conn, shard)
            if message[0] != "done":  # pragma: no cover - safety
                raise RuntimeError(
                    f"shard {shard}: expected done, got {message[0]!r}"
                )
            _, state, payload, events, clock = message
            self.shard_events[shard] = events
            if clock > final_now:
                final_now = clock
            for index, stats, arm_state, repositions in state:
                drive = originals[index]
                drive.stats = stats
                if arm_state is not None:
                    for arm, fields in zip(drive.arms, arm_state):
                        (arm.cylinder, arm.busy_until, arm.failed,
                         arm.requests_serviced, arm.seek_time_ms,
                         arm.seeks) = fields
                    drive.repositions = repositions
            if payload is not None and tracer.enabled:
                tracer.merge_payload(payload)
        # The serial clock ends on the last event anywhere; restore the
        # high-water mark so run elapsed time (and power residency)
        # match the serial kernel bit for bit.
        env._now = max(env._now, final_now)
        if tracer.enabled:
            telemetry = tracer.telemetry
            # The engine-level counters a serial env.run() would have
            # recorded, with shard-side events folded in.
            telemetry.counter("engine.runs").inc()
            telemetry.counter("engine.events").inc(
                (env._eid - self._eid_at_entry) + sum(self.shard_events)
            )
            telemetry.gauge("engine.sim_time_ms").set(env._now)
            telemetry.gauge("shards.count").set(self.shards)
            telemetry.gauge("shards.lookahead_ms").set(self.lookahead)
            telemetry.counter("shards.windows").inc(self.windows)
            telemetry.stats("shards.window_stall_ms").add(
                self.window_stall_ms
            )
            total_events = sum(self.shard_events) or 1
            for shard, events in enumerate(self.shard_events):
                telemetry.counter(f"shards.shard{shard}.events").inc(
                    events
                )
                telemetry.stats("shards.utilization").add(
                    events / total_events
                )
        metrics = self._metrics
        if metrics.enabled:
            metrics.counter(
                "repro_shard_windows_total",
                "Synchronization windows executed",
            ).inc(self.windows)
            metrics.counter(
                "repro_shard_stall_ms_total",
                "Total wall-clock lookahead wait across windows",
            ).inc(self.window_stall_ms)
            metrics.gauge(
                "repro_shard_count", "Shards in the last sharded run"
            ).set(self.shards)
            metrics.gauge(
                "repro_shard_lookahead_ms",
                "Provable lookahead of the last sharded run (sim ms)",
            ).set(self.lookahead)
            mode = metrics.gauge(
                "repro_shard_mode",
                "1 for the synchronization mode of the last run",
                labels=("mode",),
            )
            mode.labels(mode="lockstep").set(1 if self.lockstep else 0)
            mode.labels(mode="runahead").set(0 if self.lockstep else 1)
            metrics.gauge(
                "repro_shard_backlog_peak",
                "Peak merged-completion backlog (scheduled, unfired)",
            ).set(self.backlog_peak)
            events_total = metrics.counter(
                "repro_shard_events_total",
                "Events executed inside shard workers",
                labels=("shard",),
            )
            for shard, events in enumerate(self.shard_events):
                events_total.labels(shard=shard).inc(events)

    def _recv(self, conn: Any, shard: int) -> Tuple:
        try:
            message = conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard {shard} worker exited unexpectedly"
            ) from None
        if message[0] == "error":
            raise RuntimeError(
                f"shard {shard} worker failed:\n{message[1]}"
            )
        return message
