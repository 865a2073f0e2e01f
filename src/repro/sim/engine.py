"""Core discrete-event engine: environment, events, processes.

The engine is deliberately small and deterministic:

* Simulated time is a float (this package uses milliseconds throughout).
* Events are totally ordered by ``(time, priority, sequence)``, so two
  events scheduled for the same instant fire in scheduling order.  The
  schedule is one binary heap (:mod:`heapq`) of ``(time, priority,
  sequence, event)`` tuples; sequence numbers are unique, so the event
  itself is never compared.
* A :class:`Process` wraps a generator.  The generator yields events;
  when a yielded event triggers, the process is resumed with the event's
  value (or the event's exception is thrown into it).

Three fast paths keep the hot loop lean without changing the total
order or any observable value:

* **Timeout pooling** — :meth:`Environment.timeout` recycles fired
  timeouts through a free list, so the steady-state cost of a timeout
  is a handful of slot stores plus one heap push.  A recycled timeout
  is *engine-owned* once it has fired: holding a reference to it past
  the resumption it caused is undefined (the drives and runners in
  this package never do).  Timeouts that anything else still watches —
  a :class:`Condition` membership, an explicit ``callbacks`` entry, a
  ``run(until=...)`` stop hook — are never recycled.
* **Single-waiter direct dispatch** — when exactly one process waits
  on an event and nothing else registered a callback, the waiter is
  parked in the event's ``_waiter`` slot instead of a callbacks list
  and resumed directly at dispatch.  The waiter slot is only ever used
  when the callbacks list is empty, so it is always the would-be-first
  callback and dispatch order is unchanged.
* **Lazy deletion** — an interrupt can orphan the event its victim was
  waiting on; the dead heap entry stays put and is discarded when it
  surfaces.  Orphans are counted so :attr:`Environment.scheduled_events`
  (the live queue depth) never drifts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

#: Default priority for ordinary events.
NORMAL = 1
#: Priority used for "urgent" bookkeeping events (fire before NORMAL ones
#: scheduled at the same instant).
URGENT = 0


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (just created),
    *triggered* (a value or exception has been set and the event is on
    the schedule), and *processed* (its callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "_waiter",
                 "_stale")

    #: Overridden per-instance (as a slot) on pool-managed timeouts;
    #: plain events fall back to this class attribute.
    _pooled = False

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: Set by a waiter to mark a failure as handled, suppressing the
        #: crash-the-run behaviour for unhandled failures.
        self.defused = False
        #: Sole waiting process when no callbacks list is in play.
        self._waiter: Optional["Process"] = None
        #: True for a heap entry nothing watches any more (lazy deletion).
        self._stale = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (already triggered) event."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self, NORMAL, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._ok is None
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    Instances built through :meth:`Environment.timeout` are pool-managed:
    once fired and consumed they may be recycled for a later timeout.
    Directly constructed instances are never recycled.
    """

    __slots__ = ("delay", "_pooled")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + _schedule: this constructor runs once
        # per simulated I/O phase, so every skipped call counts.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self._waiter = None
        self._stale = False
        self._pooled = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))


class Initialize(Event):
    """Internal: first resumption of a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self.defused = False
        self._waiter = None
        self._stale = False
        env._eid += 1
        heappush(env._queue, (env._now, URGENT, env._eid, self))


class Process(Event):
    """A running generator; also an event that triggers on termination."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self.defused = False
        self._waiter = None
        self._stale = False
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._ok is not None:
            raise SimulationError("cannot interrupt a terminated process")
        if self._target is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, URGENT, 0.0)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        while True:
            # Detach from the event that woke us.  When this resumption
            # was caused by the target itself, its callbacks are already
            # None and both branches are skipped; an interrupt leaves
            # the old target live, and detaching may orphan it.
            target = self._target
            if target is not None:
                if target._waiter is self:
                    target._waiter = None
                    if not target.callbacks:
                        target._stale = True
                        env._stale_events += 1
                elif target.callbacks is not None:
                    try:
                        target.callbacks.remove(self._resume)
                    except ValueError:
                        pass
                    else:
                        if not target.callbacks and target._waiter is None:
                            target._stale = True
                            env._stale_events += 1
            self._target = None
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL, env._eid, self))
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL, env._eid, self))
                break
            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = exc
                env._schedule(self, NORMAL, 0.0)
                break
            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait.
                self._target = next_event
                if callbacks or next_event._waiter is not None:
                    callbacks.append(self._resume)
                else:
                    # Sole watcher: park in the waiter slot instead of
                    # the (empty) callbacks list.  Revive the entry if
                    # an interrupt had orphaned it earlier.
                    next_event._waiter = self
                    if next_event._stale:
                        next_event._stale = False
                        env._stale_events -= 1
                break
            # Event already processed: continue immediately with its value.
            event = next_event
        env._active_process = None


class ConditionValue:
    """Mapping-like view of the events collected by a condition."""

    def __init__(self, events: List[Event]):
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def todict(self) -> dict:
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event over several child events."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        if self._evaluate(self._events, 0) and not self._events:
            self.succeed(ConditionValue([]))
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
                if event._stale:
                    event._stale = False
                    env._stale_events -= 1

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            # Only *processed* events belong in the result: a Timeout
            # is "triggered" from creation but has not occurred until
            # its callbacks run.  The event firing right now is already
            # marked processed by Environment.step().
            done = [
                e
                for e in self._events
                if e.processed and e._ok
            ]
            self.succeed(ConditionValue(done))


class AllOf(Condition):
    """Triggers when every child event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda events, count: count >= len(events), events)


class AnyOf(Condition):
    """Triggers when at least one child event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda events, count: count >= 1, events)


class EmptySchedule(Exception):
    """Internal: raised by :meth:`Environment.step` when nothing remains."""


class Environment:
    """Owns simulated time and the pending-event schedule.

    ``tracer`` optionally attaches an observability tracer
    (:mod:`repro.obs`) to this environment: components built against
    the environment resolve it via ``repro.obs.tracer_for`` and the
    engine itself records run-level telemetry (events dispatched,
    final simulated time) when a tracer is enabled.  ``None`` (the
    default) falls back to the ambient tracer, which is the zero-cost
    null tracer unless a traced session is active.
    """

    def __init__(self, initial_time: float = 0.0, tracer: Any = None):
        self._now = float(initial_time)
        #: The pending-event schedule: a heap of ``(time, priority, eid,
        #: event)`` tuples.
        self._queue: List[tuple] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Free list of fired timeouts available for reuse.
        self._timeout_pool: List[Timeout] = []
        #: Heap entries nothing watches any more (lazy deletion).
        self._stale_events = 0
        self.tracer = tracer

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Events currently on the schedule that something still watches.

        Stale entries — heap slots orphaned by an interrupt and awaiting
        lazy deletion — are excluded, so queue-depth telemetry does not
        drift on long runs.  For the cumulative count that the bench
        reports events/sec against, see :attr:`total_events`.
        """
        return len(self._queue) - self._stale_events

    @property
    def total_events(self) -> int:
        """Total events ever scheduled (the bench's events/sec basis)."""
        return self._eid

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A pool-managed timeout: recycled once fired and consumed.

        Holding a reference to the returned timeout past the resumption
        it causes is undefined; timeouts held by conditions or explicit
        callbacks are detected and never recycled.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            timeout = pool.pop()
            timeout.delay = delay
            timeout._value = value
            timeout._ok = True
            timeout.defused = False
            self._eid += 1
            heappush(
                self._queue, (self._now + delay, NORMAL, self._eid, timeout)
            )
            return timeout
        timeout = Timeout(self, delay, value)
        timeout._pooled = True
        return timeout

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def schedule_at(
        self, event: Event, time: float, priority: int = NORMAL
    ) -> None:
        """Place an already-triggered ``event`` on the schedule at an
        absolute ``time``.

        This is the cross-shard injection primitive used by the sharded
        coordinator (:mod:`repro.sim.sharded`): a completion that fired
        inside a shard is re-materialised in the controller environment
        at its exact firing time, taking a fresh sequence number so it
        orders after events already scheduled for the same instant —
        exactly where the serial kernel would have placed it relative
        to work created later.  ``time`` may be earlier than ``now``;
        the caller is the time authority and guarantees it drains the
        schedule in time order.
        """
        if event._ok is None:
            raise SimulationError(
                "schedule_at() requires a triggered event; set its "
                "outcome before scheduling"
            )
        self._eid += 1
        heappush(self._queue, (time, priority, self._eid, event))

    def step(self) -> None:
        """Process the next scheduled event."""
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        if event._stale:
            event._stale = False
            self._stale_events -= 1
        waiter = event._waiter
        callbacks, event.callbacks = event.callbacks, None
        if waiter is not None:
            event._waiter = None
            waiter._resume(event)
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event.defused:
            # Unhandled failure: crash the run, as SimPy does.
            raise event._value
        if waiter is not None and event._pooled and not callbacks:
            event.callbacks = callbacks
            self._timeout_pool.append(event)

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or schedule exhaustion).

        If ``until`` is an event, returns that event's value once it
        triggers.  If it is a number, runs until simulated time reaches
        it.  If ``None``, runs until no events remain.
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                # Urgent so the clock stops before same-time events fire.
                self._eid += 1
                heappush(self._queue, (at, URGENT, self._eid, stop))
            stop.callbacks.append(_StopSignal.throw)
        # Inlined step() loop: one event dispatch per iteration with the
        # queue and the timeout free list bound to locals.  This loop is
        # the hottest frame of every simulation, so it avoids the
        # per-event attribute lookups of the public step() API; heappop
        # signals exhaustion by raising IndexError, which costs nothing
        # on the non-raising iterations.
        queue = self._queue
        pool_append = self._timeout_pool.append
        eid_at_entry = self._eid
        try:
            while True:
                try:
                    self._now, _, _, event = heappop(queue)
                except IndexError:
                    break
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    callbacks = event.callbacks
                    if not callbacks:
                        # Single-waiter fast path: resume the owning
                        # process directly, then recycle the timeout.
                        event.callbacks = None
                        if event._stale:
                            event._stale = False
                            self._stale_events -= 1
                        waiter._resume(event)
                        if event._ok is False and not event.defused:
                            raise event._value
                        if event._pooled:
                            event.callbacks = callbacks
                            pool_append(event)
                        continue
                    # Waiter plus later callbacks: the waiter attached
                    # first, so it is dispatched first.
                    event.callbacks = None
                    if event._stale:
                        event._stale = False
                        self._stale_events -= 1
                    waiter._resume(event)
                    for callback in callbacks:
                        callback(event)
                    if event._ok is False and not event.defused:
                        raise event._value
                    continue
                callbacks, event.callbacks = event.callbacks, None
                if event._stale:
                    event._stale = False
                    self._stale_events -= 1
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
            # Schedule exhausted.
            if stop is not None and stop.callbacks is not None:
                if isinstance(until, Event):
                    raise SimulationError(
                        "run(until=event): event was never triggered"
                    ) from None
        except _StopSignal as signal:
            return signal.value
        finally:
            self._record_run_telemetry(eid_at_entry)
        return None

    def run_bounded(self, bound: float) -> int:
        """Fire every event scheduled at or before ``bound``; return how
        many fired.

        This is the window barrier of the sharded kernel: a shard
        advances its local clock through one conservative window and
        stops, leaving events beyond ``bound`` untouched.  Unlike
        ``run(until=...)`` no stop event is scheduled, so calling this
        in a loop perturbs neither event ids nor the timeout pool — a
        run split into arbitrary ``run_bounded`` segments fires exactly
        the events, in exactly the order, of one ``run()``.  The clock
        is left at the last fired event, not advanced to ``bound``.

        The timeout free list stays per-environment (per-shard): a
        timeout recycled here can only be reused by this environment,
        so pooling across window barriers cannot leak state between
        shards.  Run-level telemetry is not recorded — the caller owns
        the run lifecycle.
        """
        # Inlined step() loop, as in run(): see the comments there.  The
        # window barrier is the head's time passing ``bound``.
        queue = self._queue
        pool_append = self._timeout_pool.append
        fired = 0
        while queue and queue[0][0] <= bound:
            self._now, _, _, event = heappop(queue)
            fired += 1
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                callbacks = event.callbacks
                if not callbacks:
                    event.callbacks = None
                    if event._stale:
                        event._stale = False
                        self._stale_events -= 1
                    waiter._resume(event)
                    if event._ok is False and not event.defused:
                        raise event._value
                    if event._pooled:
                        event.callbacks = callbacks
                        pool_append(event)
                    continue
                event.callbacks = None
                if event._stale:
                    event._stale = False
                    self._stale_events -= 1
                waiter._resume(event)
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
                continue
            callbacks, event.callbacks = event.callbacks, None
            if event._stale:
                event._stale = False
                self._stale_events -= 1
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event.defused:
                raise event._value
        return fired

    def _record_run_telemetry(self, eid_at_entry: int) -> None:
        """Engine-level counters for an enabled tracer (no-op otherwise)."""
        tracer = self.tracer
        if tracer is None:
            from repro.obs.tracer import current_tracer

            tracer = current_tracer()
        if not tracer.enabled:
            return
        telemetry = tracer.telemetry
        telemetry.counter("engine.runs").inc()
        telemetry.counter("engine.events").inc(self._eid - eid_at_entry)
        telemetry.gauge("engine.sim_time_ms").set(self._now)


class _StopSignal(Exception):
    """Internal control-flow exception used by :meth:`Environment.run`."""

    def __init__(self, value: Any):
        super().__init__(value)
        self.value = value

    @staticmethod
    def throw(event: Event) -> None:
        if event._ok:
            raise _StopSignal(event._value)
        event.defused = True
        raise event._value
