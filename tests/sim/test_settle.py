"""``Event.settle``: trigger like ``succeed``, schedule only if watched."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Environment, Interrupt, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestUnwatched:
    def test_processed_in_place(self, env):
        event = env.event()
        total, scheduled = env.total_events, env.scheduled_events
        assert event.settle(7) is event
        assert event.triggered and event.processed
        assert event.ok and event.value == 7
        assert env.total_events == total
        assert env.scheduled_events == scheduled
        env.run()
        assert env.now == 0.0
        assert env.total_events == total

    def test_run_never_dispatches_it(self, env):
        log = []

        def ticker():
            for _ in range(3):
                yield env.timeout(1.0)
                log.append(env.now)

        env.process(ticker())
        env.run(until=1.5)
        before = env.total_events
        env.event().settle()
        env.run()
        assert log == [1.0, 2.0, 3.0]
        # Only the ticker's two remaining timeouts were scheduled.
        assert env.total_events == before + 2

    def test_later_yield_resumes_at_once(self, env):
        event = env.event()
        seen = []

        def late():
            yield env.timeout(5.0)
            value = yield event
            seen.append((env.now, value))

        env.process(late())
        env.run(until=1.0)
        event.settle("done")
        env.run()
        assert seen == [(5.0, "done")]

    def test_condition_over_settled_event(self, env):
        event = env.event().settle(1)
        both = env.all_of([event, env.timeout(2.0, value=2)])
        env.run()
        assert both.value.todict() == {event: 1, both._events[1]: 2}

    def test_orphaned_event_keeps_queue_depth_exact(self, env):
        event = env.event()

        def victim():
            try:
                yield event
            except Interrupt:
                pass

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt()

        target = env.process(victim())
        env.process(attacker(target))
        env.run()
        event.settle()
        assert env.scheduled_events == len(env._queue) == 0


def _watched_run(trigger_name, watch):
    """One completion watched by ``watch``; returns (log, events, now)."""
    env = Environment()
    log = []
    completion = env.event()

    def waiter(tag):
        value = yield completion
        log.append((tag, env.now, value))

    def server():
        yield env.timeout(1.0)
        getattr(completion, trigger_name)("v")
        log.append(("server", env.now, None))

    if "waiter" in watch:
        env.process(waiter("first"))
    if "callback" in watch:
        completion.callbacks.append(
            lambda event: log.append(("callback", env.now, event.value))
        )
    if "two-waiters" in watch:
        env.process(waiter("second"))
    env.process(server())
    env.run()
    return log, env.total_events, env.now


class TestWatched:
    @pytest.mark.parametrize(
        "watch",
        [("waiter",), ("callback",), ("waiter", "callback"),
         ("waiter", "two-waiters")],
    )
    def test_dispatches_like_succeed(self, watch):
        settled = _watched_run("settle", watch)
        assert settled == _watched_run("succeed", watch)
        log, _, _ = settled
        assert log[0] == ("server", 1.0, None)
        assert len(log) > 1


class TestMisuse:
    def test_settle_twice(self, env):
        event = env.event()
        event.settle()
        with pytest.raises(SimulationError):
            event.settle()

    def test_settle_after_succeed(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.settle()

    def test_succeed_after_settle(self, env):
        event = env.event()
        event.settle()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_settle_a_timeout(self, env):
        with pytest.raises(SimulationError):
            env.timeout(1.0).settle()


#: Delays from a small set, so completions and ticks often tie.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_WATCH = st.sampled_from(["none", "waiter", "callback", "both"])
_JOBS = st.lists(st.tuples(_DELAYS, _DELAYS, _WATCH), max_size=12)
_TICKERS = st.lists(st.lists(_DELAYS, min_size=1, max_size=4), max_size=3)


def _model(jobs, tickers, settle):
    """Servers trigger completions, watched or not, among tickers.

    Returns the ordered log of every watched dispatch and tick, the
    number of events scheduled and the final clock.
    """
    env = Environment()
    log = []

    def waiter(job, event):
        value = yield event
        log.append(("wait", job, env.now, value))

    def server(job, start, service, watch):
        yield env.timeout(start)
        completion = env.event()
        if watch in ("waiter", "both"):
            env.process(waiter(job, completion))
        if watch in ("callback", "both"):
            completion.callbacks.append(
                lambda event: log.append(("callback", job, env.now))
            )
        yield env.timeout(service)
        if settle:
            completion.settle(job)
        else:
            completion.succeed(job)

    def ticker(name, delays):
        for delay in delays:
            yield env.timeout(delay)
            log.append(("tick", name, env.now))

    for job, (start, service, watch) in enumerate(jobs):
        env.process(server(job, start, service, watch))
    for name, delays in enumerate(tickers):
        env.process(ticker(name, delays))
    env.run()
    return log, env.total_events, env.now


@settings(max_examples=200, deadline=None)
@given(jobs=_JOBS, tickers=_TICKERS)
def test_settle_drops_exactly_the_unwatched_dispatches(jobs, tickers):
    log, events, now = _model(jobs, tickers, settle=False)
    settled_log, settled_events, settled_now = _model(
        jobs, tickers, settle=True
    )
    assert settled_log == log
    assert settled_now == now
    unwatched = sum(1 for _, _, watch in jobs if watch == "none")
    assert events - settled_events == unwatched
