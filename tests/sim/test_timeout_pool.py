"""The timeout free list and single-waiter direct dispatch.

The engine recycles fired timeouts through a pool and resumes a sole
waiting process directly, skipping callback-list traffic.  These are
pure optimisations: the tests here pin down the cases where they must
be invisible — determinism across identically seeded runs, whole-run
event streams pinned by digest, interrupts that orphan a pooled
timeout mid-flight, and pickling an environment whose pool and
stale-entry accounting are non-empty (the sweep executor ships jobs
across processes).
"""

import hashlib
import pickle
import random

import pytest

from repro.sim.engine import Environment, Interrupt, Timeout


@pytest.fixture
def env():
    return Environment()


class TestPoolRecycling:
    def test_fired_single_waiter_timeout_is_recycled(self, env):
        first = {}

        def proc():
            timeout = env.timeout(1.0)
            first["timeout"] = timeout
            yield timeout

        env.process(proc())
        env.run()
        assert env.timeout(2.0) is first["timeout"]

    def test_recycled_timeout_carries_new_value(self, env):
        values = []

        def proc():
            values.append((yield env.timeout(1.0, "a")))
            values.append((yield env.timeout(1.0, "b")))

        env.process(proc())
        env.run()
        assert values == ["a", "b"]

    def test_directly_constructed_timeout_never_pooled(self, env):
        def proc():
            yield Timeout(env, 1.0)

        env.process(proc())
        env.run()
        assert env._timeout_pool == []

    def test_condition_watched_timeout_not_recycled(self, env):
        # all_of() attaches callbacks, so the timeout has watchers
        # beyond the single waiter slot and must not be reused.
        def proc():
            yield env.all_of([env.timeout(1.0), env.timeout(2.0)])

        env.process(proc())
        env.run()
        assert env._timeout_pool == []

    def test_negative_delay_rejected_on_pooled_path(self, env):
        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert env._timeout_pool  # the pooled branch is the one hit
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout(-1.0)


class TestInterruptWhilePooled:
    def test_orphaned_timeout_counted_stale(self, env):
        def victim():
            try:
                yield env.timeout(10.0)
            except Interrupt:
                pass

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt("stop")

        process = env.process(victim())
        env.process(attacker(process))
        env.run(until=2.0)
        # The 10 ms timeout is still on the heap but nothing watches
        # it; queue-depth telemetry must not count it.
        assert env._stale_events == 1
        assert env.scheduled_events == len(env._queue) - 1

    def test_orphaned_timeout_not_recycled(self, env):
        orphan = {}

        def victim():
            timeout = env.timeout(10.0)
            orphan["timeout"] = timeout
            try:
                yield timeout
            except Interrupt:
                pass

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt("stop")

        process = env.process(victim())
        env.process(attacker(process))
        env.run()
        # The orphan fired with no waiter attached: recycling it would
        # alias a later env.timeout() onto a dead reference.
        assert orphan["timeout"] not in env._timeout_pool
        assert env._stale_events == 0

    def test_rewaiting_orphaned_timeout_revives_it(self, env):
        resumed_at = {}

        def victim():
            timeout = env.timeout(10.0)
            try:
                yield timeout
            except Interrupt:
                pass
            yield timeout  # still pending: wait on it again
            resumed_at["time"] = env.now

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt("stop")

        process = env.process(victim())
        env.process(attacker(process))
        env.run()
        assert resumed_at["time"] == 10.0
        assert env._stale_events == 0
        # Revived and consumed normally, so it is recyclable again.
        assert env._timeout_pool

    def test_interrupt_storm_keeps_accounting_balanced(self, env):
        def victim():
            while True:
                try:
                    yield env.timeout(100.0)
                except Interrupt:
                    continue

        def attacker(target, shots):
            for _ in range(shots):
                yield env.timeout(1.0)
                target.interrupt("again")

        process = env.process(victim())
        env.process(attacker(process, 5))
        env.run(until=50.0)
        # Five orphaned 100 ms timeouts plus one live one.
        assert env._stale_events == 5
        assert env.scheduled_events == len(env._queue) - 5


class TestPoolDeterminism:
    def test_same_seed_same_digest(self):
        from repro.tools.bench import _bench_job, _figures_digest

        first = _bench_job("websearch", 300)
        second = _bench_job("websearch", 300)
        assert first["events"] == second["events"]
        assert _figures_digest([first]) == _figures_digest([second])


def chaotic_run(seed, processes=20, cycles=30):
    """One engine run full of schedule/cancel/revive traffic.

    Each process awaits pooled timeouts (revive: fired timeouts are
    recycled through the pool); sibling processes randomly interrupt
    each other mid-wait (cancel: the interrupted wait's schedule entry
    goes stale and is lazily dropped).  Returns the full resumption
    record — order, simulated times and per-process interrupt counts —
    with the event count and the final clock.
    """
    rng = random.Random(seed)
    env = Environment()
    log = []
    workers = []

    def worker(me):
        interrupted = 0
        for cycle in range(cycles):
            delay = 0.25 + rng.random() * rng.choice([1.0, 10.0, 200.0])
            try:
                yield env.timeout(delay)
            except Interrupt:
                interrupted += 1
            log.append((me, cycle, env.now, interrupted))
            if workers and rng.random() < 0.15:
                victim = workers[rng.randrange(len(workers))]
                if victim.is_alive and victim is not env.active_process:
                    victim.interrupt(cause=me)

    for index in range(processes):
        workers.append(env.process(worker(index)))
    env.run()
    return log, env.total_events, env.now


def ticker_run():
    """Eight processes whose pooled timeouts collide at every tick."""
    env = Environment()
    order = []

    def ticker(name, delay):
        for _ in range(50):
            yield env.timeout(delay)
            order.append((name, env.now))

    for name in range(8):
        env.process(ticker(name, 1.0))
    env.run()
    return order, env.total_events, env.now


def digest(run):
    return hashlib.sha256(repr(run).encode()).hexdigest()


CHAOTIC_DIGESTS = {
    0: "c84837b626de71aed499c4daeb331d5dd95f91a9ca5a343ba02a43e53cbb1df6",
    1: "daae01ada896491121bc25764c343424cb7908fb1dd2e554b848f3062f97f23d",
    2: "2062068ce4c40c0e415e1c5d2905ec2cbe8f89053eeb42ad9a1f66e10f26dd18",
    3: "b1bc8de0072ebd571755918427f44ea56434ec390044e91e3f5683d052d159f4",
    4: "fa0260735c3c891d6f3a866b3df4a6c283c9a92c156fadd194964dbab191da72",
    5: "56dddad16ded6119bb9abe43d7eb49925acb3cf36ed36e729f4b770ac84d50b2",
}


class TestPinnedEventStreams:
    """Whole-run digests of :func:`chaotic_run` and :func:`ticker_run`.

    The values were recorded when the engine could schedule on either
    a calendar queue or a binary heap, and both produced them.  Any
    change to the schedule's ``(time, priority, eid)`` order, the
    timeout pool or lazy deletion moves a digest.
    """

    @pytest.mark.parametrize("seed", sorted(CHAOTIC_DIGESTS))
    def test_cancel_revive_run_digest(self, seed):
        run = chaotic_run(seed)
        if seed == 0:
            assert run[1:] == (720, 1735.5558999505765)
        assert digest(run) == CHAOTIC_DIGESTS[seed]

    def test_equal_time_tickers_digest(self):
        # Serial awaited timeouts recycle through the pool; the pooled
        # fast path must not perturb inter-process order at shared
        # firing times.
        run = ticker_run()
        assert run[0][:8] == [(name, 1.0) for name in range(8)]
        assert digest(run) == (
            "e4bd4d02dfb7d6dbd7b5f5037eac58212d659c247bc76728dc10392710c277dc"
        )


class TestPoolPickle:
    def build_used_env(self):
        env = Environment()

        def victim():
            try:
                yield env.timeout(10.0)
            except Interrupt:
                pass

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt("stop")

        process = env.process(victim())
        env.process(attacker(process))
        env.run(until=2.0)
        return env

    def test_env_with_pool_and_stale_entries_round_trips(self):
        env = self.build_used_env()
        assert env._timeout_pool or env._stale_events
        clone = pickle.loads(pickle.dumps(env))
        assert clone.now == env.now
        assert clone._stale_events == env._stale_events
        assert clone.scheduled_events == env.scheduled_events

    def test_unpickled_env_keeps_running(self):
        env = self.build_used_env()
        clone = pickle.loads(pickle.dumps(env))
        fired = []

        def late():
            yield clone.timeout(1.0)
            fired.append(clone.now)

        clone.process(late())
        clone.run()
        assert fired == [3.0]

    def test_sweep_executor_matches_serial(self):
        from repro.tools.bench import _figures_digest, _jobs
        from repro.experiments.executor import sweep

        jobs = _jobs(("websearch", "financial"), 200)
        serial = sweep(jobs, n_workers=1)
        fanned = sweep(_jobs(("websearch", "financial"), 200), n_workers=2)
        assert _figures_digest(serial) == _figures_digest(fanned)
        assert [o["events"] for o in serial] == [
            o["events"] for o in fanned
        ]
