"""Tests for the counted Resource."""

import pytest

from repro.sim.engine import Environment
from repro.sim.resources import Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        held = []

        def holder(tag):
            with resource.request() as grant:
                yield grant
                held.append((tag, env.now))
                yield env.timeout(10)

        for tag in range(3):
            env.process(holder(tag))
        env.run()
        # Two grants at t=0; the third waits for a release at t=10.
        assert held == [(0, 0.0), (1, 0.0), (2, 10.0)]

    def test_fifo_granting(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def holder(tag, hold):
            with resource.request() as grant:
                yield grant
                order.append(tag)
                yield env.timeout(hold)

        for tag in range(4):
            env.process(holder(tag, 1))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_count_and_queue(self, env):
        resource = Resource(env, capacity=1)

        def holder():
            with resource.request() as grant:
                yield grant
                yield env.timeout(5)

        def observer(sink):
            yield env.timeout(1)
            sink.append((resource.count, len(resource.queue)))

        sink = []
        env.process(holder())
        env.process(holder())
        env.process(observer(sink))
        env.run()
        assert sink == [(1, 1)]

    def test_release_without_context_manager(self, env):
        resource = Resource(env, capacity=1)
        log = []

        def holder():
            request = resource.request()
            yield request
            log.append("got")
            yield env.timeout(2)
            yield resource.release(request)
            log.append("released")

        env.process(holder())
        env.run()
        assert log == ["got", "released"]

    def test_cancel_waiting_request(self, env):
        resource = Resource(env, capacity=1)
        winners = []

        def holder():
            with resource.request() as grant:
                yield grant
                yield env.timeout(10)

        def impatient():
            request = resource.request()
            yield env.timeout(1)
            request.cancel()
            winners.append("cancelled")

        def patient():
            yield env.timeout(2)
            with resource.request() as grant:
                yield grant
                winners.append(("patient", env.now))

        env.process(holder())
        env.process(impatient())
        env.process(patient())
        env.run()
        # The cancelled request must not absorb the grant at t=10.
        assert ("patient", 10.0) in winners
