"""Tests for the MA/MC overlapped extensions."""

import random

import pytest

from repro.core.extensions import OverlappedParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.faults.policy import RetryPolicy
from repro.sim.engine import Environment


def build(tiny_spec, actuators=2, channels=1, retry_policy=None):
    env = Environment()
    disk = OverlappedParallelDisk(
        env,
        tiny_spec,
        config=DashConfig(arm_assemblies=actuators),
        channels=channels,
        scheduler=FCFSScheduler(),
        retry_policy=retry_policy,
    )
    return env, disk


def burst(disk, count, seed=3):
    rng = random.Random(seed)
    limit = disk.geometry.total_sectors - 16
    return [
        IORequest(lba=rng.randrange(limit), size=8, is_read=False,
                  arrival_time=0.0)
        for _ in range(count)
    ]


def run_all(env, disk, requests):
    done = []
    disk.on_complete.append(done.append)
    for request in requests:
        disk.submit(request)
    env.run()
    return done


class TestConstruction:
    def test_invalid_channels(self, tiny_spec):
        env = Environment()
        with pytest.raises(ValueError):
            OverlappedParallelDisk(env, tiny_spec, channels=0)

    def test_channel_capacity(self, tiny_spec):
        _, disk = build(tiny_spec, actuators=4, channels=2)
        assert disk.channel.capacity == 2


class TestOverlap:
    def test_all_requests_complete(self, tiny_spec):
        env, disk = build(tiny_spec, actuators=2)
        done = run_all(env, disk, burst(disk, 30))
        assert len(done) == 30
        assert all(r.completion_time is not None for r in done)

    def test_ma_within_noise_of_serialized(self, tiny_spec):
        """The MA relaxation provides "little benefit over the
        HC-SD-SA(n) design" (paper §7.2): overlapped seeks are offset
        by greedy arm commitment and channel re-alignment waits, so the
        makespan stays in the same ballpark as the serialised drive."""
        from repro.core.parallel_disk import ParallelDisk

        def makespan(cls, **kwargs):
            env = Environment()
            disk = cls(
                env,
                tiny_spec,
                config=DashConfig(arm_assemblies=2),
                scheduler=FCFSScheduler(),
                **kwargs,
            )
            run_all(env, disk, burst(disk, 40))
            return env.now

        serialized = makespan(ParallelDisk)
        overlapped = makespan(OverlappedParallelDisk)
        assert 0.6 * serialized <= overlapped <= 1.5 * serialized

    def test_multiple_requests_in_flight(self, tiny_spec):
        env, disk = build(tiny_spec, actuators=2)
        in_flight_seen = []

        def probe():
            while disk.outstanding:
                in_flight_seen.append(disk.outstanding - disk.queue_depth)
                yield env.timeout(0.5)

        for request in burst(disk, 10):
            disk.submit(request)
        env.process(probe())
        env.run()
        # At some instant more than one request was being serviced.
        assert max(in_flight_seen) > 1

    def test_mc_not_slower_than_ma(self, tiny_spec):
        def makespan(channels):
            env, disk = build(tiny_spec, actuators=4, channels=channels)
            run_all(env, disk, burst(disk, 40))
            return env.now

        assert makespan(4) <= makespan(1) * 1.05


class TestAccounting:
    def test_stats_cover_all_requests(self, tiny_spec):
        env, disk = build(tiny_spec, actuators=2)
        done = run_all(env, disk, burst(disk, 25))
        assert disk.stats.requests_completed == 25
        media = [r for r in done if not r.cache_hit]
        assert disk.stats.sectors_transferred == sum(
            r.size for r in media
        )

    def test_cache_hits_still_served(self, tiny_spec):
        env, disk = build(tiny_spec, actuators=2)
        first = IORequest(lba=100, size=8, is_read=True, arrival_time=0.0)
        run_all(env, disk, [first])
        second = IORequest(
            lba=100, size=8, is_read=True, arrival_time=env.now
        )
        done = run_all(env, disk, [second])
        assert done[0].cache_hit


class TestRetryPolicy:
    def read_through_fault(self, tiny_spec, retry_policy):
        env, disk = build(tiny_spec, actuators=2, retry_policy=retry_policy)
        disk.inject_media_error(attempts=2)
        read = IORequest(lba=100, size=8, is_read=True, arrival_time=0.0)
        (done,) = run_all(env, disk, [read])
        return done, disk

    def test_single_attempt_leaves_the_error_unrecovered(self, tiny_spec):
        done, disk = self.read_through_fault(
            tiny_spec, RetryPolicy(max_attempts=1)
        )
        assert done.media_error is True
        assert done.retries == 0
        assert disk.stats.unrecovered_errors == 1

    def test_default_policy_recovers(self, tiny_spec):
        done, disk = self.read_through_fault(tiny_spec, None)
        assert done.media_error is False
        assert done.retries == 2
        assert disk.stats.unrecovered_errors == 0
