"""Unit tests for the overlapped dispatcher's wait-for-better-arm rule."""

import pytest

from repro.core.extensions import OverlappedParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.sim.engine import Environment


@pytest.fixture
def disk(tiny_spec):
    env = Environment()
    return OverlappedParallelDisk(
        env,
        tiny_spec,
        config=DashConfig(arm_assemblies=2),
        scheduler=FCFSScheduler(),
    )


class TestWaitForBetterArm:
    def test_never_waits_when_all_arms_idle(self, disk):
        request = IORequest(lba=0, size=8, is_read=False)
        assert not disk._should_wait_for_better_arm(request, 100.0)

    def test_waits_when_busy_arm_is_far_better(self, disk):
        # Park arm 0 (busy) right on the target; leave arm 1 far away.
        target = disk.geometry.to_physical(1000).cylinder
        disk.arms[0].cylinder = target
        disk.arms[0].busy_until = float("inf")
        disk.arms[1].cylinder = disk.geometry.cylinders - 1
        request = IORequest(lba=1000, size=8, is_read=False)
        _, seek, rotation, _ = disk.best_arm_for(request, 0.0)
        assert disk._should_wait_for_better_arm(request, seek + rotation)

    def test_dispatches_when_idle_arm_competitive(self, disk):
        target = disk.geometry.to_physical(1000).cylinder
        disk.arms[0].cylinder = target
        disk.arms[0].busy_until = float("inf")
        disk.arms[1].cylinder = target  # idle arm equally close
        request = IORequest(lba=1000, size=8, is_read=False)
        _, seek, rotation, _ = disk.best_arm_for(request, 0.0)
        assert not disk._should_wait_for_better_arm(
            request, seek + rotation
        )

    def test_include_busy_search_sees_busy_arms(self, disk):
        target = disk.geometry.to_physical(1000).cylinder
        disk.arms[0].cylinder = target
        disk.arms[0].busy_until = float("inf")
        disk.arms[1].cylinder = disk.geometry.cylinders - 1
        request = IORequest(lba=1000, size=8, is_read=False)
        arm, _, _, _ = disk.best_arm_for(request, 0.0, include_busy=True)
        assert arm.arm_id == 0
        arm, _, _, _ = disk.best_arm_for(request, 0.0)
        assert arm.arm_id == 1


class TestMediaFaults:
    def test_armed_fault_is_consumed(self, disk):
        # Two failed attempts, both within the default retry budget:
        # the first read to reach its transfer pays two revolutions,
        # billed as rotational time, and the fault is disarmed.
        disk.inject_media_error(attempts=2)
        done = []
        disk.on_complete.append(done.append)
        for index in range(5):
            disk.submit(
                IORequest(lba=index * 50_000, size=8, is_read=True)
            )
        disk.env.run()
        assert len(done) == 5
        stats = disk.stats
        assert stats.media_errors == 1
        assert stats.media_retries == 2
        assert stats.retry_ms == pytest.approx(2 * disk.spindle.period_ms)
        assert stats.rotational_latency_ms >= stats.retry_ms
        assert [request.retries for request in done].count(2) == 1
        assert not any(request.media_error for request in done)
        assert disk._armed_faults == []

    def test_unrecoverable_fault_marks_request(self, disk):
        disk.inject_media_error(attempts=50)
        done = []
        disk.on_complete.append(done.append)
        disk.submit(IORequest(lba=0, size=8, is_read=True))
        disk.env.run()
        assert done[0].media_error
        assert disk.stats.unrecovered_errors == 1
