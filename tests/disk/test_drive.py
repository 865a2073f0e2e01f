"""Tests for the conventional single-actuator drive model."""

import pytest

from repro.disk.drive import ConventionalDrive, DriveStats
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler, SPTFScheduler
from repro.experiments.configs import build_hcsd_drive
from repro.sim.engine import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def drive(env, tiny_spec):
    return ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())


def submit_and_run(env, drive, requests):
    done = []
    for request in requests:
        event = drive.submit(request)
        event.callbacks.append(lambda e: done.append(e.value))
    env.run()
    return done


class TestSingleRequestTiming:
    def test_service_decomposes_into_phases(self, env, drive, tiny_spec):
        request = IORequest(lba=500_000, size=8, is_read=False)
        done = submit_and_run(env, drive, [request])
        assert len(done) == 1
        completed = done[0]
        expected = (
            tiny_spec.controller_overhead_ms
            + completed.seek_time
            + completed.rotational_latency
            + completed.transfer_time
        )
        assert completed.response_time == pytest.approx(expected)

    def test_seek_time_matches_model(self, env, drive):
        request = IORequest(lba=1_000_000, size=8, is_read=False)
        target = drive.geometry.to_physical(request.lba).cylinder
        expected_seek = drive.seek_model.seek_time(
            drive.current_cylinder, target
        )
        done = submit_and_run(env, drive, [request])
        assert done[0].seek_time == pytest.approx(expected_seek)

    def test_rotational_latency_below_one_revolution(self, env, drive):
        request = IORequest(lba=123_456, size=8, is_read=False)
        done = submit_and_run(env, drive, [request])
        assert 0.0 <= done[0].rotational_latency < drive.spindle.period_ms

    def test_head_position_updates(self, env, drive):
        request = IORequest(lba=1_000_000, size=8, is_read=False)
        target = drive.geometry.to_physical(
            request.lba + request.size - 1
        ).cylinder
        submit_and_run(env, drive, [request])
        assert drive.current_cylinder == target

    def test_large_transfer_costs_more(self, env, tiny_spec):
        def run(size):
            env = Environment()
            drive = ConventionalDrive(env, tiny_spec)
            request = IORequest(lba=0, size=size, is_read=False)
            done = submit_and_run(env, drive, [request])
            return done[0].transfer_time

        assert run(256) > run(8)


class TestCachePath:
    def test_second_read_hits_cache(self, env, drive):
        first = IORequest(lba=100, size=8, is_read=True, arrival_time=0.0)
        done = submit_and_run(env, drive, [first])
        assert not done[0].cache_hit
        second = IORequest(
            lba=100, size=8, is_read=True, arrival_time=env.now
        )
        done = submit_and_run(env, drive, [second])
        assert done[0].cache_hit
        assert done[0].response_time < 1.0  # bus speed, no mechanics

    def test_read_ahead_serves_next_sequential_read(self, env, drive):
        first = IORequest(lba=100, size=8, is_read=True)
        submit_and_run(env, drive, [first])
        follow = IORequest(
            lba=108, size=8, is_read=True, arrival_time=env.now
        )
        done = submit_and_run(env, drive, [follow])
        assert done[0].cache_hit

    def test_write_then_read_hits_when_write_cache_enabled(
        self, env, drive
    ):
        write = IORequest(lba=5_000, size=8, is_read=False)
        submit_and_run(env, drive, [write])
        read = IORequest(
            lba=5_000, size=8, is_read=True, arrival_time=env.now
        )
        done = submit_and_run(env, drive, [read])
        assert done[0].cache_hit

    def test_cache_hit_counted_in_stats(self, env, drive):
        submit_and_run(
            env, drive, [IORequest(lba=100, size=8, is_read=True)]
        )
        submit_and_run(
            env,
            drive,
            [IORequest(lba=100, size=8, is_read=True, arrival_time=env.now)],
        )
        assert drive.stats.cache_hits == 1


class TestQueueing:
    def test_fcfs_services_in_arrival_order(self, env, drive):
        order = []
        drive.on_complete.append(lambda r: order.append(r.lba))
        for index, lba in enumerate((900_000, 10_000, 500_000)):
            drive.submit(
                IORequest(lba=lba, size=8, is_read=False,
                          arrival_time=0.0)
            )
        env.run()
        assert order == [900_000, 10_000, 500_000]

    def test_sptf_reorders_queue(self, env, tiny_spec):
        drive = ConventionalDrive(env, tiny_spec, scheduler=SPTFScheduler())
        order = []
        drive.on_complete.append(lambda r: order.append(r.lba))
        near = drive.geometry.to_lba(
            type(drive.geometry.to_physical(0))(
                drive.current_cylinder, 0, 0
            )
        )
        far = 10_000
        # All three are pending at the first decision point; SPTF must
        # prefer the request on the current cylinder despite it being
        # submitted last.
        for lba in (far, far + 8, near):
            drive.submit(IORequest(lba=lba, size=8, is_read=False))
        env.run()
        assert order[0] == near
        assert set(order[1:]) == {far, far + 8}

    def test_queue_depth_and_outstanding(self, env, drive):
        for lba in (0, 1000, 2000):
            drive.submit(IORequest(lba=lba, size=8, is_read=False))
        assert drive.outstanding == 3
        env.run()
        assert drive.outstanding == 0
        assert drive.queue_depth == 0

    def test_completion_event_value_is_request(self, env, drive):
        request = IORequest(lba=0, size=8, is_read=False)
        event = drive.submit(request)
        env.run()
        assert event.value is request

    def test_capacity_overflow_rejected(self, env, drive):
        huge = IORequest(
            lba=drive.geometry.total_sectors - 4, size=8, is_read=False
        )
        with pytest.raises(ValueError):
            drive.submit(huge)


class TestLatencyScaling:
    def test_seek_scale_halves_seek(self, env, tiny_spec):
        def seek_with(scale):
            env = Environment()
            drive = ConventionalDrive(env, tiny_spec, seek_scale=scale)
            done = submit_and_run(
                env, drive, [IORequest(lba=1_500_000, size=8, is_read=False)]
            )
            return done[0].seek_time

        assert seek_with(0.5) == pytest.approx(seek_with(1.0) / 2)
        assert seek_with(0.0) == 0.0

    def test_rotation_scale_zero_eliminates_latency(self, env, tiny_spec):
        drive = ConventionalDrive(env, tiny_spec, rotation_scale=0.0)
        done = submit_and_run(
            env, drive, [IORequest(lba=777_777, size=8, is_read=False)]
        )
        assert done[0].rotational_latency == 0.0

    def test_negative_scale_rejected(self, env, tiny_spec):
        with pytest.raises(ValueError):
            ConventionalDrive(env, tiny_spec, seek_scale=-0.5)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    @pytest.mark.parametrize("knob", ["seek_scale", "rotation_scale"])
    def test_non_finite_scale_rejected(self, env, knob, value):
        # A NaN or infinite scale would price every seek or rotation as
        # nan/inf, so every figure built on the drive would be NaN.
        with pytest.raises(ValueError, match="finite"):
            build_hcsd_drive(env, actuators=2, **{knob: value})


class TestStats:
    def test_mode_times_accumulate(self, env, drive):
        requests = [
            IORequest(lba=lba, size=8, is_read=False)
            for lba in (0, 900_000, 1_700_000)
        ]
        submit_and_run(env, drive, requests)
        stats = drive.stats
        assert stats.requests_completed == 3
        assert stats.seek_ms > 0
        assert stats.rotational_latency_ms >= 0
        assert stats.transfer_ms > 0
        assert stats.sectors_transferred == 24

    def test_busy_plus_idle_equals_elapsed(self, env, drive):
        def producer():
            yield env.timeout(50)
            drive.submit(IORequest(lba=0, size=8, is_read=False,
                                   arrival_time=env.now))

        env.process(producer())
        env.run()
        elapsed = env.now
        stats = drive.stats
        assert stats.busy_ms + stats.idle_ms(elapsed) == pytest.approx(
            elapsed
        )
        fractions = stats.mode_fractions(elapsed)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_mode_fractions_zero_elapsed(self):
        stats = DriveStats()
        fractions = stats.mode_fractions(0.0)
        assert fractions["idle"] == 1.0

    def test_per_arm_seek_recording(self):
        stats = DriveStats()
        stats.record_arm_seek(2, 5.0)
        assert stats.per_arm_seek_ms == [0.0, 0.0, 5.0]

    def test_for_arms_preallocates_shape(self):
        assert DriveStats.for_arms(4).per_arm_seek_ms == [0.0] * 4
        assert DriveStats.for_arms(0).per_arm_seek_ms == [0.0]

    def test_drive_stats_preallocated_from_spec(self, tiny_spec):
        """Regression: per-arm lists used to grow lazily on first seek,
        so two drives' stats had different shapes until both had
        serviced every arm — merging them misaligned the columns."""
        import dataclasses

        env = Environment()
        single = ConventionalDrive(env, tiny_spec)
        assert single.stats.per_arm_seek_ms == [0.0]
        quad_spec = dataclasses.replace(tiny_spec, actuators=4)
        quad = ConventionalDrive(env, quad_spec)
        assert quad.stats.per_arm_seek_ms == [0.0] * 4

    def test_parallel_disk_stats_match_arm_count(self, tiny_spec):
        from repro.core.parallel_disk import ParallelDisk
        from repro.core.taxonomy import DashConfig

        env = Environment()
        disk = ParallelDisk(
            env, tiny_spec, config=DashConfig(arm_assemblies=3)
        )
        assert disk.stats.per_arm_seek_ms == [0.0] * 3


class TestSpindlePhases:
    def test_same_label_drives_decorrelate(self, tiny_spec):
        env = Environment()
        a = ConventionalDrive(env, tiny_spec)
        b = ConventionalDrive(env, tiny_spec)
        assert a.spindle.phase != b.spindle.phase

    def test_fresh_environment_reproduces_phases(self, tiny_spec):
        def phases():
            env = Environment()
            return [
                ConventionalDrive(env, tiny_spec).spindle.phase
                for _ in range(3)
            ]

        assert phases() == phases()
