"""Tests for the array's retry path, failure accounting, and rebuild
guards added by the robustness layer."""

import pytest

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.experiments.configs import build_raid0_system
from repro.faults.errors import DataLossError
from repro.faults.policy import RetryPolicy
from repro.raid.array import DiskArray
from repro.raid.layout import (
    ConcatLayout,
    JBODLayout,
    Raid0Layout,
    Raid5Layout,
)
from repro.sim.engine import Environment


def build_array(tiny_spec, policy=None, disks=4, unit=2048):
    env = Environment()
    members = [
        ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        for _ in range(disks)
    ]
    layout = Raid5Layout(disks, 50_000, stripe_unit=unit)
    return env, DiskArray(env, members, layout, retry_policy=policy)


def submit_reads(array, count, size=16, stride=64):
    done = []
    array.on_complete.append(done.append)
    for index in range(count):
        array.submit(
            IORequest(lba=index * stride, size=size, is_read=True,
                      arrival_time=0.0)
        )
    return done


class TestArrayRetryPath:
    def test_identical_results_without_faults(self, tiny_spec):
        def responses(policy):
            env, array = build_array(tiny_spec, policy=policy)
            done = submit_reads(array, 8)
            env.run()
            return [r.response_time for r in done]

        # The retry controller is pure overhead-free bookkeeping when
        # nothing fails: response times match the plain path exactly.
        assert responses(RetryPolicy(max_attempts=3)) == responses(None)

    def test_unrecovered_slice_is_resubmitted(self, tiny_spec):
        env, array = build_array(
            tiny_spec, policy=RetryPolicy(max_attempts=3)
        )
        # Severity 10 exhausts the drive budget (3 retries) on the
        # first attempt; the resubmission finds clean media.
        array.drives[0].inject_media_error(attempts=10)
        done = submit_reads(array, 6)
        env.run()
        assert len(done) == 6
        assert array.slice_retries == 1
        assert array.unrecovered_requests == 0
        assert not any(r.media_error for r in done)

    def test_exhausted_attempts_surface_unrecovered(self, tiny_spec):
        env, array = build_array(
            tiny_spec, policy=RetryPolicy(max_attempts=2)
        )
        # Target the first request's physical sectors with one
        # unrecoverable fault per attempt the policy allows, so that
        # request (and only it) exhausts its budget.
        piece = array.layout.map_request(0, 16, True)[0]
        for _ in range(2):
            array.drives[piece.disk].inject_media_error(
                attempts=50, lba=piece.lba
            )
        done = submit_reads(array, 6)
        env.run()
        assert len(done) == 6
        assert array.unrecovered_requests == 1
        assert sum(1 for r in done if r.media_error) == 1

    def test_deadline_miss_recorded_not_cancelled(self, tiny_spec):
        env, array = build_array(
            tiny_spec, policy=RetryPolicy(max_attempts=2, timeout_ms=0.5)
        )
        done = submit_reads(array, 4)
        env.run()
        # Sub-millisecond deadline: every slice overruns, but media
        # work cannot be cancelled so all requests still complete.
        assert len(done) == 4
        assert array.deadline_misses > 0

    def test_no_misses_with_generous_deadline(self, tiny_spec):
        env, array = build_array(
            tiny_spec, policy=RetryPolicy(max_attempts=2,
                                          timeout_ms=10_000.0)
        )
        done = submit_reads(array, 4)
        env.run()
        assert len(done) == 4
        assert array.deadline_misses == 0


class TestFailureAccounting:
    def test_degraded_time_accumulates(self, tiny_spec):
        env, array = build_array(tiny_spec)
        array.fail_drive(1)
        assert array.degraded_time_ms() == 0.0
        done = submit_reads(array, 4)
        env.run()
        assert len(done) == 4
        assert array.degraded_time_ms() == pytest.approx(env.now)
        assert array.drive_failures == 1

    def test_degraded_window_closed_by_rebuild(self, tiny_spec):
        env, array = build_array(tiny_spec)
        array.fail_drive(2)
        array.rebuild(
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        )
        env.run()
        closed = array.degraded_time_ms()
        assert closed > 0.0
        assert closed == array.rebuild_window_ms
        # No longer accumulating once healed.
        assert array.degraded_time_ms(now=env.now + 500.0) == closed


class TestRebuildGuards:
    def test_second_rebuild_rejected_while_running(self, tiny_spec):
        env, array = build_array(tiny_spec)
        array.fail_drive(0)
        array.rebuild(
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        )
        with pytest.raises(RuntimeError, match="already in progress"):
            array.rebuild(
                ConventionalDrive(env, tiny_spec,
                                  scheduler=FCFSScheduler())
            )

    def test_rebuild_allowed_again_after_completion(self, tiny_spec):
        env, array = build_array(tiny_spec)
        array.fail_drive(0)
        array.rebuild(
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        )
        env.run()
        assert array.failed_disk is None
        array.fail_drive(3)
        array.rebuild(
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        )
        env.run()
        assert array.failed_disk is None

    def test_rebuild_under_load_completes_everything(self, tiny_spec):
        env, array = build_array(tiny_spec)
        array.fail_drive(1)
        done = submit_reads(array, 10)

        def start_rebuild():
            yield env.timeout(1.0)
            array.rebuild(
                ConventionalDrive(env, tiny_spec,
                                  scheduler=FCFSScheduler())
            )

        env.process(start_rebuild())
        env.run()
        assert len(done) == 10
        assert array.failed_disk is None
        assert array.rebuild_window_ms is not None

    def test_loaded_rebuild_no_faster_than_idle(self, tiny_spec):
        def window(load):
            env, array = build_array(tiny_spec)
            array.fail_drive(1)
            if load:
                submit_reads(array, 20)
            array.rebuild(
                ConventionalDrive(env, tiny_spec,
                                  scheduler=FCFSScheduler())
            )
            env.run()
            return array.rebuild_window_ms

        assert window(True) >= window(False)


class TestNonRedundantFailure:
    """A member failure on a layout without redundancy loses the data.

    JBOD, concatenation and RAID-0 (the request fits one stripe unit)
    serve a logical request in place on its drive; the in-flight
    request fails with DataLossError and the drive's late completion
    changes nothing but the request's address, which reads logical
    again.  The request sits on source disk 1, so concatenation maps
    it at a non-zero base, and in RAID-0's third stripe unit, so its
    drive address differs too.
    """

    @pytest.fixture(params=["raid0", "jbod", "concat"])
    def failing_array(self, request, tiny_spec):
        env = Environment()
        members = [
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
            for _ in range(1 if request.param == "concat" else 2)
        ]
        if request.param == "raid0":
            layout = Raid0Layout(2, 50_000, stripe_unit=64)
        elif request.param == "jbod":
            layout = JBODLayout([50_000] * 2)
        else:
            layout = ConcatLayout([50_000] * 2)
        return env, DiskArray(env, members, layout)

    @staticmethod
    def in_flight_request():
        return IORequest(
            lba=128, size=64, is_read=True, arrival_time=0.0, source_disk=1
        )

    def test_outstanding_requests_fail_deterministically(
        self, failing_array
    ):
        env, array = failing_array
        request = self.in_flight_request()
        outcomes = []

        def client():
            completion = array.submit(request)
            try:
                yield completion
                outcomes.append("completed")
            except DataLossError:
                outcomes.append("lost")

        def failer():
            yield env.timeout(0.01)
            array.fail_drive(0)

        env.process(client())
        env.process(failer())
        env.run()
        assert outcomes == ["lost"]
        assert array.aborted_requests == 1
        assert array.outstanding == 0
        assert array.requests_completed == 0
        # The drive finished the access after the abort.
        assert sum(d.stats.requests_completed for d in array.drives) == 1
        assert request.lba == 128
        assert request.source_disk == 1

    def test_fire_and_forget_submissions_are_safe(self, failing_array):
        # Nobody waits on the completion event; the abort must defuse
        # it rather than crash the run with an unhandled failure.
        env, array = failing_array
        request = self.in_flight_request()
        array.submit(request)

        def failer():
            yield env.timeout(0.01)
            array.fail_drive(0)

        env.process(failer())
        env.run()
        assert array.aborted_requests == 1
        assert array.outstanding == 0
        assert request.lba == 128


class TestStraddlingSliceError:
    """An unrecovered slice reaches the logical request even when
    another slice finishes after it."""

    @pytest.mark.parametrize(
        "policy",
        [None, RetryPolicy(max_attempts=1)],
        ids=["no-policy", "policy"],
    )
    def test_reported_whichever_slice_finishes_last(self, policy):
        env = Environment()
        system = build_raid0_system(env, 2)
        if policy is not None:
            system = DiskArray(
                env, system.drives, system.layout, retry_policy=policy
            )
        first, second = system.drives
        unit = system.layout.stripe_unit
        # Queue work on drive 1 so its slice of the request finishes
        # after drive 0's failing one.
        for index in range(1, 5):
            second.submit(
                IORequest(lba=index * 10_000_000, size=64, is_read=True)
            )
        first.inject_media_error(attempts=64, lba=unit - 4)
        first_done = []
        first.on_complete.append(first_done.append)
        request = IORequest(lba=unit - 8, size=16, is_read=True)
        assert len(system.layout.map_request(
            request.lba, request.size, request.is_read
        )) == 2
        system.submit(request)
        env.run()
        assert first.stats.unrecovered_errors == 1
        assert request.completion_time > first_done[0].completion_time
        assert request.media_error
        assert request.retries == first.stats.media_retries > 0
        assert system.unrecovered_requests == 1

    def test_counted_when_served_in_place(self):
        env = Environment()
        system = build_raid0_system(env, 2)
        system.drives[0].inject_media_error(attempts=64, lba=4)
        request = IORequest(lba=0, size=16, is_read=True)
        system.submit(request)
        env.run()
        assert request.media_error
        assert system.unrecovered_requests == 1
