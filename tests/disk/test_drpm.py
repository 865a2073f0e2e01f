"""Tests for the dynamic-RPM (DRPM) drive."""

import pytest

from repro.disk.drpm import DynamicRpmDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.disk.specs import BARRACUDA_ES
from repro.sim.engine import Environment


def make_drive(tiny_spec, env=None, **kwargs):
    env = env or Environment()
    defaults = dict(
        scheduler=FCFSScheduler(),
        spin_down_idle_ms=100.0,
        transition_ms_per_step=20.0,
        control_interval_ms=10.0,
    )
    defaults.update(kwargs)
    return env, DynamicRpmDrive(env, tiny_spec, **defaults)


class TestValidation:
    def test_levels_must_be_descending(self, tiny_spec):
        env = Environment()
        with pytest.raises(ValueError):
            DynamicRpmDrive(env, tiny_spec, rpm_levels=(4200, 7200))

    def test_needs_levels(self, tiny_spec):
        env = Environment()
        with pytest.raises(ValueError):
            DynamicRpmDrive(env, tiny_spec, rpm_levels=())

    def test_spec_rpm_snapped_to_top_level(self, tiny_spec):
        _, drive = make_drive(tiny_spec, rpm_levels=(5400.0, 4200.0))
        assert drive.spec.rpm == 5400.0
        assert drive.current_rpm == 5400.0


class TestSpinDown:
    def test_spins_down_after_sustained_idle(self, tiny_spec):
        env, drive = make_drive(tiny_spec)

        def one_request_then_idle():
            drive.submit(IORequest(lba=0, size=8, is_read=False,
                                   arrival_time=env.now))
            yield env.timeout(600.0)

        env.process(one_request_then_idle())
        env.run()
        assert drive.current_rpm < drive.rpm_levels[0]
        assert drive.transitions >= 1

    def test_parks_at_bottom_and_run_drains(self, tiny_spec):
        env, drive = make_drive(tiny_spec)

        def idle_forever():
            yield env.timeout(2000.0)

        env.process(idle_forever())
        env.run()  # must terminate despite the control loop
        assert drive.current_rpm == drive.rpm_levels[-1]

    def test_speed_changes_keep_each_drives_phase(self):
        # Three idle steps take both drives to 4200 RPM; each must keep
        # the phase it was built with, or every DRPM drive of an
        # environment would spin in lockstep after its first step.
        env = Environment()
        first = DynamicRpmDrive(env, BARRACUDA_ES)
        second = DynamicRpmDrive(env, BARRACUDA_ES)
        env.run(until=2000.0)
        assert first.transitions == second.transitions == 3
        assert first.spindle.rpm == second.spindle.rpm == 4200.0
        assert first.spindle.phase == pytest.approx(0.022, abs=5e-4)
        assert second.spindle.phase == pytest.approx(0.110, abs=5e-4)

    def test_residency_accounted(self, tiny_spec):
        env, drive = make_drive(tiny_spec)

        def idle():
            yield env.timeout(1000.0)

        env.process(idle())
        env.run()
        drive._note_residency()
        total = sum(drive.rpm_residency_ms.values())
        assert total == pytest.approx(env.now, rel=1e-6)
        assert drive.rpm_residency_ms[drive.rpm_levels[-1]] > 0


class TestSpinUp:
    def test_wakes_and_returns_to_full_speed(self, tiny_spec):
        env, drive = make_drive(tiny_spec)
        responses = []
        drive.on_complete.append(
            lambda r: responses.append(r.response_time)
        )

        def scenario():
            # Let the drive fall asleep...
            yield env.timeout(800.0)
            assert drive.current_rpm == drive.rpm_levels[-1]
            # ...then hit it with work.
            for index in range(5):
                drive.submit(
                    IORequest(
                        lba=index * 100_000,
                        size=8,
                        is_read=False,
                        arrival_time=env.now,
                    )
                )
                yield env.timeout(1.0)

        env.process(scenario())
        env.run()
        assert len(responses) == 5
        assert drive.at_full_speed or drive.outstanding == 0

    def test_transition_penalty_visible_in_latency(self, tiny_spec):
        """The first request after a sleep pays the spin-up delay."""
        env, drive = make_drive(
            tiny_spec, transition_ms_per_step=100.0
        )
        late_response = []

        def scenario():
            yield env.timeout(800.0)  # drive now at the bottom level
            request = IORequest(
                lba=0, size=8, is_read=False, arrival_time=env.now
            )
            event = drive.submit(request)
            yield event
            late_response.append(request.response_time)

        env.process(scenario())
        env.run()
        # Must include several transition steps back to full speed OR
        # slow-speed service; either way well above a fast-path service.
        assert late_response[0] > 10.0


class TestPower:
    def test_sleepy_drive_draws_less(self, tiny_spec):
        def average_power(idle_ms):
            env, drive = make_drive(tiny_spec)

            def scenario():
                drive.submit(
                    IORequest(lba=0, size=8, is_read=False)
                )
                yield env.timeout(idle_ms)

            env.process(scenario())
            env.run()
            return drive.average_power_watts()

        assert average_power(5000.0) < average_power(120.0)

    def test_average_power_requires_positive_elapsed(self, tiny_spec):
        env, drive = make_drive(tiny_spec)
        with pytest.raises(ValueError):
            drive.average_power_watts(elapsed_ms=0.0)
