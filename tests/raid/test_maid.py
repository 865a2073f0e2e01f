"""Tests for the MAID (spin-down) array."""

import pytest

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.raid.layout import JBODLayout
from repro.raid.maid import MaidArray
from repro.sim.engine import Environment


def build(tiny_spec, disks=3, **kwargs):
    env = Environment()
    members = [
        ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        for _ in range(disks)
    ]
    capacity = members[0].geometry.total_sectors
    defaults = dict(
        spin_down_idle_ms=500.0, spin_up_ms=1000.0, standby_watts=1.0
    )
    defaults.update(kwargs)
    array = MaidArray(
        env, members, JBODLayout([capacity] * disks), **defaults
    )
    return env, array


class TestValidation:
    def test_bad_parameters(self, tiny_spec):
        with pytest.raises(ValueError):
            build(tiny_spec, spin_down_idle_ms=0)
        with pytest.raises(ValueError):
            build(tiny_spec, spin_up_ms=-1)
        with pytest.raises(ValueError):
            build(tiny_spec, standby_watts=-1)


class TestRejectedExtent:
    def test_member_rejection_raises_from_submit(self, tiny_spec):
        # A layout sized past its members maps the top extent beyond
        # member 0's last sector.
        env = Environment()
        members = [
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
            for _ in range(2)
        ]
        capacity = members[0].geometry.total_sectors
        array = MaidArray(env, members, JBODLayout([capacity + 8] * 2))
        request = IORequest(lba=capacity, size=8, is_read=True)
        with pytest.raises(ValueError, match="exceeds drive capacity"):
            array.submit(request)
        assert request.lba == capacity
        assert array.outstanding == 0
        env.run()


class TestSpinDown:
    def test_idle_members_spin_down(self, tiny_spec):
        env, array = build(tiny_spec)
        observed = []

        def scenario():
            yield env.timeout(3000.0)
            observed.extend(array.spun_down_members())

        env.process(scenario())
        env.run()
        assert sorted(observed) == [0, 1, 2]

    def test_run_drains_when_everything_sleeps(self, tiny_spec):
        env, array = build(tiny_spec)

        def scenario():
            yield env.timeout(5000.0)

        env.process(scenario())
        env.run()  # controller parks; schedule empties
        assert len(array.spun_down_members()) == 3

    def test_active_member_stays_up(self, tiny_spec):
        env, array = build(tiny_spec)
        done = []

        def scenario():
            # Keep disk 0 busy while others idle out.
            for _ in range(20):
                event = array.submit(
                    IORequest(lba=0, size=8, is_read=True,
                              arrival_time=env.now, source_disk=0)
                )
                yield event
                yield env.timeout(200.0)
            done.extend(array.spun_down_members())

        env.process(scenario())
        env.run()
        assert 0 not in done
        assert {1, 2} <= set(done)


class TestSpinUp:
    def test_request_to_sleeping_member_pays_spinup(self, tiny_spec):
        env, array = build(tiny_spec)
        responses = {}

        def scenario():
            yield env.timeout(3000.0)  # everyone asleep
            request = IORequest(
                lba=0, size=8, is_read=True, arrival_time=env.now,
                source_disk=1,
            )
            yield array.submit(request)
            responses["cold"] = request.response_time
            follow = IORequest(
                lba=5000, size=8, is_read=True, arrival_time=env.now,
                source_disk=1,
            )
            yield array.submit(follow)
            responses["warm"] = follow.response_time

        env.process(scenario())
        env.run()
        assert responses["cold"] >= 1000.0
        assert responses["warm"] < 100.0
        assert array.total_spin_ups() == 1

    def test_concurrent_requests_share_one_spinup(self, tiny_spec):
        env, array = build(tiny_spec)
        done = []

        def scenario():
            yield env.timeout(3000.0)
            events = [
                array.submit(
                    IORequest(lba=i * 1000, size=8, is_read=True,
                              arrival_time=env.now, source_disk=2)
                )
                for i in range(4)
            ]
            yield env.all_of(events)
            done.append(env.now)

        env.process(scenario())
        env.run()
        assert array.total_spin_ups() == 1


class TestPower:
    def test_sleeping_array_draws_standby_power(self, tiny_spec):
        env, array = build(tiny_spec)

        def scenario():
            yield env.timeout(60_000.0)

        env.process(scenario())
        env.run()
        watts = array.average_power_watts()
        # 3 members mostly in 1 W standby: far below 3x idle power.
        assert watts < 3 * 3.0

    def test_power_validates_elapsed(self, tiny_spec):
        env, array = build(tiny_spec)
        with pytest.raises(ValueError):
            array.average_power_watts(elapsed_ms=0)

    def test_busy_array_draws_more(self, tiny_spec):
        def watts(active):
            env, array = build(tiny_spec)

            def scenario():
                if active:
                    for index in range(30):
                        event = array.submit(
                            IORequest(
                                lba=index * 100,
                                size=8,
                                is_read=True,
                                arrival_time=env.now,
                                source_disk=index % 3,
                            )
                        )
                        yield event
                        yield env.timeout(100.0)
                else:
                    yield env.timeout(3000.0)

            env.process(scenario())
            env.run()
            return array.average_power_watts()

        assert watts(True) > watts(False)
