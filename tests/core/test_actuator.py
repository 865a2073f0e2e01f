"""Tests for arm-assembly state."""

import pytest

from repro.disk.actuator import ArmAssembly


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArmAssembly(0, mount_angle=1.5)
        with pytest.raises(ValueError):
            ArmAssembly(0, mount_angle=0.0, initial_cylinder=-1)

    def test_default_single_head(self):
        arm = ArmAssembly(0, mount_angle=0.25)
        assert arm.heads_per_surface == 1
        assert arm.head_angles() == [0.25]


class TestHeadAngles:
    def test_offsets_are_relative_to_mount(self):
        arm = ArmAssembly(1, mount_angle=0.5, head_offsets=[0.0, 0.25])
        assert arm.head_angles() == [0.5, 0.75]

    def test_angles_wrap(self):
        arm = ArmAssembly(1, mount_angle=0.9, head_offsets=[0.0, 0.2])
        angles = arm.head_angles()
        assert angles[1] == pytest.approx(0.1)

    def test_mount_angle_write_moves_the_heads(self):
        arm = ArmAssembly(1, mount_angle=0.5, head_offsets=[0.0, 0.25])
        arm.mount_angle = 0.0
        assert arm.mount_angle == 0.0
        assert arm.head_angles() == [0.0, 0.25]
        with pytest.raises(ValueError):
            arm.mount_angle = 1.5
        assert arm.head_angles() == [0.0, 0.25]


class TestBestHeadLatency:
    def test_selects_minimum_head(self):
        arm = ArmAssembly(0, mount_angle=0.0, head_offsets=[0.0, 0.25])

        def latency_fn(time_ms, sector_angle, head_angle):
            # Pretend latency = angular distance (sector - head).
            return ((sector_angle - head_angle) % 1.0) * 10.0

        latency, head = arm.best_head_latency(latency_fn, 0.0, 0.3)
        assert head == 1  # head at 0.25 is closer to 0.3
        assert latency == pytest.approx(0.5)


class TestState:
    def test_is_idle_uses_busy_until(self):
        arm = ArmAssembly(0, mount_angle=0.0)
        assert arm.is_idle(0.0)
        arm.busy_until = 10.0
        assert not arm.is_idle(5.0)
        assert arm.is_idle(10.0)

    def test_record_service_accumulates(self):
        arm = ArmAssembly(0, mount_angle=0.0)
        arm.record_service(2.0)
        arm.record_service(0.0)
        assert arm.requests_serviced == 2
        assert arm.seeks == 1
        assert arm.seek_time_ms == pytest.approx(2.0)

    def test_move_to_validates(self):
        arm = ArmAssembly(0, mount_angle=0.0)
        arm.move_to(500)
        assert arm.cylinder == 500
        with pytest.raises(ValueError):
            arm.move_to(-1)
