"""Arm-assembly (actuator) state.

Every drive owns one assembly per actuator: a conventional drive has
one, an HC-SD-SA(n) drive has ``n``.  Each assembly tracks its own
radial position (cylinder), its angular mount position around the
spindle, and per-arm activity statistics.  The VCM of an assembly
consumes power only while that assembly seeks, which is why per-arm
seek-time accounting matters for the power model (paper §7.2:
Websearch's seek residency rises from 55 % to 90 % going from one to
four arms).
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["ArmAssembly"]


class ArmAssembly:
    """One independently movable arm assembly."""

    def __init__(
        self,
        arm_id: int,
        mount_angle: float,
        initial_cylinder: int = 0,
        head_offsets: Optional[List[float]] = None,
    ):
        if initial_cylinder < 0:
            raise ValueError(
                f"initial_cylinder must be non-negative, got {initial_cylinder}"
            )
        self.arm_id = arm_id
        self.cylinder = initial_cylinder
        #: Angular offsets of this arm's heads (H-dimension); the first
        #: head sits at offset 0 relative to the mount angle.
        self.head_offsets = list(head_offsets) if head_offsets else [0.0]
        self.mount_angle = mount_angle
        #: Simulated time until which this assembly is committed to an
        #: in-flight request (used by the overlapped extensions).
        self.busy_until = 0.0
        #: Set when SMART-style monitoring deconfigures the assembly
        #: (paper §8, graceful degradation); failed arms never service
        #: or reposition again.
        self.failed = False
        # -- statistics
        self.requests_serviced = 0
        self.seek_time_ms = 0.0
        self.seeks = 0

    @property
    def mount_angle(self) -> float:
        """Angular position of the assembly around the spindle."""
        return self._mount_angle

    @mount_angle.setter
    def mount_angle(self, angle: float) -> None:
        if not 0.0 <= angle < 1.0:
            raise ValueError(f"mount_angle must be in [0, 1), got {angle}")
        self._mount_angle = angle
        # The absolute head angles change only here; precompute them so
        # the per-request SPTF search is pure lookups.
        self._head_angles = [
            (angle + offset) % 1.0 for offset in self.head_offsets
        ]

    @property
    def heads_per_surface(self) -> int:
        return len(self.head_offsets)

    def is_idle(self, now: float) -> bool:
        return not self.failed and now >= self.busy_until

    def head_angles(self) -> List[float]:
        """Absolute angular positions of each head around the spindle."""
        return list(self._head_angles)

    def best_head_latency(
        self, latency_fn, time_ms: float, sector_angle: float
    ) -> tuple:
        """Minimum rotational latency over this arm's heads.

        ``latency_fn(time_ms, sector_angle, head_angle)`` must return
        the wait for one head (the spindle's ``latency_to``).  Returns
        ``(latency_ms, head_index)``.
        """
        angles = self._head_angles
        if len(angles) == 1:
            return latency_fn(time_ms, sector_angle, angles[0]), 0
        best_latency = float("inf")
        best_head = 0
        for index, angle in enumerate(angles):
            latency = latency_fn(time_ms, sector_angle, angle)
            if latency < best_latency:
                best_latency = latency
                best_head = index
        return best_latency, best_head

    def record_service(self, seek_ms: float) -> None:
        self.requests_serviced += 1
        self.seek_time_ms += seek_ms
        if seek_ms > 0.0:
            self.seeks += 1

    def move_to(self, cylinder: int) -> None:
        if cylinder < 0:
            raise ValueError(f"cylinder must be non-negative, got {cylinder}")
        self.cylinder = cylinder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArmAssembly(id={self.arm_id}, mount={self.mount_angle:.3f}, "
            f"cyl={self.cylinder}, heads={self.heads_per_surface})"
        )
