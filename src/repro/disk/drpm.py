"""DRPM: dynamic-RPM disks (Gurumurthi et al., ISCA '03 — paper §5).

The incumbent approach to server-disk power management that the paper
positions intra-disk parallelism against: instead of adding actuators
and designing for a lower static RPM, a DRPM drive *modulates* its
spindle speed at runtime — spinning down through a ladder of RPM
levels when load is light and back up when a queue builds, paying a
transition delay each step.

:class:`DynamicRpmDrive` implements the mechanism at the level this
package needs for the comparison benchmark:

* a ladder of RPM levels (full speed first);
* a control-loop process sampling queue depth every
  ``control_interval_ms`` — spin down one level after a sustained idle
  period, spin straight up to full speed when the queue exceeds a
  threshold;
* transitions take ``transition_ms_per_step`` per level and block
  service (requests keep queueing);
* per-level residency accounting, from which
  :meth:`average_power_watts` integrates the near-cubic RPM/power law.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.disk.drive import ConventionalDrive
from repro.disk.scheduler import QueueScheduler
from repro.disk.specs import DriveSpec
from repro.power.models import DrivePowerModel
from repro.sim.engine import Environment

__all__ = ["DynamicRpmDrive"]

#: The RPM ladder of the original DRPM proposal (subset).
DEFAULT_RPM_LEVELS = (7200.0, 6200.0, 5200.0, 4200.0)


class DynamicRpmDrive(ConventionalDrive):
    """A conventional drive with dynamic spindle-speed control.

    Parameters
    ----------
    rpm_levels:
        Available speeds, highest (service speed) first.
    spin_down_idle_ms:
        Sustained idle time before stepping one level down.
    spin_up_queue_depth:
        Queue depth that triggers an immediate return to full speed.
    transition_ms_per_step:
        Service blackout per level crossed during a transition.
    control_interval_ms:
        Control-loop sampling period.
    """

    def __init__(
        self,
        env: Environment,
        spec: DriveSpec,
        scheduler: Optional[QueueScheduler] = None,
        rpm_levels=DEFAULT_RPM_LEVELS,
        spin_down_idle_ms: float = 200.0,
        spin_up_queue_depth: int = 1,
        transition_ms_per_step: float = 50.0,
        control_interval_ms: float = 10.0,
        **kwargs,
    ):
        levels = [float(level) for level in rpm_levels]
        if not levels:
            raise ValueError("need at least one RPM level")
        if levels != sorted(levels, reverse=True):
            raise ValueError(
                f"rpm_levels must be highest-first, got {levels}"
            )
        if spec.rpm != levels[0]:
            spec = dataclasses.replace(spec, rpm=levels[0])
        super().__init__(env, spec, scheduler=scheduler, **kwargs)
        self.rpm_levels: List[float] = levels
        self.spin_down_idle_ms = spin_down_idle_ms
        self.spin_up_queue_depth = spin_up_queue_depth
        self.transition_ms_per_step = transition_ms_per_step
        self.control_interval_ms = control_interval_ms

        self._level_index = 0
        self._last_activity = 0.0
        self._transition_until = 0.0
        #: Milliseconds spent at each RPM level (includes transitions,
        #: charged to the destination level).
        self.rpm_residency_ms: Dict[float, float] = {
            level: 0.0 for level in levels
        }
        self._residency_marker = 0.0
        self.transitions = 0
        self._control_wakeup = None
        env.process(self._control_loop())

    # -- state ------------------------------------------------------------
    @property
    def current_rpm(self) -> float:
        return self.rpm_levels[self._level_index]

    @property
    def at_full_speed(self) -> bool:
        return self._level_index == 0

    def _note_residency(self) -> None:
        now = self.env.now
        self.rpm_residency_ms[self.current_rpm] += (
            now - self._residency_marker
        )
        self._residency_marker = now

    # -- control loop -------------------------------------------------------
    def submit(self, request, done=None):
        event = super().submit(request, done)
        if self._control_wakeup is not None and (
            not self._control_wakeup.triggered
        ):
            self._control_wakeup.succeed()
        return event

    def _control_loop(self):
        while True:
            # Park at the bottom of the ladder while idle: the loop
            # resumes on the next submission, so an idle drive does not
            # keep the event schedule alive forever.
            if (
                self.outstanding == 0
                and self._level_index == len(self.rpm_levels) - 1
            ):
                self._control_wakeup = self.env.event()
                yield self._control_wakeup
                self._control_wakeup = None
                self._last_activity = self.env.now
            yield self.env.timeout(self.control_interval_ms)
            if self.outstanding > 0:
                self._last_activity = self.env.now
                if (
                    not self.at_full_speed
                    and self.outstanding >= self.spin_up_queue_depth
                ):
                    yield from self._transition_to(0)
                continue
            idle_for = self.env.now - self._last_activity
            if (
                idle_for >= self.spin_down_idle_ms
                and self._level_index < len(self.rpm_levels) - 1
            ):
                yield from self._transition_to(self._level_index + 1)
                # Restart the idle clock so each further step requires
                # another sustained idle period.
                self._last_activity = self.env.now

    def _transition_to(self, index: int):
        if index == self._level_index:
            return
        steps = abs(index - self._level_index)
        self._note_residency()
        self._level_index = index
        delay = steps * self.transition_ms_per_step
        self._transition_until = self.env.now + delay
        self.transitions += 1
        # Change speed in place: the drive keeps its own spindle phase
        # (a fresh Spindle would restart every drive at phase 0, in
        # lockstep with the rest of its array).
        self.spindle.rpm = self.current_rpm
        yield self.env.timeout(delay)

    # -- service hooks ---------------------------------------------------------
    def _service(self, request):
        self._last_activity = self.env.now
        # Service stalls while the spindle settles at a new speed.
        remaining = self._transition_until - self.env.now
        if remaining > 0:
            yield self.env.timeout(remaining)
        yield from super()._service(request)
        self._last_activity = self.env.now

    # -- power ---------------------------------------------------------------
    def average_power_watts(self, elapsed_ms: Optional[float] = None) -> float:
        """Residency-weighted average power.

        Integrates the idle power of each RPM level over its residency
        plus the VCM/transfer energy of the activity recorded in
        ``stats`` (charged at full-speed mode powers, a conservative
        upper bound since DRPM serves at full speed).
        """
        self._note_residency()
        elapsed = elapsed_ms if elapsed_ms is not None else self.env.now
        if elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed}")
        energy_mj = 0.0
        for level, residency in self.rpm_residency_ms.items():
            model = DrivePowerModel.from_spec(
                dataclasses.replace(self.spec, rpm=level)
            )
            energy_mj += model.idle_watts * residency
        full = DrivePowerModel.from_spec(self.spec)
        energy_mj += full.vcm_watts * self.stats.seek_ms
        energy_mj += full.transfer_extra_watts * self.stats.transfer_ms
        return energy_mj / elapsed
