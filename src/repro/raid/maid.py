"""MAID: massive arrays of idle disks (Colarelli & Grunwald, SC '02).

The third related-work energy approach the paper cites (§5): for
archival arrays, keep most members spun down and pay a spin-up delay
on access.  MAID trades latency for power on cold data — the opposite
end of the spectrum from intra-disk parallelism, which keeps one hot
drive fast.

:class:`MaidArray` wraps member drives with per-drive spin state:

* a member idle longer than ``spin_down_idle_ms`` spins down
  (``standby_watts`` instead of full idle power);
* a request to a spun-down member stalls for ``spin_up_ms`` while the
  spindle comes back up;
* per-drive spun-down residency feeds :meth:`average_power_watts`.

The model deliberately omits MAID's optional cache drives: the
comparison of interest here is spin-down policy vs intra-disk
parallelism on the same member set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.power.accounting import drive_power
from repro.raid.array import DiskArray
from repro.raid.layout import Layout
from repro.sim.engine import Environment, Event

__all__ = ["MaidArray"]


class _SpinState:
    """Spin bookkeeping for one member drive."""

    __slots__ = (
        "spun_down",
        "last_activity",
        "spun_down_ms",
        "down_since",
        "spin_ups",
        "ready_event",
    )

    def __init__(self):
        self.spun_down = False
        self.last_activity = 0.0
        self.spun_down_ms = 0.0
        self.down_since = 0.0
        self.spin_ups = 0
        self.ready_event: Optional[Event] = None


class MaidArray(DiskArray):
    """A disk array with MAID-style per-member spin-down.

    Parameters
    ----------
    spin_down_idle_ms:
        Idle time after which a member spins down.
    spin_up_ms:
        Delay a request pays when it finds its member spun down.
    standby_watts:
        Power drawn by a spun-down member (electronics only).
    """

    def __init__(
        self,
        env: Environment,
        drives: Sequence[ConventionalDrive],
        layout: Layout,
        spin_down_idle_ms: float = 2000.0,
        spin_up_ms: float = 6000.0,
        standby_watts: float = 1.0,
        label: Optional[str] = None,
    ):
        if spin_down_idle_ms <= 0:
            raise ValueError("spin_down_idle_ms must be positive")
        if spin_up_ms < 0:
            raise ValueError("spin_up_ms must be non-negative")
        if standby_watts < 0:
            raise ValueError("standby_watts must be non-negative")
        super().__init__(env, drives, layout, label=label or "maid")
        self.spin_down_idle_ms = spin_down_idle_ms
        self.spin_up_ms = spin_up_ms
        self.standby_watts = standby_watts
        self._spin: Dict[int, _SpinState] = {
            index: _SpinState() for index in range(len(drives))
        }
        env.process(self._spin_controller())
        self._controller_wakeup: Optional[Event] = None

    # -- spin management -----------------------------------------------------
    def spun_down_members(self) -> List[int]:
        return [
            index
            for index, state in self._spin.items()
            if state.spun_down
        ]

    def total_spin_ups(self) -> int:
        return sum(state.spin_ups for state in self._spin.values())

    def _spin_controller(self):
        """Spin idle members down; parks when everything is down."""
        while True:
            now = self.env.now
            all_down = True
            for index, state in self._spin.items():
                if state.spun_down:
                    continue
                if state.ready_event is not None:
                    # A wake is in flight; never yank it back down.
                    all_down = False
                    continue
                drive = self.drives[index]
                idle_for = now - max(
                    state.last_activity, 0.0
                )
                if drive.outstanding == 0 and (
                    idle_for >= self.spin_down_idle_ms
                ):
                    state.spun_down = True
                    state.down_since = now
                else:
                    all_down = False
            if all_down and self.outstanding == 0:
                self._controller_wakeup = self.env.event()
                yield self._controller_wakeup
                self._controller_wakeup = None
            else:
                yield self.env.timeout(self.spin_down_idle_ms / 4.0)

    def _wake_member(self, index: int):
        """Spin a member up; concurrent wakers share one spin-up."""
        state = self._spin[index]
        if not state.spun_down:
            return
        if state.ready_event is None:
            state.ready_event = self.env.event()
            yield self.env.timeout(self.spin_up_ms)
            state.spun_down_ms += self.env.now - state.down_since
            state.spun_down = False
            state.spin_ups += 1
            # Stamp activity now: the spin controller may tick at this
            # exact instant and must not see a stale idle time.
            state.last_activity = self.env.now
            ready, state.ready_event = state.ready_event, None
            ready.succeed()
        else:
            yield state.ready_event

    def submit(self, request: IORequest) -> Event:
        slices = self._map(request)
        self._check_capacity(request, slices)
        if self._controller_wakeup is not None and (
            not self._controller_wakeup.triggered
        ):
            self._controller_wakeup.succeed()
        completion = self.env.event()
        self._outstanding[request.request_id] = completion
        self.env.process(self._run_with_spinup(request, slices, completion))
        return completion

    def _run_with_spinup(self, request, slices, completion):
        # Wake every member this request touches, in parallel.
        members = sorted({piece.disk for piece in slices})
        wakes = [
            self.env.process(self._wake_member(index))
            for index in members
            if self._spin[index].spun_down
            or self._spin[index].ready_event is not None
        ]
        if wakes:
            yield self.env.all_of(wakes)
        for index in members:
            self._spin[index].last_activity = self.env.now
        yield from self._run(request, slices, completion)
        for index in members:
            self._spin[index].last_activity = self.env.now

    # -- power ---------------------------------------------------------------
    def average_power_watts(self, elapsed_ms: Optional[float] = None) -> float:
        """Residency-weighted array power, counting standby savings."""
        elapsed = elapsed_ms if elapsed_ms is not None else self.env.now
        if elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed}")
        total = 0.0
        for index, drive in enumerate(self.drives):
            state = self._spin[index]
            down_ms = state.spun_down_ms
            if state.spun_down:
                down_ms += elapsed - state.down_since
            down_ms = min(down_ms, elapsed)
            spinning_ms = elapsed - down_ms
            spinning_power = drive_power(drive, elapsed).total_watts
            total += (
                spinning_power * (spinning_ms / elapsed)
                + self.standby_watts * (down_ms / elapsed)
            )
        return total
