"""Replay a :class:`~repro.faults.plan.FaultPlan` against a live system.

The injector is an ordinary simulation process: it sleeps until each
event's instant and then triggers the corresponding existing
primitive — ``inject_media_error`` on a drive, ``deconfigure_arm`` on
a :class:`~repro.core.parallel_disk.ParallelDisk`, ``fail_drive`` /
``rebuild`` on a :class:`~repro.raid.array.DiskArray`.  Nothing about
the request path changes until a fault actually fires, so a run with
an empty plan is bit-identical to a run without an injector at all.

Targets are duck-typed (anything with the drive/array interface
works), which keeps this module free of imports from
:mod:`repro.disk`/:mod:`repro.raid` and the package import-cycle-free.

One plan can be replayed against *different* systems — that is the
whole point of the reliability study, which feeds the same seeded plan
to a 4-drive array and to a single SA(4) drive.  Because the systems
differ in shape (member counts, arm counts, redundancy), the injector
supports a ``kinds`` allowlist and a non-``strict`` mode in which
inapplicable events are skipped and logged rather than raised; the
``applied``/``skipped`` logs make the divergence auditable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.faults.errors import FaultInjectionError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.context import current

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a plan's events against an array and/or bare drives.

    Parameters
    ----------
    env:
        The simulation environment.
    plan:
        The fault plan to replay (events fire in plan order).
    array:
        Optional :class:`DiskArray`; enables ``drive_failure`` and
        ``spare_arrival`` and resolves drive indices against the
        array's *live* member list (so post-rebuild members are hit,
        not the replaced drive).
    drives:
        Drive targets when no array is involved.
    spare_factory:
        Zero-argument callable returning a fresh replacement drive;
        required for ``spare_arrival`` to start a rebuild.
    kinds:
        Optional allowlist of event kinds; events of other kinds are
        skipped (never an error — filtering is how one plan serves
        differently-shaped systems).
    strict:
        When True (default), an event that cannot be applied raises
        :class:`FaultInjectionError` and fails the run; when False it
        is recorded in :attr:`skipped` and the replay continues.
    drive_map:
        ``"strict"`` requires event drive indices to be in range;
        ``"modulo"`` wraps them (used to replay an array-shaped plan
        against a single intra-disk parallel drive, which absorbs the
        media faults of every member it replaces).
    """

    def __init__(
        self,
        env,
        plan: FaultPlan,
        array=None,
        drives: Optional[Sequence] = None,
        spare_factory=None,
        kinds: Optional[Sequence[str]] = None,
        strict: bool = True,
        drive_map: str = "strict",
    ):
        if array is None and drives is None:
            raise ValueError("injector needs an array or drives to target")
        if drive_map not in ("strict", "modulo"):
            raise ValueError(
                f"drive_map must be 'strict' or 'modulo', got {drive_map!r}"
            )
        self.env = env
        self.plan = plan
        self.array = array
        self._drives = list(drives) if drives is not None else None
        self.spare_factory = spare_factory
        self.kinds = tuple(kinds) if kinds is not None else None
        self.strict = strict
        self.drive_map = drive_map
        self.label = getattr(array, "label", None) or "drives"
        self.tracer = current().tracer
        #: Events applied, in replay order.
        self.applied: List[FaultEvent] = []
        #: Events not applied, with the reason.
        self.skipped: List[Tuple[FaultEvent, str]] = []
        #: Rebuild processes started by ``spare_arrival`` events.
        self.rebuilds: List = []
        if array is not None and any(
            event.kind in ("drive_failure", "spare_arrival")
            for event in plan.events
            if self.kinds is None or event.kind in self.kinds
        ):
            # Drive failures abort in-flight requests and rebuilds read
            # survivors mid-run: the sharded kernel must interleave
            # those reactions with completions in global time order.
            array.declare_external_feedback()
        self.process = env.process(self._replay()) if len(plan) else None

    # -- replay -------------------------------------------------------------
    def _replay(self):
        for event in self.plan.events:
            delay = event.time_ms - self.env.now
            if delay > 0.0:
                yield self.env.timeout(delay)
            self._fire(event)

    def _fire(self, event: FaultEvent) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            self._skip(event, "kind filtered out")
            return
        try:
            reason = self._apply(event)
        except FaultInjectionError:
            raise
        except (ValueError, RuntimeError) as exc:
            reason = str(exc)
        if reason is None:
            self.applied.append(event)
            if self.tracer.enabled:
                self.tracer.instant(
                    f"fault-{event.kind}",
                    self.env.now,
                    (self.label, "faults"),
                    args=event.to_dict(),
                )
                self.tracer.telemetry.counter(
                    "repro_faults_injected_total", labels=("kind",)
                ).labels(kind=event.kind).inc()
        else:
            self._skip(event, reason)

    def _skip(self, event: FaultEvent, reason: str) -> None:
        if self.strict and reason != "kind filtered out":
            raise FaultInjectionError(
                f"{self.label}: cannot apply {event.kind} at "
                f"t={event.time_ms:.3f} ms: {reason}"
            )
        self.skipped.append((event, reason))
        if self.tracer.enabled:
            self.tracer.telemetry.counter("repro_faults_skipped_total").inc()

    # -- application --------------------------------------------------------
    def _targets(self) -> List:
        if self.array is not None:
            return list(self.array.drives)
        return list(self._drives)

    def _resolve_drive(self, index: int):
        targets = self._targets()
        if self.drive_map == "modulo":
            return targets[index % len(targets)]
        if not 0 <= index < len(targets):
            raise ValueError(
                f"drive index {index} out of range [0, {len(targets)})"
            )
        return targets[index]

    def _apply(self, event: FaultEvent) -> Optional[str]:
        """Apply one event; returns None on success, else a skip reason."""
        if event.kind in ("transient", "latent"):
            drive = self._resolve_drive(event.drive)
            if not hasattr(drive, "inject_media_error"):
                return f"target {drive!r} cannot take media errors"
            lba = event.lba
            if (
                lba is not None
                and lba >= drive.geometry.total_sectors
            ):
                return (
                    f"lba {lba} beyond drive capacity "
                    f"{drive.geometry.total_sectors}"
                )
            drive.inject_media_error(attempts=event.attempts, lba=lba)
            return None
        if event.kind == "arm_failure":
            drive = self._resolve_drive(event.drive)
            if not hasattr(drive, "deconfigure_arm"):
                return "target drive has no deconfigurable arms"
            if drive.healthy_arm_count <= 1:
                return "last healthy arm cannot be deconfigured"
            drive.deconfigure_arm(event.arm)
            return None
        if event.kind == "drive_failure":
            if self.array is None:
                return "drive_failure needs an array target"
            self.array.fail_drive(event.drive)
            return None
        if event.kind == "spare_arrival":
            if self.array is None:
                return "spare_arrival needs an array target"
            if self.spare_factory is None:
                return "no spare_factory configured"
            if self.array.failed_disk is None:
                return "array is not degraded"
            self.rebuilds.append(
                self.array.rebuild(self.spare_factory())
            )
            return None
        return f"unknown kind {event.kind!r}"
